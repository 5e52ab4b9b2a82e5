"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from harness import SpeedProbe, Spans, percentile, spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fixtures():
    return workloads.load_fixtures(ROOT)


def test_generator_is_deterministic():
    fixtures, goldens = _fixtures()

    def draw(seed):
        rng = random.Random(seed)
        return (gen.cli_requests(rng, 4, fixtures, goldens),
                gen.sim_requests(random.Random(seed), 4),
                gen.algebra_stream(random.Random(seed), 3))

    first, again, other = draw(7), draw(7), draw(8)
    assert [r["text"] for r in first[0]] == [r["text"] for r in again[0]]
    assert [r["text"] for r in first[1]] == [r["text"] for r in again[1]]
    assert first[2] == again[2]
    assert [r["text"] for r in first[0]] != [r["text"] for r in other[0]]
    assert first[2] != other[2]
    # The mix of request kinds does not depend on the seed.
    assert [(r["sub"], r["mode"], r["golden"] is None) for r in first[0]] == \
        [(r["sub"], r["mode"], r["golden"] is None) for r in other[0]]
    assert [item[:2] for item in first[2]] == [item[:2] for item in other[2]]


def test_sim_scenes_have_exact_initial_momenta():
    from fractions import Fraction
    for seed in range(5):
        scene, facts = gen.sim_scene(random.Random(seed), "tumble", 3 + seed, 100)
        masses = [p["m"] for p in scene["masses"]]
        total = sum(masses)
        assert total == 2 ** int(total).bit_length() / 2  # a power of two
        for k in range(3):
            exact = sum(Fraction(p["m"]) * Fraction(p["velocity"][k]) for p in scene["masses"])
            assert Fraction(facts["linear"][k]) == exact


def test_percentile_on_known_data():
    data = [7.0, 1.0, 3.0, 10.0, 2.0, 5.0, 4.0, 6.0, 9.0, 8.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 10.0
    assert percentile(data, 50) == 5.5
    assert percentile(data, 90) == pytest.approx(9.1)
    assert percentile([4.0], 90) == 4.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0 / 3.0)
    assert spread([1.0]) is None


def test_speed_factor_uses_the_samples_around_an_interval():
    probe = SpeedProbe()
    probe.times = [1.0, 2.0, 3.0, 4.0, 5.0]
    probe.loop_s = [1e-3, 2e-3, 2e-3, 4e-3, 1e-3]
    # Samples at 2, 3 and 4 s: the ones before 2.5 s and after 3.5 s.
    assert probe.factor(2.5, 3.5) == pytest.approx(SpeedProbe.REF_S / (8e-3 / 3))
    assert probe.factor(0.0, 0.5) == pytest.approx(SpeedProbe.REF_S / 1e-3)
    assert probe.factor(9.0, 9.5) == pytest.approx(SpeedProbe.REF_S / 1e-3)
    with SpeedProbe() as live:
        assert live.loop_s and live.factor(0.0, time.perf_counter()) > 0


def test_unreadable_output_is_a_failure_not_a_crash():
    fixtures, goldens = _fixtures()
    reqs = gen.cli_requests(random.Random(1), 2, fixtures, goldens)
    for req in reqs:
        assert checks.check_cli(req, 0, b"{not json", b"") is not None
        assert checks.check_cli(req, 1, b"", b"Traceback (most recent call last):") is not None
    sim = gen.sim_requests(random.Random(1), 2)
    for req in sim:
        assert checks.check_sim(req, 0, b"[]", b"") is not None


def test_corrupted_golden_is_counted_as_failed(tmp_path):
    fixtures, goldens = _fixtures()
    req = next(r for r in gen.cli_requests(random.Random(1), 1, fixtures, goldens)
               if r["golden"] is not None)
    good = dict(req)
    bad = dict(req, golden=req["golden"].replace(b"0", b"1", 1))
    scene = tmp_path / "scene.json"
    scene.write_text(req["text"], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def argv_of(r):
        return [sys.executable, "-m", "screwalg.cli", r["sub"], str(scene), "--json"]

    with SpeedProbe() as speed:
        ctx = SimpleNamespace(root=ROOT, env=env, work=tmp_path, python=sys.executable,
                              seconds=0.0, trace=False, spans=Spans(), speed=speed)
        res = workloads._process_rounds(ctx, [[good, bad]], argv_of, checks.check_cli,
                                        lambda r: 1.0, lambda r: "cli", "requests/s")
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert res["failures"][0]["reason"] == "output differs from its golden"


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, kind):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "algebra-mix", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[1] for ln in lines[:-1] if not ln.startswith("report ")}
    assert {p for p in printed if not p.startswith("known_defects.")} - {"failed_ratio"} \
        == set(declared)
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
    assert set(report["known_defects"]) == {"small_angle", "large_moment"}


def test_predictions_name_declared_metrics_and_workloads():
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(predictions["per_layer"]) == per_layer
    for entry in predictions["per_layer"].values():
        for link in entry["moves"] + entry["no_change"]:
            assert link["metric"] in e2e and link["workload"] in names
    assert set(predictions["workloads"]) == names


def test_empty_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
