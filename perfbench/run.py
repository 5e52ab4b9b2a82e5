#!/usr/bin/env python3
"""Benchmark of screwalg.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program under test is ``src/screwalg``
of the same tree, measured from outside only: as ``python -m screwalg.cli``
processes, or as one child process that imports ``screwalg`` and calls its
public functions.  Inputs are generated from ``--seed``; every output is
checked.  Times are reported in reference seconds: wall time scaled by the
speed of the CPU at the time, as ``harness.SpeedProbe`` samples it.

With ``--trace 0`` the last line of stdout is one JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are
its per-layer metrics, taken from the probes in ``probes.py`` and from spans
kept around each request and public call.  The line before it is a report
that stamps the run (commit, versions, CPUs, load, BLAS threads, seed, the
spread of each metric), lists failing inputs, and gives the outcomes of the
known weak spots that ``defects.py`` measures outside the workloads.
Generated scenes, spans and a run history go to ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from harness import SpeedProbe, Spans, median, self_times_ms, spawn, spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 12
HISTORY_RUNS = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Context:
    def __init__(self, args):
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.python = sys.executable
        self.work = HERE / ".work"
        self.work.mkdir(exist_ok=True)
        self.spans = Spans()
        self.speed: SpeedProbe | None = None
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        # Set-up is measured with a warm bytecode cache.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _python(ctx, code: str) -> str:
    sp = spawn([ctx.python, "-c", code], ctx.env, ctx.root, ctx.work)
    if sp.code != 0:
        sys.stderr.write(sp.stderr.decode(errors="replace"))
        raise SystemExit(f"benchmark: the program does not import (exit {sp.code})")
    return sp.stdout.decode()


def measure_setup(ctx, repeats: int) -> tuple[list[float], list[float]]:
    """Time of a fresh interpreter until ``import screwalg.cli`` returns,
    ``repeats`` times, in reference and in wall seconds.  The bytecode cache
    is already warm: the version check in ``main`` imported the same modules
    first."""
    ref, walls = [], []
    for _ in range(repeats):
        sp = spawn([ctx.python, "-c", "import screwalg.cli"], ctx.env, ctx.root, ctx.work)
        if sp.code != 0:
            raise SystemExit(f"benchmark: import screwalg.cli exited with {sp.code}")
        ref.append(sp.wall_s * ctx.speed.factor(sp.start, sp.end))
        walls.append(sp.wall_s)
    return ref, walls


def known_defects(ctx) -> dict:
    """Outcomes of the inputs kept out of the workloads (``defects.py``),
    run untimed after the measurements."""
    sp = spawn([ctx.python, str(HERE / "defects.py"), "--seed", str(ctx.seed)],
               ctx.env, ctx.root, ctx.work)
    if sp.code != 0:
        sys.stderr.write(sp.stderr.decode(errors="replace"))
        raise SystemExit(f"benchmark: defects.py exited with {sp.code}")
    return json.loads(sp.stdout.decode().splitlines()[-1])


def stamp(ctx, versions: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": ctx.seed,
        "seconds": ctx.seconds,
    }


def history_spread(ctx, workload: str, metrics: dict) -> dict:
    """Append this run to the history in the work directory and return the
    spread (interquartile range over median) of each metric over the last
    runs of the same workload and trace mode."""
    path = ctx.work / "history.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "trace": int(ctx.trace), "metrics": metrics}) + "\n")
    runs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    runs = [r["metrics"] for r in runs if r["workload"] == workload and r["trace"] == int(ctx.trace)]
    runs = runs[-HISTORY_RUNS:]
    return {"runs": len(runs),
            "spread": {k: spread([r[k] for r in runs if k in r]) for k in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "screwalg" / "__init__.py").is_file():
        print(f"benchmark: no program at {ROOT / 'src' / 'screwalg'}", file=sys.stderr)
        return 2
    # One CPU for the driver, its speed probe and the program (see
    # SpeedProbe); the machine's other CPUs stay idle.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ctx = Context(args)
    declared = declared_metrics()
    versions = json.loads(_python(ctx, "import json, numpy, screwalg.cli; print(json.dumps("
                                       "{'numpy': numpy.__version__, 'file': screwalg.__file__}))"))
    if not Path(versions["file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"benchmark: screwalg imported from {versions['file']}, not this tree")

    load_before = os.getloadavg()
    with SpeedProbe() as ctx.speed:
        # Half of the set-up samples before the workload and half after, so
        # a slow phase of a shared machine does not decide the median alone.
        setup, setup_wall = measure_setup(ctx, SETUP_REPEATS // 2)
        res = WORKLOADS[args.workload](ctx)
        more, more_wall = measure_setup(ctx, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup += more
    setup_wall += more_wall
    per_layer = {}
    if ctx.trace:
        per_layer = probes.run(ctx)
        per_layer["trace.overhead_share"] = res["work_per_s"] / res["traced_work_per_s"] - 1.0
        ctx.spans.write(ctx.work / f"spans-{args.workload}-{args.seed}.jsonl")
    load_after = os.getloadavg()
    defects = known_defects(ctx)

    e2e = {
        "setup_s": median(setup),
        "p50_ms": res["p50_s"] * 1e3,
        "work_per_s": res["work_per_s"],
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    kind = "per_layer" if ctx.trace else "end_to_end"
    values = per_layer if ctx.trace else e2e
    if set(values) != set(declared[kind]):
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(declared[kind]))} "
                         f"do not match the {kind} list of BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": declared[kind][k]} for k in declared[kind]}

    report = {
        "workload": args.workload,
        "trace": int(ctx.trace),
        "stamp": {**stamp(ctx, versions), "cpu": cpu,
                  "loadavg_before": load_before, "loadavg_after": load_after},
        "speed_probe": {"ref_s": SpeedProbe.REF_S, "samples": len(ctx.speed.loop_s),
                        "median_s": median(ctx.speed.loop_s), "spread": spread(ctx.speed.loop_s)},
        "wall": {"setup_s": median(setup_wall), "p50_ms": res["wall_p50_s"] * 1e3,
                 "work_per_s": res["wall_work_per_s"]},
        "within_run_spread": {"setup_s": spread(setup), "work_per_s": spread(res["round_rates"])},
        "run_to_run": history_spread(ctx, args.workload, {k: v["value"] for k, v in metrics.items()}),
        "latency": {"p50_ms": res["p50_s"] * 1e3, "p90_ms": res["p90_s"] * 1e3,
                    "samples": res["samples"], "beyond_p90": res["samples"] // 10},
        "work_unit": res["work_unit"],
        "failed_ratio": res["failed"] / res["attempted"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "known_defects": defects,
    }
    if ctx.trace:
        report["self_ms"] = self_times_ms(ctx.spans.records)
        report["traced_work_per_s"] = res["traced_work_per_s"]
        report["untraced_work_per_s"] = res["work_per_s"]

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:14s} {'failed_ratio':38s} {report['failed_ratio']:>16.6g} "
          f"({res['failed']}/{res['attempted']})")
    for name, d in defects.items():
        print(f"{args.workload:14s} {'known_defects.' + name:38s} {d['failed']:>16d} "
              f"of {d['attempted']} (not counted; see defects.py)")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
