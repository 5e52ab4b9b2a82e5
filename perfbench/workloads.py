"""The three workloads.  Each is a closed loop with one client: the next
request starts only after the previous one has finished, and at most one
program process runs at a time.

A workload returns a summary dict: the median and 90th percentile of the
per-request time with the sample count, work done per second, the peak
resident set size of any program process, the work rate of each round (for
the within-run spread), and the failures of its output checks.  Times are in
reference seconds (``harness.SpeedProbe``); the median time and the work
rate in wall seconds go along for the report.
In a traced run, rounds alternate between traced and untraced, so both are
measured under the same conditions; the end-to-end numbers come from the
untraced rounds, and their difference from the traced ones is the tracing
overhead.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import checks
import gen
from harness import mean, median, percentile, spawn

# cli-oneshot keeps going past --seconds until this many untraced requests
# have run, so at least ten samples lie beyond its 90th percentile.
CLI_MIN_REQUESTS = 100
CLI_ROUNDS = 24
SIM_ROUNDS = 12
# Hard stop for any loop, well inside the 180 s a run may take.
LOOP_CAP_S = 120.0
MAX_LISTED = 20


def load_fixtures(root: Path) -> tuple[dict, dict]:
    """Fixture scenes and the CLI goldens, read from the test tree at run
    time.  A golden is named ``<subcommand>_<scene>.json``."""
    fixtures = {p.stem: p.read_text(encoding="utf-8")
                for p in sorted((root / "tests" / "scenes").glob("*.json"))}
    goldens = {}
    for p in sorted((root / "tests" / "goldens").glob("*.json")):
        sub, scene = p.stem.split("_", 1)
        goldens[(sub, scene)] = p.read_bytes()
    if not fixtures or not goldens:
        raise SystemExit("benchmark: tests/scenes or tests/goldens is missing")
    return fixtures, goldens


def _import_us(stderr: bytes) -> tuple[int | None, bytes]:
    """Split ``-X importtime`` lines off a child's stderr; return the
    cumulative import time of the ``screwalg`` package (``-m screwalg.cli``
    imports it before running the module) and the remaining stderr."""
    cumulative = None
    rest = []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(b"import time:"):
            parts = line.split(b"|")
            if len(parts) == 3 and parts[2].strip() == b"screwalg":
                cumulative = int(parts[1])
        else:
            rest.append(line)
    return cumulative, b"".join(rest)


class _Outcomes:
    """Counts of checked and failed requests, listing the first few
    distinct failing inputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}

    def add(self, label: str, failure) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            if len(self.failures) < MAX_LISTED:
                self.failures.setdefault(label, failure)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": [{"request": k, "reason": v} for k, v in self.failures.items()]}


def _process_rounds(ctx, rounds, argv_of, check, work_of, span_name, unit, min_requests=0):
    """Run whole rounds of program processes until --seconds have passed
    (and ``min_requests`` untraced requests have run)."""
    outcomes = _Outcomes()
    walls, traced_walls, round_rates, raw_walls = [], [], [], []
    work = traced_work = 0.0
    maxrss = 0
    start = time.perf_counter()
    n = 0
    while True:
        traced = ctx.trace and n % 2 == 1
        round_wall = round_work = 0.0
        for req in rounds[n % len(rounds)]:
            argv = argv_of(req)
            if traced:
                argv = argv[:1] + ["-X", "importtime"] + argv[1:]
            sid = ctx.spans.open(span_name(req), outcomes.attempted) if traced else -1
            sp = spawn(argv, ctx.env, ctx.root, ctx.work)
            ctx.spans.close(sid)
            stderr = sp.stderr
            if traced:
                import_us, stderr = _import_us(stderr)
                if import_us is not None:
                    t0 = ctx.spans.records[sid][2]
                    ctx.spans.add("import.screwalg", t0, t0 + import_us * 1000, sid,
                                  outcomes.attempted)
            outcomes.add(f"{req.get('sub', 'simulate')} {req['mode']} {req['scene'] or '-'}",
                         check(req, sp.code, sp.stdout, stderr))
            maxrss = max(maxrss, sp.maxrss_kb)
            ref_s = sp.wall_s * ctx.speed.factor(sp.start, sp.end)
            round_wall += ref_s
            round_work += work_of(req)
            (traced_walls if traced else walls).append(ref_s)
            if not traced:
                raw_walls.append(sp.wall_s)
        if traced:
            traced_work += round_work
        else:
            work += round_work
            round_rates.append(round_work / round_wall)
        n += 1
        elapsed = time.perf_counter() - start
        enough = len(walls) >= min_requests and (not ctx.trace or traced_walls)
        if (elapsed >= ctx.seconds and enough) or elapsed >= LOOP_CAP_S:
            break
    return {
        "p50_s": median(walls), "p90_s": percentile(walls, 90.0), "samples": len(walls),
        "work_per_s": work / sum(walls), "work_unit": unit,
        "traced_work_per_s": traced_work / sum(traced_walls) if traced_walls else None,
        "round_rates": round_rates, "maxrss_kb": maxrss, **outcomes.as_dict(),
        "wall_p50_s": median(raw_walls), "wall_work_per_s": work / sum(raw_walls),
    }


def cli_oneshot(ctx) -> dict:
    fixtures, goldens = load_fixtures(ctx.root)
    reqs = gen.cli_requests(random.Random(ctx.seed), CLI_ROUNDS, fixtures, goldens)
    scenes = ctx.work / "scenes"
    scenes.mkdir(exist_ok=True)
    for req in reqs:
        if req["text"] is not None:
            (scenes / f"{req['scene']}.json").write_text(req["text"], encoding="utf-8")

    def argv_of(req):
        argv = [ctx.python, "-m", "screwalg.cli", req["sub"]]
        if req["text"] is not None:
            argv.append(str(scenes / f"{req['scene']}.json"))
        if req["sub"] == "exp":
            argv += ["--t", repr(req["t"])]
        if req["mode"] == "json":
            argv.append("--json")
        return argv

    per_round = len(gen.SUBCOMMANDS) * len(gen.MODES)
    rounds = [reqs[i:i + per_round] for i in range(0, len(reqs), per_round)]
    return _process_rounds(ctx, rounds, argv_of, checks.check_cli, lambda req: 1.0,
                           lambda req: f"cli.{req['sub']}", "requests/s", CLI_MIN_REQUESTS)


def simulate_long(ctx) -> dict:
    reqs = gen.sim_requests(random.Random(ctx.seed), 2 * SIM_ROUNDS)
    scenes = ctx.work / "scenes"
    scenes.mkdir(exist_ok=True)
    for req in reqs:
        (scenes / f"{req['scene']}.json").write_text(req["text"], encoding="utf-8")

    def argv_of(req):
        argv = [ctx.python, "-m", "screwalg.cli", "simulate", str(scenes / f"{req['scene']}.json")]
        return argv + (["--json"] if req["mode"] == "json" else [])

    rounds = [reqs[i:i + 2] for i in range(0, len(reqs), 2)]
    return _process_rounds(ctx, rounds, argv_of, checks.check_sim,
                           lambda req: float(req["facts"]["steps"]),
                           lambda req: f"sim.{req['kind']}", "steps/s")


def algebra_mix(ctx) -> dict:
    """One long-lived child imports screwalg once and runs the seeded call
    stream; it reports per-pass call statistics and check outcomes."""
    spans_path = ctx.work / "child_spans.json"
    argv = [ctx.python, str(Path(__file__).with_name("algebra_child.py")),
            "--seed", str(ctx.seed), "--seconds", repr(float(ctx.seconds)),
            "--trace", "1" if ctx.trace else "0", "--spans", str(spans_path)]
    sp = spawn(argv, ctx.env, ctx.root, ctx.work)
    if sp.code != 0:
        sys.stderr.write(sp.stderr.decode(errors="replace"))
        raise SystemExit(f"benchmark: algebra child exited with {sp.code}")
    s = json.loads(sp.stdout.decode().splitlines()[-1])
    if ctx.trace:
        ctx.spans.records.extend(json.loads(spans_path.read_text()))
    # Each pass is scaled to reference seconds by the speed of the CPU
    # during that pass (the child's perf_counter is the driver's clock).
    f = [ctx.speed.factor(t0, t1) for t0, t1 in s["pass_times"]]
    call_ns = [c * k for c, k in zip(s["mean_call_ns"], f)]
    ft = [ctx.speed.factor(t0, t1) for t0, t1 in s["traced_pass_times"]]
    traced = [c * k for c, k in zip(s["traced_mean_call_ns"], ft)]
    return {
        # A request is one round of the stream template, so its latency
        # does not hinge on which operation happens to sit at the median.
        "p50_s": mean([p * k for p, k in zip(s["pass_p50_ns"], f)]) / 1e9,
        "p90_s": mean([p * k for p, k in zip(s["pass_p90_ns"], f)]) / 1e9,
        "samples": s["rounds"],
        "work_per_s": 1e9 * len(call_ns) / sum(call_ns), "work_unit": "calls/s",
        "traced_work_per_s": 1e9 * len(traced) / sum(traced) if traced else None,
        "round_rates": [r / k for r, k in zip(s["pass_rates"], f)], "maxrss_kb": sp.maxrss_kb,
        "attempted": s["attempted"], "failed": s["failed"], "failures": s["failures"],
        "wall_p50_s": mean(s["pass_p50_ns"]) / 1e9,
        "wall_work_per_s": 1e9 * len(s["mean_call_ns"]) / sum(s["mean_call_ns"]),
    }


WORKLOADS = {
    "cli-oneshot": cli_oneshot,
    "simulate-long": simulate_long,
    "algebra-mix": algebra_mix,
}
