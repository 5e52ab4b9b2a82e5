"""The ``algebra-mix`` client: one process that imports screwalg once and
runs the seeded stream of public calls in a closed loop.

    python perfbench/algebra_child.py --seed 1 --seconds 10 --trace 0 --spans spans.json

The first pass over the stream is warm-up and is neither timed nor counted.
Every later pass times each public call alone (checks run outside the timed
region) and checks every result.  A request is one round of the stream
template (each operation on each screw kind once); its latency is the sum of
its calls' times.  Latency percentiles are taken within each pass (150
rounds, about 0.3 s) and averaged over the passes: on a shared machine whose
speed shifts between phases, a median over the whole run would jump between
the phases, while the mean over passes follows the share of time spent in
each.  With ``--trace 1`` passes alternate
between traced and untraced; traced passes keep a span around every stream
item and every public call inside it, written to ``--spans`` at the end.
The last line of stdout is a JSON summary; it gives the ``perf_counter``
readings at the start and end of each pass, so that the driver can scale
each pass by the CPU speed it sampled meanwhile.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time

from screwalg import (
    DegenerateAxis,
    FinitePitch,
    ForceSystem,
    Frame,
    InfinitePitch,
    LineAxis,
    MotionChain,
    Point,
    Screw,
    Twist,
    Vec3,
    ZeroScrewError,
    ZeroScrewPitch,
    central_axis_report,
    chasles,
    commutator,
    compose_chain,
    decompose_two_applied,
    exp_screw,
    klein_product,
    reciprocal_subspace,
)

import gen
from harness import Spans, percentile

STREAM_ROUNDS = 150
MAX_SPANS = 200_000
MAX_LISTED = 20
# Relative tolerances of the checks, applied to the magnitudes of the terms
# that enter each result.
EXACT_RTOL = 1e-12
SOLVE_RTOL = 1e-9
MAP_TOL = 1e-7
# chasles(exp_screw(s, t)) must give back t s to this relative accuracy at
# every angle of the stream, 1e-4 rad to within 1e-9 of a half turn.
ROUNDTRIP_RTOL = 1e-6

ns = time.perf_counter_ns


def _screw(ws):
    w, m = ws
    return Screw(Vec3(*w), Vec3(*m))


def _size(s: Screw) -> float:
    return s.resultant.norm() + s.moment_at_origin.norm()


def _near(a: Vec3, b: Vec3, tol: float) -> bool:
    return (a - b).norm() <= tol


def prepare(item):
    """Build the library objects of a stream item before any timing."""
    op, kind, args = item
    if op == "value_at":
        return _screw(args[0]), Point(*args[1])
    if op in ("commutator", "klein_product"):
        return tuple(_screw(a) for a in args)
    if op in ("axis", "pitch", "decompose_two_applied"):
        return (_screw(args[0]),)
    if op == "roundtrip":
        return _screw(args[0]), args[1]
    if op == "central_axis_report":
        return (ForceSystem(tuple((Point(*p), Vec3(*v)) for p, v in args)),)
    if op == "compose_chain":
        return (MotionChain(tuple(Twist(_screw(a)) for a in args)),)
    return [_screw(a) for a in args], Frame.standard()


class Runner:
    def __init__(self, spans: Spans):
        self.spans = spans
        self.call_ns: list[int] = []
        self.request = -1

    def call(self, name, fn, *args):
        """Time one public call; exceptions are results, checked later."""
        sid = self.spans.open(name, self.request)
        t0 = ns()
        try:
            out = fn(*args)
        except Exception as e:  # the check decides whether this was expected
            out = e
        t1 = ns()
        self.spans.close(sid)
        self.call_ns.append(t1 - t0)
        return out

    def run_checked(self, op, kind, args):
        try:
            return self.run(op, kind, args)
        except Exception as e:  # a result the check cannot read is a failure
            return f"unreadable result ({type(e).__name__}: {e})"

    def run(self, op, kind, args):
        """Run and check one stream item; returns a failure reason or None."""
        c = self.call
        if op == "value_at":
            s, p = args
            got = c("screw.value_at", s.value_at, p)
            want = s.moment_at_origin + s.resultant.cross(p.to_vec())
            tol = EXACT_RTOL * (s.moment_at_origin.norm() + s.resultant.norm() * p.to_vec().norm())
            return (None if _near(got, want, tol) else "value_at differs from m + w x p")
        if op == "commutator":
            a, b, z = args
            got = c("lie.commutator", commutator, a, b)
            jac = (commutator(a, commutator(b, z)) + commutator(b, commutator(z, a))
                   + commutator(z, got))
            tol = EXACT_RTOL * _size(a) * _size(b) * _size(z)
            if not (_near(jac.resultant, Vec3.zero(), tol) and _near(jac.moment_at_origin, Vec3.zero(), tol)):
                return "Jacobi identity fails"
            want = -a.resultant.cross(b.resultant)
            ok = _near(got.resultant, want, EXACT_RTOL * _size(a) * _size(b))
            return (None if ok else "commutator resultant is not -(w1 x w2)")
        if op == "klein_product":
            a, b, z = args
            got = c("lie.klein_product", klein_product, a, b)
            want = a.resultant.dot(b.moment_at_origin) + b.resultant.dot(a.moment_at_origin)
            if abs(got - want) > EXACT_RTOL * _size(a) * _size(b):
                return "klein_product differs from w1.m2 + w2.m1"
            inv = klein_product(commutator(z, a), b) + klein_product(a, commutator(z, b))
            ok = abs(inv) <= EXACT_RTOL * _size(a) * _size(b) * _size(z)
            return (None if ok else "pairing is not invariant under the bracket")
        if op == "axis":
            s, = args
            got = c("screw.axis", s.axis)
            if kind in ("zero", "free"):
                return (None if isinstance(got, DegenerateAxis) else f"{kind} screw has a line axis")
            if not isinstance(got, LineAxis):
                return f"{kind} screw has no line axis"
            field = s.value_at(got.point)
            tol = SOLVE_RTOL * (s.moment_at_origin.norm() + s.resultant.norm() * got.point.to_vec().norm())
            ok = field.cross(got.direction).norm() <= tol and \
                got.direction.cross(s.resultant).norm() <= SOLVE_RTOL * s.resultant.norm()
            return (None if ok else "field on the axis is not along the resultant")
        if op == "pitch":
            s, = args
            got = c("screw.pitch", s.pitch)
            want_type = {"zero": ZeroScrewPitch, "free": InfinitePitch}.get(kind, FinitePitch)
            if not isinstance(got, want_type):
                return f"{kind} screw got {type(got).__name__}"
            if want_type is FinitePitch:
                w2 = s.resultant.dot(s.resultant)
                want = 2.0 * math.pi * s.resultant.dot(s.moment_at_origin) / w2
                tol = SOLVE_RTOL * 2.0 * math.pi * s.moment_at_origin.norm() / math.sqrt(w2)
                if abs(got.value - want) > tol:
                    return "pitch differs from 2 pi w.m / |w|^2"
            return None
        if op == "decompose_two_applied":
            s, = args
            got = c("reduction.decompose_two_applied", decompose_two_applied, s)
            if kind == "zero":
                return (None if isinstance(got, ZeroScrewError) else "zero screw was decomposed")
            if isinstance(got, Exception):
                return f"{type(got).__name__}: {got}"
            back = got.to_screw()
            arms = got.point1.to_vec().norm() * got.vector1.norm() + \
                got.point2.to_vec().norm() * got.vector2.norm()
            ok = _near(back.resultant, s.resultant, SOLVE_RTOL * (s.resultant.norm() + got.vector1.norm())) \
                and _near(back.moment_at_origin, s.moment_at_origin,
                          SOLVE_RTOL * (s.moment_at_origin.norm() + arms))
            return (None if ok else "two applied vectors do not re-sum to the screw")
        if op == "roundtrip":
            s, t = args
            g = c("rigid.exp_screw", exp_screw, s, t)
            dec = c("rigid.chasles", chasles, g)
            for r in (g, dec):
                if isinstance(r, Exception):
                    return f"{type(r).__name__}: {r}"
            back = dec.to_rigid_map()
            scale_t = g.translation.norm() + abs(t) * s.moment_at_origin.norm()
            if not (back.rotation.isclose(g.rotation, 0.0, MAP_TOL)
                    and _near(back.translation, g.translation, MAP_TOL * scale_t)):
                return f"exp/chasles map round trip fails at angle {s.resultant.norm() * t!r}"
            ts = s * t
            got = dec.to_screw()
            err_w = (got.resultant - ts.resultant).norm() / ts.resultant.norm()
            err_m = (got.moment_at_origin - ts.moment_at_origin).norm() / ts.moment_at_origin.norm()
            if max(err_w, err_m) > ROUNDTRIP_RTOL:
                return (f"chasles(exp_screw(s, t)) at angle {s.resultant.norm() * t!r}: "
                        f"relative error {max(err_w, err_m):.2e}")
            return None
        if op == "central_axis_report":
            fs, = args
            got = c("reduction.central_axis_report", central_axis_report, fs)
            r, m, vsum, msum = Vec3.zero(), Vec3.zero(), 0.0, 0.0
            for p, v in fs.forces:
                r, m = r + v, m + p.to_vec().cross(v)
                vsum += v.norm()
                msum += p.to_vec().norm() * v.norm()
            ok = _near(got.resultant, r, EXACT_RTOL * vsum) and \
                abs(got.scalar_invariant - r.dot(m)) <= SOLVE_RTOL * vsum * msum
            return (None if ok else "central axis report differs from the sums")
        if op == "compose_chain":
            chain, = args
            got = c("kinematics.compose_chain", compose_chain, chain)
            want = Screw.zero()
            size = 0.0
            for tw in chain.relative_twists:
                want = want + tw.screw
                size += _size(tw.screw)
            ok = _near(got.screw.resultant, want.resultant, EXACT_RTOL * size) and \
                _near(got.screw.moment_at_origin, want.moment_at_origin, EXACT_RTOL * size)
            return (None if ok else "composed twist is not the screw sum")
        screws, frame = args
        got = c("dynamics.reciprocal_subspace", reciprocal_subspace, screws, frame)
        if len(got) != 6 - len(screws):
            return f"reciprocal dimension {len(got)} for {len(screws)} generic screws"
        for z in got:
            for w in screws:
                if abs(klein_product(z, w)) > SOLVE_RTOL * _size(z) * _size(w):
                    return "reciprocal basis screw does not pair to zero"
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    stream = gen.algebra_stream(random.Random(args.seed), STREAM_ROUNDS)
    prepared = [(op, kind, prepare((op, kind, a))) for op, kind, a in stream]
    spans = Spans()
    runner = Runner(spans)
    spans.enabled = False
    for op, kind, a in prepared:  # warm-up
        runner.run_checked(op, kind, a)

    attempted = failed = 0
    failed_items = {}
    round_len = len(gen.STREAM_TEMPLATE)
    pass_rates, pass_p50, pass_p90, call_ns, traced_call_ns = [], [], [], [], []
    pass_times, traced_pass_times = [], []
    rounds = 0
    start = time.perf_counter()
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1 and len(spans.records) < MAX_SPANS
        spans.enabled = traced
        runner.call_ns = []
        marks = []
        t0 = time.perf_counter()
        for i, (op, kind, a) in enumerate(prepared):
            if i % round_len == 0:
                marks.append(len(runner.call_ns))
            runner.request = i
            sid = spans.open(f"stream.{op}", i) if traced else -1
            failure = runner.run_checked(op, kind, a)
            spans.close(sid)
            attempted += 1
            if failure:
                failed += 1
                if len(failed_items) < MAX_LISTED:
                    failed_items.setdefault(i, {"request": f"item {i} ({op}, {kind})",
                                                "reason": failure})
        samples = runner.call_ns
        (traced_pass_times if traced else pass_times).append((t0, time.perf_counter()))
        if traced:
            traced_call_ns.append(sum(samples) / len(samples))
        else:
            pass_rates.append(len(samples) / (sum(samples) / 1e9))
            marks.append(len(samples))
            round_ns = [sum(samples[lo:hi]) for lo, hi in zip(marks, marks[1:])]
            pass_p50.append(percentile(round_ns, 50.0))
            pass_p90.append(percentile(round_ns, 90.0))
            rounds += len(round_ns)
            call_ns.append(sum(samples) / len(samples))
        n += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced_call_ns):
            break

    if args.trace:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(spans.records, fh)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "failures": list(failed_items.values()),
        "pass_rates": pass_rates,
        "pass_p50_ns": pass_p50,
        "pass_p90_ns": pass_p90,
        "rounds": rounds,
        "mean_call_ns": call_ns,
        "traced_mean_call_ns": traced_call_ns,
        "pass_times": pass_times,
        "traced_pass_times": traced_pass_times,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
