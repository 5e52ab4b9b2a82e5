"""Process spawning, percentiles, the CPU speed probe and in-memory spans
for the benchmark."""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import threading
import time
from pathlib import Path
from typing import NamedTuple


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    return sum(values) / len(values)


def spread(values) -> float | None:
    """Distance between the first and third quartiles as a share of the
    median; None with fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    mid = median(values)
    if mid == 0:
        return None
    return (percentile(values, 75.0) - percentile(values, 25.0)) / abs(mid)


class Spawn(NamedTuple):
    """One finished program process: wall time from start to reap (and the
    ``perf_counter`` readings at both ends), exit code, the child's own peak
    resident set size and its output."""

    wall_s: float
    code: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    start: float
    end: float


def spawn(argv: list[str], env: dict, cwd: Path, work: Path) -> Spawn:
    """Run one process to completion with its output sent to files under
    ``work`` (pipes could fill and stall a large ``simulate``), and read the
    child's rusage from ``wait4``."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(wall, proc.returncode, usage.ru_maxrss,
                 out_path.read_bytes(), err_path.read_bytes(), t0, t0 + wall)


class _Vec:
    """A small vector of the probe loop, the benchmark's own."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def __add__(self, o):
        return _Vec(self.x + o.x, self.y + o.y, self.z + o.z)

    def cross(self, o):
        return _Vec(self.y * o.z - self.z * o.y, self.z * o.x - self.x * o.z,
                    self.x * o.y - self.y * o.x)

    def scale(self, k):
        return _Vec(self.x * k, self.y * k, self.z * k)


def _probe_loop() -> None:
    # Short-lived small objects with float methods, like the program's own
    # hot paths: on the host this was written on, its time rises with the
    # host's load as the program's does (a plain integer loop rises half as
    # much).
    a, b = _Vec(1.0, 2.0, 3.0), _Vec(0.5, -1.0, 2.0)
    for _ in range(1000):
        a = (a.cross(b) + b).scale(0.5)


class SpeedProbe:
    """Samples the speed of the CPU the benchmark runs on, from a thread of
    the driver, while the program runs on the same CPU.

    The host this benchmark was written on shares its cores with other
    tenants: the same pure-Python work takes 1x or 1.7x as long in phases
    of seconds to minutes, and each CPU has phases of its own.  So the
    benchmark pins itself and its children to one CPU, and this thread
    times a fixed loop there every ``PERIOD_S`` in its own CPU time, which
    leaves out the time the program holds the CPU.  ``factor(t0, t1)`` turns
    a duration measured over ``[t0, t1]`` into reference seconds: seconds at
    the speed at which the loop takes ``REF_S``.  The loop uses nothing of
    the program, so a change to the program moves the reference seconds as
    it moves the wall time.  The thread takes about 4% of the CPU, the same
    on every commit.  Load from other processes on the same CPU is not
    corrected for: the loop's CPU time leaves it out."""

    PERIOD_S = 0.05
    REF_S = 2.0e-3

    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            c0 = time.thread_time()
            _probe_loop()
            c1 = time.thread_time()
            self.loop_s.append(c1 - c0)
            self.times.append(time.perf_counter())
            self._stop.wait(self.PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self.times:
            time.sleep(0.005)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean loop time of the samples taken in
        ``[t0, t1]`` and the one on either side of it."""
        n = len(self.times)  # the thread may append while this reads
        lo = max(0, bisect.bisect_left(self.times, t0, 0, n) - 1)
        hi = min(n, bisect.bisect_right(self.times, t1, 0, n) + 1)
        window = self.loop_s[lo:hi]
        return self.REF_S * len(window) / sum(window)


class Spans:
    """Spans kept in memory while a traced run goes, written once at the end.

    A span is (id, name, start_ns, end_ns, parent id or -1, request id).
    With ``enabled`` false, ``open`` records nothing and returns -1, which
    ``close`` ignores; that is how the untraced half of a traced run measures
    the same loop without spans."""

    def __init__(self):
        self.records: list[list] = []
        self.enabled = True
        self._stack: list[int] = []

    def open(self, name: str, request: int) -> int:
        if not self.enabled:
            return -1
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([sid, name, time.perf_counter_ns(), 0, parent, request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if sid < 0:
            return
        self.records[sid][3] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, parent: int, request: int) -> int:
        """Record a span measured elsewhere, such as inside a child process."""
        sid = len(self.records)
        self.records.append([sid, name, start_ns, end_ns, parent, request])
        return sid

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.records:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request}) + "\n")


def self_times_ms(records) -> dict[str, float]:
    """Self time per module: each span's duration minus the time its direct
    children cover, summed by the module part of the span name (the text
    before the first dot)."""
    child_ns = [0] * len(records)
    for sid, _, start, end, parent, _ in records:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for sid, name, start, end, _, _ in records:
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + (end - start - child_ns[sid]) / 1e6
    return dict(sorted(out.items()))
