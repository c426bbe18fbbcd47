"""Latency recording, percentiles and run metadata shared by the workloads.

A :class:`Recorder` times every application operation a workload performs.
Each sample carries the operation's kind (``read``, ``txn``, ...), the
segment of measurement it fell in, and the phase it ran in (``timed`` or
``traced``), so one run can hold an untraced and a traced half and compare
them.

Every segment is bracketed by a measurement of the host's current speed
(:func:`reference_seconds`), and the end-to-end figures are reported at a
fixed reference speed; see :meth:`Recorder.new_segment`.  When a :class:`~perfbench.spans.Tracer`
is attached, every operation also opens a root span that the layer spans
recorded beneath it hang from.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Recorder",
    "percentile",
    "median",
    "reference_seconds",
    "peak_rss_mb",
    "run_metadata",
]


#: what :func:`reference_seconds` reads on a host at the reference speed
REFERENCE_SECONDS = 0.0002


def _reference_work() -> int:
    """A fixed piece of interpreter work: dict, str and int operations."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * (i % 7)
    return total


def reference_seconds() -> float:
    """How long the fixed reference work takes right now: the best of 3 on
    each CPU this process may run on, averaged over those CPUs (their
    speeds change independently)."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    readings = []
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            best = math.inf
            for _ in range(3):
                started = time.perf_counter()
                _reference_work()
                best = min(best, time.perf_counter() - started)
            readings.append(best)
    finally:
        if cpus != [None]:
            os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings)


class Recorder:
    """Latency samples (seconds) by phase, operation kind and segment.

    A segment is a short stretch of measurement: a 0.25-second slice of
    ``oltp``, one TPC-H query or refresh transaction, one operation of a
    crash cycle.  :meth:`new_segment` times the reference work before and
    after it, and the end-to-end figures scale the segment's times by
    ``REFERENCE_SECONDS`` over the mean reading.  The 2-CPU host this
    benchmark was built on runs each CPU at speeds up to 2x apart that
    change within a second (the reference work reads 0.21-0.49 ms), which
    moves an unscaled median by 20-40% from run to run; scaled, a figure
    measures the program rather than the host's current speed.  Unscaled
    headline figures are printed beside the scaled ones.
    """

    def __init__(self) -> None:
        #: (phase, kind, segment) -> latencies in seconds
        self.samples: dict[tuple[str, str, int], list[float]] = defaultdict(list)
        #: (phase, segment) -> wall seconds the segment measured
        self.segment_seconds: dict[tuple[str, int], float] = defaultdict(float)
        #: (phase, segment) -> reference speed / host speed around it
        self.segment_scale: dict[tuple[str, int], float] = {}
        self.phase = "timed"
        self.segment = 0
        self._last_reading: tuple[float, float] | None = None
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    @contextmanager
    def op(self, kind: str):
        """Time one application operation of ``kind``.

        An exception inside the block counts the operation as failed and
        propagates: the run cannot vouch for the state that follows it.
        """
        tracer = self.tracer
        token = tracer.begin_op(kind) if tracer is not None else None
        started = time.perf_counter()
        with self._lock:
            self.attempted += 1
        try:
            yield
        except BaseException:
            with self._lock:
                self.failed += 1
            raise
        finally:
            if token is not None:
                tracer.end_op(token)
        self.samples[(self.phase, kind, self.segment)].append(time.perf_counter() - started)

    @contextmanager
    def new_segment(self):
        """Start a segment and time it; operations inside belong to it.
        The host's speed is read just before and just after (a reading
        taken when the previous segment ended serves as this one's start)."""
        self.segment += 1
        if self._last_reading and time.perf_counter() - self._last_reading[0] < 0.002:
            before = self._last_reading[1]
        else:
            before = reference_seconds()
        started = time.perf_counter()
        try:
            yield
        finally:
            key = (self.phase, self.segment)
            self.segment_seconds[key] += time.perf_counter() - started
            after = reference_seconds()
            self._last_reading = (time.perf_counter(), after)
            self.segment_scale[key] = 2 * REFERENCE_SECONDS / (before + after)

    @contextmanager
    def segment_op(self, kind: str):
        """One operation that is a segment of its own."""
        with self.new_segment(), self.op(kind):
            yield

    def check(self, ok: bool, message: str) -> None:
        """Record an output check; a failed one counts against the run."""
        if not ok:
            with self._lock:
                self.failed += 1
                self.failures.append(message)

    def require(self, ok: bool, message: str) -> None:
        """An end-of-round invariant: counted as one more attempted check."""
        with self._lock:
            self.attempted += 1
        self.check(ok, message)

    def kinds(self, phase: str = "timed") -> dict[str, list[float]]:
        """Every kind's samples in ``phase``, all segments pooled."""
        pooled: dict[str, list[float]] = defaultdict(list)
        for (p, kind, _segment), values in self.samples.items():
            if p == phase:
                pooled[kind].extend(values)
        return pooled

    def get(self, kind: str, phase: str = "timed") -> list[float]:
        return self.kinds(phase).get(kind, [])

    def scaled(self, kind: str, phase: str = "timed") -> list[float]:
        """Every sample of ``kind``, each scaled to the reference speed."""
        values = []
        for (p, k, segment), samples in self.samples.items():
            if p == phase and k == kind:
                scale = self.segment_scale.get((phase, segment), 1.0)
                values.extend(value * scale for value in samples)
        return values

    def rate(self, kinds: tuple[str, ...], phase: str = "timed") -> float:
        """Operations of ``kinds`` per second of segment time, at the
        reference speed."""
        count = scaled_seconds = 0.0
        for (p, segment), seconds in self.segment_seconds.items():
            if p == phase:
                count += sum(len(self.samples.get((phase, kind, segment), ())) for kind in kinds)
                scaled_seconds += seconds * self.segment_scale.get((phase, segment), 1.0)
        return count / scaled_seconds


def percentile(values: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) of a non-empty list, interpolated linearly
    between the nearest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over every Python file of the measured package: identifies
    the code measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(root: Path, *, workload: str, seed: int, seconds: int, trace: bool,
                 loopback: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "repro"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loopback_tcp": loopback,
    }
