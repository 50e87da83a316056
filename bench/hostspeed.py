"""Host-speed probe: fixed work timed next to every measured operation.

The benchmark runs on a few cores of a shared host whose speed changes by
up to a factor of two as other tenants come and go, both from one second
to the next and over minutes. So every time metric is taken at a reference
speed: an operation's wall time is multiplied by ``ref / p``, where ``p``
is the time of the probe around it (see ``Clock``) and ``ref`` is the
probe's time at the reference speed. The probe does not touch
renewalkit, so a change to renewalkit moves the corrected time as much as
the raw one; only the host's drift cancels.

The probe has two parts: interpreter-bound arithmetic, and dict and string
handling like the claims ingest's. A swing slows kinds of work by
different amounts, so each kind of operation is corrected by the probe
time that tracked it best on the host the benchmark was tuned on:

- ``records``, the geometric mean of the two parts, for the CLI commands
  that parse and write text (``build-df``, ``solve``, the set-up);
- ``arithmetic`` alone for the array work (``simulate``, the library
  convolutions and series). The dict part swings twice as much as these.

Each part is timed best of three, so that one preemption does not move
it, with the garbage collector off, so that the process's heap does not.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

#: each part's typical time on the 2-core Xeon host the benchmark was tuned
#: on; corrected times are what that host takes at this speed
REF = {"arithmetic": 0.0045, "records": 0.0055}
#: the probe time that tracks each kind of operation
KINDS = ("records", "arithmetic")

_KEYS = [f"P{i:06d},{i % 43}" for i in range(15_000)]


def _arithmetic() -> int:
    x = 0
    for i in range(60_000):
        x += i * i
    return x


def _records() -> list:
    by_age: dict[int, list[str]] = {}
    for line in _KEYS:
        pid, age = line.split(",")
        by_age.setdefault(int(age), []).append(pid)
    return sorted(by_age.items())


def probe() -> dict[str, float]:
    """Seconds each part of the probe takes now, best of three."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = {}
        for name, part in (("arithmetic", _arithmetic), ("records", _records)):
            best = float("inf")
            for _ in range(3):
                t = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t)
            times[name] = best
        return times
    finally:
        if collecting:
            gc.enable()


def tracking_s(parts: dict[str, float], kind: str) -> float:
    """The probe time that tracks operations of ``kind``."""
    if kind == "arithmetic":
        return parts["arithmetic"]
    return math.sqrt(parts["arithmetic"] * parts["records"])


def corrected(raw_s: float, before: dict[str, float], after: dict[str, float], kind: str) -> float:
    """``raw_s`` of a ``kind`` operation at the reference speed, given one probe on either side."""
    mean = 0.5 * (tracking_s(before, kind) + tracking_s(after, kind))
    return raw_s * tracking_s(REF, kind) / mean


class Clock:
    """Operations timed between probes, corrected by the probes around them.

    ``cut`` runs the probe; ``start`` and ``stop`` bracket an operation, and
    ``stop`` returns its index. ``corrected(i)`` is the operation's wall time
    × the reference probe time / the median of the ``m`` nearest probes on
    either side of it, where ``m`` is the most that both sides have within
    half the operation's duration, and at least one. A short operation is so
    corrected by its two neighbours. A long one, which outlasts the host's
    speed changes, is corrected by the probes of the seconds around it,
    where a single probe at each end would catch one passing state; taking
    as many from each side keeps a cluster of probes on one side (after a
    run of short solves) from outvoting the other.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, dict[str, float]]] = []
        self.ops: list[tuple[str, float, float]] = []
        self._open = ("", 0.0)

    def cut(self) -> None:
        t = time.perf_counter()
        parts = probe()
        self.probes.append((0.5 * (t + time.perf_counter()), parts))

    def start(self, kind: str) -> None:
        self._open = (kind, time.perf_counter())

    def stop(self) -> int:
        self.ops.append((*self._open, time.perf_counter()))
        return len(self.ops) - 1

    def raw(self, i: int) -> float:
        _, start, end = self.ops[i]
        return end - start

    def corrected(self, i: int) -> float:
        kind, start, end = self.ops[i]
        times = [t for t, _ in self.probes]
        half = 0.5 * (end - start)
        first_after = bisect.bisect_right(times, end)
        last_before = bisect.bisect_left(times, start) - 1
        if last_before < 0 or first_after >= len(times):
            raise ValueError("an operation needs a probe on either side")
        within_before = last_before + 1 - bisect.bisect_left(times, start - half)
        within_after = bisect.bisect_right(times, end + half) - first_after
        m = max(1, min(within_before, within_after))
        around = self.probes[last_before - m + 1 : last_before + 1] + self.probes[first_after : first_after + m]
        return self.raw(i) * tracking_s(REF, kind) / statistics.median(
            tracking_s(parts, kind) for _, parts in around)
