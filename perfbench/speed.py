"""Host speed, measured with a fixed pure-Python calibration chunk.

The benchmark runs on a few cores of a shared host, where the speed of plain
Python code swings by up to 2x from one moment to the next (other tenants'
load, frequency changes): the state changes within a second or less, and the
share of time spent slow drifts over minutes.  A whole run can land in a slow
stretch, so no median over a run removes it.  So the timed phase runs a
calibration chunk between items, at least every EVERY_S seconds, and every
timing figure is reported at the reference speed: an item that ran from t0
to t1 has its latency multiplied by REF_S over the mean time of the chunks
that ended within max(HALO_S, t1 - t0) of it.

The chunk does what the program does most, in the program's idiom: it builds
and rewrites a tree of frozen slotted dataclasses with `match`, and looks
names up in dicts.  It calls no qlam code, so a change to qlam never changes
it.  It runs with the garbage collector off, so the program's heap does not
slow it: a program that keeps more objects alive pays for that in its own
latencies, not in the chunk's.

The correction is not exact.  Work on large terms (the n=5 gate, the widest
circuits) slows less than the chunk when the host is slow, so in a slow
stretch its scaled figures read up to about 10% fast; work on small terms
tracks the chunk within a few percent.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
import time
from dataclasses import dataclass

REF_S = 1.2e-3  # one chunk on the 2-core x86_64 box the benchmark was written on
EVERY_S = 0.01
HALO_S = 0.05
WARMUP_CHUNKS = 20
AROUND = 10
DEPTH = 10


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Lam:
    var: str
    body: object


@dataclass(frozen=True, slots=True)
class App:
    fn: object
    arg: object


ENVS = ({"x1": Var("y")}, {"x2": Var("z")})


def _tree(depth: int, k: int):
    if depth == 0:
        return Var(f"x{k % 7}")
    if k % 3 == 0:
        return Lam(f"x{k % 7}", _tree(depth - 1, 2 * k))
    return App(_tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))


def _subst(t, env: dict):
    match t:
        case Var(name):
            return env.get(name, t)
        case Lam(var, body):
            return Lam(var, _subst(body, {k: v for k, v in env.items() if k != var}))
        case App(fn, arg):
            return App(_subst(fn, env), _subst(arg, env))


def chunk() -> float:
    """Seconds one calibration chunk takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        t = _tree(DEPTH, 1)
        for env in ENVS:
            t = _subst(t, env)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference(measure) -> tuple[float, float]:
    """Call `measure()`, which times something slow (such as starting a
    process) and returns its seconds, between AROUND calibration chunks
    before and as many after.  Returns those seconds at the reference speed,
    and as measured."""
    before = [chunk() for _ in range(AROUND)]
    seconds = measure()
    after = [chunk() for _ in range(AROUND)]
    return seconds * REF_S / statistics.fmean(before + after), seconds


class Speed:
    """The calibration chunks of a timed phase, and the scale factor of each
    item between them."""

    def __init__(self):
        for _ in range(WARMUP_CHUNKS):
            chunk()
        self.samples: list[float] = []
        self.ends: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        self.samples.append(chunk())
        self.ends.append(time.perf_counter())

    def maybe(self) -> None:
        """Calibrate if EVERY_S has passed since the last chunk."""
        if time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.calibrate()

    def scales(self, spans: list[tuple[float, float]]) -> list[float]:
        """The factor to the reference speed of each item that ran from t0 to
        t1: REF_S over the mean time of the chunks that ended within
        max(HALO_S, t1 - t0) of the item."""
        sums = list(itertools.accumulate(self.samples, initial=0.0))
        out = []
        for t0, t1 in spans:
            halo = max(HALO_S, t1 - t0)
            lo = bisect.bisect_left(self.ends, t0 - halo)
            hi = bisect.bisect_right(self.ends, t1 + halo)
            out.append(REF_S * (hi - lo) / (sums[hi] - sums[lo]))
        return out
