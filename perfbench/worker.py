"""One workload process: import qlam from the checkout, build the first
round's inputs, warm up, say READY, then run the timed phase (or the traced
one) and print one JSON line.  run.py starts it in a fresh interpreter and
times set-up up to READY.

    python3 perfbench/worker.py --workload gates --seed 1 --seconds 25 --mode measure

Modes: `setup` stops after READY; `measure` runs the workload's fixed number
of rounds, each on inputs of its own (sized to take about --seconds together),
and reports the end-to-end figures; `trace` runs every item of the first round
once untraced and once with boundary spans on, and reports the per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qlam  # noqa: E402  (from this checkout's sources)
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

if ROOT / "src" not in Path(qlam.__file__).resolve().parents:
    raise SystemExit(f"qlam was imported from {qlam.__file__}, not from {ROOT / 'src'}")


STOP_AFTER = 3


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


class Loop:
    """Runs items one after another.  Each call is timed; the result is
    verified outside the timer.  A failure that is not a known defect of the
    program also counts as wrong."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.chars = 0

    def _fail(self, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def one(self, i: int, item, count_chars: bool = True) -> tuple[float, bool]:
        """Run one item; return its latency and whether it passed.  The
        characters of program text it returned count whatever its verdict."""
        wl = self.wl
        if self.tracer is not None:
            self.tracer.item = i
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            chars, result = wl.run(item)
        except workloads.KnownDefect as e:
            seconds = time.perf_counter() - t0
            self._fail(str(e))
            return seconds, False
        except Exception as e:  # any other raise is a wrong answer
            seconds = time.perf_counter() - t0
            self._fail(f"raised {type(e).__name__}: {e}"[:200], wrong=True)
            return seconds, False
        seconds = time.perf_counter() - t0
        if count_chars:
            self.chars += chars
        try:
            problem = wl.verify(item, result)
        except workloads.KnownDefect as e:
            self._fail(str(e))
            return seconds, False
        except Exception as e:  # an answer the check cannot read is wrong
            problem = f"unreadable answer: {type(e).__name__}: {e}"[:200]
        if problem is not None:
            self._fail("wrong: " + problem, wrong=True)
            return seconds, False
        return seconds, True

    def round(self, items, count_chars: bool, speed) -> tuple[list, list]:
        """Run a round; return each item's (seconds, passed) at the reference
        speed (speed.py) and as measured."""
        raw, spans = [], []
        for i, item in enumerate(items):
            start = time.perf_counter()
            seconds, ok = self.one(i, item, count_chars)
            raw.append((seconds, ok))
            spans.append((start, start + seconds))
            speed.maybe()
        speed.calibrate()
        scaled = [(s * f, ok) for (s, ok), f in zip(raw, speed.scales(spans))]
        return scaled, raw


def figures(timed: list[tuple[float, bool]]) -> dict:
    """Throughput and latency percentiles of (seconds, passed) pairs.  A
    failed item misses every latency target."""
    lat = sorted(s if ok else float("inf") for s, ok in timed)
    return {
        "items_per_s": sum(ok for _, ok in timed) / sum(s for s, _ in timed),
        "item_p50_ms": percentile(lat, 0.5) * 1e3,
        "item_p90_ms": percentile(lat, 0.9) * 1e3,
    }


def _setup(args, workdir: Path):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, quick=args.quick)
    items = wl.round_items(0)
    for item in wl.warmup:
        try:
            wl.verify(item, wl.run(item)[1])
        except Exception:  # warm-up only fills caches; the timed phase reports failures
            pass
    gc.collect()
    gc.freeze()
    return wl, items


def measure(wl, items, seconds: float) -> dict:
    """`wl.rounds` rounds, fewer only when the next one would end later than
    STOP_AFTER times --seconds (a guard for a very slow host).  The figures
    are over the items of all rounds; the program text is that of the first
    round, so that it is exact."""
    loop = Loop(wl)
    scaled, raw, rounds = [], [], []
    speed = Speed()
    t0 = time.perf_counter()
    for r in range(wl.rounds):
        if r:
            items = wl.round_items(r)
        started = time.perf_counter()
        s, w = loop.round(items, r == 0, speed)
        scaled += s
        raw += w
        rounds.append({"items": len(s), **figures(s), "raw": figures(w)})
        took = time.perf_counter() - started
        if time.perf_counter() - t0 + took > STOP_AFTER * seconds:
            break
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wrong": loop.wrong,
        "reasons": loop.reasons,
        "rounds": rounds,
        "raw": figures(raw),
        "wall_s": time.perf_counter() - t0,
        "calibration_s": {"chunks": len(speed.samples),
                          "median": statistics.median(speed.samples),
                          "min": min(speed.samples), "max": max(speed.samples)},
        **figures(scaled),
        "output_chars": loop.chars,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(wl, items, spans_out: str | None) -> dict:
    """Each item of the first round once untraced and once traced, in
    alternating order, so that neither run of an item gains from the other
    warming up."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = Loop(wl), Loop(wl, tracer)
    seconds = {plain: 0.0, traced: 0.0}
    for i, item in enumerate(items):
        for loop in (plain, traced) if i % 2 == 0 else (traced, plain):
            if loop is traced:
                tracer.install()
            t0 = time.perf_counter()
            loop.one(i, item)
            seconds[loop] += time.perf_counter() - t0
            tracer.uninstall()
    layers = tracer.metrics({i: item.width for i, item in enumerate(items)})
    layers["trace.overhead"] = (seconds[traced] / seconds[plain], "ratio")
    if spans_out:
        tracer.dump(spans_out)
    return {
        "attempted": traced.attempted,
        "failed": traced.failed,
        "wrong": traced.wrong + plain.wrong,
        "reasons": traced.reasons,
        "untraced_s": seconds[plain],
        "traced_s": seconds[traced],
        "output_chars": traced.chars,
        "untraced_output_chars": plain.chars,
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    p.add_argument("--quick", action="store_true", help="small rounds, for the tests")
    p.add_argument("--spans-out", help="write the traced run's spans here, one JSON per line")
    args = p.parse_args(argv)
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp))
    try:
        wl, items = _setup(args, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(wl, items, args.seconds)
        else:
            result = trace(wl, items, args.spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
