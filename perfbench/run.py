"""qlam's benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload gates --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): `gates` compiles, prints, re-parses and checks
random unitaries and planted defects at n = 2..5; `circuits` runs circuit files
through `qlam run` in-process at n = 3..6; `corpus` parses, checks, normalizes
and prints many small generated programs.  Each is a closed loop: one client in
one process, the next item starts when the last one ends.

With --trace 0 the last line carries the end-to-end metrics that
BENCHMARK.json lists; with --trace 1 it carries the per-layer metrics of a
traced round (tracing.py).  Set-up time is the median of several fresh worker
processes, timed from start to READY, half of them started before the measured
worker and half after it.  Every timing figure is reported at a reference
speed of the host (speed.py).  Earlier lines give machine facts and details.
Exits non-zero without a result when the checkout has no qlam sources or any
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_EACH_SIDE = 3
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 140
# one thread in numpy's BLAS: the benchmark is a single client on a shared box
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


# what a failed worker, import timing or result line raises
ERRORS = (RunFailed, subprocess.CalledProcessError, ValueError, KeyError)


def benchmark() -> dict:
    """BENCHMARK.json: the workloads, the metrics and their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(args, mode: str, extra=()) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result (None in setup mode)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           *(["--quick"] if args.quick else []), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{mode} worker timed out") from None
    if proc.returncode != 0 or first.strip() != "READY":
        raise RunFailed(f"{mode} worker exited with {proc.returncode}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def _start_time(code: str) -> float:
    env = {**ENV, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Fresh-interpreter `import qlam.cli` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(_start_time("pass"))
        full.append(_start_time("import qlam.cli"))
    return statistics.median(full) - statistics.median(bare)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def facts(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> tuple[dict, dict]:
    """Returns (contract result, details)."""
    info = facts(args)
    info["loadavg_before"] = os.getloadavg()

    def setup():
        return speed.at_reference(lambda: _worker(args, "setup")[0])

    setups = [setup() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    if args.trace:
        extra = ("--spans-out", args.spans_out) if args.spans_out else ()
        _, res = _worker(args, "trace", extra)
    else:
        _, res = _worker(args, "measure")
    setups += [setup() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    info["loadavg_after"] = os.getloadavg()
    info["setup_samples_s"] = [s for s, _ in setups]
    info["setup_raw_samples_s"] = [raw for _, raw in setups]
    if args.trace:
        metrics = res.pop("layers")
        metrics["cli.import_s"] = {"value": import_seconds(), "unit": "s"}
        for m in metrics.values():
            if m["value"] is None:
                m["absent"] = True
    else:
        res["setup_s"] = statistics.median(info["setup_samples_s"])
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in benchmark()["end_to_end"]}
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, {"facts": info, "detail": res}


def parse_args(argv=None):
    bench = benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small rounds, for the tests")
    p.add_argument("--spans-out", help="with --trace 1, write every span to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qlam" / "__init__.py").is_file():
        print(f"no qlam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = run(args)
    except ERRORS as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print("# facts " + json.dumps(details["facts"]))
    print("# detail " + json.dumps(details["detail"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
