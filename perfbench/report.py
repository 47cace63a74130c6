"""Run every workload, untraced and traced, and print one table.

    python3 perfbench/report.py --seed 1 [--seconds 25] [--out results.json]

For each workload this prints every end-to-end metric by name and unit,
including `fail_ratio` (failed items over attempted items), then every
per-layer metric of the traced run (or `absent`), the tracing overhead and the
machine facts.  --out also writes everything as JSON, and the spans of each
traced run next to it as `<out>.<workload>.spans.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def collect(seed: int, seconds: int, spans: str | None = None) -> dict:
    out = {}
    for w in [b["name"] for b in run.benchmark()["workloads"]]:
        rows = {}
        for trace in (0, 1):
            args = run.parse_args(["--workload", w, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace),
                                   *(["--spans-out", f"{spans}.{w}.spans.jsonl"]
                                     if spans and trace else [])])
            result, details = run.run(args)
            rows["traced" if trace else "untraced"] = {**result, **details}
        out[w] = rows
    return out


def _show(m: dict) -> str:
    if m.get("absent"):
        return "absent"
    v = m["value"]
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(results: dict) -> None:
    for w, rows in results.items():
        plain, traced = rows["untraced"], rows["traced"]
        print(f"== {w}: {plain['attempted']} items, {plain['failed']} failed, "
              f"correct={plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:32s} {_show(m):>14s} {m['unit']}")
        ratio = plain["failed"] / plain["attempted"]
        print(f"  {'fail_ratio':32s} {ratio:>14.6g} ratio")
        reasons = plain["detail"]["reasons"]
        if reasons:
            print(f"  failures by reason: {reasons}")
        print(f"  -- traced round: {traced['attempted']} items, "
              f"{traced['detail']['spans']} spans, absent boundaries: "
              f"{traced['detail']['absent'] or 'none'}")
        for name, m in traced["metrics"].items():
            print(f"  {name:32s} {_show(m):>14s} {m['unit']}")
    facts = next(iter(results.values()))["untraced"]["facts"]
    keep = ("nproc", "python", "numpy", "machine", "commit", "seed", "seconds")
    print("facts: " + json.dumps({k: facts[k] for k in keep}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=run.benchmark()["run_seconds"])
    p.add_argument("--out", help="also write the results here as JSON")
    args = p.parse_args(argv)
    try:
        results = collect(args.seed, args.seconds, args.out)
    except run.ERRORS as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print_table(results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
