"""Steadiness: run one workload N times in fresh processes and report each
metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload decode --runs 10 [--first-seed 1]
        [--against ../other-checkout] [--out FILE]

Run it from the root of a checkout; each run measures for ``run_seconds``
from ``BENCHMARK.json``.  Seeds go first-seed, first-seed+1, ...
With ``--against`` the same seeds also run in a second checkout, one
process at a time, alternating which checkout goes first, so both sides
see the same machine conditions.  The spread is (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  The last line printed
is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
           "wall_s_max": max(r["wall_s"] for r in results),
           "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"],
                                "median": statistics.median(values), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / abs(statistics.median(values))
                                if statistics.median(values) else float("inf"),
                                "values": values}
    return out


def print_table(label: str, summary: dict) -> None:
    print(f"== {label}: {summary['runs']} runs, correct={summary['correct']}, "
          f"failed share {summary['failed_share']}, slowest run {summary['wall_s_max']:.1f} s")
    for name, m in summary["metrics"].items():
        print(f"  {name:42s} median {m['median']:12.5g} {m['unit']:12s} "
              f"q1 {m['q1']:12.5g}  q3 {m['q3']:12.5g}  spread {m['spread']:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, help="a second checkout to compare with")
    parser.add_argument("--out", type=Path, help="also write the JSON summary here")
    args = parser.parse_args()

    here = Path.cwd()
    seconds = json.loads((here / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"this": here}
    if args.against:
        sides["against"] = args.against.resolve()
    results: dict[str, list[dict]] = {label: [] for label in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(sides.items())
        if i % 2:
            order.reverse()
        for label, checkout in order:
            result = run_once(checkout, args.workload, seed, seconds)
            results[label].append(result)
            print(f"{label} seed {seed}: {result['wall_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = {label: summarize(rs) for label, rs in results.items()}
    for label, s in summary.items():
        print_table(f"{args.workload} [{label}]", s)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({label: {k: {"median": m["median"], "spread": m["spread"]}
                              for k, m in s["metrics"].items()}
                      for label, s in summary.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
