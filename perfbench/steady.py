"""Steadiness check: run the benchmark over several seeds and report spreads.

Usage, from the repository root:

    python3 perfbench/steady.py --seeds 1-10

For each workload in BENCHMARK.json it runs the command there once per seed
with --trace 0, and reports for every end-to-end metric the median and the
interquartile range as a share of the median (statistics.quantiles, n=4).
It then makes two traced runs at the first seed, which must report the same
exact counts.  It exits 1 if a run is incorrect, if a spread exceeds the
metric's bound, or if a count differs.  Before the verdict it prints one
JSON line with the medians, quartiles and spreads, and the first traced
run's metrics, per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("exact.rows_scanned", "exact.dyads_drawn", "inference.mle.iterations",
                "rng.substream.calls", "models.sufficient_stats.calls")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    ok = True
    summary: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            result = _run(bench, workload, seed, 0)
            results.append(result)
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
        print(f"{workload}: {len(seeds)} seeds")
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            within = spread <= metric["bound"]
            ok &= within
            end_to_end[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                          "spread": spread, "unit": metric["unit"]}
            print(f"  {metric['name']:<14} median {median:.6g} {metric['unit']:<5} "
                  f"spread {spread:.4f} (bound {metric['bound']}, "
                  f"{spread / metric['bound']:.2f} of it){'' if within else '  TOO WIDE'}")
        traced = [_run(bench, workload, seeds[0], 1) for _ in range(2)]
        for name in EXACT_COUNTS:
            a, b = (t["metrics"].get(name, {}).get("value") for t in traced)
            if a != b:
                ok = False
                print(f"  count {name} differs between traced runs: {a} vs {b}")
        ok &= all(t["correct"] for t in traced)
        summary[workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: [m["value"], m["unit"]]
                          for name, m in traced[0]["metrics"].items()},
        }
    print(json.dumps(summary))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
