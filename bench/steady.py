"""Run each workload on several seeds and print how much its metrics spread.

    python3 bench/steady.py [--workload NAME ...]

Run from the repository root.  For every workload (or each one named) it
makes ten untraced runs of bench/run.py with seeds 1 to 10 and
BENCHMARK.json's run_seconds, one at a time, then prints for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, flagging spreads above a third of
the bound.  It also prints the share of failed operations of every run.
Each run's result line is kept in .bench_out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", "steady.jsonl")
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong answers", file=sys.stderr)
            shares.append(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {len(SEEDS)} runs of {spec['run_seconds']} s, "
              f"failed/attempted {' '.join(shares)}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= metric["bound"] / 3 else "  above bound/3"
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {metric['name']:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.3f}{metric['bound']:>8.2f}{flag}")
    print(f"\nlargest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
