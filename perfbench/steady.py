"""Run every workload several times, each with its own seed, and report the
spread of each metric.

    python3 perfbench/steady.py                    # 10 runs of each workload
    python3 perfbench/steady.py --runs 1           # one pass over all workloads
    python3 perfbench/steady.py --workloads minvec --runs 5 --first-seed 11

Each run is a separate ``run.py`` process, started only after the previous
one has ended. For every workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)``, the spread
(q3 - q1) / median, and the bound from BENCHMARK.json; ``!`` marks a spread
above a third of the bound. The last line is the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        correct = True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{attempted} operations attempted, {failed} failed, correct {correct}")
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = "!" if spread > bound / 3 else " "
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {flag} {name:36} {med:14.6g} {units[name]:6} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}  bound {bound:.0%}")
        summary[workload] = {"attempted": attempted, "failed": failed, "correct": correct, "metrics": rows}
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
