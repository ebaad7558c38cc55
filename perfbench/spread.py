"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload tf-kan --seeds 0-9 [--out FILE]

Runs ``run.py`` once per seed, one run after another, and prints for each
metric the median and the distance between the first and third quartiles as
a share of the median (``statistics.quantiles(values, n=4)``).  ``--out``
also writes every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--out", default="")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "env": lines[-2], "result": result})
        print(seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_frac": (q3 - q1) / med if med else None}
    summary["all_correct"] = all(r["result"]["correct"] for r in runs)
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
