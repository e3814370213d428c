"""Record the baseline: two sets of ten runs of every workload.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--seconds 32] [--out perfbench/baseline.json]

Set 1 uses run seeds 101 to 110 and set 2 uses 201 to 210.  For every
end-to-end metric the output holds each set's median, quartiles and spread
(the interquartile range over the median), the same for the wall-time
medians each run records, and the second set's median over the first's.
It takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_once(workload: str, seed: int, seconds: str) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {record['failures'][:3]}")
    return result, record


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", default="32")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)

    values = {}
    machine = instance_seeds = None
    for index in range(SETS):
        for name in WORKLOADS:
            for seed in range(100 * (index + 1) + 1, 100 * (index + 1) + RUNS + 1):
                result, record = run_once(name, seed, args.seconds)
                machine = record["machine"]
                instance_seeds = {**(instance_seeds or {}), name: record["instance_seed"]}
                for key, metric in result["metrics"].items():
                    walls = values.setdefault(name, {}).setdefault(key, [[], []])
                    walls[0].append(metric["value"])
                    walls[1].append(record["wall_s"].get(key))
                print(f"set {index + 1} {name} seed {seed}", flush=True)

    workloads = {}
    for name, metrics in values.items():
        out = {}
        for key, (seconds, walls) in metrics.items():
            sets = [summary(seconds[i * RUNS:(i + 1) * RUNS]) for i in range(SETS)]
            out[key] = {"sets": sets,
                        "second_over_first": sets[1]["median"] / sets[0]["median"]}
            if None not in walls:
                out[key]["wall_sets"] = [summary(walls[i * RUNS:(i + 1) * RUNS])
                                         for i in range(SETS)]
        workloads[name] = {"instance_seed": instance_seeds[name], "metrics": out}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "seconds": float(args.seconds), "runs_per_set": RUNS,
                   "sets": SETS, "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
