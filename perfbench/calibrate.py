"""Check that the benchmark's end-to-end metrics are steady.

From the repository root::

    python3 perfbench/calibrate.py --workload closure-online \\
        --seeds 1-10 --out perfbench/calibration/closure-online-a.json

runs the benchmark command of ``BENCHMARK.json`` once per seed (one run
after another, untraced, ``run_seconds`` each) and reports, for each
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  A spread at or under a third of the
metric's bound is steady; ``setup_s`` is reported but not held to it.
Each run's wall time, set-up and output check included, is printed and
kept in the summary.
``--against`` takes an earlier summary and also reports how far each
median moved from it, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(declared, workload: str, seed: int):
    command = declared["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", "0",
    ]
    started = time.perf_counter()
    finished = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
    wall_s = time.perf_counter() - started
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        sys.exit(f"calibrate: seed {seed} failed "
                 f"(exit {finished.returncode}):\n{finished.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"calibrate: seed {seed} gave wrong outputs: {result}")
    return ({name: metric["value"]
             for name, metric in result["metrics"].items()}, wall_s)


def summarize(declared, runs, earlier=None):
    summary = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        values = [run[name] for run in runs]
        median = statistics.median(values)
        first, _, third = statistics.quantiles(values, n=4)
        entry = {
            "median": median,
            "spread": (third - first) / median,
            "bound": metric["bound"],
            "values": values,
        }
        if earlier is not None:
            before = earlier[name]["median"]
            worse = (median - before if metric["better"] == "lower"
                     else before - median)
            entry["median_worse_by"] = worse / before
        summary[name] = entry
    return summary


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="seed range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary to this file")
    parser.add_argument("--against", help="an earlier summary to compare")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)["metrics"]
    seeds = seed_list(args.seeds)
    runs = []
    walls = []
    for seed in seeds:
        values, wall_s = run_once(declared, args.workload, seed)
        runs.append(values)
        walls.append(wall_s)
        print(f"seed {seed}: " + " ".join(
            f"{name}={value:.6g}" for name, value in values.items())
            + f" wall_s={wall_s:.1f}", flush=True)
    summary = summarize(declared, runs, earlier)
    steady = True
    for name, entry in summary.items():
        ok = name == "setup_s" or entry["spread"] <= entry["bound"] / 3
        if "median_worse_by" in entry:
            ok = ok and entry["median_worse_by"] <= entry["bound"]
        steady = steady and ok
        moved = (f"  worse by {entry['median_worse_by']:+.3f}"
                 if "median_worse_by" in entry else "")
        print(f"{name:18s} median {entry['median']:12.6g}  spread "
              f"{entry['spread']:.3f}  bound {entry['bound']}{moved}"
              f"  {'ok' if ok else 'UNSTEADY'}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": seeds,
                       "run_seconds": declared["run_seconds"],
                       "wall_s": walls, "metrics": summary},
                      handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
