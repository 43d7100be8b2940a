"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py [--seeds 10] [--out FILE]

It runs every workload of BENCHMARK.json for seeds 1 to ``--seeds`` at
the file's ``run_seconds``.  For every workload and end-to-end metric it
prints the median over the seeds and the distance between the first and
third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  Runs are sequential, so they do not
compete for the processor.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect\n{lines[-2]}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4f}" for name in bounds
            ), flush=True)
        summary[workload] = {}
        for name, series in values.items():
            entry = {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[name],
                "values": series,
            }
            summary[workload][name] = entry
            print(f"  {workload} {name}: median {entry['median']:.4f}, "
                  f"spread {entry['spread']:.4f} (bound {entry['bound']})", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
