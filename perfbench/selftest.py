"""Self-tests of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs two traced passes and one untraced pass of
seed 1, and checks that

- the two traced passes give identical exact counters (calls per
  function, evolution path split, jumps per channel, survivors, MLE
  iterations, preparation rounds);
- every traced self time is non-negative and they sum to no more than
  the pass;
- tracing leaves the outputs unchanged (equal output digests).

It prints the tracing overhead (traced minus untraced body time) of each
workload.  Last, it checks that run.py refuses to run, with a non-zero
exit and no result, in a directory holding only the benchmark.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check_workload(workload: str, seed: int) -> list:
    first = run.run_pass(workload, seed, True)
    second = run.run_pass(workload, seed, True)
    plain = run.run_pass(workload, seed, False)
    problems = []
    if first["counters"] != second["counters"]:
        differing = sorted(
            key for key in set(first["counters"]) | set(second["counters"])
            if first["counters"].get(key) != second["counters"].get(key)
        )
        problems.append(f"counters differ between traced passes: {differing}")
    for report in (first, second):
        problems += [
            f"{name}: {detail}" for name, ok, detail in run.trace_consistency(report) if not ok
        ]
    if not first["digest"] == second["digest"] == plain["digest"]:
        problems.append("tracing changed the outputs")
    overhead = first["wall_s"] - plain["wall_s"]
    print(f"{workload}: {len(first['counters'])} exact counters, traced "
          f"{first['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
          f"overhead {overhead:.3f} s ({overhead / plain['wall_s']:.1%})", flush=True)
    return problems


def check_bare_directory() -> list:
    """run.py must fail, printing no result, without the catsim sources."""
    os.makedirs(run.SCRATCH, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.SCRATCH)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(run.SCRATCH)
        except OSError:
            pass
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py produced a result without the catsim sources"]
    print(f"bare directory: exit {proc.returncode}, no result", flush=True)
    return []


SEED = 1


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        problems += [f"{workload}: {p}" for p in check_workload(workload, SEED)]
    problems += check_bare_directory()
    for problem in problems:
        print("FAIL", problem)
    print("self-tests", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
