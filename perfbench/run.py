"""catsim benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes passes for about ``--seconds``, and at least ``MIN_PASSES``
of them; it starts a pass only if a pass of typical length would end
nearer to ``--seconds`` than stopping before it.  Each pass is a fresh
interpreter (``worker.py``) with a sub-seed derived from ``--seed``, so
every pass pays the cold start a CLI user pays.  The run checks the
pooled outputs of its passes and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the passes; with ``--trace 1`` one extra, traced pass of sub-seed
0 gives the per-layer metrics.  The line before it holds the details:
environment, per-pass numbers, workload rates, each check, the output
digest and, when traced, the traced pass's wall time minus that of the
untraced pass of the same sub-seed.

Workloads: syndrome_prep, wigner_cli (see workloads.py).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

# The keys of workloads.WORKLOADS, repeated so that arguments are checked
# before anything imports catsim.
WORKLOADS = ("syndrome_prep", "wigner_cli")
# The output checks pool this many passes at least; see workloads.py.
MIN_PASSES = 3
MAX_PASSES = 200
PASS_TIMEOUT_S = 170.0


class PassFailed(RuntimeError):
    pass


def sub_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run, a 32-bit integer."""
    text = f"{seed}:{index}".encode()
    return int(hashlib.sha256(text).hexdigest()[:8], 16)


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass of {workload} (seed {seed}) timed out")
    if proc.returncode != 0:
        raise PassFailed(f"pass of {workload} (seed {seed}) exited {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready_at") - spawned
    report["pass_s"] = time.monotonic() - spawned
    report["seed"] = seed
    return report


def environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        **worker_env,
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
    }


def trace_consistency(report: dict) -> list:
    """Self-checks of one traced pass."""
    spans = report["spans"]
    negative = [name for name, span in spans.items() if span["self_s"] < -1e-9]
    self_sum = sum(span["self_s"] for span in spans.values())
    return [
        ("every traced self time is non-negative", not negative, ", ".join(negative)),
        ("traced self times sum to no more than the pass", self_sum <= report["wall_s"] + 1e-6,
         f"{self_sum:.6f} s of {report['wall_s']:.6f} s"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "catsim", "__init__.py")):
        print(f"no catsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        traced = run_pass(args.workload, sub_seed(args.seed, 0), True) if args.trace else None
        passes = []
        started = time.monotonic()
        while len(passes) < MAX_PASSES:
            # After the minimum, start a pass only if a typical one would end
            # nearer to --seconds than stopping now, so a run lasts --seconds
            # give or take half a pass.
            if len(passes) >= MIN_PASSES and time.monotonic() - started + median(
                p["pass_s"] for p in passes
            ) / 2 > args.seconds:
                break
            passes.append(run_pass(args.workload, sub_seed(args.seed, len(passes)), False))
    except PassFailed as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    warnings.simplefilter("ignore")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer
    import workloads

    workload = workloads.make(args.workload, SCRATCH)
    try:
        checks = workload.check([p["outputs"] for p in passes])
    except Exception as err:  # malformed outputs fail the run, they do not crash it
        checks = [("output checks ran", False, repr(err))]
    runs = passes + ([traced] if traced else [])
    failures = [f for p in runs for f in p["failures"]]
    if traced:
        checks += trace_consistency(traced)
        checks.append((
            "tracing leaves the outputs unchanged", traced["digest"] == passes[0]["digest"],
            f"{traced['digest']} vs {passes[0]['digest']}",
        ))
    attempted = sum(p["attempted"] for p in runs)
    failed = len(failures) + sum(not ok for _, ok, _ in checks)

    rate_names = workload.rates(passes[0]["phases"]).keys()
    rates = {
        name: median([workload.rates(p["phases"])[name] for p in passes])
        for name in rate_names
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(passes[0]["env"]),
        "passes": [
            {key: p[key] for key in ("seed", "setup_s", "wall_s", "cpu_s", "rss_mb", "digest")}
            for p in passes
        ],
        "rates": rates,
        "digest": hashlib.sha256(
            "".join(p["digest"] for p in passes[:MIN_PASSES]).encode()
        ).hexdigest()[:16],
        "checks": [{"check": name, "ok": bool(ok), "detail": text} for name, ok, text in checks],
        "failures": failures,
    }

    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracer.per_layer_unit(name)}
            for name, value in traced["per_layer"].items()
        }
        detail["counters"] = traced["counters"]
        detail["trace_overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    else:
        metrics = {
            "setup_s": {"value": median([p["setup_s"] for p in passes]), "unit": "s"},
            "wall_s": {"value": median([p["wall_s"] for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": median([p["rss_mb"] for p in passes]), "unit": "MB"},
        }

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
