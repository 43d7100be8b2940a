"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Prints one JSON object on its last line: the monotonic time at which
set-up finished, the body's wall time and per-phase times, the peak RSS,
the call counts, the pass's outputs with their digest and, when traced,
the tracer's counters and spans.  BLAS is pinned to one thread before
numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

# Digest precision: stable under last-bit roundoff, moved by any change in
# which random numbers an output consumed.
DIGEST_DIGITS = 6


class Ops:
    """Closed-loop caller: times, counts and guards each top-level call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.phases = defaultdict(float)

    def call(self, phase, func, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return func(*args, **kwargs)
            with self.tracer.span(f"bench.{phase}"):
                return func(*args, **kwargs)
        except Exception as err:  # a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{phase}: {err!r}")
            return None
        finally:
            self.phases[phase] += time.perf_counter() - start

    def fail(self, phase, message):
        """Count a call that returned but reported failure."""
        self.failures.append(f"{phase}: {message}")


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def digest(outputs) -> str:
    text = json.dumps(_rounded(outputs), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def library_versions() -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")
    import catsim

    if not os.path.abspath(catsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"catsim imported from {catsim.__file__}, not from {SRC}")
    import workloads

    workload = workloads.make(args.workload, os.path.join(ROOT, ".bench_tmp"))
    inputs = workload.setup(args.seed)
    ready_at = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = Ops(tracer)
    start, cpu_start = time.perf_counter(), time.process_time()
    outputs = workload.body(inputs, ops)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    report = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "phases": dict(ops.phases),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "outputs": outputs,
        "digest": digest(outputs),
        "env": library_versions(),
    }
    if tracer is not None:
        report["counters"] = tracer.exact_counters()
        report["spans"] = tracer.spans()
        report["per_layer"] = tracer.per_layer()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
