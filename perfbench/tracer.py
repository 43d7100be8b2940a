"""Outside-in tracing of catsim's public functions.

The tracer replaces each public function at every name its callers look
up: the defining module plus each catsim module that imported it by
name, so calls made inside the package are caught as well as calls made
by the benchmark.  Each wrapped call records a span; a span's self time
is its duration minus the durations of its direct child spans.  Counters
(calls, jumps per channel, evolution path, survivors, MLE iterations)
depend only on the inputs and repeat exactly for a seed; times do not.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# Channel labels of catsim.model.collapse_channels.
JUMP_LABELS = (
    "cavity_loss", "relax_eg", "relax_fe", "dephase_g",
    "dephase_e", "dephase_f", "thermal_ge", "thermal_fh",
)
PROTOCOLS = ("ge", "gf", "ft")
CLI_EXPERIMENTS = (
    "t2-sweep", "chevron", "stark-shift", "parity-once", "error-budget", "wigner",
)
# Percentiles are reported only for spans with at least this many calls.
PERCENTILE_MIN_CALLS = 1000
# Spans whose per-call durations are kept for percentiles.
LATENCY_SPANS = (
    "dynamics.run_trajectory.diagonal", "dynamics.run_trajectory.dense",
    "protocols.parity_map", "protocols.readout_and_reset",
)


def _per_layer_names():
    names = [
        "hilbert.displacement.calls", "hilbert.displacement.self_s",
        "model.build_hamiltonian.calls", "model.collapse_channels.calls",
        "model.context.self_s",
        "dynamics.run_trajectory.diagonal.calls",
        "dynamics.run_trajectory.diagonal.self_s",
        "dynamics.run_trajectory.diagonal.p50_us",
        "dynamics.run_trajectory.diagonal.p99_us",
        "dynamics.run_trajectory.dense.calls",
        "dynamics.run_trajectory.dense.self_s",
        "dynamics.run_trajectory.dense.p50_us",
    ]
    names += [f"dynamics.jumps.{label}" for label in JUMP_LABELS]
    names += [
        "dynamics.jump_segment_frac",
        "dynamics.evolve_unitary.calls", "dynamics.evolve_unitary.self_s",
        "dynamics.master_propagator.calls", "dynamics.master_propagator.self_s",
    ]
    for span in ("protocols.parity_map", "protocols.readout_and_reset"):
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.p50_us", f"{span}.p99_us"]
    names += [
        "protocols.repeated_parity.self_s",
        "protocols.ParityFilter.update.calls", "protocols.ParityFilter.update.self_s",
        "protocols.prep.success_frac", "protocols.prep.rounds",
        "tomography.simulate_tomography.self_s", "tomography.vacuum_contrast.total_s",
        "tomography.wigner_scan.calls", "tomography.wigner_scan.self_s",
        "tomography.mle_reconstruct.calls", "tomography.mle_reconstruct.self_s",
        "tomography.mle_reconstruct.iterations",
        "tomography.mle_reconstruct.ms_per_iteration",
        "tomography.aligned_cat_fidelity.calls", "tomography.aligned_cat_fidelity.self_s",
        "analytics.trajectory_decay_curve.self_s",
    ]
    names += [f"analytics.survivor_frac.{p}" for p in PROTOCOLS]
    names += [
        "analytics.fit_decay.calls", "analytics.fit_decay.self_s",
        "analytics.phase_kick_monte_carlo.self_s", "analytics.error_event_table.self_s",
    ]
    names += [f"cli.{name}.s" for name in CLI_EXPERIMENTS]
    names.append("cli.overhead_s")
    return tuple(names)


PER_LAYER_METRICS = _per_layer_names()


def per_layer_unit(name: str) -> str:
    if "_frac" in name:
        return "fraction"
    if name.endswith("_us"):
        return "us"
    if name.endswith("ms_per_iteration"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


class Tracer:
    """Span recorder with counters; install() wraps catsim in place."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(int)
        self._stack = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name):
        _, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if name in LATENCY_SPANS:
            self.durations[name].append(duration)

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    def in_span(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, func, observe=None, classify=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = classify(*args, **kwargs) if classify else name
            tracer._enter(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(span)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every traced function at each name its callers look up."""
        import catsim.analytics as analytics
        import catsim.cli as cli
        import catsim.dynamics as dynamics
        import catsim.hilbert as hilbert
        import catsim.model as model
        import catsim.protocols as protocols
        import catsim.tomography as tomography

        def patch(modules, attr, name, **hooks):
            wrapped = self._wrap(name, getattr(modules[0], attr), **hooks)
            for module in modules:
                setattr(module, attr, wrapped)

        hilbert.CavityBasis.displacement = self._wrap(
            "hilbert.displacement", hilbert.CavityBasis.displacement
        )
        patch([model, dynamics, protocols], "build_hamiltonian", "model.build_hamiltonian")
        patch([model, dynamics, protocols], "collapse_channels", "model.collapse_channels")
        patch([protocols], "_map_context", "model.context")
        patch([protocols], "_readout_context", "model.context")

        patch([dynamics, protocols], "run_trajectory", "dynamics.run_trajectory",
              observe=self._observe_trajectory, classify=_trajectory_path)
        patch([dynamics, protocols], "evolve_unitary", "dynamics.evolve_unitary")
        patch([dynamics], "master_propagator", "dynamics.master_propagator")

        patch([protocols, tomography, cli], "parity_map", "protocols.parity_map")
        patch([protocols, tomography], "readout_and_reset", "protocols.readout_and_reset",
              observe=self._observe_readout)
        patch([protocols, analytics], "repeated_parity", "protocols.repeated_parity")
        patch([protocols, cli], "preparation_statistics",
              "protocols.preparation_statistics", observe=self._observe_prep)
        protocols.ParityFilter.update = self._wrap(
            "protocols.ParityFilter.update", protocols.ParityFilter.update
        )

        patch([tomography], "simulate_tomography", "tomography.simulate_tomography")
        patch([tomography], "vacuum_contrast", "tomography.vacuum_contrast")
        patch([tomography, cli], "wigner_scan", "tomography.wigner_scan")
        patch([tomography], "mle_reconstruct", "tomography.mle_reconstruct",
              observe=self._observe_mle)
        patch([tomography, analytics, cli], "aligned_cat_fidelity",
              "tomography.aligned_cat_fidelity")

        patch([analytics, cli], "trajectory_decay_curve",
              "analytics.trajectory_decay_curve", observe=self._observe_decay)
        patch([analytics, cli], "fit_decay", "analytics.fit_decay")
        patch([analytics, cli], "phase_kick_monte_carlo", "analytics.phase_kick_monte_carlo")
        patch([analytics, cli], "error_event_table", "analytics.error_event_table")

        for experiment, func in list(cli.EXPERIMENTS.items()):
            cli.EXPERIMENTS[experiment] = self._wrap(f"cli.{experiment}", func)
        patch([cli], "run", "cli.run")

    # -- counters ------------------------------------------------------

    def _observe_trajectory(self, result, *args, **kwargs):
        self.counters["segments"] += 1
        if result.jumps:
            self.counters["jump_segments"] += 1
        for jump in result.jumps:
            self.counters[f"jumps.{jump.label}"] += 1

    def _observe_readout(self, result, *args, **kwargs):
        if self.in_span("protocols.preparation_statistics"):
            self.counters["prep.rounds"] += 1

    def _observe_prep(self, stats, *args, **kwargs):
        self.counters["prep.attempts"] += stats.attempts
        self.counters["prep.successes"] += stats.successes

    def _observe_mle(self, result, *args, **kwargs):
        self.counters["mle.iterations"] += int(result.iterations)

    def _observe_decay(self, result, params, protocol, n_max, trials=2000, **kwargs):
        curve, kept = result
        last = int(kept[-1]) if len(curve.n) and int(curve.n[-1]) == n_max else 0
        self.counters[f"survivors.{protocol}"] += last
        self.counters[f"trials.{protocol}"] += int(trials)

    # -- reporting -----------------------------------------------------

    def exact_counters(self) -> dict:
        """Everything that must repeat exactly for one seed."""
        out = {f"calls.{name}": count for name, count in sorted(self.calls.items())}
        out.update(sorted(self.counters.items()))
        return out

    def spans(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }

    def per_layer(self) -> dict:
        """Values of every per-layer metric."""
        out = dict.fromkeys(PER_LAYER_METRICS, 0.0)
        for name in self.calls:
            if name.startswith("cli.") and name != "cli.run":
                out[f"{name}.s"] = self.total[name]
            else:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_time[name]
        for name, values in self.durations.items():
            if len(values) >= PERCENTILE_MIN_CALLS:
                cuts = statistics.quantiles(values, n=100, method="inclusive")
                out[f"{name}.p50_us"] = 1e6 * cuts[49]
                out[f"{name}.p99_us"] = 1e6 * cuts[98]
        # vacuum_contrast does all its work in a simulate_tomography child,
        # so its self time is about zero; its total time is what moves.
        out["tomography.vacuum_contrast.total_s"] = self.total.get(
            "tomography.vacuum_contrast", 0.0
        )
        experiments = sum(
            self.total[name] for name in self.calls
            if name.startswith("cli.") and name != "cli.run"
        )
        out["cli.overhead_s"] = self.total.get("cli.run", 0.0) - experiments
        for label in JUMP_LABELS:
            out[f"dynamics.jumps.{label}"] = self.counters.get(f"jumps.{label}", 0)
        segments = self.counters.get("segments", 0)
        out["dynamics.jump_segment_frac"] = (
            self.counters.get("jump_segments", 0) / segments if segments else 0.0
        )
        attempts = self.counters.get("prep.attempts", 0)
        out["protocols.prep.success_frac"] = (
            self.counters.get("prep.successes", 0) / attempts if attempts else 0.0
        )
        out["protocols.prep.rounds"] = self.counters.get("prep.rounds", 0)
        iterations = self.counters.get("mle.iterations", 0)
        out["tomography.mle_reconstruct.iterations"] = iterations
        out["tomography.mle_reconstruct.ms_per_iteration"] = (
            1e3 * self.self_time.get("tomography.mle_reconstruct", 0.0) / iterations
            if iterations else 0.0
        )
        for protocol in PROTOCOLS:
            trials = self.counters.get(f"trials.{protocol}", 0)
            out[f"analytics.survivor_frac.{protocol}"] = (
                self.counters.get(f"survivors.{protocol}", 0) / trials if trials else 0.0
            )
        return {name: out[name] for name in PER_LAYER_METRICS}


def _trajectory_path(state, ham, channels, duration, rng):
    """Evolution path run_trajectory will take, decided from its inputs."""
    diagonal = (
        ham.is_static
        and ham.static_diagonal is not None
        and all(getattr(c, "product_diag", None) is not None for c in channels)
    )
    return "dynamics.run_trajectory." + ("diagonal" if diagonal else "dense")
