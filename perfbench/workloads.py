"""The benchmark workloads: inputs, bodies and output checks.

Four parts (syndrome_decay, prep_tomography, wigner_mle and
calibration_cli) are paired into the two benchmark workloads at the end
of this file.  A run of a workload is a sequence of passes; each pass is
a fresh interpreter (worker.py) with its own sub-seed, so the package's
``lru_cache``s start cold as they do for every CLI invocation.  A pass
builds its inputs from the sub-seed (set-up), runs the body through
``Ops`` (one closed-loop caller: each public call starts when the
previous one returns) and returns a JSON summary.  The checks pool the
summaries of all passes of a run; every tolerance is set to hold for
any seed at three passes, the fewest a run makes.

Every catsim function is looked up on its module at call time, so that
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile

import numpy as np

import catsim.analytics as analytics
import catsim.cli as cli
import catsim.dynamics as dynamics
import catsim.hilbert as hilbert
import catsim.model as model
import catsim.protocols as protocols
import catsim.tomography as tomography

ALPHA = math.sqrt(2.0)
TWO_OVER_PI = 2.0 / math.pi

# syndrome_decay
DECAY_PROTOCOLS = ("ge", "gf", "ft")
DECAY_N_MAX = 80
DECAY_TRIALS = 40
DECAY_DIM = 20

# prep_tomography
PREP_ATTEMPTS = 3000
PREP_DIM = 20
VACUUM_SHOTS = 1000
TOMO_DIM = 40
TOMO_SHOTS = 8
TOMO_RADIUS = 2.0
RECON_DIM = 20

# wigner_mle
SCAN_DIMS = (20, 30, 40, 50)
RANDOM_PURE_DIMS = (6, 10, 12)
MIXED_DIM = 8
MIXED_WEIGHTS = (0.7, 0.3)
NOISE_SIGMA = 0.02

# calibration_cli: in-process CLI runs at default sizes, except the
# time-dependent ft map, which runs at --fock-dim 10 to keep a pass short.
CLI_RUNS = (
    ("t2-sweep", ("t2-sweep",)),
    ("chevron", ("chevron",)),
    ("stark-shift", ("stark-shift",)),
    ("parity-once-gf", ("parity-once", "--protocol", "gf")),
    ("parity-once-ge", ("parity-once", "--protocol", "ge", "--drive", "off")),
    ("parity-once-ft", ("parity-once", "--protocol", "ft", "--drive", "time-dependent",
                        "--fock-dim", "10")),
    ("error-budget-gf", ("error-budget", "--protocol", "gf")),
    ("error-budget-ft", ("error-budget", "--protocol", "ft")),
    ("wigner", ("wigner",)),
)
TD_REPEAT_ROUNDS = 1
TD_REPEAT_TRIALS = 2


def _tolist(values):
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _density_report(rho) -> dict:
    rho = np.asarray(rho)
    herm = 0.5 * (rho + rho.conj().T)
    return {
        "trace": float(np.real(np.trace(rho))),
        "min_eig": float(np.linalg.eigvalsh(herm)[0]),
        "hermitian_gap": float(np.abs(rho - rho.conj().T).max()),
    }


def _density_ok(report) -> bool:
    return (
        abs(report["trace"] - 1.0) < 1e-9
        and report["min_eig"] > -1e-9
        and report["hermitian_gap"] < 1e-9
    )


# ---------------------------------------------------------------- syndrome


class SyndromeDecay:
    """ge, gf and ft decay curves and fits on the diagonal trajectory path."""

    name = "syndrome_decay"

    def setup(self, seed):
        return {
            "params": model.SystemParams(),
            "basis": hilbert.CavityBasis(DECAY_DIM),
            "seed": seed,
        }

    def body(self, inp, ops):
        out = {}
        for protocol in DECAY_PROTOCOLS:
            result = ops.call(
                "decay_curve", analytics.trajectory_decay_curve,
                inp["params"], protocol, DECAY_N_MAX,
                trials=DECAY_TRIALS, seed=inp["seed"], basis=inp["basis"],
            )
            if result is None:
                continue
            curve, kept = result
            fit = ops.call("fit_decay", analytics.fit_decay, curve)
            out[protocol] = {
                "n": [int(n) for n in curve.n],
                "fidelity": _tolist(curve.fidelity),
                "kept": [int(k) for k in kept],
                "n0": None if fit is None else float(fit.n0),
            }
        return out

    def rates(self, phases):
        rounds = len(DECAY_PROTOCOLS) * DECAY_TRIALS * DECAY_N_MAX
        return {"rounds_per_s": rounds / phases["decay_curve"]}

    def check(self, outputs):
        checks = []
        pooled, survivors = {}, {}
        for protocol in DECAY_PROTOCOLS:
            kept = np.zeros(DECAY_N_MAX)
            weighted = np.zeros(DECAY_N_MAX)
            in_range = True
            for out in outputs:
                curve = out.get(protocol)
                if curve is None:
                    in_range = False
                    continue
                for n, fid, k in zip(curve["n"], curve["fidelity"], curve["kept"]):
                    in_range &= 0.0 <= fid <= 1.0
                    kept[n - 1] += k
                    weighted[n - 1] += k * fid
            checks.append((f"{protocol}: every fidelity in [0, 1]", in_range, ""))
            enough = int(kept.min())
            checks.append((
                f"{protocol}: at least 2 pooled survivors at every N",
                enough >= 2, f"fewest survivors {enough}",
            ))
            pooled[protocol] = weighted / np.maximum(kept, 1)
            survivors[protocol] = kept
        # Each pass aligns its own survivors (about 20 per protocol at N = 80)
        # to the best rotated cat, which lifts the dephased ge and gf
        # ensembles above their floor.  At 40 trials a pass the pooled gap
        # was at least 0.156 (median 0.19) over 84 triples of passes, against
        # 0.17 at 100 trials with one alignment, so the cut sits at 0.10.
        last = {p: float(pooled[p][-1]) for p in DECAY_PROTOCOLS}
        gap = last["ft"] - max(last["gf"], last["ge"])
        checks.append((
            "F(80) of ft exceeds gf and ge by at least 0.10", gap >= 0.10,
            "F(80) " + ", ".join(f"{p} {v:.3f}" for p, v in last.items()),
        ))
        n0 = {}
        for protocol in ("ge", "gf"):
            kept = survivors[protocol] >= 2
            curve = analytics.DecayCurve(
                np.arange(1, DECAY_N_MAX + 1)[kept], pooled[protocol][kept],
                np.zeros(int(kept.sum())),
            )
            n0[protocol] = analytics.fit_decay(curve).n0
        checks.append((
            "pooled n0 of gf exceeds n0 of ge", n0["gf"] > n0["ge"],
            f"n0 ge {n0['ge']:.2f}, gf {n0['gf']:.2f}",
        ))
        return checks


# ---------------------------------------------------------- prep + tomography


def _tomography_betas():
    betas = tomography.square_grid()
    return betas[np.abs(betas) <= TOMO_RADIUS]


class PrepTomography:
    """Heralded cat preparation, then single-shot tomography and MLE."""

    name = "prep_tomography"

    def setup(self, seed):
        basis = hilbert.CavityBasis(TOMO_DIM)
        return {
            "params": model.SystemParams(),
            "seed": seed,
            "prep_basis": hilbert.CavityBasis(PREP_DIM),
            "basis": basis,
            "state": hilbert.joint_state("g", hilbert.cat_state(ALPHA, basis, "even")),
            "betas": _tomography_betas(),
            "vacuum_rng": dynamics.trajectory_rng(seed, protocols.TOMO_STREAM, 1),
            "tomo_rng": dynamics.trajectory_rng(seed, protocols.TOMO_STREAM, 0),
        }

    def body(self, inp, ops):
        params, basis = inp["params"], inp["basis"]
        out = {}
        stats = ops.call(
            "prep", protocols.preparation_statistics, params, inp["seed"],
            n_attempts=PREP_ATTEMPTS, basis=inp["prep_basis"],
        )
        if stats is not None:
            out["prep"] = {
                "attempts": stats.attempts, "successes": stats.successes,
                "mean_parity": float(stats.mean_parity) if stats.successes else None,
            }
        contrast = ops.call(
            "vacuum", tomography.vacuum_contrast, params, VACUUM_SHOTS,
            inp["vacuum_rng"], basis,
        )
        grid = ops.call(
            "tomography", tomography.simulate_tomography, inp["state"], inp["betas"],
            params, TOMO_SHOTS, inp["tomo_rng"], basis,
        )
        if contrast is None or grid is None:
            return out
        out["contrast"] = float(contrast)
        out["raw"] = _tolist(grid.values)
        normalized = ops.call("normalize", tomography.normalize_grid, grid, contrast)
        if normalized is None:
            return out
        result = ops.call("reconstruct", tomography.mle_reconstruct, normalized, RECON_DIM)
        if result is not None:
            out["mle"] = {
                "residual": float(result.residual),
                "iterations": int(result.iterations),
                **_density_report(result.rho),
            }
        return out

    def rates(self, phases):
        shots = len(_tomography_betas()) * TOMO_SHOTS + VACUUM_SHOTS
        return {
            "prep_attempts_per_s": PREP_ATTEMPTS / phases["prep"],
            "tomo_shots_per_s": shots / (phases["vacuum"] + phases["tomography"]),
        }

    def check(self, outputs):
        checks = []
        complete = all(k in out for out in outputs for k in ("prep", "raw", "mle"))
        checks.append(("every pass produced all outputs", complete, ""))
        if not complete:
            return checks

        contrast = float(np.mean([out["contrast"] for out in outputs]))
        checks.append((
            "vacuum contrast is 0.735 +/- 0.05", abs(contrast - 0.735) <= 0.05,
            f"pooled contrast {contrast:.4f} over {len(outputs) * VACUUM_SHOTS} shots",
        ))

        # A heralded cat reads parity +1 or, after an undetected odd jump,
        # -1: of 3319 heralds in 12k attempts, 3297 read above 0.9 and 19
        # below 0.  So each herald is about a +/-1 draw, and a mean of 0.985
        # is an odd weight of 0.0075.  The floor is 0.985 less three
        # binomial standard errors at that weight; at three passes (about
        # 2500 heralds) it is 0.975.  A tripled odd weight (mean 0.964)
        # fails it in about 98 runs of 100, while the measured mean,
        # 0.984-0.991, clears it by about four standard errors.
        successes = sum(out["prep"]["successes"] for out in outputs)
        parity = sum(
            out["prep"]["successes"] * (out["prep"]["mean_parity"] or 0.0)
            for out in outputs
        ) / max(successes, 1)
        odd = (1.0 - 0.985) / 2.0
        stderr = 2.0 * math.sqrt(odd * (1.0 - odd) / max(successes, 1))
        floor = 0.985 - 3.0 * stderr
        checks.append((
            "heralded parity is at least 0.985 within 3 standard errors",
            successes > 0 and parity >= floor,
            f"parity {parity:.4f} over {successes} heralds, floor {floor:.4f}",
        ))

        # Normalized circuit grid against the exact Wigner function of the
        # same cat, in units of the binomial shot noise of each point.
        betas = _tomography_betas()
        basis = hilbert.CavityBasis(TOMO_DIM)
        exact = tomography.wigner_scan(hilbert.cat_state(ALPHA, basis, "even"), betas)
        raw = np.mean([out["raw"] for out in outputs], axis=0)
        shots = TOMO_SHOTS * len(outputs)
        mean_outcome = np.clip(contrast * exact.values / TWO_OVER_PI, -1.0, 1.0)
        sigma = TWO_OVER_PI * np.sqrt((1.0 - mean_outcome**2 + 1.0 / shots) / shots)
        z = (raw - contrast * exact.values) / sigma
        chi2 = float(np.mean(z**2))
        checks.append((
            "normalized grid agrees with the exact wigner_scan within shot noise",
            chi2 <= 2.0, f"mean squared z {chi2:.3f} over {len(betas)} points",
        ))

        valid = all(_density_ok(out["mle"]) for out in outputs)
        checks.append(("every reconstruction is a density matrix", valid, ""))
        return checks


# ---------------------------------------------------------------- wigner+MLE


def _random_pure(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _rotated_draw(rng, dim):
    """A fixed random pure state of ``dim``, turned by a seeded angle.

    The cost of reconstructing independent random states varies by a
    factor of two or more, but hardly under a phase-space rotation, so
    the seed moves the input without moving the work.
    """
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return np.exp(1j * angle * np.arange(dim)) * _random_pure(np.random.default_rng(dim), dim)


class WignerMle:
    """Exact Wigner scans at four dimensions, then MLE reconstructions."""

    name = "wigner_mle"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        targets = [
            ("cat12", hilbert.cat_state(ALPHA, hilbert.CavityBasis(12)), 12, 1e-8),
            ("cat20", hilbert.cat_state(ALPHA, hilbert.CavityBasis(20)), 20, 1e-8),
        ]
        targets += [
            (f"pure{dim}", _rotated_draw(rng, dim), dim, 1e-8) for dim in RANDOM_PURE_DIMS
        ]
        a, b = _random_pure(rng, MIXED_DIM), _random_pure(rng, MIXED_DIM)
        mixed = MIXED_WEIGHTS[0] * np.outer(a, a.conj()) + MIXED_WEIGHTS[1] * np.outer(b, b.conj())
        targets.append(("mixed8", mixed, MIXED_DIM, 1e-14))
        return {
            "betas": tomography.square_grid(),
            "cats": {d: hilbert.cat_state(ALPHA, hilbert.CavityBasis(d)) for d in SCAN_DIMS},
            "targets": targets,
            "noisy_cat": hilbert.cat_state(ALPHA, hilbert.CavityBasis(12)),
            "noise": rng.normal(scale=NOISE_SIGMA, size=len(tomography.square_grid())),
        }

    def body(self, inp, ops):
        betas = inp["betas"]
        out = {"scans": {}, "reconstructions": {}}
        for dim in SCAN_DIMS:
            grid = ops.call("wigner_scan", tomography.wigner_scan, inp["cats"][dim], betas)
            if grid is not None:
                out["scans"][str(dim)] = _tolist(grid.values)

        jobs = []
        for label, state, dim, tol in inp["targets"]:
            grid = ops.call("reconstruct_scan", tomography.wigner_scan, state, betas)
            jobs.append((label, state, dim, tol, grid))
        grid = ops.call("reconstruct_scan", tomography.wigner_scan, inp["noisy_cat"], betas)
        if grid is not None:
            grid = tomography.WignerGrid(grid.betas, grid.values + inp["noise"], grid.shots)
        jobs.append(("noisy12", inp["noisy_cat"], 12, 1e-8, grid))

        for label, state, dim, tol, grid in jobs:
            if grid is None:
                continue
            result = ops.call(
                "reconstruct", tomography.mle_reconstruct, grid, dim, tolerance=tol
            )
            if result is None:
                continue
            rho_true = hilbert.as_density(state)
            out["reconstructions"][label] = {
                "residual": float(result.residual),
                "initial_residual": float(result.history[0]),
                "iterations": int(result.iterations),
                "fidelity": float(np.real(np.trace(rho_true @ result.rho))),
                **_density_report(result.rho),
            }
        out["noise_energy"] = float(np.sum(inp["noise"] ** 2))
        return out

    def rates(self, phases):
        points = len(SCAN_DIMS) * len(tomography.square_grid())
        return {
            "wigner_points_per_s": points / phases["wigner_scan"],
            "reconstruct_s": phases["reconstruct"],
        }

    def check(self, outputs):
        checks = []
        labels = ["cat12", "cat20"] + [f"pure{d}" for d in RANDOM_PURE_DIMS] + ["mixed8", "noisy12"]
        complete = all(
            len(out["scans"]) == len(SCAN_DIMS)
            and all(label in out["reconstructions"] for label in labels)
            for out in outputs
        )
        checks.append(("every pass produced all outputs", complete, ""))
        if not complete:
            return checks

        betas = tomography.square_grid()
        origin = int(np.argmin(np.abs(betas)))
        worst_origin = worst_bound = worst_trunc = 0.0
        for out in outputs:
            reference = np.asarray(out["scans"][str(SCAN_DIMS[-1])])
            for dim in SCAN_DIMS:
                values = np.asarray(out["scans"][str(dim)])
                worst_origin = max(worst_origin, abs(values[origin] - TWO_OVER_PI))
                worst_bound = max(worst_bound, float(np.abs(values).max()) - TWO_OVER_PI)
                inside = np.abs(betas) <= 0.5 * math.sqrt(dim / 4.0)
                worst_trunc = max(worst_trunc, float(np.abs(values - reference)[inside].max()))
        checks.append((
            "even cat has W(0) = 2/pi at every dimension", worst_origin < 1e-6,
            f"worst deviation {worst_origin:.2e}",
        ))
        checks.append(("|W| never exceeds 2/pi", worst_bound < 1e-9, f"excess {worst_bound:.2e}"))
        checks.append((
            "scans agree with dim 50 inside half the trusted radius", worst_trunc < 1e-4,
            f"worst difference {worst_trunc:.2e}",
        ))

        pure = ["cat12", "cat20"] + [f"pure{d}" for d in RANDOM_PURE_DIMS]
        worst_res = max(out["reconstructions"][l]["residual"] for out in outputs for l in pure)
        worst_fid = min(out["reconstructions"][l]["fidelity"] for out in outputs for l in pure)
        checks.append((
            "noise-free pure states reconstruct with residual below 1e-10",
            worst_res < 1e-10, f"worst residual {worst_res:.2e}",
        ))
        checks.append((
            "noise-free pure states reconstruct with fidelity above 0.9999",
            worst_fid > 0.9999, f"worst fidelity {worst_fid:.6f}",
        ))
        # A strongly mixed state is not pinned by its grid and the fit runs
        # to the iteration cap; only the fitted values are reproducible.
        mixed = max(
            out["reconstructions"]["mixed8"]["residual"]
            / out["reconstructions"]["mixed8"]["initial_residual"]
            for out in outputs
        )
        checks.append((
            "rank-2 mixed fit cuts its residual at least 1000-fold", mixed < 1e-3,
            f"worst final/initial residual {mixed:.2e}",
        ))
        # The fit is convex and the true state is feasible, so a converged
        # fit does no worse than it.
        noisy_ok = all(
            out["reconstructions"]["noisy12"]["residual"] <= out["noise_energy"]
            for out in outputs
        )
        checks.append(("noisy-grid fit is no worse than the true state", noisy_ok, ""))
        valid = all(
            _density_ok(out["reconstructions"][label]) for out in outputs for label in labels
        )
        checks.append(("every reconstruction is a density matrix", valid, ""))
        return checks


# -------------------------------------------------------------- CLI + RK4


class CalibrationCli:
    """In-process CLI experiments plus a time-dependent repeated_parity."""

    name = "calibration_cli"

    def __init__(self, scratch_root):
        self.scratch_root = scratch_root

    def setup(self, seed):
        return {"seed": seed, "params": model.SystemParams()}

    def body(self, inp, ops):
        out = {"exit_codes": [], "results": {}}
        os.makedirs(self.scratch_root, exist_ok=True)
        outdir = tempfile.mkdtemp(prefix="cli-", dir=self.scratch_root)
        try:
            for label, argv in CLI_RUNS:
                path = os.path.join(outdir, f"{label}.json")
                argv = list(argv) + ["--seed", str(inp["seed"]), "--out", path]
                code = ops.call("cli", cli.run, argv)
                out["exit_codes"].append(code)
                if code != 0:
                    ops.fail("cli", f"{' '.join(argv)} exited {code}")
                    continue
                with open(path, encoding="utf-8") as fh:
                    out["results"][label] = _cli_summary(json.load(fh))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

        records = ops.call(
            "repeated_parity", protocols.repeated_parity, inp["params"], "ft",
            TD_REPEAT_ROUNDS, trials=TD_REPEAT_TRIALS, seed=inp["seed"],
            drive_mode="time_dependent",
        )
        if records is not None:
            out["repeated_parity"] = {
                "outcomes": [[r.outcome for r in rec] for rec in records],
                "norms": [float(np.linalg.norm(r.cavity)) for rec in records for r in rec],
            }
        return out

    def rates(self, phases):
        return {"cli_s": phases["cli"], "td_repeated_parity_s": phases["repeated_parity"]}

    def check(self, outputs):
        checks = []
        codes = [code for out in outputs for code in out["exit_codes"]]
        checks.append((
            "every CLI exit code is 0",
            len(codes) == len(outputs) * len(CLI_RUNS) and all(c == 0 for c in codes),
            f"codes {sorted(set(codes))}",
        ))
        if not checks[-1][1]:
            return checks
        totals = {}
        for protocol in ("gf", "ft"):
            totals[protocol] = [
                100.0 * out["results"][f"error-budget-{protocol}"]["total"]
                for out in outputs
            ]
        checks.append((
            "error-budget total for gf is 4.20 +/- 0.15 %",
            all(abs(t - 4.20) <= 0.15 for t in totals["gf"]), f"{totals['gf'][0]:.3f} %",
        ))
        checks.append((
            "error-budget total for ft is 1.36 +/- 0.10 %",
            all(abs(t - 1.36) <= 0.10 for t in totals["ft"]), f"{totals['ft'][0]:.3f} %",
        ))
        stark = max(out["results"]["stark-shift"]["worst_rel"] for out in outputs)
        checks.append((
            "stark-shift worst relative error is at most 0.10", stark <= 0.10,
            f"worst {stark:.4f}",
        ))
        probs = [
            value for out in outputs for key, res in out["results"].items()
            if key.startswith("parity-once") for value in res["prob_sums"]
        ]
        checks.append((
            "parity-once level populations sum to 1",
            bool(probs) and all(abs(p - 1.0) < 1e-9 for p in probs), "",
        ))
        repeat_ok = all(
            "repeated_parity" in out
            and all(o in ("g", "e", "f") for rec in out["repeated_parity"]["outcomes"] for o in rec)
            and all(abs(n - 1.0) < 1e-9 for n in out["repeated_parity"]["norms"])
            for out in outputs
        )
        checks.append(("time-dependent repeated_parity gives normalized records", repeat_ok, ""))
        return checks


def _cli_summary(document):
    data = document["data"]
    derived = document["meta"].get("derived", {})
    summary = {}
    if "total" in derived:
        summary["total"] = derived["total"]
    if "chi_measured_hz" in data:
        summary["worst_rel"] = max(
            abs(m / c - 1.0) for m, c in zip(data["chi_measured_hz"], data["chi_model_hz"])
        )
    if "p_g" in data:
        summary["prob_sums"] = [
            sum(row) for row in zip(data["p_g"], data["p_e"], data["p_f"], data["p_h"])
        ]
    numbers = []
    for column in data.values():
        numbers += [v for v in column if isinstance(v, (int, float))]
    summary["values"] = numbers
    return summary


class Combined:
    """A benchmark workload: two of the parts above, back to back in a pass.

    The host's speed drifts over minutes (see README.md), so a run needs
    about a minute to average it out, and the time allowed for all runs
    gives that to two workloads only.  ``syndrome_prep`` exercises the
    diagonal trajectory engine on long and on short ragged records;
    ``wigner_cli`` bypasses it for displacement, MLE, RK4 and the CLI.
    """

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def setup(self, seed):
        return {part.name: part.setup(seed) for part in self.parts}

    def body(self, inp, ops):
        return {part.name: part.body(inp[part.name], ops) for part in self.parts}

    def rates(self, phases):
        rates = {}
        for part in self.parts:
            rates.update(part.rates(phases))
        return rates

    def check(self, outputs):
        checks = []
        for part in self.parts:
            checks += [
                (f"{part.name}: {name}", ok, detail)
                for name, ok, detail in part.check([out[part.name] for out in outputs])
            ]
        return checks


# Benchmark workloads and the parts each pass runs, in order.  The parts'
# phase names do not overlap within a workload, so their rates stay apart.
WORKLOADS = {
    "syndrome_prep": ("syndrome_decay", "prep_tomography"),
    "wigner_cli": ("wigner_mle", "calibration_cli"),
}


def make(name, scratch_root):
    """Workload object by name: a benchmark workload or one of its parts."""
    if name in WORKLOADS:
        return Combined(name, [make(part, scratch_root) for part in WORKLOADS[name]])
    if name == "calibration_cli":
        return CalibrationCli(scratch_root)
    return {
        "syndrome_decay": SyndromeDecay,
        "prep_tomography": PrepTomography,
        "wigner_mle": WignerMle,
    }[name]()
