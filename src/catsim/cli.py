"""Batch experiment runner with machine-readable output.

Each registered experiment writes one self-describing file: JSON as
``{meta, data}`` with the fully resolved parameter set, seed and version
under ``meta`` and columnar arrays under ``data``, or CSV with the same
meta object on a leading ``# meta:`` comment line.  Identical
configuration and seed produce byte-identical files.  Non-finite numbers
are emitted as nulls (JSON) or empty cells (CSV).

Exit codes: 0 on success, 2 on configuration errors (before any output
is written), 3 on numeric failures, with diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analytics import (
    error_event_table,
    fit_decay,
    phase_kick_monte_carlo,
    t2_model_curve,
    total_dephasing_probability,
    trajectory_decay_curve,
)
from .dynamics import chevron_map, measured_stark_shift, ramsey_t2
from .hilbert import ANCILLA_LEVELS, DEFAULT_ALPHA, CavityBasis, cat_state, joint_state
from .model import DriveSpec, SystemParams, cancellation_detuning, induced_chi
from .protocols import InjectedError, parity_map, preparation_statistics
from .tomography import aligned_cat_fidelity, square_grid, wigner_scan

# Internal evolution name for the hyphenated flag value.
DRIVE_MODES = {"off": "effective", "effective": "effective", "time-dependent": "time_dependent"}


def _fit_fields(fit, n_max: int) -> dict:
    """Fitted decay with sigma(n0) from the covariance (null if none) and a flag.

    ``flag`` is "unresolved" when sigma(n0) >= n0 or is missing,
    "n0_beyond_n_max" when n0 lies past the last round, and None otherwise.
    """
    variance = math.nan if fit.covariance is None else float(fit.covariance[1, 1])
    sigma = math.sqrt(variance) if variance >= 0.0 else math.nan
    flag = "unresolved" if not sigma < fit.n0 else "n0_beyond_n_max" if fit.n0 > n_max else None
    return {"amplitude": fit.amplitude, "n0": fit.n0, "floor": fit.floor,
            "n0_sigma": sigma, "flag": flag}


def _experiment_t2_sweep(args, params):
    center = cancellation_detuning(params, "zero_chi_eg")
    deltas = np.linspace(0.6, 2.4, 10) * center
    model = dict(t2_model_curve(params, deltas))
    data = {
        "delta_hz": [float(d) for d in deltas],
        "t2_model_s": [model[float(d)] for d in deltas],
        "t2_ramsey_s": [
            ramsey_t2(params, drive=DriveSpec(params.omega_sb, float(d)))
            for d in deltas
        ],
    }
    return data, None


def _experiment_chevron(args, params):
    deltas = np.linspace(-4.0, 4.0, 17) * params.omega_sb
    times = np.linspace(0.0, 2.5e-6, 51)
    populations = chevron_map(params, deltas, times)
    data = {
        "delta_hz": [float(d) for d in deltas for _ in times],
        "time_s": [float(t) for _ in deltas for t in times],
        "population": [float(p) for row in populations for p in row],
    }
    return data, None


def _experiment_stark_shift(args, params):
    omega = params.omega_sb
    sweeps, xs, model, measured = [], [], [], []
    for sign in (1.0, -1.0):
        for factor in (5.0, 7.5, 10.0, 15.0):
            delta = sign * factor * omega
            sweeps.append("detuning")
            xs.append(delta)
            model.append(induced_chi(omega, delta, 1))
            measured.append(measured_stark_shift(params, DriveSpec(omega, delta)))
    for n in (1, 2, 3, 4):
        delta = 10.0e6
        sweeps.append("photon")
        xs.append(float(n))
        model.append(induced_chi(omega, delta, n))
        measured.append(measured_stark_shift(params, DriveSpec(omega, delta), n=n))
    data = {
        "sweep": sweeps,
        "x": xs,
        "chi_model_hz": model,
        "chi_measured_hz": measured,
    }
    return data, None


def _experiment_parity_once(args, params):
    basis = CavityBasis(args.fock_dim)
    cat = cat_state(DEFAULT_ALPHA, basis)
    psi0 = joint_state("g", cat)
    # Only errors whose source level is populated during the wait segment
    # can strike there: g/e for the ge protocol, g/f otherwise.
    if args.protocol == "ge":
        injections = ["none", "cavity_loss", "relax_eg", "thermal_ge", "flip_ge"]
    else:
        injections = [
            "none", "cavity_loss", "relax_fe", "thermal_ge", "thermal_fh", "flip_gf",
        ]
    at = 0.5
    data = {key: [] for key in (
        "injection", "at", "p_g", "p_e", "p_f", "p_h",
        "conditioned_on", "fidelity", "aligned_fidelity", "aligned_theta",
    )}
    for name in injections:
        injected = () if name == "none" else (InjectedError(name, at),)
        psi, _ = parity_map(
            psi0, params, args.protocol, basis,
            injected=injected, drive_mode=DRIVE_MODES[args.drive],
        )
        blocks = psi.reshape(4, basis.dim)
        weights = np.sum(np.abs(blocks) ** 2, axis=1)
        level = int(np.argmax(weights))
        conditioned = blocks[level] / np.linalg.norm(blocks[level])
        theta, aligned = aligned_cat_fidelity(conditioned, DEFAULT_ALPHA, basis)
        # F(theta) = |sum_n u_n e^{i theta n}|^2 for u = conj(cat) psi has
        # lag coefficients sum_n u_{n+k} conj(u_n); with none at k != 0 (an
        # odd cat after a photon loss) F is flat, and no angle is measured.
        u = cat.conj() * conditioned
        lags = np.abs(np.correlate(u, u, "full"))
        if lags.sum() - lags[basis.dim - 1] <= 1e-12:
            theta = None
        data["injection"].append(name)
        data["at"].append(0.0 if name == "none" else at)
        for label, weight in zip(ANCILLA_LEVELS, weights):
            data[f"p_{label}"].append(float(weight))
        data["conditioned_on"].append(ANCILLA_LEVELS[level])
        data["fidelity"].append(float(np.abs(np.vdot(cat, conditioned)) ** 2))
        data["aligned_fidelity"].append(aligned)
        data["aligned_theta"].append(theta)
    return data, None


def _experiment_parity_decay(args, params):
    curve, kept = trajectory_decay_curve(
        params,
        args.protocol,
        args.n_max,
        trials=args.trajectories,
        seed=args.seed,
        basis=CavityBasis(args.fock_dim),
        drive_mode=DRIVE_MODES[args.drive],
    )
    data = {
        "n": [int(n) for n in curve.n],
        "fidelity": [float(f) for f in curve.fidelity],
        "stderr": [float(s) for s in curve.stderr],
        "kept": [int(k) for k in kept],
    }
    return data, {"fit": _fit_fields(fit_decay(curve), args.n_max)}


def _experiment_error_budget(args, params):
    table = error_event_table(params, args.protocol)
    curve = phase_kick_monte_carlo(
        table, args.n_max, trials=args.trajectories, seed=args.seed
    )
    data = {
        "label": [event.label for event in table],
        "probability": [event.probability for event in table],
        "delta_chi_hz": [event.delta_chi for event in table],
        "t0_s": [event.window[0] for event in table],
        "t1_s": [event.window[1] for event in table],
        "dephasing": [event.dephasing_per_occurrence for event in table],
    }
    derived = {
        "total": total_dephasing_probability(table),
        "kick_fit": _fit_fields(fit_decay(curve), args.n_max),
        "kick_curve": {
            "n": [int(n) for n in curve.n],
            "fidelity": [float(f) for f in curve.fidelity],
            "stderr": [float(s) for s in curve.stderr],
        },
    }
    return data, derived


def _experiment_prep_cat(args, params):
    stats = preparation_statistics(
        params,
        seed=args.seed,
        n_attempts=args.trajectories,
        basis=CavityBasis(args.fock_dim),
    )
    data = {
        "success_rate": [stats.success_rate],
        "mean_parity": [stats.mean_parity],
        "attempts": [stats.attempts],
        "successes": [stats.successes],
    }
    return data, None


def _experiment_wigner(args, params):
    del params
    betas = square_grid()
    # Pad the state so the far grid corners stay inside the displacement
    # trust radius sqrt(dim)/2.
    work_dim = max(args.fock_dim, math.ceil(4.0 * float(np.abs(betas).max()) ** 2))
    state = np.zeros(work_dim, dtype=complex)
    state[: args.fock_dim] = cat_state(DEFAULT_ALPHA, CavityBasis(args.fock_dim))
    state /= np.linalg.norm(state)
    grid = wigner_scan(state, betas)
    data = {
        "re_beta": [float(b.real) for b in grid.betas],
        "im_beta": [float(b.imag) for b in grid.betas],
        "value": [float(v) for v in grid.values],
        "shots": [int(s) for s in grid.shots],
    }
    return data, None


EXPERIMENTS = {
    "t2-sweep": _experiment_t2_sweep,
    "chevron": _experiment_chevron,
    "stark-shift": _experiment_stark_shift,
    "parity-once": _experiment_parity_once,
    "parity-decay": _experiment_parity_decay,
    "error-budget": _experiment_error_budget,
    "prep-cat": _experiment_prep_cat,
    "wigner": _experiment_wigner,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsim",
        description="Run a registered experiment and write CSV/JSON results.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--params", default=None, help="JSON parameter file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trajectories", type=int, default=2000)
    parser.add_argument("--fock-dim", type=int, default=20)
    parser.add_argument("--out", required=True)
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--protocol", choices=("ge", "gf", "ft"), default="gf")
    parser.add_argument("--n-max", type=int, default=80)
    parser.add_argument(
        "--drive", choices=("off", "effective", "time-dependent"), default="effective"
    )
    return parser


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _write_output(path, fmt, meta, data) -> None:
    """Write to a temporary file beside ``path``, then rename it into place."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
            if fmt == "json":
                text = json.dumps(
                    {"meta": meta, "data": data},
                    indent=2,
                    sort_keys=True,
                    allow_nan=False,
                )
                fh.write(text + "\n")
            else:
                fh.write("# meta: " + json.dumps(meta, sort_keys=True, allow_nan=False) + "\n")
                writer = csv.writer(fh)
                writer.writerow(data.keys())
                for row in zip(*data.values()):
                    writer.writerow("" if item is None else item for item in row)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)

    try:
        params = (
            SystemParams.from_json(args.params) if args.params else SystemParams()
        )
    except (OSError, ValueError) as err:
        print(f"bad parameter file: {err}", file=sys.stderr)
        return 2
    if args.protocol == "ft" and args.drive == "off":
        print("the ft protocol needs the sideband drive on", file=sys.stderr)
        return 2

    try:
        data, derived = EXPERIMENTS[args.experiment](args, params)
    except ValueError as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numeric failure in {args.experiment}: {err}", file=sys.stderr)
        return 3

    meta = {
        "experiment": args.experiment,
        "seed": args.seed,
        "version": __version__,
        "params": params.to_dict(),
    }
    if derived is not None:
        meta["derived"] = _plain(derived)
    try:
        _write_output(args.out, args.format, _plain(meta), _plain(data))
    except OSError as err:
        print(f"cannot write {args.out}: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
