"""Whole-system checks of the simulator's headline behavior.

Each test covers one externally meaningful claim, from operator algebra
through full decay-curve ratios, and prints the measured numbers so a
verbose run doubles as a results table.
"""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

import catsim.cli as cli
from catsim.analytics import (
    error_event_table,
    fit_decay,
    phase_kick_monte_carlo,
    t2_model_curve,
    thermal_dephasing_rate,
    total_dephasing_probability,
    trajectory_decay_curve,
)
from catsim.dynamics import (
    chevron_map,
    evolve_master,
    evolve_unitary,
    measured_stark_shift,
    ramsey_t2,
    trajectory_ensemble_density,
    trajectory_rng,
)
from catsim.hilbert import CavityBasis, cat_state, joint_state
from catsim.model import (
    DriveSpec,
    SystemParams,
    build_hamiltonian,
    cancellation_detuning,
    collapse_channels,
    induced_chi,
)
from catsim.protocols import InjectedError, parity_map, preparation_statistics
from catsim.tomography import (
    aligned_cat_fidelity,
    mle_reconstruct,
    normalize_grid,
    simulate_tomography,
    square_grid,
    vacuum_contrast,
)
from oracles import rk4_lindblad

pytestmark = pytest.mark.acceptance

ALPHA = math.sqrt(2.0)

LEVEL_INDEX = {"g": 0, "e": 1, "f": 2, "h": 3}


def ketbra(i: int, j: int) -> np.ndarray:
    mat = np.zeros((4, 4), dtype=complex)
    mat[i, j] = 1.0
    return mat


def ancilla_populations(state: np.ndarray, dim: int) -> np.ndarray:
    return np.abs(state.reshape(4, dim)) ** 2 @ np.ones(dim)


def cavity_branch(state: np.ndarray, level: str, dim: int) -> np.ndarray:
    vec = state.reshape(4, dim)[LEVEL_INDEX[level]]
    return vec / np.linalg.norm(vec)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(vals)))


def test_operator_identities():
    params = SystemParams()
    basis = CavityBasis(dim=12)
    dim = basis.dim
    eye = np.eye(dim)
    number = np.asarray(basis.number())
    create = basis.creation()

    # Sideband commutator: the raise/lower pair contracts to number
    # operators on the e and h blocks.  The h-block expression picks up
    # the extra +1, and the truncated creation operator breaks the
    # identity only at the last Fock level, which is masked after its
    # defect is confirmed.
    raise_eh = np.kron(ketbra(1, 3), create)
    lower_he = raise_eh.conj().T
    drive = DriveSpec(params.omega_sb, 10.0 * params.omega_sb)
    prefactor = drive.omega**2 / (4.0 * drive.detuning)
    lhs = prefactor * (raise_eh @ lower_he - lower_he @ raise_eh)
    rhs = prefactor * (np.kron(ketbra(1, 1), number) - np.kron(ketbra(3, 3), number + eye))
    diff = np.abs(lhs - rhs)
    edge = 3 * dim + (dim - 1)
    assert diff[edge, edge] > abs(prefactor) * (dim - 0.5)
    diff[edge, :] = 0.0
    diff[:, edge] = 0.0
    sideband_err = float(diff.max()) / float(np.abs(rhs).max())
    assert sideband_err <= 1e-12

    # Away from resonance the exact dressed shift reduces to the same
    # prefactor, tying the commutator algebra to the induced pull.
    assert induced_chi(drive.omega, drive.detuning, 1) == pytest.approx(
        prefactor, rel=0.005
    )

    # With the drive folded in at the e-f matching point, swapping e and
    # f commutes with the whole Hamiltonian.
    drive_ft = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    ham_ft = build_hamiltonian(params, basis, mode="effective", drive=drive_ft).matrix(0.0)
    swap_ef = np.kron(ketbra(1, 2), eye)
    ft_err = float(np.abs(ham_ft @ swap_ef - swap_ef @ ham_ft).max()) / float(
        np.abs(ham_ft).max()
    )
    assert ft_err <= 1e-12

    # Undriven interaction: a g-e coherence precesses at the dispersive
    # pull times the photon number; the Kerr term drops out.
    ham = build_hamiltonian(params, basis).matrix(0.0)
    hop_ge = np.kron(ketbra(0, 1), eye)
    target = -2.0 * math.pi * params.chi_e * np.kron(ketbra(0, 1), number)
    ge_err = float(np.abs(ham @ hop_ge - hop_ge @ ham - target).max()) / float(
        np.abs(ham).max()
    )
    assert ge_err <= 1e-12
    print(
        f"[identities] sideband {sideband_err:.2e}, ft swap {ft_err:.2e}, "
        f"ge coherence {ge_err:.2e} (relative)"
    )


def test_truth_tables_single_injected_errors():
    params = SystemParams()
    basis = CavityBasis(dim=20)
    state = joint_state("g", cat_state(ALPHA, basis, "even"))

    cases = [
        ("ge", None, "g"),
        ("ge", "flip_ge", "e"),
        ("ge", "relax_eg", "split"),
        ("gf", None, "g"),
        ("gf", "flip_gf", "e"),
        ("gf", "relax_fe", "f"),
        ("ft", None, "g"),
        ("ft", "flip_gf", "e"),
        ("ft", "relax_fe", "f"),
    ]
    report = []
    for protocol, error, listed in cases:
        injected = () if error is None else (InjectedError(error, 0.5),)
        out, _ = parity_map(state, params, protocol, basis, injected=injected)
        if listed == "split":
            # An ancilla decay erases the which-path phase, so the
            # closing pulse rebuilds an equal superposition whose
            # relative sign is a pulse convention.
            rho = out.reshape(4, basis.dim)
            rho = rho @ rho.conj().T
            probability = max(
                float(np.real(half.conj() @ rho @ half))
                for half in (
                    np.array([1.0, s, 0.0, 0.0]) / math.sqrt(2.0) for s in (1.0, -1.0)
                )
            )
        else:
            probability = float(
                ancilla_populations(out, basis.dim)[LEVEL_INDEX[listed]]
            )
        report.append(f"{protocol}/{error or 'none'}->{listed}:{probability:.6f}")
        assert probability > 0.999, (
            f"{protocol} with {error or 'no'} error should land on {listed}, "
            f"got probability {probability:.6f}"
        )
    print("[truth tables] " + " ".join(report))


def test_error_transparency_and_midmap_rotation():
    params = SystemParams()
    basis = CavityBasis(dim=20)
    state = joint_state("g", cat_state(ALPHA, basis, "even"))

    # Under the matched drive an e-f decay commutes with the dispersive
    # evolution, so the cavity leaves the map in the same state no
    # matter when the decay struck.
    branches = []
    for at in (0.1, 0.25, 0.5, 0.75, 0.9):
        out, _ = parity_map(
            state, params, "ft", basis, injected=(InjectedError("relax_fe", at),)
        )
        branches.append(cavity_branch(out, "f", basis.dim))
    worst = min(
        abs(np.vdot(branches[0], other)) ** 2 for other in branches[1:]
    )
    assert worst >= 1.0 - 1e-8

    # Without the drive the same decay at mid-map leaves the cat rotated
    # by half the full e-f pull mismatch.
    out, _ = parity_map(
        state, params, "gf", basis, injected=(InjectedError("relax_fe", 0.5),)
    )
    theta, _ = aligned_cat_fidelity(cavity_branch(out, "f", basis.dim), ALPHA, basis)
    expected = 0.3 * math.pi
    print(
        f"[transparency] ft branch agreement {worst:.10f}, "
        f"gf mid-map rotation {theta:.4f} rad vs {expected:.4f}"
    )
    assert abs(theta - expected) <= 0.01 * expected, (
        f"mid-map rotation {theta:.4f} outside {expected:.4f} +/- 1%"
    )


def test_dephasing_model_asymptotics_and_t2():
    params = SystemParams()

    # Motional-narrowing and telegraph limits of the thermal dephasing
    # rate, each probed two decades into its regime.
    chi_small, gamma_fast = 50.0, 1e5
    narrow = thermal_dephasing_rate(chi_small, gamma_fast, 0.025)
    narrow_limit = (2.0 * math.pi * chi_small) ** 2 * 0.025 / gamma_fast
    assert narrow == pytest.approx(narrow_limit, rel=0.05)
    chi_large, gamma_slow = 1e6, 1e3
    telegraph = thermal_dephasing_rate(chi_large, gamma_slow, 0.025)
    assert telegraph == pytest.approx(0.025 * gamma_slow, rel=0.05)

    background = t2_model_curve(params, [1e9])[0][1]
    assert 700e-6 * 0.85 <= background <= 700e-6 * 1.15
    cancel = cancellation_detuning(params, "zero_chi_eg")
    peak = t2_model_curve(params, [cancel])[0][1]
    assert 1.9e-3 * 0.85 <= peak <= 1.9e-3 * 1.15

    deltas = [0.7 * cancel, 0.85 * cancel, cancel, 1.3 * cancel, 1.8 * cancel]
    model = dict(t2_model_curve(params, deltas))
    rels = []
    for delta in deltas:
        simulated = ramsey_t2(params, drive=DriveSpec(params.omega_sb, delta))
        rel = simulated / model[delta] - 1.0
        rels.append(rel)
        assert abs(rel) <= 0.15, (
            f"ramsey T2 {simulated * 1e6:.0f} us vs model "
            f"{model[delta] * 1e6:.0f} us at detuning {delta / 1e6:.2f} MHz"
        )
    print(
        f"[dephasing model] background {background * 1e6:.0f} us, peak "
        f"{peak * 1e6:.0f} us, ramsey rel " + " ".join(f"{r:+.3f}" for r in rels)
    )


def test_error_budget_table_and_totals():
    params = SystemParams()
    events = {e.label: e for e in error_event_table(params, "gf")}

    published_percent = {
        "map_relax_fe": 4.77,
        "map_double_relax": 0.20,
        "map_thermal_fh": 0.38,
        "map_thermal_ge": 0.13,
        "readout_thermal_ge": 0.12,
        "readout_relax_eg": 0.58,
        "readout_relax_fe": 0.42,
        "assign_g_as_e": 0.04,
        "assign_e_as_g": 0.01,
        "assign_e_as_f": 0.02,
        "assign_f_as_e": 0.01,
    }
    assert set(events) == set(published_percent)
    for label, expected in published_percent.items():
        measured = 100.0 * events[label].probability
        assert measured == pytest.approx(expected, abs=0.2), (
            f"{label}: probability {measured:.3f}% vs {expected:.2f}%"
        )

    dephasing_percent = {
        "map_relax_fe": 62.0,
        "map_thermal_ge": 83.0,
        "readout_thermal_ge": 42.0,
        "readout_relax_eg": 42.0,
        "readout_relax_fe": 72.0,
    }
    for label, expected in dephasing_percent.items():
        measured = 100.0 * events[label].dephasing_per_occurrence
        assert measured == pytest.approx(expected, abs=3.0), (
            f"{label}: dephasing per occurrence {measured:.1f}% vs {expected:.0f}%"
        )

    total_gf = 100.0 * total_dephasing_probability(error_event_table(params, "gf"))
    total_ft = 100.0 * total_dephasing_probability(error_event_table(params, "ft"))
    print(f"[error budget] totals gf {total_gf:.3f}% ft {total_ft:.3f}%")
    assert total_gf == pytest.approx(4.20, abs=0.15)
    assert total_ft == pytest.approx(1.36, abs=0.10)


def test_reduced_model_decay_constants():
    params = SystemParams()
    fits = {}
    for protocol in ("gf", "ft"):
        curve = phase_kick_monte_carlo(
            error_event_table(params, protocol), 80, trials=10000, seed=0
        )
        fits[protocol] = fit_decay(curve)
        assert fits[protocol].amplitude == pytest.approx(0.56, abs=0.15)
        assert fits[protocol].floor == pytest.approx(0.37, abs=0.10)
    ratio = fits["ft"].n0 / fits["gf"].n0
    print(
        f"[reduced model] n0 gf {fits['gf'].n0:.1f} ft {fits['ft'].n0:.1f} "
        f"ratio {ratio:.2f} (target 2.0 +/- 0.4); amplitudes "
        f"{fits['gf'].amplitude:.3f}/{fits['ft'].amplitude:.3f}, floors "
        f"{fits['gf'].floor:.3f}/{fits['ft'].floor:.3f}"
    )
    assert ratio == pytest.approx(2.0, abs=0.4), (
        f"ft/gf decay-constant ratio {ratio:.2f} outside 2.0 +/- 0.4 "
        f"(n0 gf {fits['gf'].n0:.1f}, ft {fits['ft'].n0:.1f})"
    )


def test_full_model_decay_ratios():
    params = SystemParams()
    n0 = {}
    for protocol in ("ge", "gf", "ft"):
        curve, _ = trajectory_decay_curve(
            params, protocol, n_max=80, trials=2000, seed=0
        )
        fit = fit_decay(curve)
        assert fit.n0 > 0.0 and math.isfinite(fit.n0)
        n0[protocol] = fit.n0
        # sigma(n0) as parity-decay reports it; past n_max the fit
        # extrapolates a curve that has not reached its floor.
        sigma = cli._fit_fields(fit, 80)["n0_sigma"]
        print(f"[full model] {protocol} n0 {fit.n0:.1f} +/- {sigma:.1f}, "
              f"past n_max 80: {fit.n0 > 80}")
    ratio_gf = n0["gf"] / n0["ge"]
    ratio_ft = n0["ft"] / n0["ge"]
    print(
        f"[full model] n0 ge {n0['ge']:.1f} gf {n0['gf']:.1f} ft {n0['ft']:.1f}; "
        f"gf/ge {ratio_gf:.2f} (target 2.6 +/- 0.6), "
        f"ft/ge {ratio_ft:.2f} (target 5.1 +/- 1.2)"
    )
    ok_gf = abs(ratio_gf - 2.6) <= 0.6
    ok_ft = abs(ratio_ft - 5.1) <= 1.2
    assert ok_gf and ok_ft, (
        f"decay-constant ratios gf/ge {ratio_gf:.2f} (target 2.6 +/- 0.6, "
        f"{'ok' if ok_gf else 'out'}), ft/ge {ratio_ft:.2f} "
        f"(target 5.1 +/- 1.2, {'ok' if ok_ft else 'out'})"
    )


def test_chevron_and_stark_validation():
    params = SystemParams()
    times = np.linspace(0.0, 2.5e-6, 51)
    populations = chevron_map(params, [0.0], times)[0]

    def rabi(t, amplitude, freq):
        return amplitude * np.sin(math.pi * freq * t) ** 2

    popt, _ = curve_fit(rabi, times, populations, p0=(1.0, 1.7e6))
    contrast, freq = float(popt[0]), float(popt[1])
    assert contrast > 0.99
    assert abs(freq - 1.7e6) <= 0.02 * 1.7e6, (
        f"resonant swap frequency {freq / 1e6:.4f} MHz outside 1.7 +/- 2%"
    )

    omega = params.omega_sb
    worst = 0.0
    for detuning in (-10.0 * omega, -5.0 * omega, 5.0 * omega, 10.0 * omega):
        drive = DriveSpec(omega, detuning)
        measured = measured_stark_shift(params, drive, n=1)
        rel = measured / induced_chi(omega, detuning, 1) - 1.0
        worst = max(worst, abs(rel))
    for n in (1, 2, 3, 4):
        drive = DriveSpec(omega, 10e6)
        measured = measured_stark_shift(params, drive, n=n)
        rel = measured / induced_chi(omega, 10e6, n) - 1.0
        worst = max(worst, abs(rel))
    print(
        f"[calibration] chevron {freq / 1e6:.4f} MHz contrast {contrast:.3f}, "
        f"stark worst rel {worst:.4f}"
    )
    assert worst <= 0.10


@pytest.mark.filterwarnings("ignore:.*under-determine")
def test_preparation_and_tomography_chain():
    params = SystemParams()
    stats = preparation_statistics(params, seed=0, n_attempts=20000)
    assert stats.success_rate == pytest.approx(0.33, abs=0.05), (
        f"preparation success rate {stats.success_rate:.4f} outside 0.33 +/- 0.05"
    )
    assert stats.mean_parity >= 0.985

    probe = vacuum_contrast(params, 10000, trajectory_rng(29, 4, 0), CavityBasis(dim=20))
    assert probe == pytest.approx(0.735, abs=0.05)

    # End-to-end: simulate single-shot displaced-parity tomography of an
    # ideal cat in a large space, normalize by the measured vacuum
    # contrast, reconstruct, and align.  The grid is clipped to the
    # radius where the reconstruction basis can represent the
    # displacement; beyond sqrt(dim)/2 the truncated operators no longer
    # model the measured values.
    basis = CavityBasis(dim=40)
    state = joint_state("g", cat_state(ALPHA, basis, "even"))
    betas = square_grid()
    betas = betas[np.abs(betas) <= 2.0]
    grid = simulate_tomography(state, betas, params, 400, trajectory_rng(0, 4, 0), basis)
    contrast = vacuum_contrast(params, 10000, trajectory_rng(0, 4, 1), basis)
    result = mle_reconstruct(normalize_grid(grid, contrast), 20)
    _, fidelity = aligned_cat_fidelity(result.rho, ALPHA)
    print(
        f"[tomography chain] prep rate {stats.success_rate:.4f} parity "
        f"{stats.mean_parity:.4f}, vacuum contrast {probe:.4f}/{contrast:.4f}, "
        f"reconstructed fidelity {fidelity:.4f}"
    )
    assert fidelity >= 0.90, (
        f"reconstructed cat fidelity {fidelity:.4f} below 0.90"
    )


def test_numerics_hygiene(tmp_path):
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    with pytest.warns(UserWarning, match="truncation deficit"):
        cat = cat_state(1.2, basis)
    anc = np.zeros(4, dtype=complex)
    anc[0] = anc[1] = 1.0 / math.sqrt(2.0)
    psi = np.kron(anc, cat)
    duration = 5e-6

    # Fixed-step lab-frame integration converges at fourth order onto the
    # exact sector result.
    reference = evolve_master(psi, ham, channels, duration)
    coarse = trace_distance(reference, rk4_lindblad(psi, ham, channels, duration, 5e-8))
    fine = trace_distance(reference, rk4_lindblad(psi, ham, channels, duration, 2.5e-8))
    assert coarse < 1e-4
    assert fine < coarse / 8.0

    # Splitting a unitary segment cannot change the endpoint.
    once = evolve_unitary(psi, ham, duration)
    split = evolve_unitary(
        evolve_unitary(psi, ham, duration / 2.0), ham, duration / 2.0, t0=duration / 2.0
    )
    assert float(np.linalg.norm(once - split)) < 1e-12

    # Halving the observation grid leaves fitted and sampled outputs
    # unchanged within tight bounds.
    cancel = cancellation_detuning(params, "zero_chi_eg")
    drive = DriveSpec(params.omega_sb, cancel)
    t2_coarse = ramsey_t2(params, drive=drive)
    t2_fine = ramsey_t2(params, drive=drive, sample_dt=1e-6)
    assert abs(t2_fine / t2_coarse - 1.0) < 0.01
    times = np.linspace(0.0, 2.5e-6, 26)
    times_fine = np.linspace(0.0, 2.5e-6, 51)
    chevron_diff = float(
        np.abs(chevron_map(params, [0.0], times)[0]
               - chevron_map(params, [0.0], times_fine)[0][::2]).max()
    )
    assert chevron_diff < 1e-6

    sampled = trajectory_ensemble_density(psi, ham, channels, duration, 2000, seed=0)
    ensemble_gap = trace_distance(reference, sampled)
    assert ensemble_gap < 0.02

    # Same configuration and seed, same bytes.
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.run(["chevron", "--out", str(first)]) == 0
    assert cli.run(["chevron", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print(
        f"[numerics] rk4 {coarse:.2e}->{fine:.2e}, chevron grid {chevron_diff:.2e}, "
        f"ensemble gap {ensemble_gap:.4f} at 2000 trajectories"
    )
