import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.stats import kstest

from catsim import dynamics

from catsim.hilbert import CavityBasis, cat_state, joint_index, joint_state
from catsim.model import (
    CollapseChannel,
    DriveSpec,
    HamiltonianSpec,
    SystemParams,
    build_hamiltonian,
    collapse_channels,
    induced_chi,
)
from catsim.dynamics import (
    chevron_map,
    evolve_master,
    evolve_unitary,
    measured_stark_shift,
    ramsey_t2,
    run_trajectory,
    trajectory_ensemble_density,
    trajectory_rng,
)

TWO_PI = 2.0 * math.pi


def two_level_ham(matrix=None, periodic=()):
    static = np.zeros((2, 2), dtype=complex) if matrix is None else matrix
    return HamiltonianSpec(static=static, periodic=periodic)


def decay_channel(rate, dim=2):
    op = np.zeros((dim, dim), dtype=complex)
    op[0, 1] = 1.0
    return CollapseChannel("relax", math.sqrt(rate) * op, rate)


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_unitary_diagonal_phase_oracle():
    params = SystemParams()
    basis = CavityBasis(dim=8)
    ham = build_hamiltonian(params, basis)
    psi = np.zeros(4 * 8, dtype=complex)
    i_g0 = joint_index("g", 0, 8)
    i_e1 = joint_index("e", 1, 8)
    psi[i_g0] = psi[i_e1] = 1.0 / math.sqrt(2.0)
    out = evolve_unitary(psi, ham, 1e-6)
    rel = np.angle(out[i_e1] * np.conj(out[i_g0]))
    # phase is -E t with E = 2 pi chi_e < 0
    assert rel == pytest.approx(-TWO_PI * params.chi_e * 1e-6, abs=1e-9)


def test_periodic_drive_resonant_rabi():
    omega = 2.0e6
    op = np.zeros((2, 2), dtype=complex)
    op[0, 1] = TWO_PI * omega / 2.0
    ham = two_level_ham(periodic=((op, 0.0),))
    psi = np.array([0.0, 1.0], dtype=complex)
    out = evolve_unitary(psi, ham, 1.0 / (2.0 * omega))
    assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_periodic_drive_detuned_contrast():
    omega = 2.0e6
    detuning = 2.0e6
    op = np.zeros((2, 2), dtype=complex)
    op[0, 1] = TWO_PI * omega / 2.0
    ham = two_level_ham(periodic=((op, detuning),))
    psi = np.array([0.0, 1.0], dtype=complex)
    # sample the generalized Rabi cycle and find the max transfer
    rabi = math.hypot(omega, detuning)
    peak = max(
        abs(evolve_unitary(psi, ham, f * 0.5 / rabi)[0]) ** 2
        for f in np.linspace(0.7, 1.3, 13)
    )
    assert peak == pytest.approx(omega**2 / rabi**2, abs=0.02)


@pytest.mark.parametrize("detuning", [10e6, -10e6])
def test_sideband_stark_shift_matches_dressed_value(detuning):
    # The drive-on phase of |e, 1> relative to |e, 0> measures the induced
    # shift; sudden switch-on micromotion keeps it within a percent.
    params = SystemParams(chi_e=1e-30, chi_f=1e-30, chi_h=1e-30, kerr=1e-30)
    basis = CavityBasis(dim=6)
    drive = DriveSpec(1.7e6, detuning)
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    psi = np.zeros(4 * 6, dtype=complex)
    i_e0 = joint_index("e", 0, 6)
    i_e1 = joint_index("e", 1, 6)
    psi[i_e0] = psi[i_e1] = 1.0 / math.sqrt(2.0)
    t = 2e-6
    out = evolve_unitary(psi, ham, t)
    rel = np.angle(out[i_e1] * np.conj(out[i_e0]))
    measured = -rel / (TWO_PI * t)
    assert measured == pytest.approx(induced_chi(1.7e6, detuning, 1), rel=0.02)


def test_master_exact_single_channel_decay():
    rate = 1.0 / 50e-6
    ham = two_level_ham()
    chan = decay_channel(rate)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    t = 30e-6
    rho = evolve_master(plus, ham, (chan,), t)
    assert rho[1, 1].real == pytest.approx(0.5 * math.exp(-rate * t), abs=1e-10)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-0.5 * rate * t), abs=1e-10)


def test_master_rk4_matches_superoperator():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    psi = joint_state("e", cat_state(1.1, basis))
    exact = evolve_master(psi, ham, channels, 2e-6)
    stepped = evolve_master(psi, ham, channels, 2e-6, dt=1e-9)
    assert np.max(np.abs(exact - stepped)) < 1e-7


def test_master_step_doubling_converges():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    psi = joint_state("e", cat_state(1.1, basis))
    coarse = evolve_master(psi, ham, channels, 2e-6, dt=4e-9)
    fine = evolve_master(psi, ham, channels, 2e-6, dt=2e-9)
    exact = evolve_master(psi, ham, channels, 2e-6)
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine < err_coarse
    assert err_fine < 1e-8


def test_master_positivity_guard_trips_on_huge_step():
    rate = 1.0e7
    ham = two_level_ham()
    chan = decay_channel(rate)
    excited = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(RuntimeError, match="positivity"):
        evolve_master(excited, ham, (chan,), 1e-5, dt=5e-6)


def test_trajectory_without_channels_is_unitary():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    psi = joint_state("e", cat_state(1.0, basis))
    rng = trajectory_rng(3)
    res = run_trajectory(psi, ham, (), 1e-6, rng)
    assert res.jumps == ()
    assert np.allclose(res.state, evolve_unitary(psi, ham, 1e-6), atol=1e-12)


def test_trajectory_jump_times_are_exponential():
    t1 = 25e-6
    ham = two_level_ham()
    chan = decay_channel(1.0 / t1)
    excited = np.array([0.0, 1.0], dtype=complex)
    rng = trajectory_rng(11)
    samples = []
    for _ in range(5000):
        res = run_trajectory(excited, ham, (chan,), 20 * t1, rng)
        if res.jumps:
            samples.append(res.jumps[0].time)
    assert len(samples) == 5000
    assert kstest(samples, "expon", args=(0.0, t1)).pvalue > 0.01


def test_trajectory_channel_competition():
    fast = decay_channel(3.0e4)
    slow_op = np.zeros((2, 2), dtype=complex)
    slow_op[0, 1] = 1.0
    slow = CollapseChannel("slow", math.sqrt(1.0e4) * slow_op, 1.0e4)
    ham = two_level_ham()
    excited = np.array([0.0, 1.0], dtype=complex)
    rng = trajectory_rng(5)
    first = [
        run_trajectory(excited, ham, (fast, slow), 2e-3, rng).jumps[0].label
        for _ in range(4000)
    ]
    frac_fast = first.count("relax") / len(first)
    assert frac_fast == pytest.approx(0.75, abs=0.02)


def test_jump_time_solve_matches_brentq_on_stiff_mixtures():
    # f and h decay at 1e5-1e6 /s beside cavity loss near 1e3 /s per
    # photon; each row's weight sits on one of those levels (every other
    # entry is zero), and r lies just above or just below the survival
    # S(T) at the point T, so the root falls just before or just after T.
    rng = np.random.default_rng(2024)
    dim = 10
    n = np.arange(dim)
    rows = 100
    cases = 0
    worst = 0.0
    for _ in range(100):
        ancilla = np.concatenate([rng.uniform(1e3, 1e5, 2), rng.uniform(1e5, 1e6, 2)])
        gamma = (ancilla[:, None] + rng.uniform(5e2, 2e3) * n).ravel()
        level = rng.integers(2, 4, size=rows)
        weights = np.zeros((rows, 4 * dim))
        amplitudes = rng.random((rows, dim)) ** 4
        weights[np.arange(rows)[:, None], level[:, None] * dim + n] = (
            amplitudes / amplitudes.sum(axis=1, keepdims=True)
        )
        point = 10.0 ** rng.uniform(-7, -5, rows)
        at_point = np.sum(weights * np.exp(-gamma * point[:, None]), axis=1)
        offset = 10.0 ** rng.uniform(-12, -3, rows)
        r = at_point * np.where(rng.random(rows) < 0.5, 1.0 + offset, 1.0 - offset)
        times, iterations = dynamics._jump_times(weights, gamma, r, 2.0 * point)
        assert iterations < dynamics._NEWTON_CAP
        for w, ri, end, t in zip(weights, r, 2.0 * point, times):
            reference = brentq(
                lambda x: float(w @ np.exp(-gamma * x)) - ri, 0.0, end,
                xtol=1e-30, rtol=8.9e-16,
            )
            worst = max(worst, abs(t - reference) / reference)
            cases += 1
    assert cases == 10_000
    assert worst <= 1e-12


def test_jump_time_solve_stops_when_the_root_is_near_zero():
    # With r just below S(0) = 1 the root lies so close to t = 0 that
    # round-off in log S moves t by more than any fixed fraction of t; the
    # solve still stops, with S(t) at r to round-off.
    rng = np.random.default_rng(7)
    rows = 2000
    gamma = rng.uniform(1e3, 1e6, 40)
    weights = rng.random((rows, 40))
    weights /= weights.sum(axis=1, keepdims=True)
    r = weights.sum(axis=1) * (1.0 - 10.0 ** rng.uniform(-15, -6, rows))
    times, iterations = dynamics._jump_times(weights, gamma, r, np.full(rows, 1e-6))
    assert iterations < dynamics._NEWTON_CAP
    assert np.all(times > 0.0)
    survival = np.sum(weights * np.exp(-gamma * times[:, None]), axis=1)
    assert np.max(np.abs(survival - r)) <= 1e-14


def test_batched_rows_match_single_rows():
    # A row of a batch with its own stream ends exactly as it does alone,
    # whether its neighbours jump or not, and a generator shared by rows
    # reruns byte for byte from the same seed.
    params = SystemParams()
    basis = CavityBasis(dim=8)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    psi = joint_state("e", cat_state(1.0, basis))
    rows = np.tile(psi, (12, 1))
    batch, jumps = dynamics.run_trajectories(
        rows, ham, channels, 20e-6,
        dynamics.RowStreams([trajectory_rng(4, 0, i) for i in range(12)]),
    )
    assert any(jumps) and not all(jumps)
    for i in range(12):
        alone = run_trajectory(psi, ham, channels, 20e-6, trajectory_rng(4, 0, i))
        assert [j.label for j in jumps[i]] == [j.label for j in alone.jumps]
        assert np.max(np.abs(batch[i] - alone.state)) <= 1e-12

    def shared_run():
        rng = trajectory_rng(4, 1, 0)
        streams = dynamics.RowStreams([rng, rng, trajectory_rng(4, 0, 3)])
        return dynamics.run_trajectories(rows[:3], ham, channels, 20e-6, streams)

    first, second = shared_run(), shared_run()
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1] == second[1]
    assert np.max(np.abs(first[0][2] - batch[3])) <= 1e-12


def test_trajectory_ensemble_matches_master():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    cat = cat_state(1.2, basis)
    anc = np.zeros(4, dtype=complex)
    anc[0] = anc[1] = 1.0 / math.sqrt(2.0)
    psi = np.kron(anc, cat)
    duration = 5e-6
    reference = evolve_master(psi, ham, channels, duration)
    sampled = trajectory_ensemble_density(psi, ham, channels, duration, 3000, seed=42)
    assert trace_distance(reference, sampled) < 0.02


def test_ramsey_cavity_loss_only_gives_twice_t1():
    quiet = SystemParams(
        chi_e=1e-30,
        chi_f=1e-30,
        chi_h=1e-30,
        kerr=1e-30,
        T1_eg=1e3,
        T1_fe=1e3,
        Tphi_g=1e3,
        Tphi_e=1e3,
        Tphi_f=1e3,
        n_th=0.0,
    )
    t2 = ramsey_t2(quiet, t_max=8e-3, sample_dt=4e-6)
    assert t2 == pytest.approx(2.0 * quiet.T1_cavity, rel=0.03)


def test_ramsey_flat_curve_returns_inf():
    frozen = SystemParams(
        chi_e=1e-30,
        chi_f=1e-30,
        chi_h=1e-30,
        kerr=1e-30,
        T1_cavity=1e3,
        T1_eg=1e3,
        T1_fe=1e3,
        Tphi_g=1e3,
        Tphi_e=1e3,
        Tphi_f=1e3,
        n_th=0.0,
    )
    assert ramsey_t2(frozen, t_max=1e-3) == math.inf


def test_ramsey_default_parameters_in_expected_band():
    t2 = ramsey_t2(SystemParams())
    assert 500e-6 < t2 < 800e-6


def test_trajectory_rng_streams():
    a = trajectory_rng(9, 1, 7).random(4)
    b = trajectory_rng(9, 1, 7).random(4)
    c = trajectory_rng(9, 1, 8).random(4)
    d = trajectory_rng(9, 2, 7).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # Keys at or past 2**63 stay exact: trial 0 and trial 1 of protocol
    # 2**31 are distinct streams.
    high = trajectory_rng(9, 2**31, 0).random(4)
    assert not np.array_equal(high, trajectory_rng(9, 2**31, 1).random(4))
    # Every key in use keeps its stream: (seed, protocol << 32 | trial).
    plain = np.random.Generator(np.random.Philox(key=[9, (1 << 32) | 7]))
    assert np.array_equal(a, plain.random(4))


def test_trajectory_rng_rejects_indices_outside_32_bits():
    # A trial index of 2**32 would carry into the protocol bits and
    # replay the stream of (protocol + 1, trial 0).
    trajectory_rng(7, 2**32 - 1, 2**32 - 1)
    for protocol_index, trial_index in ((0, 2**32), (2**32, 0), (0, -1), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            trajectory_rng(7, protocol_index, trial_index)


def test_diagonal_caches_mark_exact_structure():
    diag = np.array([1.0, -2.0, 3.0], dtype=complex)
    assert np.array_equal(HamiltonianSpec(static=np.diag(diag)).static_diagonal, diag)
    coupled = np.diag(diag)
    coupled[0, 2] = coupled[2, 0] = 1e-30
    assert HamiltonianSpec(static=coupled).static_diagonal is None
    # sigma_- has a diagonal L+L; sigma_x does not.
    assert np.array_equal(decay_channel(4.0).product_diag, [0.0, 4.0])
    flip = CollapseChannel("flip", np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex), 1.0)
    assert flip.product_diag is None


def test_chevron_resonant_full_contrast_at_sideband_rate():
    from scipy.optimize import curve_fit

    params = SystemParams()
    times = np.linspace(0.0, 2.5e-6, 401)
    pops = chevron_map(params, [0.0], times)[0]
    assert pops.max() > 0.99

    def rabi(t, f, a, c):
        return a * np.sin(np.pi * f * t) ** 2 + c

    popt, _ = curve_fit(rabi, times, pops, p0=[params.omega_sb, 1.0, 0.0])
    assert popt[0] == pytest.approx(params.omega_sb, rel=0.02)


def test_chevron_detuned_contrast_follows_rabi_formula():
    params = SystemParams()
    times = np.linspace(0.0, 2.5e-6, 301)
    delta = 2.0 * params.omega_sb
    peak = chevron_map(params, [delta], times)[0].max()
    expected = params.omega_sb**2 / (params.omega_sb**2 + delta**2)
    assert peak == pytest.approx(expected, rel=0.1)


def test_chevron_grid_shape_and_time_validation():
    params = SystemParams()
    pops = chevron_map(params, [0.0, 1e6], [0.0, 1e-7, 2e-7])
    assert pops.shape == (2, 3)
    assert np.all(pops >= 0.0) and np.all(pops <= 1.0)
    with pytest.raises(ValueError):
        chevron_map(params, [0.0], [-1e-7, 0.0])


def test_measured_stark_shift_matches_analytic_when_detuned():
    params = SystemParams()
    for delta in (10e6, -10e6, 8.5e6):
        drive = DriveSpec(params.omega_sb, delta)
        measured = measured_stark_shift(params, drive)
        assert measured == pytest.approx(induced_chi(params.omega_sb, delta, 1), rel=0.05)


def test_measured_stark_shift_rejects_vacuum():
    params = SystemParams()
    with pytest.raises(ValueError):
        measured_stark_shift(params, DriveSpec(params.omega_sb, 10e6), n=0)
