import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.stats import kstest

from catsim import dynamics

from catsim.hilbert import CavityBasis, cat_state, coherent_state, joint_index, joint_state
from catsim.model import (
    CollapseChannel,
    DriveSpec,
    HamiltonianSpec,
    SystemParams,
    build_hamiltonian,
    cancellation_detuning,
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
from catsim.protocols import repeated_parity
from oracles import rk4_lindblad, rk4_unitary

TWO_PI = 2.0 * math.pi


def two_level_ham(drive=None):
    return HamiltonianSpec(np.zeros(2), drive)


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
    ham = two_level_ham(([0], [1], [TWO_PI * omega / 2.0], 0.0))
    psi = np.array([0.0, 1.0], dtype=complex)
    out = evolve_unitary(psi, ham, 1.0 / (2.0 * omega))
    assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_periodic_drive_detuned_contrast():
    omega = 2.0e6
    detuning = 2.0e6
    ham = two_level_ham(([0], [1], [TWO_PI * omega / 2.0], detuning))
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


def test_master_step_doubling_converges():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    psi = joint_state("e", cat_state(1.1, basis))
    coarse = rk4_lindblad(psi, ham, channels, 2e-6, 4e-9)
    fine = rk4_lindblad(psi, ham, channels, 2e-6, 2e-9)
    exact = evolve_master(psi, ham, channels, 2e-6)
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine < err_coarse
    assert err_fine < 1e-8


def test_master_sectors_damp_a_coherent_state_at_dim_9():
    # Joint dim 36, which the sectors take as exactly as a small problem.
    # Loss alone takes |g>|alpha> to |g>|alpha e^{-t/2T1}>.
    params = SystemParams(kerr=0.0, T1_cavity=2e-6)
    basis = CavityBasis(9)
    ham = build_hamiltonian(params, basis)
    loss = tuple(c for c in collapse_channels(params, basis) if c.label == "cavity_loss")
    psi = joint_state("g", coherent_state(0.3, basis))
    rho = evolve_master(psi, ham, loss, 2e-6)
    damped = joint_state("g", coherent_state(0.3 * math.exp(-0.5), basis))
    assert np.max(np.abs(rho - np.outer(damped, damped.conj()))) < 1e-8


def test_evolve_master_rejects_invalid_states():
    ham, chan = two_level_ham(), decay_channel(1e4)
    psi = np.array([0.6, 0.8j])
    with pytest.raises(ValueError, match="norm"):
        evolve_master(3.0 * psi, ham, (chan,), 1e-6)
    with pytest.raises(ValueError, match="non-finite"):
        evolve_master(np.array([np.nan, 1.0]), ham, (chan,), 1e-6)
    with pytest.raises(ValueError, match="trace"):
        evolve_master(3.0 * np.outer(psi, psi.conj()), ham, (chan,), 1e-6)
    with pytest.raises(ValueError, match="square"):
        evolve_master(np.zeros((2, 3)), ham, (chan,), 1e-6)
    with pytest.raises(ValueError, match="non-finite"):
        evolve_master(np.diag([np.nan, 1.0]), ham, (chan,), 1e-6)


@pytest.mark.parametrize("duration", [-1e-6, math.nan, math.inf])
def test_engine_entry_points_refuse_bad_durations(duration):
    # A negative duration would run the dissipator backwards; NaN gave NaN
    # states and inf an OverflowError.
    ham, chan = two_level_ham(), decay_channel(1e4)
    psi = np.array([0.6, 0.8j])
    streams = dynamics.RowStreams([trajectory_rng(0)])
    calls = (
        lambda: evolve_unitary(psi, ham, duration),
        lambda: evolve_master(psi, ham, (chan,), duration),
        lambda: dynamics.master_propagator(ham, (chan,), duration),
        lambda: run_trajectory(psi, ham, (chan,), duration, trajectory_rng(0)),
        lambda: dynamics.run_trajectories(psi[None], ham, (chan,), duration, streams),
        lambda: trajectory_ensemble_density(psi, ham, (chan,), duration, 4, seed=0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="duration must be non-negative and finite"):
            call()


def test_evolve_master_neither_changes_nor_returns_the_callers_density():
    ham, chan = two_level_ham(), decay_channel(1e4)
    psi = np.array([0.6, 0.8j])
    rho = np.outer(psi, psi.conj())
    kept = rho.copy()
    for duration in (0.0, 1e-6):
        out = evolve_master(rho, ham, (chan,), duration)
        assert out is not rho and not np.shares_memory(out, rho)
        assert np.array_equal(rho, kept)


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


def stiff_mixture(rng, components, populated):
    """Unit weights on ``populated`` of ``components`` rates, one of them zero."""
    gamma = 10.0 ** rng.uniform(2, 6.5, components)
    gamma[rng.integers(components)] = 0.0
    weights = np.zeros(components)
    slots = rng.choice(components, populated, replace=False)
    weights[slots] = rng.random(populated) ** 2
    return weights / weights.sum(), gamma


def test_composition_times_have_the_waiting_time_law():
    # Thresholds on a stratified grid over (S(T), 1) give times whose
    # empirical CDF is (1 - S(t)) / (1 - S(T)).  The times at or below t
    # take v = 1 - r from one interval per populated component, and a grid
    # of spacing (1 - S(T)) / n counts each interval's length to within
    # one point, so the bound is (populated components) / n.
    rng = np.random.default_rng(20)
    n = 20_000
    for populated in (1, 2, 5, 12):
        weights, gamma = stiff_mixture(rng, 40, populated)
        end = 10.0 ** rng.uniform(-6.5, -4.5)
        at_end = float(weights @ np.exp(-gamma * end))
        r = at_end + (1.0 - at_end) * (np.arange(n) + 0.5) / n
        times = np.sort(dynamics._composition_times(
            np.tile(weights, (n, 1)), gamma, r, np.full(n, end)))
        assert times[0] >= 0.0 and times[-1] <= end
        law = (1.0 - np.exp(-np.outer(times, gamma)) @ weights) / (1.0 - at_end)
        below = np.arange(n) / n  # the empirical CDF just before each time
        bound = np.count_nonzero(weights * gamma) / n + 1e-9
        assert np.max(np.abs(law - below)) <= bound
        assert np.max(np.abs(law - below - 1.0 / n)) <= bound


def test_composition_time_of_one_rate_is_the_root():
    rng = np.random.default_rng(21)
    rows = 500
    weights = np.zeros((rows, 8))
    weights[np.arange(rows), rng.integers(8, size=rows)] = 1.0
    gamma = 10.0 ** rng.uniform(2, 6.5, 8)
    end = 10.0 ** rng.uniform(-7, -4, rows)
    at_end = np.sum(weights * np.exp(-gamma * end[:, None]), axis=1)
    r = at_end + (1.0 - at_end) * rng.uniform(1e-6, 1.0 - 1e-6, rows)
    times = dynamics._composition_times(weights, gamma, r, end)
    roots, _ = dynamics._jump_times(weights, gamma, r, end)
    assert np.max(np.abs(times - roots) / roots) <= 1e-12


def test_composition_times_never_pick_a_rate_of_zero():
    # Zero rates carry most of the weight and sit at both ends, where a v
    # at 0 or past the last running sum (r at S(T) or a rounding below it)
    # would land on them; every time stays finite and within [0, T].
    gamma = np.array([0.0, 3e3, 0.0, 4e5, 0.0, 0.0])
    weights = np.array([0.3, 0.05, 0.2, 0.05, 0.2, 0.2])
    end = 2e-5
    at_end = float(weights @ np.exp(-gamma * end))
    r = np.array([1.0, np.nextafter(1.0, 0.0), 0.5 * (1.0 + at_end), at_end,
                  np.nextafter(at_end, 0.0), at_end - 1e-15])
    times = dynamics._composition_times(np.tile(weights, (len(r), 1)), gamma, r,
                                        np.full(len(r), end))
    assert np.all(np.isfinite(times))
    assert np.all((times >= 0.0) & (times <= end))
    assert times[0] == 0.0
    assert times[3:].tolist() == pytest.approx([end] * 3, rel=1e-12)


def test_composition_times_lie_in_the_segment():
    rng = np.random.default_rng(22)
    for _ in range(50):
        weights, gamma = stiff_mixture(rng, 40, rng.integers(1, 40))
        rows = 200
        end = 10.0 ** rng.uniform(-8, -3, rows)
        at_end = np.exp(-np.outer(end, gamma)) @ weights
        r = at_end + (1.0 - at_end) * rng.random(rows)
        times = dynamics._composition_times(np.tile(weights, (rows, 1)), gamma, r, end)
        assert np.all((times >= 0.0) & (times <= end))


def test_composition_times_need_an_open_channel():
    weights = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    gamma = np.array([0.0, 0.0, 1e4])
    with pytest.raises(RuntimeError, match="no open jump channel"):
        dynamics._composition_times(weights, gamma, np.array([0.9, 0.9]), np.full(2, 1e-5))


def test_diagonal_generators_draw_jump_times_without_a_root_solve(monkeypatch, basis20):
    # The undriven and effective waits, and every readout, are diagonal;
    # only the real drive's coupled pairs need the Newton solve.
    def refuse(*args, **kwargs):
        raise AssertionError("root solve on a diagonal generator")

    monkeypatch.setattr(dynamics, "_jump_times", refuse)
    for protocol in ("ge", "gf", "ft"):
        records = repeated_parity(SystemParams(), protocol, 3, basis=basis20, trials=8, seed=1)
        assert any(rnd.jumps for record in records for rnd in record)


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


def sequential_ramsey_t2(params, drive=None, t_max=12e-3, sample_dt=2e-6):
    """ramsey_t2 stepping the whole density one sample at a time, with scipy's expm."""
    basis = CavityBasis(dim=dynamics.RAMSEY_CAVITY_DIM)
    mode = "effective" if drive is not None else "off"
    ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
    channels = collapse_channels(params, basis, drive_on=drive is not None)
    step = expm(dynamics.liouvillian(ham, channels) * sample_dt)
    p_e = params.n_th / (1.0 + params.n_th)
    cavity = np.zeros((basis.dim, basis.dim), dtype=complex)
    cavity[:2, :2] = 0.5
    flat = np.kron(np.diag([1.0 - p_e, p_e, 0.0, 0.0]), cavity).ravel()
    tracked = np.ravel_multi_index((np.arange(4), 0, np.arange(4), 1), (4, basis.dim) * 2)
    c0 = abs(flat[tracked].sum())
    times, values, t = [0.0], [c0], 0.0
    while t < t_max:
        flat = step @ flat
        t += sample_dt
        times.append(t)
        values.append(abs(flat[tracked].sum()))
        if values[-1] < 0.25 * c0:
            break
    if values[-1] > 0.97 * c0:
        return math.inf
    times, values = np.array(times), np.array(values)
    mask = values > 1e-12
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return math.inf if slope >= 0.0 else -1.0 / slope


def test_ramsey_matches_sequential_stepping():
    # The t2-sweep detunings, the undriven probe, a flat curve, and a span
    # that the binary sample times reach exactly, so the last sample is at t_max.
    params = SystemParams()
    center = cancellation_detuning(params, "zero_chi_eg")
    cases = [(params, DriveSpec(params.omega_sb, float(d)), 12e-3, 2e-6)
             for d in np.linspace(0.6, 2.4, 10) * center]
    frozen = SystemParams(chi_e=1e-30, chi_f=1e-30, chi_h=1e-30, kerr=1e-30, T1_cavity=1e3,
                          T1_eg=1e3, T1_fe=1e3, Tphi_g=1e3, Tphi_e=1e3, Tphi_f=1e3, n_th=0.0)
    cases += [(params, None, 12e-3, 2e-6), (frozen, None, 1e-3, 2e-6),
              (params, None, 2.0**-11, 2.0**-20)]
    for case_params, drive, t_max, sample_dt in cases:
        expected = sequential_ramsey_t2(case_params, drive, t_max, sample_dt)
        t2 = ramsey_t2(case_params, drive=drive, t_max=t_max, sample_dt=sample_dt)
        if math.isinf(expected):
            assert t2 == math.inf
        else:
            assert t2 == pytest.approx(expected, rel=1e-12)
    assert math.isinf(sequential_ramsey_t2(frozen, None, 1e-3))


def test_ramsey_default_parameters_in_expected_band():
    t2 = ramsey_t2(SystemParams())
    assert 500e-6 < t2 < 800e-6


def test_ramsey_probe_needs_no_photon_headroom(monkeypatch):
    # No process of the probe raises the photon number, so one more Fock
    # level leaves T2 unchanged.
    params = SystemParams()
    center = cancellation_detuning(params, "zero_chi_eg")
    drives = [None] + [DriveSpec(params.omega_sb, f * center) for f in (0.6, 1.0, 2.4)]
    exact = [ramsey_t2(params, drive=drive) for drive in drives]
    monkeypatch.setattr(dynamics, "RAMSEY_CAVITY_DIM", dynamics.RAMSEY_CAVITY_DIM + 1)
    padded = [ramsey_t2(params, drive=drive) for drive in drives]
    assert exact == pytest.approx(padded, rel=1e-10)


def run_isolated(code):
    """Stdout of ``code`` run in a fresh interpreter that a timeout stops."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynamics.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_ramsey_rejects_a_step_or_span_that_is_not_positive_and_finite():
    # An invalid step or span used to loop forever, so the calls run in a
    # subprocess that a timeout stops.
    code = (
        "import math\n"
        "from catsim.dynamics import ramsey_t2\n"
        "from catsim.model import SystemParams\n"
        "cases = [dict(sample_dt=0.0), dict(sample_dt=-2e-6), dict(sample_dt=math.nan),\n"
        "         dict(sample_dt=math.inf), dict(t_max=math.inf), dict(t_max=0.0),\n"
        "         dict(t_max=-1e-3), dict(t_max=math.nan)]\n"
        "for kwargs in cases:\n"
        "    try:\n"
        "        ramsey_t2(SystemParams(), **kwargs)\n"
        "    except ValueError as err:\n"
        "        assert 'positive and finite' in str(err), err\n"
        "    else:\n"
        "        raise AssertionError(kwargs)\n"
        "print('ok')\n"
    )
    assert run_isolated(code) == "ok"


def test_nan_or_zero_states_are_refused_instead_of_hanging():
    # A NaN or zero state used to send the trajectory passes round forever,
    # and evolve_unitary returned NaN or took a 2-D array; the calls run in
    # a subprocess that a timeout stops.  A NaN row that still reaches the
    # engine stops at its channel guard.
    code = (
        "import numpy as np\n"
        "from catsim import dynamics\n"
        "from catsim.hilbert import CavityBasis\n"
        "from catsim.model import SystemParams, build_hamiltonian, collapse_channels\n"
        "from catsim.tomography import simulate_tomography\n"
        "params, basis = SystemParams(), CavityBasis(4)\n"
        "ham, channels = build_hamiltonian(params, basis), collapse_channels(params, basis)\n"
        "rng = dynamics.trajectory_rng(0)\n"
        "calls = {\n"
        "    'run_trajectory': lambda s: dynamics.run_trajectory(s, ham, channels, 1e-6, rng),\n"
        "    'run_trajectories': lambda s: dynamics.run_trajectories(\n"
        "        s[None], ham, channels, 1e-6, dynamics.RowStreams([rng])),\n"
        "    'ensemble': lambda s: dynamics.trajectory_ensemble_density(\n"
        "        s, ham, channels, 1e-6, 4, seed=0),\n"
        "    'tomography': lambda s: simulate_tomography(s, [0.0], params, 2, rng, basis),\n"
        "    'unitary': lambda s: dynamics.evolve_unitary(s, ham, 1e-6),\n"
        "}\n"
        "inf_row = np.eye(16, dtype=complex)[0]\n"
        "inf_row[3] = np.inf\n"
        "for name, call in calls.items():\n"
        "    for state in (np.full(16, np.nan), np.zeros(16), inf_row):\n"
        "        try:\n"
        "            call(state)\n"
        "        except ValueError:\n"
        "            pass\n"
        "        else:\n"
        "            raise AssertionError(name)\n"
        "try:\n"
        "    dynamics.evolve_unitary(np.eye(16, dtype=complex)[:2], ham, 1e-6)\n"
        "except ValueError as err:\n"
        "    assert '1-D' in str(err), err\n"
        "else:\n"
        "    raise AssertionError('2-D state')\n"
        "try:\n"
        "    dynamics._trajectory_rows(np.full((1, 16), np.nan + 0j),\n"
        "                              dynamics._blocks(ham, channels), channels, 1e-6,\n"
        "                              dynamics.RowStreams([rng]), 0.0)\n"
        "except RuntimeError as err:\n"
        "    assert 'no open jump channel' in str(err), err\n"
        "else:\n"
        "    raise AssertionError('NaN row')\n"
        "print('ok')\n"
    )
    assert run_isolated(code) == "ok"


# 1-norms from far below the degree-13 bound, where the approximant is used
# unscaled, to past it, where the exponential scales and squares.
@pytest.mark.parametrize("norm", [1e-3, 0.1, 0.5, 1.5, 4.0, 10.0, 100.0])
def test_pade_exponential_matches_scipy(norm):
    rng = np.random.default_rng(int(1000 * norm))
    for _ in range(3):
        mat = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        mat *= norm / np.linalg.norm(mat, 1)
        reference = expm(mat)
        error = np.linalg.norm(dynamics._expm(mat) - reference)
        assert error <= 1e-12 * np.linalg.norm(reference)


def test_master_propagator_matches_scipy_on_the_ramsey_liouvillian():
    params = SystemParams()
    basis = CavityBasis(dynamics.RAMSEY_CAVITY_DIM)
    center = cancellation_detuning(params, "zero_chi_eg")
    for drive in (None, DriveSpec(params.omega_sb, center)):
        mode = "off" if drive is None else "effective"
        ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
        channels = collapse_channels(params, basis, drive_on=drive is not None)
        reference = expm(dynamics.liouvillian(ham, channels) * 2e-6)
        # The sector pairs, assembled into the dense propagator.
        propagator = np.zeros_like(reference)
        for idx, block in dynamics.master_propagator(ham, channels, 2e-6):
            propagator[np.ix_(idx, idx)] = block
        error = np.linalg.norm(propagator - reference)
        assert error <= 1e-12 * np.linalg.norm(reference)


def mode_generator(dim, mode):
    """Hamiltonian and channels at the ft drive under ``mode``, or undriven for off."""
    params = SystemParams()
    basis = CavityBasis(dim=dim)
    drive = None if mode == "off" else DriveSpec(params.omega_sb, DRIVE_DETUNINGS[1])
    ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
    return ham, collapse_channels(params, basis, drive_on=drive is not None)


@pytest.mark.parametrize("mode", ["off", "effective", "time_dependent"])
@pytest.mark.parametrize("dim", [4, 6, 8])
def test_sectors_split_the_liouvillian_exactly(dim, mode):
    ham, channels = mode_generator(dim, mode)
    d = 4 * dim
    heff = dynamics._blocks(ham, channels).generator()
    sectors = [idx for idx, _ in dynamics._sectors(heff, channels)]
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(d * d))
    label = np.empty(d * d, dtype=int)
    for k, idx in enumerate(sectors):
        label[idx] = k
    sup = dynamics.liouvillian(ham, channels)
    rows, cols = np.nonzero(sup)
    assert np.array_equal(label[rows], label[cols])
    # Each sector keeps k = N - N' with N = n + [ancilla in h].
    excitations = np.arange(d) % dim + (np.arange(d) // dim == 3)
    k = np.subtract.outer(excitations, excitations).ravel()
    assert all(np.all(k[idx] == k[idx[0]]) for idx in sectors)
    rng = np.random.default_rng(dim)
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = mat @ mat.conj().T
    flat = (rho / np.trace(rho)).reshape(-1)
    out = np.empty_like(flat)
    for idx, block in dynamics.master_propagator(ham, channels, 2e-6):
        out[idx] = block @ flat[idx]
    assert np.max(np.abs(out - dynamics._expm(sup * 2e-6) @ flat)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sector_propagator_matches_the_dense_exponential_on_small_generators(data):
    d = data.draw(st.integers(2, 4), label="d")
    unit = st.floats(-1.0, 1.0)
    diagonal = data.draw(st.lists(unit, min_size=d, max_size=d))
    drive = None
    if data.draw(st.booleans(), label="driven"):
        drive = ([0], [1], [data.draw(unit)], data.draw(unit))
    channels = []
    for _ in range(data.draw(st.integers(0, 3), label="channels")):
        # Each row reads at most one column, so L+L is diagonal.
        op = np.zeros((d, d), dtype=complex)
        for row in range(d):
            col = data.draw(st.integers(-1, d - 1))
            if col >= 0:
                op[row, col] = data.draw(unit)
        channels.append(CollapseChannel("c", op, 1.0))
    ham = HamiltonianSpec(diagonal, drive)
    try:
        sup = dynamics.liouvillian(ham, channels)
    except ValueError as err:
        assert "no frame" in str(err)
        reject()
    dense = dynamics._expm(sup)
    propagator = np.zeros_like(dense)
    for idx, block in dynamics.master_propagator(ham, channels, 1.0):
        propagator[np.ix_(idx, idx)] = block
    assert np.max(np.abs(propagator - dense)) <= 1e-14


def test_sectors_match_forced_step_rk4_at_dim_20():
    # No dense superoperator fits at joint dim 80; lab-frame RK4 at a
    # forced step is the oracle, its error falling 16-fold per halving of
    # the step.
    ham, channels = mode_generator(20, "time_dependent")
    psi = joint_state("e", coherent_state(1.5, CavityBasis(20)))
    exact = evolve_master(psi, ham, channels, 0.1e-6)
    errors = [
        np.max(np.abs(rk4_lindblad(psi, ham, channels, 0.1e-6, dt) - exact))
        for dt in (2e-9, 1e-9)
    ]
    assert errors[1] < 1e-8
    assert 12.0 < errors[0] / errors[1] < 20.0


def test_non_finite_generators_are_refused():
    # No engine meets a non-finite generator: the constructors refuse one
    # (test_model), and the experiments build their drives through
    # DriveSpec, which refuses them.
    with pytest.raises(ValueError, match="finite numbers"):
        chevron_map(SystemParams(), [math.nan], [0.0, 1e-7])
    with pytest.raises(ValueError, match="finite numbers"):
        measured_stark_shift(SystemParams(), DriveSpec(1.7e6, math.nan))


def test_channels_of_the_wrong_shape_are_refused():
    # A channel that is not a square matrix, or whose size is not the
    # Hamiltonian's, is refused by name before numpy fails on its shape.
    psi = np.array([0.6, 0.8j])
    for op in (np.zeros(2), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="'bad' needs a square matrix"):
            CollapseChannel("bad", op, 1.0)
    wide = CollapseChannel("wide", np.eye(3), 1.0)
    with pytest.raises(ValueError, match="'wide' has dimension 3"):
        evolve_master(psi, two_level_ham(), (wide,), 1e-6)
    with pytest.raises(ValueError, match="'wide' has dimension 3"):
        run_trajectory(psi, two_level_ham(), (wide,), 1e-6, trajectory_rng(0))


# Entries of random channels: zeros of either sign and non-finite values
# among them.
_ENTRIES = st.sampled_from([1.0, -1.0, 0.5j, 1.0 + 1.0j, -0.25 + 2.0j, 1e-3, -0.0,
                            complex(-0.0, -0.0), np.nan, complex(0.0, np.nan), np.inf,
                            complex(0.0, -np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_channel_rows_round_trip_and_match_the_dense_tables(data):
    # A row may hold one entry; two nonzeros in a row, or a non-finite
    # entry, are refused by name.
    d = data.draw(st.integers(1, 8), label="d")
    mat = np.zeros((d, d), dtype=complex)
    for row in range(d):
        for col in data.draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True)):
            mat[row, col] = data.draw(_ENTRIES)
    if not np.isfinite(mat).all():
        with pytest.raises(ValueError, match="'c' has a non-finite entry"):
            CollapseChannel("c", mat, 1.0)
        return
    if np.count_nonzero(mat, axis=1).max() > 1:
        with pytest.raises(ValueError, match="'c' has more than one nonzero entry in a row"):
            CollapseChannel("c", mat, 1.0)
        return
    chan = CollapseChannel("c", mat, 1.0)
    assert np.array_equal(chan.operator, mat)
    # The argsort derivation the gather rows replace: each row's first
    # nonzero column, or column 0.
    source = np.argsort(mat == 0.0, axis=1, kind="stable")[:, 0]
    amplitude = mat[np.arange(d), source]
    assert chan.source.tobytes() == source.tobytes()
    assert chan.amplitude.tobytes() == amplitude.tobytes()
    product = mat.conj().T @ mat
    assert np.count_nonzero(product - np.diag(np.diagonal(product))) == 0
    assert np.allclose(chan.product_diag, np.diagonal(product).real, rtol=1e-15, atol=0.0)
    blocks = dynamics._blocks(HamiltonianSpec(np.zeros(d)), (chan,))
    assert blocks.source[0].tobytes() == source.tobytes()
    assert blocks.amplitude[0].tobytes() == amplitude.tobytes()


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


def test_trajectory_rng_rejects_seeds_outside_64_bits():
    # The seed fills one 64-bit word of the Philox key; outside it numpy
    # raised OverflowError, which the CLI did not report as a bad seed.
    trajectory_rng(0)
    trajectory_rng(2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed .* outside"):
            trajectory_rng(seed)


def test_counter_streams_draw_what_trajectory_rng_draws():
    # Row i of CounterStreams(seed, protocol, trials) draws, one uniform a
    # call, what trajectory_rng(seed, protocol, trials[i]).random() draws:
    # over hundreds of draws, so across every four-draw block boundary
    # and several buffer refills, with the rows drawing on ragged and
    # reordered subsets and through views of views.  The keys at the
    # edges of their ranges are included, and no word wraps with a warning.
    pick = np.random.default_rng(0)
    cases = ((0, 0, [0, 1, 2, 3]), (2**64 - 1, 2**32 - 1, [2**32 - 1, 0, 5]), (9, 3, range(7)))
    for seed, protocol, trials in cases:
        trials = list(trials)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            streams = dynamics.CounterStreams(seed, protocol, trials)
            drawn = [[] for _ in trials]
            for _ in range(1000):
                rows = pick.permutation(len(trials))[: pick.integers(1, len(trials) + 1)]
                part = streams.take(rows)
                order = pick.permutation(len(rows))
                for row, value in zip(rows[order], part.take(order).uniforms()):
                    drawn[row].append(value)
        assert len(streams) == len(trials)
        for trial, values in zip(trials, drawn):
            assert len(values) > 3 * dynamics._FULL_FILL
            expected = trajectory_rng(seed, protocol, trial).random(len(values))
            assert np.array_equal(values, expected)


def test_paired_counter_draws_are_two_successive_draws_across_refills():
    # Each row first draws alone up to its lead, so that its pairs start at
    # the end of the first 32-draw buffer (31/32) and of the 64-draw one
    # that widens to 128 (draws 94 and 95), and just before and after.
    lead = np.array([0, 30, 31, 32, 93, 94, 95])
    trials = 3 * np.arange(lead.size)
    paired, single = (dynamics.CounterStreams(11, 2, trials) for _ in range(2))
    for step in range(lead.max()):
        behind = np.flatnonzero(step < lead)
        for streams in (paired, single):
            streams.take(behind).uniforms()
    pairs = []
    for _ in range(40):
        pairs.append(paired._draws(2))
        assert np.array_equal(pairs[-1], np.stack([single.uniforms(), single.uniforms()], 1))
    drawn = np.concatenate(pairs, axis=1)
    for row, (trial, start) in enumerate(zip(trials, lead)):
        expected = trajectory_rng(11, 2, int(trial)).random(start + 80)[start:]
        assert np.array_equal(drawn[row], expected)


def test_paired_row_draws_are_two_successive_draws():
    # A shared generator, one per row, and one shared by some rows only:
    # each row's pair is what two calls of uniforms give it, for the whole
    # stack and for a reordered part of it.
    def layouts():
        shared, partial = trajectory_rng(3, 1, 0), trajectory_rng(3, 1, 1)
        return {
            "shared": [shared] * 4,
            "per_row": [trajectory_rng(3, 2, i) for i in range(4)],
            "partial": [partial, trajectory_rng(3, 3, 0), partial, partial],
        }

    for name, rngs in layouts().items():
        paired, single = dynamics.RowStreams(rngs), dynamics.RowStreams(layouts()[name])
        for rows in (np.arange(4), np.array([2, 0, 3]), np.arange(4)):
            got = paired.take(rows)._draws(2)
            part = single.take(rows)
            assert np.array_equal(got, np.stack([part.uniforms(), part.uniforms()], 1)), name


def test_a_channel_draw_at_the_top_of_the_unit_interval_picks_a_channel_with_weight():
    # Rows in g and e open every channel but relax_fe, dephase_f and
    # thermal_fh.  Running sums over their own sum can end an ulp or more
    # below 1, where a uniform just below 1 would pick the closed
    # thermal_fh; over their own last entry they end at exactly 1.
    params, basis = SystemParams(), CavityBasis(dim=6)
    ham, channels = build_hamiltonian(params, basis), collapse_channels(params, basis)
    psi = np.zeros((64, 4 * basis.dim), dtype=complex)
    rng = np.random.default_rng(0)
    psi[:, : 2 * basis.dim] = rng.normal(size=(64, 12)) + 1j * rng.normal(size=(64, 12))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    weights = (np.abs(psi) ** 2) @ dynamics._blocks(ham, channels).products.T
    assert (np.cumsum(weights, axis=1)[:, -1] / weights.sum(axis=1) < 1.0).any()

    class Stub(dynamics._Streams):
        # First thresholds just below 1, so every row jumps at once; then a
        # channel uniform just below 1 and a threshold of 0, so none again.
        def __init__(self, rows):
            self._rows = np.arange(rows)

        def _draws(self, count):
            return np.tile([np.nextafter(1.0, 0.0), 0.0][:count], (len(self._rows), 1))

    log = []
    out = dynamics._trajectory_rows(psi, dynamics._blocks(ham, channels), channels, 1e-6,
                                    Stub(len(psi)), 0.0, log)
    assert np.isfinite(out).all()
    assert [label for _, _, labels in log for label in labels] == ["thermal_ge"] * len(psi)


def test_counter_streams_refuse_what_trajectory_rng_refuses():
    dynamics.CounterStreams(2**64 - 1, 2**32 - 1, [0, 2**32 - 1])
    for seed, protocol, bad_trial in ((-1, 0, 0), (2**64, 0, 0), (0, 2**32, 0),
                                      (0, -1, 0), (0, 0, 2**32), (0, 0, -1)):
        with pytest.raises(ValueError) as expected:
            trajectory_rng(seed, protocol, bad_trial)
        with pytest.raises(ValueError) as refused:
            dynamics.CounterStreams(seed, protocol, [3, bad_trial, 5])
        assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("dim", [4, 20])
@pytest.mark.parametrize("drive_on", [False, True])
def test_jumps_gather_the_dense_product_bit_for_bit(dim, drive_on):
    # Every channel collapse_channels builds maps each column to at most
    # one row, so the gather of _Blocks.jump is psi @ L.T byte for byte.
    params, basis = SystemParams(), CavityBasis(dim)
    drive = DriveSpec(params.omega_sb, DRIVE_DETUNINGS[1]) if drive_on else None
    mode = "time_dependent" if drive_on else "off"
    ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
    channels = collapse_channels(params, basis, drive_on=drive_on)
    blocks = dynamics._blocks(ham, channels)
    assert blocks.source.shape == (len(channels), 4 * dim)
    picks = np.repeat(np.arange(len(channels)), 3)
    psi = random_rows(np.random.default_rng(dim), len(picks), 4 * dim)
    got = blocks.jump(psi, picks)
    for row, idx in enumerate(picks):
        assert got[row].tobytes() == (psi[row] @ channels[idx].operator.T).tobytes()


def test_jump_times_run_on_the_clock_t0_starts():
    # A static generator does not care where the segment starts, so the
    # same draws give the same offsets, and each jump is timed t0 + offset.
    params = SystemParams()
    basis = CavityBasis(dim=8)
    ham, channels = build_hamiltonian(params, basis), collapse_channels(params, basis)
    psi = joint_state("e", np.eye(8, dtype=complex)[2])
    t0 = 3.7e-6
    jumped = 0
    for trial in range(20):
        start = run_trajectory(psi, ham, channels, 40e-6, trajectory_rng(8, 0, trial))
        later = run_trajectory(psi, ham, channels, 40e-6, trajectory_rng(8, 0, trial), t0=t0)
        assert [(j.label, t0 + j.time) for j in start.jumps] == [
            (j.label, j.time) for j in later.jumps
        ]
        assert np.array_equal(start.state, later.state)
        jumped += bool(start.jumps)
    assert jumped > 0


def test_diagonal_caches_mark_exact_structure():
    diag = np.array([1.0, -2.0, 3.0])
    ham = HamiltonianSpec(diag)
    assert ham.is_static and np.array_equal(ham.static_diagonal, diag)
    assert not HamiltonianSpec(diag, ([0], [1], [1.0], 0.0)).is_static
    # sigma_- reads one column per row, so its L+L is diagonal.
    assert np.array_equal(decay_channel(4.0).product_diag, [0.0, 4.0])


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
    for bad in (0.0, -1e-7), (1e-7, math.nan), (math.inf,):
        with pytest.raises(ValueError, match="non-negative and finite"):
            chevron_map(params, [0.0], bad)


def test_chevron_returns_times_in_the_callers_order():
    params = SystemParams()
    shuffled = [3e-7, 1e-7, 0.0, 2e-7]
    order = np.argsort(shuffled)
    pops = chevron_map(params, [0.0, 1e6], shuffled)
    ascending = chevron_map(params, [0.0, 1e6], np.sort(shuffled))
    assert np.array_equal(pops[:, order], ascending)
    assert not np.array_equal(pops, ascending)


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


# ---------------------------------------------------------------- block engine
#
# Oracles for the rotating-frame block engine.  The sideband drive
# op e^{2 pi i f t} + h.c. is static in the frame U(t) = exp(-2 pi i f t P),
# P the projector onto the states op takes from, where the generator is
# H' = H_static - 2 pi f P + op + op+.  The references below build that
# matrix densely and exponentiate it with scipy, or step the lab-frame
# Schroedinger or Lindblad equation with the RK4 of ``oracles``.

DRIVE_DETUNINGS = (0.0, cancellation_detuning(SystemParams(), "zero_chi_fe"), 3.0e6)


def driven(dim, delta):
    params = SystemParams()
    basis = CavityBasis(dim=dim)
    drive = DriveSpec(params.omega_sb, delta)
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    return ham, collapse_channels(params, basis, drive_on=True)


def frame_generator(ham, channels=()):
    """Dense H' - (i/2) sum L+L and the frame's projector diagonal."""
    _, lower, _, freq = ham.drive
    sources = np.isin(np.arange(len(ham.diagonal)), lower).astype(float)
    gen = ham.matrix(0.0) - TWO_PI * freq * np.diag(sources)
    for chan in channels:
        gen = gen - 0.5j * chan.operator.conj().T @ chan.operator
    return gen, sources


def random_rows(rng, rows, size):
    psi = rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


@pytest.mark.parametrize("delta", DRIVE_DETUNINGS)
@pytest.mark.parametrize("dim", [6, 20])
def test_block_propagator_matches_expm(dim, delta):
    # The closed-form 2x2 blocks against expm of the dense frame generator,
    # without dissipation (H') and with it (H_eff).  With channels the
    # engine's frame also turns |h, dim-1>, so both sides are compared in
    # the lab frame, where the no-jump evolution does not depend on it.
    ham, channels = driven(dim, delta)
    omega = TWO_PI * ham.drive[3]
    psi = random_rows(np.random.default_rng(dim), 3, 4 * dim)
    times = np.array([5e-8, 4e-7, 2.1e-6])
    for chans in ((), channels):
        blocks = dynamics._blocks(ham, chans)
        assert blocks.upper.size == dim - 1
        gen, sources = frame_generator(ham, chans)
        got = blocks.propagate(psi, times)
        for row, t in enumerate(times):
            reference = np.exp(-1j * omega * t * sources) * (expm(-1j * gen * t) @ psi[row])
            assert np.max(np.abs(blocks.frame(got[row], t, -1) - reference)) <= 1e-12


def test_block_propagator_at_exceptional_point():
    # The lower state decays at 4e6 /s and the coupling is 1e6 rad/s, half
    # the difference of the amplitude decay rates: the block's eigenvalues
    # merge, s = 0, and sinh(s t)/s must come from its limit.
    for coupling in (1.0e6, 1.0e6 * (1.0 + 1e-9), 1.0e6 * (1.0 - 1e-9)):
        ham = two_level_ham(([0], [1], [coupling], 0.0))
        chan = decay_channel(4.0e6)
        blocks = dynamics._blocks(ham, (chan,))
        half = 0.5 * (blocks.freq[0] - blocks.freq[1])
        assert (half**2 == coupling**2) == (coupling == 1.0e6)
        gen, _ = frame_generator(ham, (chan,))
        psi = np.array([[0.6, 0.8j], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
        for t in (1e-9, 3e-7, 2e-6):
            got = blocks.propagate(psi, np.full(3, t))
            assert np.all(np.isfinite(got))
            reference = psi @ expm(-1j * gen * t).T
            assert np.max(np.abs(got - reference)) <= 1e-12


@pytest.mark.parametrize("dim", [6, 20])
def test_block_engine_matches_stepped_unitary(dim):
    # Against lab-frame RK4 on random states, from t0 = 0 and from inside
    # a wait; the difference is RK4's own error.
    rng = np.random.default_rng(100 + dim)
    for delta in DRIVE_DETUNINGS[1:]:
        ham, _ = driven(dim, delta)
        for psi, (t0, duration) in zip(random_rows(rng, 2, 4 * dim), ((0.0, 2.1e-6), (7e-7, 1.3e-6))):
            exact = evolve_unitary(psi, ham, duration, t0=t0)
            assert np.max(np.abs(exact - rk4_unitary(psi, ham, duration, t0))) <= 1e-5


def test_unitary_frame_phase_follows_t0():
    # In the lab frame the drive phase at t0 matters: the exact propagator
    # is U(t0 + T) expm(-i H' T) U(t0)+, and splitting a span at any point
    # cannot change its end.
    ham, _ = driven(6, DRIVE_DETUNINGS[1])
    gen, sources = frame_generator(ham)
    omega = TWO_PI * ham.drive[3]
    psi = random_rows(np.random.default_rng(3), 1, 24)[0]
    t0, duration = 4e-7, 1.1e-6
    enter = np.exp(1j * omega * t0 * sources)
    leave = np.exp(-1j * omega * (t0 + duration) * sources)
    reference = leave * (expm(-1j * gen * duration) @ (enter * psi))
    assert np.max(np.abs(evolve_unitary(psi, ham, duration, t0=t0) - reference)) <= 1e-12
    split = evolve_unitary(evolve_unitary(psi, ham, 3e-7, t0=t0), ham, duration - 3e-7, t0=t0 + 3e-7)
    assert np.max(np.abs(split - reference)) <= 1e-12


def test_block_jump_time_solve_matches_brentq():
    # With mixing pairs log S(t) need not be convex; the safeguarded solve
    # still lands on S(t) = r, with S from expm of the dense H_eff.
    ham, channels = driven(6, DRIVE_DETUNINGS[1])
    blocks = dynamics._blocks(ham, channels)
    gen, _ = frame_generator(ham, channels)
    rng = np.random.default_rng(11)
    psi = random_rows(rng, 40, 24)
    end = 6e-6
    survival_end = np.sum(np.abs(psi @ expm(-1j * gen * end).T) ** 2, axis=1)
    r = survival_end + (1.0 - survival_end) * rng.uniform(0.01, 0.99, 40)
    weights = np.abs(psi) ** 2
    times, iterations = dynamics._jump_times(
        weights, blocks.gamma, r, np.full(40, end), blocks, psi
    )
    assert iterations < dynamics._NEWTON_CAP
    for row, (ri, t) in enumerate(zip(r, times)):
        def gap(x):
            return float(np.sum(np.abs(expm(-1j * gen * x) @ psi[row]) ** 2)) - ri

        reference = brentq(gap, 0.0, end, xtol=1e-22, rtol=1e-14)
        assert abs(t - reference) <= 1e-9 * reference


def test_first_jump_time_cdf_matches_block_survival():
    # P(first jump <= t) = 1 - S(t) with S the squared norm under H_eff;
    # |e, 2> + |h, 1> is one of the pairs the drive mixes.
    ham, channels = driven(6, DRIVE_DETUNINGS[1])
    psi = np.zeros(24, dtype=complex)
    psi[joint_index("e", 2, 6)] = psi[joint_index("h", 1, 6)] = 1.0 / math.sqrt(2.0)
    rows = 4000
    duration = 30e-6
    streams = dynamics.RowStreams([trajectory_rng(5, 0, i) for i in range(rows)])
    _, jumps = dynamics.run_trajectories(
        np.tile(psi, (rows, 1)), ham, channels, duration, streams
    )
    first = np.array([j[0].time if j else np.inf for j in jumps])
    gen, _ = frame_generator(ham, channels)
    grid = np.linspace(0.0, duration, 41)[1:]
    expected = [1.0 - np.sum(np.abs(expm(-1j * gen * t) @ psi) ** 2) for t in grid]
    empirical = [np.mean(first <= t) for t in grid]
    assert expected[-1] > 0.4
    assert np.max(np.abs(np.array(empirical) - expected)) < 0.03


def edge_case():
    # Cavity loss at T1 = 5 us on a state at the truncation edge: the
    # channel takes |h, 3>, which the drive leaves alone, to the driven
    # |h, 2>.
    params = SystemParams(T1_cavity=5e-6)
    basis = CavityBasis(dim=4)
    drive = DriveSpec(params.omega_sb, DRIVE_DETUNINGS[1])
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    psi = np.zeros(16, dtype=complex)
    for level, n in (("h", 2), ("h", 3), ("e", 3)):
        psi[joint_index(level, n, 4)] = 1.0 / math.sqrt(3.0)
    return psi, ham, collapse_channels(params, basis, drive_on=True), 1e-7


def cat_case():
    ham, channels = driven(6, DRIVE_DETUNINGS[1])
    anc = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(3.0)
    return np.kron(anc, cat_state(1.0, CavityBasis(dim=6))), ham, channels, 1e-8


def undriven_case():
    params = SystemParams()
    basis = CavityBasis(dim=6)
    psi = joint_state("e", cat_state(1.1, basis))
    return psi, build_hamiltonian(params, basis), collapse_channels(params, basis), 1e-7


@pytest.mark.parametrize("case", [cat_case, edge_case, undriven_case])
def test_driven_master_matches_lab_frame_lindblad(case):
    # Neither the frame's derivation nor the sector split is shared: the
    # reference steps the lab-frame H(t) at 1 ns.  The edge case fails by
    # 3e-2 if the frame turns only the drive's source states, which leaves
    # cavity loss time-dependent at |h, dim-1>; the undriven case checks
    # the sectors with no frame at all.
    psi, ham, channels, tolerance = case()
    exact = evolve_master(psi, ham, channels, 2e-6)
    reference = rk4_lindblad(psi, ham, channels, 2e-6, 1e-9)
    assert np.max(np.abs(exact - reference)) <= tolerance


def test_jumps_into_the_turned_states_match_master():
    # At the truncation edge of a dim-4 cavity, thermal f -> h jumps and
    # cavity loss out of |h, 3> land in the states the frame turns; the
    # trajectories apply them there without leaving the frame.  The mean of
    # N pure states misses rho by D with E|D|_F^2 = sigma^2 = (1 - Tr rho^2)/N,
    # and |D|_F, a sum over 256 entries, stays near sigma; the trace distance
    # is at most sqrt(d) |D|_F / 2, so sqrt(d) sigma allows twice that.
    params = SystemParams(n_th=1.0, T1_cavity=4e-6)
    basis = CavityBasis(dim=4)
    drive = DriveSpec(params.omega_sb, DRIVE_DETUNINGS[1])
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    channels = collapse_channels(params, basis, drive_on=True)
    psi = np.zeros(16, dtype=complex)
    for level, n in (("f", 3), ("h", 3), ("f", 2), ("e", 3)):
        psi[joint_index(level, n, 4)] = 0.5
    rows = 8000
    reference = evolve_master(psi, ham, channels, 2e-6)
    streams = dynamics.RowStreams([trajectory_rng(6, 0, i) for i in range(rows)])
    states, jumps = dynamics.run_trajectories(
        np.tile(psi, (rows, 1)), ham, channels, 2e-6, streams
    )
    labels = [j.label for row in jumps for j in row]
    assert labels.count("thermal_fh") > 500 and labels.count("cavity_loss") > 5000
    sampled = states.T @ states.conj() / rows
    purity = float(np.real(np.trace(reference @ reference)))
    sigma = math.sqrt((1.0 - purity) / rows)
    assert trace_distance(reference, sampled) <= math.sqrt(16) * sigma


def test_time_dependent_ensemble_matches_master():
    # The exact block trajectories average to the master equation of the
    # oscillating drive.
    ham, channels = driven(6, DRIVE_DETUNINGS[1])
    anc = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(3.0)
    psi = np.kron(anc, cat_state(1.0, CavityBasis(dim=6)))
    duration = 2e-6
    reference = evolve_master(psi, ham, channels, duration)
    sampled = trajectory_ensemble_density(psi, ham, channels, duration, 2000, seed=3)
    assert trace_distance(reference, sampled) < 0.02


def test_generators_outside_the_block_structure_are_rejected():
    # A drive off disjoint pairs, or a channel row reading two columns,
    # cannot be built (test_model).
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    # The drive takes |1> to |0>, so the frame turns |1> but not |0>; a
    # channel that swaps them, or that both keeps |1> and takes it to
    # |0>, then picks up more than a global phase in any frame.
    swap, mix = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    swap[0, 1] = swap[1, 0] = mix[1, 1] = mix[0, 1] = 1.0
    driven_pair = HamiltonianSpec(np.zeros(3), ([0], [1], [1e6], 1e6))
    for op in (swap, mix):
        chan = CollapseChannel("c", op, 1.0)
        with pytest.raises(ValueError, match="no frame"):
            evolve_master(psi, driven_pair, (chan,), 1e-6)
        with pytest.raises(ValueError, match="no frame"):
            run_trajectory(psi, driven_pair, (chan,), 1e-6, trajectory_rng(0))


def test_block_structure_is_built_once_per_hamiltonian_and_channels():
    # A list of channels runs as the tuple does, and a batched record
    # builds the map's and the readout's structure once each.
    ham, channels = driven(6, DRIVE_DETUNINGS[1])
    psi = random_rows(np.random.default_rng(9), 6, 24)

    def run(chans):
        streams = dynamics.RowStreams([trajectory_rng(9, 0, i) for i in range(6)])
        return dynamics.run_trajectories(psi, ham, chans, 20e-6, streams)

    (tuple_states, tuple_jumps), (list_states, list_jumps) = run(channels), run(list(channels))
    assert any(tuple_jumps)
    assert tuple_states.tobytes() == list_states.tobytes() and tuple_jumps == list_jumps
    by_list = evolve_master(psi[0], ham, list(channels), 1e-6)
    assert np.array_equal(by_list, evolve_master(psi[0], ham, channels, 1e-6))
    dynamics._blocks.cache_clear()
    repeated_parity(SystemParams(), "ft", 3, basis=CavityBasis(8), trials=5, seed=1,
                    drive_mode="time_dependent")
    info = dynamics._blocks.cache_info()
    assert (info.misses, info.hits) == (2, 4)
