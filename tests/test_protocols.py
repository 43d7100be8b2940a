"""Sequence-level checks: truth tables, filtering, preparation."""

import math
import tracemalloc

import numpy as np
import pytest

from catsim import dynamics, protocols
from catsim.analytics import error_event_table, phase_kick_monte_carlo
from catsim.dynamics import (
    RowStreams,
    _jump_tuples,
    evolve_unitary,
    trajectory_ensemble_density,
    trajectory_rng,
)
from catsim.hilbert import (
    CavityBasis,
    cat_overlap,
    cat_state,
    coherent_state,
    joint_state,
    lift_ancilla,
    reduce_to_cavity,
    state_fidelity,
)
from catsim.model import (
    DriveSpec,
    SystemParams,
    build_hamiltonian,
    cancellation_detuning,
    error_operator,
)
from catsim.protocols import (
    InjectedError,
    ParityFilter,
    ancilla_rotation,
    classify_event,
    map_duration,
    parity_flip_probability,
    parity_map,
    prepare_cat,
    preparation_statistics,
    readout_and_reset,
    repeated_parity,
)
from catsim.tomography import simulate_tomography, vacuum_contrast
from oracles import oracle_round

PULSES = ("ge_half", "ge_half_inv", "ef_full")

ALPHA = math.sqrt(2.0)

QUIET = SystemParams(
    T1_cavity=1e3,
    T1_eg=1e3,
    T1_fe=1e3,
    Tphi_g=1e3,
    Tphi_e=1e3,
    Tphi_f=1e3,
    n_th=1e-12,
    assignment_error=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
)


def ancilla_populations(psi, dim=20):
    block = np.asarray(psi).reshape(4, dim)
    return np.sum(np.abs(block) ** 2, axis=1)


def conditioned_cavity(psi, basis):
    """Cavity density matrix after tracing the ancilla out."""
    return reduce_to_cavity(np.outer(psi, psi.conj()), basis.dim)


def filter_record(outcomes, params, protocol):
    """Run a record through a fresh filter; return it and the last even-parity posterior."""
    filt = ParityFilter.for_protocol(params, protocol)
    even = 1.0
    for outcome in outcomes:
        even = filt.update(outcome)
    return filt, even


def test_map_duration_values():
    p = SystemParams()
    assert map_duration(p, "ge") == pytest.approx(1.0 / (2 * 93e3), rel=1e-12)
    assert map_duration(p, "gf") == pytest.approx(1.0 / (2 * 236e3), rel=1e-12)
    assert map_duration(p, "ft") == map_duration(p, "gf")
    with pytest.raises(ValueError):
        map_duration(p, "xy")


def test_rotation_unitarity():
    for kind in PULSES:
        u = ancilla_rotation(kind)
        assert u.shape == (4, 4)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-14)
    u = ancilla_rotation("ge_half")
    v = ancilla_rotation("ge_half_inv")
    assert np.allclose(v @ u, np.eye(4), atol=1e-14)
    with pytest.raises(ValueError):
        ancilla_rotation("gh_half")


@pytest.mark.parametrize("dim", [6, 20])
@pytest.mark.parametrize("kind", PULSES)
def test_pulse_on_ancilla_axis_matches_lifted_matrix(kind, dim):
    # parity_map applies each pulse as a 4x4 product on the (4, dim) view,
    # and the batched rounds on every row of a (rows, 4, dim) stack; the
    # oracle is the same pulse lifted to the joint space.
    rng = np.random.default_rng(dim)
    psi = rng.normal(size=(3, 4 * dim)) + 1j * rng.normal(size=(3, 4 * dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    u = ancilla_rotation(kind)
    lifted = psi @ lift_ancilla(u, dim).T
    single = (u @ psi[0].reshape(4, dim)).reshape(4 * dim)
    assert np.max(np.abs(single - lifted[0])) <= 1e-15
    stack = (u @ psi.reshape(3, 4, dim)).reshape(3, 4 * dim)
    assert np.max(np.abs(stack - lifted)) <= 1e-15


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_opening_pulses_are_the_pulse_sequence(protocol):
    # The pulses before the wait act as one matrix, and the pulses after
    # it as its conjugate transpose; both equal the pulse-by-pulse product.
    kinds = ("ge_half",) if protocol == "ge" else ("ge_half", "ef_full")
    opening = np.eye(4, dtype=complex)
    for kind in kinds:
        opening = ancilla_rotation(kind) @ opening
    closing = np.eye(4, dtype=complex)
    for kind in reversed(kinds):
        closing = ancilla_rotation(kind if kind == "ef_full" else "ge_half_inv") @ closing
    assert np.array_equal(protocols._OPENING[protocol], opening)
    assert np.array_equal(protocols._CLOSING[protocol], closing)


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_even_cat_reports_g(basis20, even_cat, protocol):
    psi = joint_state("g", even_cat)
    out, jumps = parity_map(psi, QUIET, protocol, basis20)
    pops = ancilla_populations(out)
    assert jumps == ()
    assert pops[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_odd_cat_reports_e(basis20, odd_cat, protocol):
    psi = joint_state("g", odd_cat)
    out, _ = parity_map(psi, QUIET, protocol, basis20)
    pops = ancilla_populations(out)
    assert pops[1] == pytest.approx(1.0, abs=1e-9)


def test_map_preserves_norm(basis20, even_cat):
    psi = joint_state("g", even_cat)
    out, _ = parity_map(psi, QUIET, "gf", basis20)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)
    out, _ = parity_map(
        psi, QUIET, "gf", basis20, injected=(InjectedError("relax_fe", 0.5),)
    )
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_gf_relaxation_heralds_f(basis20, even_cat):
    # A decay from f during the wait kills the g branch outright, so the
    # closing pulses deliver the ancilla to f with certainty.
    psi = joint_state("g", even_cat)
    out, jumps = parity_map(
        psi, QUIET, "gf", basis20, injected=(InjectedError("relax_fe", 0.5),)
    )
    pops = ancilla_populations(out)
    assert pops[2] == pytest.approx(1.0, abs=1e-9)
    assert any(j.label == "injected:relax_fe" for j in jumps)


def test_gf_leak_heralds_f(basis20, even_cat):
    psi = joint_state("g", even_cat)
    out, _ = parity_map(
        psi, QUIET, "gf", basis20, injected=(InjectedError("thermal_fh", 0.3),)
    )
    pops = ancilla_populations(out)
    assert pops[3] == pytest.approx(1.0, abs=1e-9)


def test_ge_relaxation_splits_evenly(basis20, even_cat):
    # An e-to-g decay mid-wait restarts the superposition from g; the
    # closing pulse then splits it half and half with full coherence.
    psi = joint_state("g", even_cat)
    out, _ = parity_map(
        psi, QUIET, "ge", basis20, injected=(InjectedError("relax_eg", 0.5),)
    )
    pops = ancilla_populations(out)
    assert pops[0] == pytest.approx(0.5, abs=1e-9)
    assert pops[1] == pytest.approx(0.5, abs=1e-9)
    rho_a = np.einsum("an,bn->ab", out.reshape(4, 20), out.reshape(4, 20).conj())
    assert abs(rho_a[0, 1]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "protocol,name", [("ge", "flip_ge"), ("gf", "flip_gf"), ("ft", "flip_gf")]
)
def test_dephasing_reports_e(basis20, even_cat, protocol, name):
    psi = joint_state("g", even_cat)
    out, _ = parity_map(
        psi, QUIET, protocol, basis20, injected=(InjectedError(name, 0.4),)
    )
    pops = ancilla_populations(out)
    assert pops[1] == pytest.approx(1.0, abs=1e-9)


def test_injection_with_no_support_raises(basis20, even_cat):
    psi = joint_state("g", even_cat)
    with pytest.raises(ValueError, match="annihilated"):
        parity_map(
            psi, QUIET, "ge", basis20, injected=(InjectedError("relax_fe", 0.5),)
        )
    with pytest.raises(ValueError, match="time"):
        parity_map(
            psi, QUIET, "ge", basis20, injected=(InjectedError("flip_ge", 1.5),)
        )


def test_gf_relaxation_rotates_cavity(basis20, even_cat):
    # While unprotected, the moment of the decay sets a cavity rotation:
    # shifting the decay by half the wait changes the conditioned state
    # by a rotation of 2 pi (chi_f - chi_e) t_wait / 2 on the number
    # operator, whose cat overlap the closed form predicts.
    psi = joint_state("g", even_cat)
    out_a, _ = parity_map(
        psi, QUIET, "gf", basis20, injected=(InjectedError("relax_fe", 0.25),)
    )
    out_b, _ = parity_map(
        psi, QUIET, "gf", basis20, injected=(InjectedError("relax_fe", 0.75),)
    )
    rho_a = conditioned_cavity(out_a, basis20)
    cav_b = out_b.reshape(4, 20)[2] / np.linalg.norm(out_b.reshape(4, 20)[2])

    theta = 2 * math.pi * 143e3 * 0.5 * map_duration(QUIET, "gf")
    assert theta / math.pi == pytest.approx(0.303, abs=0.001)
    rotated = np.exp(-1j * theta * np.arange(20)) * cav_b
    assert state_fidelity(rotated, rho_a) == pytest.approx(1.0, abs=1e-7)
    overlap = state_fidelity(cav_b, rho_a)
    assert overlap == pytest.approx(cat_overlap(theta), abs=1e-6)
    assert overlap < 0.85


def test_ft_relaxation_leaves_cavity_alone(basis20, even_cat):
    # With the induced shift matching the e pull to the f pull, the
    # conditioned cavity no longer depends on when the decay happened.
    psi = joint_state("g", even_cat)
    out_a, _ = parity_map(
        psi, QUIET, "ft", basis20, injected=(InjectedError("relax_fe", 0.25),)
    )
    out_b, _ = parity_map(
        psi, QUIET, "ft", basis20, injected=(InjectedError("relax_fe", 0.75),)
    )
    cav_a = out_a.reshape(4, 20)[2]
    cav_b = out_b.reshape(4, 20)[2]
    fid = abs(np.vdot(cav_a, cav_b)) ** 2
    assert fid > 1.0 - 1e-8


@pytest.mark.slow
def test_ft_cancellation_survives_real_drive(basis20, even_cat):
    # Same check against the oscillating sideband coupling instead of the
    # averaged shift.  The sudden turn-on leaves 5 to 20 percent of the
    # decayed branch oscillating into h, and the shift is only matched at
    # one photon number, so the heralded fidelity drops to the 0.85-0.95
    # range rather than 1; what matters is that the wait no longer
    # imprints the large deterministic rotation of the unprotected case.
    psi = joint_state("g", even_cat)
    reference = cat_state(ALPHA, basis20)
    for at in (0.25, 0.5, 0.75):
        out, _ = parity_map(
            psi,
            QUIET,
            "ft",
            basis20,
            injected=(InjectedError("relax_fe", at),),
            drive_mode="time_dependent",
        )
        f_branch = out.reshape(4, 20)[2]
        f_branch = f_branch / np.linalg.norm(f_branch)
        protected = state_fidelity(f_branch, reference)
        theta = 2 * math.pi * 143e3 * (1.0 - at) * map_duration(QUIET, "gf")
        assert protected > 0.8
        assert protected > cat_overlap(theta) + 0.3


def test_two_injections_keep_the_drive_phase():
    # Each span after an injected error continues the oscillating drive
    # from where the wait stands, as the same sequence composed by hand
    # with evolve_unitary(..., t0=...).  Restarting the drive at every
    # injection ended this sequence with P(h) = 0.350.
    params = SystemParams()
    basis = CavityBasis(dim=10)
    drive = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    wait = map_duration(params, "ft")
    psi0 = joint_state("g", cat_state(ALPHA, basis))
    opening = lift_ancilla(ancilla_rotation("ef_full") @ ancilla_rotation("ge_half"), 10)
    injected = (InjectedError("relax_fe", 0.3), InjectedError("cavity_loss", 0.6))
    psi = opening @ psi0
    t_done = 0.0
    for err in injected:
        psi = evolve_unitary(psi, ham, err.at * wait - t_done, t0=t_done)
        psi = error_operator(err.name, basis) @ psi
        psi /= np.linalg.norm(psi)
        t_done = err.at * wait
    expected = opening.conj().T @ evolve_unitary(psi, ham, wait - t_done, t0=t_done)
    out, jumps = parity_map(
        psi0, params, "ft", basis, injected=injected, drive_mode="time_dependent"
    )
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert [j.label for j in jumps] == ["injected:relax_fe", "injected:cavity_loss"]
    p_h = float(np.sum(np.abs(out.reshape(4, 10)[3]) ** 2))
    assert p_h == pytest.approx(0.206, abs=1e-3)


def test_parity_map_is_a_row_of_the_batched_map(basis20, even_cat):
    # Rows of one batch, each on its own stream, end as parity_map ends
    # with that stream alone, injected errors included; the jumps of
    # every span run on the wait's clock.
    params = SystemParams()
    psi = joint_state("g", even_cat)
    injected = (InjectedError("cavity_loss", 0.6), InjectedError("relax_fe", 0.3))
    wait = map_duration(params, "ft")
    rows = 12
    stack = np.broadcast_to(psi.reshape(1, 4, 20), (rows, 4, 20))
    streams = RowStreams([trajectory_rng(6, 2, i) for i in range(rows)])
    log = []
    batch = protocols._map_rows(
        stack, params, "ft", basis20, streams, drive_mode="time_dependent", injected=injected,
        log=log,
    )
    jumps = _jump_tuples(log, rows)
    stochastic = 0
    for i in range(rows):
        alone, alone_jumps = parity_map(
            psi, params, "ft", basis20, rng=trajectory_rng(6, 2, i), injected=injected,
            drive_mode="time_dependent",
        )
        assert np.max(np.abs(batch[i].reshape(-1) - alone)) <= 1e-12
        assert [j.label for j in jumps[i]] == [j.label for j in alone_jumps]
        times = [j.time for j in alone_jumps]
        assert [j.time for j in jumps[i]] == pytest.approx(times, rel=1e-12)
        assert times == sorted(times) and 0.0 <= times[0] and times[-1] <= wait
        injected_at = [j.time for j in alone_jumps if j.label.startswith("injected:")]
        assert injected_at == [0.3 * wait, 0.6 * wait]
        stochastic += len(alone_jumps) - 2
    assert stochastic > 0


ERROR_NAMES = ("cavity_loss", "relax_eg", "relax_fe", "dephase_g", "dephase_e", "dephase_f",
               "thermal_ge", "thermal_fh", "flip_ge", "flip_gf")


def random_rows(rows, dim, seed):
    """A (rows, 4, dim) stack of random unit rows, which no error annihilates."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(rows, 4, dim)) + 1j * rng.normal(size=(rows, 4, dim))
    return stack / np.linalg.norm(stack.reshape(rows, -1), axis=1)[:, None, None]


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_injected_errors_match_the_dense_product_bit_for_bit(name):
    # The unitary map with one injected error, composed here with the
    # dense error_operator product in place of the gather, mid-wait and at
    # the end of the wait, where no span follows the error.
    params, basis = SystemParams(), CavityBasis(8)
    stack = random_rows(5, basis.dim, 4)
    for protocol, drive_mode in (("gf", "effective"), ("ft", "time_dependent")):
        ham, _ = protocols._map_context(params, basis, protocol, drive_mode)
        wait = map_duration(params, protocol)
        for at in (0.4, 1.0):
            flat = (protocols._OPENING[protocol] @ stack).reshape(len(stack), -1)
            flat = protocols._run_rows(flat, ham, (), at * wait, None, 0.0, None)
            flat = flat @ error_operator(name, basis).T
            flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
            if at < 1.0:
                flat = protocols._run_rows(flat, ham, (), wait - at * wait, None, at * wait, None)
            expected = protocols._CLOSING[protocol] @ flat.reshape(stack.shape)
            out = protocols._map_rows(stack, params, protocol, basis, None, drive_mode,
                                      (InjectedError(name, at),))
            assert out.tobytes() == expected.tobytes()


def test_readout_identity_assignment(basis20, even_cat):
    rng = trajectory_rng(3, 1, 0)
    psi = joint_state("g", even_cat)
    res = readout_and_reset(psi, QUIET, basis20, rng)
    assert res.outcome == "g"
    assert res.true_level == "g"
    pops = ancilla_populations(res.state)
    assert pops[0] == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(res.state[:20], even_cat) > 0.999


def test_readout_folds_h_into_f(basis20, even_cat):
    rng = trajectory_rng(4, 1, 0)
    psi = joint_state("h", even_cat)
    res = readout_and_reset(psi, QUIET, basis20, rng)
    assert res.true_level == "f"
    assert res.outcome == "f"


def test_classify_event():
    assert classify_event("g", "gf") == "no_error"
    assert classify_event("e", "gf") == "dephasing"
    assert classify_event("f", "ft") == "relaxation"
    assert classify_event("e", "ft") == "dephasing"
    # The ge sequence cannot separate ancilla decays from clean results.
    assert classify_event("g", "ge") == "ambiguous"
    assert classify_event("e", "ge") == "ambiguous"
    with pytest.raises(ValueError):
        classify_event("h", "gf")


def test_quiet_rounds_are_qnd(basis20):
    rng = trajectory_rng(7, 1, 0)
    rounds = repeated_parity(QUIET, "gf", 12, rng, basis20)
    assert [r.outcome for r in rounds] == ["g"] * 12
    signs = 1.0 - 2.0 * (np.arange(20) % 2)
    parity = signs @ np.abs(rounds[-1].cavity) ** 2
    assert parity > 0.999


def test_flip_probability_scales_with_exposure():
    p = SystemParams()
    assert parity_flip_probability(p, "ge") > parity_flip_probability(p, "gf")
    assert 5e-3 < parity_flip_probability(p, "gf") < 7e-3


def test_filter_tolerates_isolated_misassignment():
    p = SystemParams()
    _, post_clean = filter_record("g" * 20, p, "gf")
    _, post_one_e = filter_record("g" * 10 + "e" + "g" * 9, p, "gf")
    assert post_clean > 0.9
    assert post_one_e > 0.5
    # A run of odd reports is evidence of a real flip, not noise.
    _, post_run = filter_record("g" * 10 + "eeeee", p, "gf")
    assert post_run < 0.2


def test_no_flip_posterior_handles_long_records():
    p = SystemParams()
    # The product likelihood of a long clean record underflows any fixed
    # threshold, but the posterior of the loss-free history stays high.
    assert filter_record("g" * 80, p, "gf")[0].no_flip_posterior > 0.8
    # A sustained switch to e marks a real loss; a short e burst bracketed
    # by clean stretches is far better explained by misassignment.
    flipped = filter_record("g" * 40 + "e" * 40, p, "gf")[0].no_flip_posterior
    assert flipped < 1e-6
    burst = filter_record("g" * 40 + "eee" + "g" * 37, p, "gf")[0].no_flip_posterior
    assert burst > 0.9
    assert filter_record([], p, "gf")[0].no_flip_posterior == pytest.approx(1.0)


def test_filter_f_outcomes_carry_no_parity_information():
    p = SystemParams()
    filt_a = ParityFilter.for_protocol(p, "gf")
    filt_b = ParityFilter.for_protocol(p, "gf")
    for outcome in "ggeg":
        filt_a.update(outcome)
        filt_b.update(outcome)
    before = filt_a.belief.copy()
    after_f = filt_a.update("f")
    predicted = filt_b.transition @ before
    assert after_f == pytest.approx(predicted[0] / predicted.sum(), abs=1e-12)


def test_repeated_parity_trials_are_reproducible(basis20):
    records = repeated_parity(
        SystemParams(), "gf", 3, basis=basis20, trials=4, seed=9
    )
    again = repeated_parity(
        SystemParams(), "gf", 3, basis=basis20, trials=4, seed=9
    )
    assert len(records) == 4
    for rec_a, rec_b in zip(records, again):
        assert [r.outcome for r in rec_a] == [r.outcome for r in rec_b]
    with pytest.raises(ValueError, match="seed"):
        repeated_parity(SystemParams(), "gf", 3, basis=basis20, trials=4)
    with pytest.raises(ValueError, match="rng"):
        repeated_parity(SystemParams(), "gf", 3, basis=basis20)


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_batched_records_match_records_run_alone(basis20, protocol):
    # Every trial of a batch draws from its own stream, so it gives the
    # record it gives when run alone on that stream.
    params = SystemParams()
    batch = repeated_parity(params, protocol, 12, basis=basis20, trials=10, seed=3)
    jumped = 0
    for trial, record in enumerate(batch):
        rng = trajectory_rng(3, protocols.PROTOCOL_INDEX[protocol], trial)
        alone = repeated_parity(params, protocol, 12, rng=rng, basis=basis20)
        for got, want in zip(record, alone, strict=True):
            assert (got.outcome, got.true_level) == (want.outcome, want.true_level)
            assert [j.label for j in got.jumps] == [j.label for j in want.jumps]
            assert np.max(np.abs(got.cavity - want.cavity)) <= 1e-12
            jumped += bool(got.jumps)
    assert jumped > 0


@pytest.mark.parametrize("drive_mode", ["effective", "time_dependent"])
@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_records_match_an_oracle_round_of_public_pieces(basis20, even_cat, protocol, drive_mode):
    # The batched round runs its rows unchecked, reads cached readout
    # tables and draws in pairs; the oracle does none of these, so every
    # level must agree and every cavity within round-off.
    params, trials, rounds = SystemParams(), 16, 12
    index = protocols.PROTOCOL_INDEX[protocol]
    reported, truth, cavities = protocols._records(
        params, protocol, rounds, basis20, even_cat, drive_mode,
        dynamics.CounterStreams(5, index, np.arange(trials)),
    )
    streams = dynamics.CounterStreams(5, index, np.arange(trials))
    stack = np.zeros((trials, 4, basis20.dim), dtype=complex)
    stack[:, 0] = even_cat
    for k in range(rounds):
        stack, want_truth, want_reported = oracle_round(
            stack, params, protocol, basis20, streams, drive_mode)
        assert np.array_equal(truth[:, k], want_truth)
        assert np.array_equal(reported[:, k], want_reported)
        assert np.max(np.abs(cavities[:, k] - stack[:, 0])) <= 1e-10
    assert (truth != 0).any()


def test_batched_preparation_rows_leave_at_their_first_non_g(basis20):
    # Heralding rows leave the batch at different rounds; each still ends
    # as the same attempt run alone on its stream.
    params = SystemParams()
    attempts = 40
    streams = RowStreams([trajectory_rng(6, protocols.PREP_STREAM, a) for a in range(attempts)])
    states, success = protocols._herald_rows(params, basis20, streams)
    rounds_run = set()
    for attempt in range(attempts):
        rng = trajectory_rng(6, protocols.PREP_STREAM, attempt)
        alone = prepare_cat(params, rng, basis20, max_attempts=1)
        assert success[attempt] == alone.success
        assert np.max(np.abs(states[attempt] - alone.state)) <= 1e-12
        counter = trajectory_rng(6, protocols.PREP_STREAM, attempt)
        outcomes = heralding_outcomes(params, basis20, counter)
        assert success[attempt] == (outcomes == ["g"] * 4)
        rounds_run.add(len(outcomes))
    assert success.any() and not success.all()
    assert len(rounds_run) >= 3
    stats = preparation_statistics(params, seed=6, n_attempts=attempts, basis=basis20)
    assert stats.successes == int(success.sum())


def heralding_outcomes(params, basis, rng):
    """Outcomes of one heralding attempt, round by round, up to its first non-g."""
    psi = joint_state("g", coherent_state(ALPHA, basis))
    outcomes = []
    for _ in range(4):
        psi, _ = parity_map(psi, params, "gf", basis, rng=rng)
        result = readout_and_reset(psi, params, basis, rng)
        psi = result.state
        outcomes.append(result.outcome)
        if result.outcome != "g":
            break
    return outcomes


def test_owned_streams_give_the_records_of_generator_streams(basis20, even_cat):
    # The streams catsim owns draw from Philox buffers, not a Generator per
    # row; records, cavities, jumps and preparation statistics are byte
    # for byte those of the trajectory_rng generators of the same keys.
    params = SystemParams()
    trials, rounds = 6, 8
    generators = RowStreams(
        [trajectory_rng(5, protocols.PROTOCOL_INDEX["ft"], t) for t in range(trials)]
    )
    runs = []
    for streams in (protocols._trial_streams(5, "ft", trials), generators):
        log = []
        out = protocols._records(
            params, "ft", rounds, basis20, even_cat, "effective", streams, log
        )
        runs.append((out, _jump_tuples(log, trials * rounds)))
    (owned, owned_jumps), (plain, plain_jumps) = runs
    for a, b in zip(owned, plain, strict=True):
        assert a.tobytes() == b.tobytes()
    assert owned_jumps == plain_jumps and any(owned_jumps)

    attempts = 60
    stats = preparation_statistics(params, seed=4, n_attempts=attempts, basis=basis20)
    states, success = protocols._herald_rows(params, basis20, RowStreams(
        [trajectory_rng(4, protocols.PREP_STREAM, a) for a in range(attempts)]
    ))
    signs = 1.0 - 2.0 * (np.arange(20) % 2)
    assert stats.successes == int(success.sum()) > 0
    parity = float(np.sum(np.abs(states[success, :20]) ** 2 @ signs)) / stats.successes
    assert stats.mean_parity == parity


def test_rows_sharing_a_generator_rerun_byte_identical(basis20, even_cat):
    # Two rows draw from one generator, row by row; a third has its own
    # stream.  A seeded rerun repeats every byte, and the third row ends
    # as it does alone.
    params = SystemParams()

    def run():
        shared = trajectory_rng(8, protocols.TOMO_STREAM, 0)
        streams = RowStreams([shared, shared, trajectory_rng(8, 1, 5)])
        log = []
        out = protocols._records(params, "gf", 10, basis20, even_cat, "effective", streams, log)
        return (*out, _jump_tuples(log, 3 * 10))

    first, second = run(), run()
    for a, b in zip(first[:3], second[:3], strict=True):
        assert a.tobytes() == b.tobytes()
    assert first[3] == second[3]
    reported, truth, cavities, jumps = first
    assert reported.shape == truth.shape == (3, 10)
    assert cavities.shape == (3, 10, 20)
    assert len(jumps) == 3 * 10
    alone = repeated_parity(
        params, "gf", 10, rng=trajectory_rng(8, 1, 5), basis=basis20, initial_cavity=even_cat
    )
    assert [protocols.OUTCOMES[i] for i in reported[2]] == [r.outcome for r in alone]
    assert [protocols.OUTCOMES[i] for i in truth[2]] == [r.true_level for r in alone]
    assert jumps[20:30] == [r.jumps for r in alone]
    assert max(np.max(np.abs(c - r.cavity)) for c, r in zip(cavities[2], alone)) <= 1e-12


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_array_filter_matches_one_scalar_filter_per_record(protocol):
    # One filter over many records, fed an OUTCOMES index per record each
    # round, against a scalar filter run on each record alone.
    params = SystemParams()
    rng = np.random.default_rng(protocols.PROTOCOL_INDEX[protocol])
    records = rng.integers(0, 3, size=(25, 80))
    batch = ParityFilter.for_protocol(params, protocol)
    scalars = [ParityFilter.for_protocol(params, protocol) for _ in records]
    for k in range(records.shape[1]):
        even = batch.update(records[:, k])
        for i, filt in enumerate(scalars):
            assert abs(filt.update(protocols.OUTCOMES[records[i, k]]) - even[i]) <= 1e-12
    for i, filt in enumerate(scalars):
        assert np.max(np.abs(batch.belief[i] - filt.belief)) <= 1e-12
        assert abs(batch.log_evidence[i] - filt.log_evidence) <= 1e-12
        assert abs(batch.no_flip_posterior[i] - filt.no_flip_posterior) <= 1e-12


def test_array_filter_rejects_a_record_of_zero_likelihood():
    filt = ParityFilter(flip_prob=0.01, f_assign=0.9, f_rate=0.0)
    filt.update(np.array([0, 1, 0]))
    with pytest.raises(RuntimeError, match="zero likelihood"):
        filt.update(np.array([0, 2, 1]))
    with pytest.raises(RuntimeError, match="zero likelihood"):
        ParityFilter(flip_prob=0.01, f_assign=0.9, f_rate=0.0).update("f")


@pytest.mark.parametrize("drive_mode", ["effective", "time_dependent"])
def test_master_mode_runs_100_rounds_at_dim_20(basis20, drive_mode):
    ensemble = repeated_parity(
        SystemParams(), "ft", 100, basis=basis20, mode="master", drive_mode=drive_mode
    )
    rho = ensemble.state
    assert 0.0 < ensemble.probability < 1.0
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_master_mode_runs_the_default_cat_at_dim_6():
    with pytest.warns(UserWarning, match="truncation deficit"):
        ensemble = repeated_parity(SystemParams(), "gf", 3, basis=CavityBasis(6), mode="master")
    assert 0.0 < ensemble.probability < 1.0


def test_master_mode_builds_each_evolution_once(monkeypatch):
    # The wait and the readout propagators are built once per call, not
    # once per round.
    built = []
    propagator = dynamics.master_propagator

    def counted(*args):
        built.append(args[2])
        return propagator(*args)

    monkeypatch.setattr(dynamics, "master_propagator", counted)
    params = SystemParams()
    ensemble = repeated_parity(
        params, "gf", 3, basis=CavityBasis(4), initial_cavity=np.eye(4)[0], mode="master"
    )
    assert sorted(built) == sorted([map_duration(params, "gf"), params.t_ro])
    assert 0.0 < ensemble.probability < 1.0


def kron_lifted_master(params, protocol, n_rounds, basis, cavity, drive_mode):
    # The round on the whole joint space: the pulses lifted with np.kron,
    # the reported-g branch summed level by level, and the kept cavity
    # density padded back into a joint density.
    dim = basis.dim
    ham, channels = protocols._map_context(params, basis, protocol, drive_mode)
    wait = dynamics._master_evolution(ham, channels, map_duration(params, protocol))
    readout = dynamics._master_evolution(*protocols._readout_context(params, basis), params.t_ro)
    opening = lift_ancilla(protocols._OPENING[protocol], dim)
    closing = lift_ancilla(protocols._CLOSING[protocol], dim)
    confusion = np.array(params.assignment_error)
    psi0 = joint_state("g", cavity)
    rho = np.outer(psi0, psi0.conj())
    survival = 1.0
    for _ in range(n_rounds):
        rho = readout(closing @ wait(opening @ rho @ closing) @ opening)
        blocks = rho.reshape(4, dim, 4, dim)
        kept = np.zeros((dim, dim), dtype=complex)
        for level in range(4):
            kept += confusion[min(level, 2), 0] * blocks[level, :, level, :]
        prob = float(np.real(np.trace(kept)))
        survival *= prob
        rho = np.zeros((4 * dim, 4 * dim), dtype=complex)
        rho[:dim, :dim] = kept / prob
    return survival, rho


@pytest.mark.parametrize("drive_mode", ["effective", "time_dependent"])
@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_master_round_on_the_ancilla_axes_matches_the_kron_lifted_round(protocol, drive_mode):
    rng = np.random.default_rng(7)
    for dim in range(4, 9):
        basis = CavityBasis(dim)
        cavity = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cavity /= np.linalg.norm(cavity)
        ensemble = repeated_parity(
            SystemParams(), protocol, 6, basis=basis, initial_cavity=cavity,
            mode="master", drive_mode=drive_mode,
        )
        survival, rho = kron_lifted_master(
            SystemParams(), protocol, 6, basis, cavity, drive_mode
        )
        assert abs(ensemble.probability - survival) <= 1e-13
        assert np.max(np.abs(ensemble.state - rho)) <= 1e-13


def test_repeated_parity_rejects_invalid_initial_cavity(basis20, even_cat):
    with pytest.raises(ValueError, match="norm"):
        repeated_parity(QUIET, "gf", 1, trajectory_rng(1, 1, 0), basis20,
                        initial_cavity=2.0 * even_cat)
    with pytest.raises(ValueError, match="1-D"):
        repeated_parity(QUIET, "gf", 1, basis=basis20, mode="master",
                        initial_cavity=np.outer(even_cat, even_cat.conj()))


def test_repeated_parity_reports_configuration_errors_before_building_the_cat():
    # A dim-4 cavity cannot hold the default cat, so each call must name
    # its configuration error before the cat is built.
    small = CavityBasis(4)
    cases = [
        (-3, dict(rng=trajectory_rng(1, 1, 0)), "n_rounds"),
        (0, dict(trials=2, seed=1), "n_rounds"),
        (-3, dict(mode="master"), "n_rounds"),
        (1, dict(trials=0, seed=1), "trials"),
        (1, dict(trials=-2), "trials"),
        (1, dict(trials=2.5, seed=1), "trials"),
        (2.5, dict(trials=2, seed=1), "n_rounds"),
        (1, dict(mode="bogus"), "unknown mode"),
        (1, dict(trials=2), "seed"),
        (1, dict(), "rng"),
        (1, dict(rng=trajectory_rng(1, 1, 0)), "enlarge the Fock space"),
        (1, dict(mode="master", trials=5, seed=1), "master mode"),
        (1, dict(mode="master", rng=trajectory_rng(1, 1, 0)), "master mode"),
    ]
    for n_rounds, kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            repeated_parity(SystemParams(), "gf", n_rounds, basis=small, **kwargs)


def test_repeated_parity_rejects_an_unknown_drive_mode(basis20):
    with pytest.raises(ValueError, match="unknown drive mode"):
        repeated_parity(
            SystemParams(), "ft", 1, basis=basis20, trials=2, seed=1, drive_mode="bogus"
        )
    # A dim-4 cavity cannot hold the default cat, so the drive mode must be
    # named before the cat is built, in both modes.
    for kwargs in (dict(mode="master"), dict(trials=2, seed=1)):
        with pytest.raises(ValueError, match="unknown drive mode"):
            repeated_parity(
                SystemParams(), "gf", 1, basis=CavityBasis(4), drive_mode="bogus", **kwargs
            )


def test_parity_map_rejects_an_invalid_state(basis20, even_cat):
    psi = joint_state("g", even_cat)
    with pytest.raises(ValueError, match="norm"):
        parity_map(2.0 * psi, QUIET, "gf", basis20)
    with pytest.raises(ValueError, match="1-D"):
        parity_map(psi.reshape(4, 20), QUIET, "gf", basis20)


def test_readout_and_reset_rejects_an_invalid_state(basis20, even_cat):
    psi = joint_state("g", even_cat)
    with pytest.raises(ValueError, match="norm"):
        readout_and_reset(2.0 * psi, QUIET, basis20, trajectory_rng(1, 1, 0))
    with pytest.raises(ValueError, match="non-finite"):
        readout_and_reset(np.full(80, np.nan), QUIET, basis20, trajectory_rng(1, 1, 0))


@pytest.mark.slow
@pytest.mark.parametrize(
    "protocol, drive_mode, dim",
    [("gf", "effective", 8), ("ft", "time_dependent", 6)],
    ids=["gf-effective", "ft-time_dependent"],
)
def test_master_matches_trajectory_statistics(protocol, drive_mode, dim):
    # The postselected all-g weight from the density-matrix propagation
    # is an independent oracle for the sampled pipeline; with the real
    # drive, so is the all-g cavity state.
    basis = CavityBasis(dim)
    params = SystemParams()
    coherent = np.zeros(dim, dtype=complex)
    amps = [1.0]
    for n in range(1, dim):
        amps.append(amps[-1] / math.sqrt(n))
    coherent[:] = np.array(amps) * math.exp(-0.5)
    coherent /= np.linalg.norm(coherent)

    common = dict(basis=basis, initial_cavity=coherent, drive_mode=drive_mode)
    ensemble = repeated_parity(params, protocol, 2, mode="master", **common)
    records = repeated_parity(params, protocol, 2, trials=4000, seed=21, **common)
    kept = [rec[-1].cavity for rec in records if all(r.outcome == "g" for r in rec)]
    frac = len(kept) / 4000
    sigma = math.sqrt(ensemble.probability * (1 - ensemble.probability) / 4000)
    assert abs(frac - ensemble.probability) < 3.5 * sigma
    if drive_mode == "time_dependent":
        sampled = np.mean([np.outer(c, c.conj()) for c in kept], axis=0)
        gap = sampled - ensemble.state[:dim, :dim]
        assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh(gap))) < 0.03


@pytest.mark.slow
def test_ge_relaxation_rate_per_round(basis20, even_cat):
    # Conditioned on no photon loss, the chance of an ancilla decay in
    # one ge round is about t_map / (2 T1_eg), near 11 percent.
    params = SystemParams()
    records = repeated_parity(
        params, "ge", 1, basis=basis20, initial_cavity=even_cat, trials=3000, seed=17
    )
    counts = 0
    kept = 0
    for rec in records:
        labels = [j.label for j in rec[0].jumps]
        if any(l == "cavity_loss" for l in labels):
            continue
        kept += 1
        counts += any(l == "relax_eg" for l in labels)
    rate = counts / kept
    expected = map_duration(params, "ge") / (2 * params.T1_eg)
    assert rate == pytest.approx(expected, abs=0.02)


def test_noiseless_preparation_rate(basis20):
    # Heralding even parity from a displaced vacuum succeeds with the
    # even-component weight (1 + e^{-2 alpha^2}) / 2.
    stats = preparation_statistics(QUIET, seed=11, n_attempts=400, basis=basis20)
    expected = 0.5 * (1.0 + math.exp(-2 * ALPHA**2))
    assert stats.success_rate == pytest.approx(expected, abs=0.06)
    assert stats.mean_parity > 0.999


@pytest.mark.parametrize("n_attempts", [0, -5, 2.5])
def test_preparation_statistics_rejects_no_attempts(n_attempts):
    basis = CavityBasis(8)
    with pytest.raises(ValueError, match="n_attempts"):
        preparation_statistics(QUIET, seed=1, n_attempts=n_attempts, basis=basis)
    # Every other count is refused the same way, by name, before any work.
    vacuum = joint_state("g", np.eye(8, dtype=complex)[0])
    ham = build_hamiltonian(QUIET, basis)
    events = error_event_table(SystemParams())
    for name, call in (
        ("n_traj", lambda: trajectory_ensemble_density(vacuum, ham, (), 1e-6, n_attempts, 1)),
        ("max_attempts", lambda: prepare_cat(QUIET, trajectory_rng(1), basis, n_attempts)),
        ("shots", lambda: simulate_tomography(vacuum, [0.0], QUIET, n_attempts,
                                              trajectory_rng(1), basis)),
        ("shots", lambda: vacuum_contrast(QUIET, n_attempts, trajectory_rng(1), basis)),
        ("n_max", lambda: phase_kick_monte_carlo(events, n_attempts)),
        ("trials", lambda: phase_kick_monte_carlo(events, 3, trials=n_attempts)),
        ("trials", lambda: phase_kick_monte_carlo(events, 3, trials=1000.5)),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()


@pytest.mark.slow
def test_default_preparation_rate(basis20):
    stats = preparation_statistics(SystemParams(), seed=5, n_attempts=150, basis=basis20)
    assert 0.20 < stats.success_rate < 0.47
    assert stats.mean_parity > 0.97


def test_prepare_cat_returns_even_state(basis20):
    rng = trajectory_rng(2, 3, 0)
    res = prepare_cat(QUIET, rng, basis20)
    assert res.success
    assert res.attempts >= 1
    assert state_fidelity(res.cavity, cat_state(ALPHA, basis20)) > 0.999
    pops = ancilla_populations(res.state)
    assert pops[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("protocol, drive_mode", [
    ("readout", None), ("gf", "effective"), ("gf", "time_dependent"), ("ft", "effective"),
    ("ft", "time_dependent"),
])
def test_round_contexts_hold_no_dense_operator(protocol, drive_mode):
    # In units of one dense (4 dim)^2 matrix at dim 100: a Hamiltonian is
    # its diagonal and drive pairs, and a channel its gather rows, so one
    # dense Hamiltonian, drive coupling or channel matrix would show.
    params, basis = SystemParams(), CavityBasis(100)
    unit = (4 * basis.dim) ** 2 * np.dtype(complex).itemsize
    caches = (protocols._map_context, protocols._readout_context, dynamics._blocks)
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        if protocol == "readout":
            context = protocols._readout_context(params, basis)
        else:
            context = protocols._map_context(params, basis, protocol, drive_mode)
        dynamics._blocks(*context)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        for cache in caches:
            cache.cache_clear()
    assert kept / unit < 0.25
    assert peak / unit < 0.5


def test_injected_errors_hold_no_dense_operator():
    # In the units above: an injected error gathers through one-slot rows,
    # where a dense error_operator product would peak at one unit or more.
    params, basis = SystemParams(), CavityBasis(100)
    unit = (4 * basis.dim) ** 2 * np.dtype(complex).itemsize
    psi = random_rows(1, basis.dim, 5).reshape(-1)
    parity_map(psi, params, "gf", basis)  # builds the cached map context
    for name in ERROR_NAMES:
        tracemalloc.start()
        try:
            parity_map(psi, params, "gf", basis, injected=(InjectedError(name, 0.5),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / unit < 0.25, name
