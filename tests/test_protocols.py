"""Sequence-level checks: truth tables, filtering, preparation."""

import math

import numpy as np
import pytest

from catsim import protocols
from catsim.dynamics import RowStreams, evolve_unitary, trajectory_rng
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


def test_batched_preparation_rows_leave_at_their_first_non_g(basis20):
    # Heralding rows leave the batch at different rounds; each still ends
    # as the same attempt run alone on its stream.
    params = SystemParams()
    attempts = 40
    streams = RowStreams([trajectory_rng(6, protocols.PREP_STREAM, a) for a in range(attempts)])
    states, success = protocols._herald_rows(params, basis20, ALPHA, 4, "gf", streams)
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


def test_rows_sharing_a_generator_rerun_byte_identical(basis20, even_cat):
    # Two rows draw from one generator, row by row; a third has its own
    # stream.  A seeded rerun repeats every byte, and the third row ends
    # as it does alone.
    params = SystemParams()

    def run():
        shared = trajectory_rng(8, protocols.TOMO_STREAM, 0)
        rngs = [shared, shared, trajectory_rng(8, 1, 5)]
        return protocols._records(params, "gf", 10, basis20, even_cat, None, "effective", rngs)

    first, second = run(), run()
    for a, b in zip(first[:3], second[:3], strict=True):
        assert a.tobytes() == b.tobytes()
    assert first[3] == second[3]
    reported, truth, cavities, jumps = first
    assert reported.shape == truth.shape == (3, 10)
    assert cavities.shape == (3, 10, 20)
    assert [len(per_row) for per_row in jumps] == [3] * 10
    alone = repeated_parity(
        params, "gf", 10, rng=trajectory_rng(8, 1, 5), basis=basis20, initial_cavity=even_cat
    )
    assert [protocols.OUTCOMES[i] for i in reported[2]] == [r.outcome for r in alone]
    assert [protocols.OUTCOMES[i] for i in truth[2]] == [r.true_level for r in alone]
    assert [per_row[2] for per_row in jumps] == [r.jumps for r in alone]
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


def test_master_mode_budget(basis20):
    with pytest.raises(ValueError, match="budget"):
        repeated_parity(SystemParams(), "gf", 100, basis=basis20, mode="master")


def test_master_mode_rejects_time_dependent_drive():
    with pytest.raises(ValueError, match="effective drive only"):
        repeated_parity(
            SystemParams(), "ft", 1, basis=CavityBasis(8), mode="master",
            drive_mode="time_dependent",
        )


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
        (1, dict(mode="master", drive_mode="time_dependent"), "effective drive only"),
        (1, dict(mode="bogus"), "unknown mode"),
        (1000, dict(mode="master"), "budget"),
        (1, dict(trials=2), "seed"),
        (1, dict(), "rng"),
        (1, dict(rng=trajectory_rng(1, 1, 0)), "enlarge the Fock space"),
    ]
    for n_rounds, kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            repeated_parity(SystemParams(), "gf", n_rounds, basis=small, **kwargs)


def test_repeated_parity_rejects_an_unknown_drive_mode(basis20):
    with pytest.raises(ValueError, match="unknown drive mode"):
        repeated_parity(
            SystemParams(), "ft", 1, basis=basis20, trials=2, seed=1, drive_mode="bogus"
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
def test_master_matches_trajectory_statistics():
    # The postselected all-g weight from the density-matrix propagation
    # is an independent oracle for the sampled pipeline.
    basis = CavityBasis(8)
    params = SystemParams()
    coherent = np.zeros(8, dtype=complex)
    amps = [1.0]
    for n in range(1, 8):
        amps.append(amps[-1] / math.sqrt(n))
    coherent[:] = np.array(amps) * math.exp(-0.5)
    coherent /= np.linalg.norm(coherent)

    ensemble = repeated_parity(
        params, "gf", 2, basis=basis, initial_cavity=coherent, mode="master"
    )
    records = repeated_parity(
        params, "gf", 2, basis=basis, initial_cavity=coherent, trials=4000, seed=21
    )
    frac = np.mean([all(r.outcome == "g" for r in rec) for rec in records])
    sigma = math.sqrt(ensemble.probability * (1 - ensemble.probability) / 4000)
    assert abs(frac - ensemble.probability) < 3.5 * sigma


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


@pytest.mark.parametrize("n_attempts", [0, -5])
def test_preparation_statistics_rejects_no_attempts(n_attempts):
    with pytest.raises(ValueError, match="n_attempts"):
        preparation_statistics(QUIET, seed=1, n_attempts=n_attempts, basis=CavityBasis(8))


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
