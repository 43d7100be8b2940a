"""Parity-syndrome measurement protocols on the cat-encoded cavity.

Three variants map the photon-number parity onto the ancilla and read it
out.  ``ge`` holds the syndrome in the g-e manifold for half a dispersive
period.  ``gf`` promotes e to f first, trading a shorter wait for an
f-lifetime exposure.  ``ft`` is the same sequence with the sideband drive
tuning the e-level pull onto the f-level pull, so that an f-to-e decay
during the wait no longer scrambles the cavity phase.

Even parity reports g and odd parity reports e in all three protocols; a
reported f heralds an ancilla error.  All pulses are treated as
instantaneous; decoherence acts during the wait and readout windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import (
    JumpRecord,
    RowStreams,
    _draw_index,
    _row_blocks,
    evolve_master,
    evolve_unitary,
    run_trajectories,
    trajectory_rng,
)
from .hilbert import (
    CavityBasis,
    cat_state,
    coherent_state,
    joint_state,
    lift_ancilla,
    validate_state,
)
from .model import (
    DriveSpec,
    SystemParams,
    build_hamiltonian,
    cancellation_detuning,
    collapse_channels,
    error_operator,
)

__all__ = [
    "ASSIGNMENT_FIDELITY",
    "F_OUTCOME_RATE",
    "InjectedError",
    "MASTER_BUDGET",
    "MapResult",
    "OUTCOMES",
    "PROTOCOLS",
    "PROTOCOL_INDEX",
    "ParityFilter",
    "ParityRound",
    "PostselectedEnsemble",
    "PrepResult",
    "PrepStats",
    "ancilla_rotation",
    "cat_mean_photons",
    "classify_event",
    "map_duration",
    "parity_flip_probability",
    "parity_map",
    "prepare_cat",
    "preparation_statistics",
    "readout_and_reset",
    "repeated_parity",
]

PROTOCOLS = ("ge", "gf", "ft")
PROTOCOL_INDEX = {"ge": 0, "gf": 1, "ft": 2}

# Stream indices reserved for non-protocol consumers of trajectory_rng.
PREP_STREAM = 3
TOMO_STREAM = 4

# Calibration constants of the record filter: per-shot probability that a
# parity-preserving record shows the nominal outcome, and the rate of
# heralded f outcomes.  These describe the filter model, not the physics.
ASSIGNMENT_FIDELITY = {"ge": 0.83, "gf": 0.865, "ft": 0.82}
F_OUTCOME_RATE = {"ge": 0.005, "gf": 0.08, "ft": 0.10}

# Reported outcomes, indexed as the rows of the confusion matrix.
OUTCOMES = ("g", "e", "f")
_EVENT_BY_OUTCOME = {"g": "no_error", "e": "dephasing", "f": "relaxation"}

# Number of density-matrix elements a master-mode repetition may touch
# before the caller must switch to trajectories.
MASTER_BUDGET = 131072


@dataclass(frozen=True)
class InjectedError:
    """Deterministic error for truth-table studies.

    ``name`` selects an operator from the model registry; ``at`` is the
    fraction of the wait segment at which it strikes.
    """

    name: str
    at: float


@dataclass(frozen=True, eq=False)
class MapResult:
    """Outcome of one readout: reported label, pre-confusion truth, state."""

    state: np.ndarray
    outcome: str
    true_level: str
    jumps: tuple


@dataclass(frozen=True, eq=False)
class ParityRound:
    outcome: str
    true_level: str
    cavity: np.ndarray
    jumps: tuple


def _check_protocol(protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def map_duration(params: SystemParams, protocol: str) -> float:
    """Wait time that turns the parity into a pi phase on the ancilla."""
    _check_protocol(protocol)
    pull = params.chi_e if protocol == "ge" else params.chi_f
    return 1.0 / (2.0 * abs(pull))


def cat_mean_photons(alpha: float) -> float:
    """Mean photon number of an even cat, alpha^2 tanh(alpha^2)."""
    a2 = abs(alpha) ** 2
    return a2 * math.tanh(a2)


def ancilla_rotation(kind: str) -> np.ndarray:
    """Instantaneous ancilla pulse as a 4x4 unitary on the ancilla levels.

    ``ge_half`` takes g to (g + e)/sqrt2, ``ge_half_inv`` undoes it, and
    ``ef_full`` swaps e and f.  Phase conventions are fixed so that even
    parity returns the ancilla to g in every protocol.
    """
    mat = np.eye(4, dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if kind == "ge_half":
        mat[0:2, 0:2] = inv_sqrt2 * np.array([[1.0, -1.0], [1.0, 1.0]])
    elif kind == "ge_half_inv":
        mat[0:2, 0:2] = inv_sqrt2 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    elif kind == "ef_full":
        mat[1:3, 1:3] = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        raise ValueError(f"unknown rotation {kind!r}")
    return mat


@lru_cache(maxsize=32)
def _map_context(params, basis, protocol, drive, drive_mode):
    if drive_mode not in ("effective", "time_dependent"):
        raise ValueError(f"unknown drive mode {drive_mode!r}")
    if protocol != "ft":
        return _readout_context(params, basis)
    drv = drive or DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    mode = "effective" if drive_mode == "effective" else "time_dependent"
    ham = build_hamiltonian(params, basis, mode=mode, drive=drv)
    channels = collapse_channels(params, basis, drive_on=True)
    return ham, channels


@lru_cache(maxsize=32)
def _readout_context(params, basis):
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    return ham, channels


# The pulses before the wait as one 4x4 matrix: ge_half, then for gf and
# ft the e-f swap.  The pulses after the wait undo them: the conjugate
# transpose, which is exactly ef_full then ge_half_inv.
_OPENING = {
    protocol: (ancilla_rotation("ef_full") if protocol != "ge" else np.eye(4))
    @ ancilla_rotation("ge_half")
    for protocol in PROTOCOLS
}
_CLOSING = {protocol: u.conj().T for protocol, u in _OPENING.items()}


def _wait_segment(psi, ham, channels, duration, rng, injected, basis):
    """Evolve through the wait, applying injected errors at their times.

    Each span starts at its offset into the wait, where a drive's phase stands.
    """
    events = sorted(injected, key=lambda e: e.at)
    if any(not 0.0 <= err.at <= 1.0 for err in events):
        raise ValueError("injected error time must lie in [0, 1]")
    jumps = []
    t_done = 0.0
    for err in events + [None]:
        t_target = duration if err is None else err.at * duration
        span = t_target - t_done
        if span > 0.0 and rng is None:
            psi = evolve_unitary(psi, ham, span, t0=t_done)
        elif span > 0.0:
            out, new = run_trajectories(psi[None], ham, channels, span, RowStreams([rng]), t_done)
            psi = out[0]
            jumps += [JumpRecord(time=t_done + j.time, label=j.label) for j in new[0]]
        t_done = t_target
        if err is not None:
            psi = error_operator(err.name, basis) @ psi
            norm = np.linalg.norm(psi)
            if norm < 1e-12:
                raise ValueError(f"injected error {err.name!r} annihilated the state")
            psi = psi / norm
            jumps.append(JumpRecord(time=t_done, label=f"injected:{err.name}"))
    return psi, jumps


def parity_map(
    state: np.ndarray,
    params: SystemParams,
    protocol: str,
    basis: CavityBasis = CavityBasis(),
    rng=None,
    injected: tuple = (),
    drive: DriveSpec | None = None,
    drive_mode: str = "effective",
):
    """One parity-to-ancilla mapping sequence, stopping before readout.

    With ``rng=None`` the evolution is purely unitary (plus any injected
    errors); with a generator the wait runs as a stochastic trajectory.
    Returns ``(state, jumps)`` with jump times relative to the wait start.
    """
    _check_protocol(protocol)
    validate_state(state)
    ham, channels = _map_context(params, basis, protocol, drive, drive_mode)
    wait = map_duration(params, protocol)

    dim = basis.dim
    psi = _OPENING[protocol] @ np.asarray(state, dtype=complex).reshape(4, dim)
    psi, jumps = _wait_segment(psi.reshape(4 * dim), ham, channels, wait, rng, injected, basis)
    return (_CLOSING[protocol] @ psi.reshape(4, dim)).reshape(4 * dim), tuple(jumps)


def _map_rows(stack, params, protocol, basis, streams, drive=None, drive_mode="effective"):
    """``parity_map`` with a trajectory wait on a (rows, 4, dim) stack."""
    ham, channels = _map_context(params, basis, protocol, drive, drive_mode)
    stack = _OPENING[protocol] @ stack
    flat, jumps = run_trajectories(
        stack.reshape(len(stack), -1), ham, channels, map_duration(params, protocol), streams
    )
    return _CLOSING[protocol] @ flat.reshape(stack.shape), jumps


def classify_event(outcome: str, protocol: str) -> str:
    """Syndrome interpretation of a reported outcome.

    For the gf and ft sequences the three outcomes separate cleanly: g is
    the no-error result, e flags a parity flip (cavity dephasing in the
    code space), f heralds an ancilla relaxation.  The ge sequence cannot
    make that call, because an ancilla decay also lands in g or e, so its
    outcomes classify as ambiguous.
    """
    _check_protocol(protocol)
    if outcome not in _EVENT_BY_OUTCOME:
        raise ValueError(f"unknown outcome {outcome!r}")
    if protocol == "ge":
        return "ambiguous"
    return _EVENT_BY_OUTCOME[outcome]


def readout_and_reset(
    state: np.ndarray,
    params: SystemParams,
    basis: CavityBasis,
    rng,
) -> MapResult:
    """Dispersive readout window, assignment sampling and ancilla reset.

    The joint state decoheres for ``t_ro`` under the undriven model, the
    ancilla is measured projectively (h folds into f), the reported label
    is drawn from the confusion matrix, and the cavity is derotated by the
    frame of the reported level before the ancilla is reset to g.  The
    readout is the same for every protocol.
    """
    validate_state(state)
    dim = basis.dim
    stack = np.asarray(state, dtype=complex).reshape(1, 4, dim)
    out, truth, reported, jumps = _readout_rows(stack, params, basis, RowStreams([rng]))
    return MapResult(
        state=out[0].reshape(4 * dim),
        outcome=OUTCOMES[reported[0]],
        true_level=OUTCOMES[truth[0]],
        jumps=jumps[0],
    )


def _readout_rows(stack, params, basis, streams):
    """``readout_and_reset`` on a (rows, 4, dim) stack.

    Returns the reset stack, the true and the reported level of each row
    as indices into ``OUTCOMES``, and each row's jump records.
    """
    ham, channels = _readout_context(params, basis)
    flat, jumps = run_trajectories(
        stack.reshape(len(stack), -1), ham, channels, params.t_ro, streams
    )
    block = flat.reshape(stack.shape)
    pops = np.sum(np.abs(block) ** 2, axis=2)
    level = _draw_index(np.cumsum(pops, axis=1) / pops.sum(axis=1, keepdims=True), streams)
    cavity = block[np.arange(len(block)), level]
    cavity /= np.linalg.norm(cavity, axis=1, keepdims=True)
    truth = np.minimum(level, 2)
    confusion = np.cumsum(np.array(params.assignment_error), axis=1)
    reported = _draw_index(confusion[truth], streams)

    frame_pull = np.array([0.0, params.chi_e, params.chi_f])[reported]
    n = np.arange(basis.dim)
    cavity *= np.exp(2j * math.pi * frame_pull[:, None] * n * params.t_ro)
    out = np.zeros_like(block)
    out[:, 0] = cavity
    return out, truth, reported, jumps


@dataclass(frozen=True, eq=False)
class PostselectedEnsemble:
    """All-g branch of a master-equation repetition: weight and state."""

    probability: float
    state: np.ndarray


def repeated_parity(
    params: SystemParams,
    protocol: str,
    n_rounds: int,
    rng=None,
    basis: CavityBasis = CavityBasis(),
    initial_cavity: np.ndarray | None = None,
    drive: DriveSpec | None = None,
    trials: int | None = None,
    seed: int | None = None,
    mode: str = "trajectory",
    drive_mode: str = "effective",
):
    """Repeated map-plus-readout cycles.

    Trajectory mode returns one record (a list of ``ParityRound``) when
    ``trials`` is None, or a list of records drawn from independent
    seeded streams when ``trials`` is given.  The trials run as rows of
    one batch, each giving the record it gives alone, and the rounds are
    built from the batch's record arrays.  Master mode propagates the
    full density matrix and returns the postselected all-g ensemble; its
    cost grows as rounds times the squared joint dimension, so it is
    budget-capped to small problems, and it runs the effective drive only.
    """
    _check_protocol(protocol)
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be at least 1, got {n_rounds}")
    if mode == "master":
        if drive_mode != "effective":
            raise ValueError(f"master mode runs the effective drive only, not {drive_mode!r}")
        cost = n_rounds * (4 * basis.dim) ** 2
        if cost > MASTER_BUDGET:
            raise ValueError(
                f"master mode needs {cost} density elements, over the "
                f"budget of {MASTER_BUDGET}; use trajectories"
            )
    elif mode != "trajectory":
        raise ValueError(f"unknown mode {mode!r}")
    elif trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    elif trials is not None and seed is None:
        raise ValueError("trials requires a seed for independent streams")
    elif trials is None and rng is None:
        raise ValueError("single-record mode requires an rng")
    if initial_cavity is None:
        cavity = cat_state(math.sqrt(2.0), basis)
    else:
        cavity = np.asarray(initial_cavity, dtype=complex)
        validate_state(cavity)
    if mode == "master":
        return _repeated_parity_master(params, protocol, n_rounds, basis, cavity, drive)
    rngs = [rng] if trials is None else _trial_rngs(seed, protocol, trials)
    reported, truth, cavities, jumps = _records(
        params, protocol, n_rounds, basis, cavity, drive, drive_mode, rngs
    )
    records = [
        [ParityRound(OUTCOMES[o], OUTCOMES[t], c, j) for o, t, c, j in zip(*row)]
        for row in zip(reported.tolist(), truth.tolist(), cavities, zip(*jumps))
    ]
    return records[0] if trials is None else records


def _trial_rngs(seed, protocol, trials):
    """The seeded stream of each trial of a protocol's records."""
    return [trajectory_rng(seed, PROTOCOL_INDEX[protocol], trial) for trial in range(trials)]


def _records(params, protocol, n_rounds, basis, cavity, drive, drive_mode, rngs):
    """Records of ``n_rounds`` rounds from ``cavity``, one row per entry of ``rngs``.

    The rows run in blocks of at most 256 and may share a generator.
    Returns the reported and the true levels as (rows, rounds) int8
    indices into ``OUTCOMES``, the cavity after each round as a (rows,
    rounds, dim) array, and per round every row's jumps, map then readout.
    """
    reported = np.empty((len(rngs), n_rounds), dtype=np.int8)
    truth = np.empty_like(reported)
    cavities = np.empty((len(rngs), n_rounds, basis.dim), dtype=complex)
    jumps = [[] for _ in range(n_rounds)]
    for block in _row_blocks(len(rngs)):
        part = slice(block.start, block.stop)
        streams = RowStreams(rngs[part])
        stack = np.zeros((len(block), 4, basis.dim), dtype=complex)
        stack[:, 0] = cavity
        for k in range(n_rounds):
            stack, map_jumps = _map_rows(
                stack, params, protocol, basis, streams, drive, drive_mode
            )
            stack, *levels, readout_jumps = _readout_rows(stack, params, basis, streams)
            truth[part, k], reported[part, k] = levels
            cavities[part, k] = stack[:, 0]
            jumps[k] += map(tuple.__add__, map_jumps, readout_jumps)
    return reported, truth, cavities, jumps


def _repeated_parity_master(params, protocol, n_rounds, basis, cavity, drive):
    dim = basis.dim
    ham, channels = _map_context(params, basis, protocol, drive, "effective")
    ro_ham, ro_channels = _readout_context(params, basis)
    confusion = np.array(params.assignment_error)

    psi0 = joint_state("g", cavity)
    rho = np.outer(psi0, psi0.conj())
    opening = lift_ancilla(_OPENING[protocol], dim)
    closing = lift_ancilla(_CLOSING[protocol], dim)

    survival = 1.0
    wait = map_duration(params, protocol)
    for _ in range(n_rounds):
        rho = opening @ rho @ closing
        rho = evolve_master(rho, ham, channels, wait)
        rho = closing @ rho @ opening
        rho = evolve_master(rho, ro_ham, ro_channels, params.t_ro)
        blocks = rho.reshape(4, dim, 4, dim)
        # Postselect the reported-g branch: h folds into the f confusion row.
        kept = np.zeros((dim, dim), dtype=complex)
        for level in range(4):
            weight = confusion[min(level, 2), 0]
            kept += weight * blocks[level, :, level, :]
        prob = float(np.real(np.trace(kept)))
        survival *= prob
        rho = np.zeros((4 * dim, 4 * dim), dtype=complex)
        rho[:dim, :dim] = kept / prob
    return PostselectedEnsemble(probability=survival, state=rho)


def parity_flip_probability(params: SystemParams, protocol: str, alpha: float = math.sqrt(2.0)) -> float:
    """Chance of a photon-loss parity flip during one map-plus-readout."""
    exposure = map_duration(params, protocol) + params.t_ro
    return cat_mean_photons(alpha) * exposure / params.T1_cavity


class ParityFilter:
    """Two-state forward filter over the cavity parity given a record.

    States are (even, odd); a symmetric flip happens with the photon-loss
    probability each round, and outcomes are emitted through the
    assignment-fidelity model.  ``update`` returns the posterior
    probability that the parity is currently even; the filter also tracks
    the evidence of the no-flip path so that the posterior probability of
    a loss-free history stays computable for records of any length.
    """

    def __init__(self, flip_prob: float, f_assign: float, f_rate: float):
        self.transition = np.array(
            [[1.0 - flip_prob, flip_prob], [flip_prob, 1.0 - flip_prob]]
        )
        keep = 1.0 - f_rate
        # Likelihood of each outcome given (even, odd); rows follow OUTCOMES.
        hit, miss = f_assign * keep, (1.0 - f_assign) * keep
        self.emission = np.array([[hit, miss], [miss, hit], [f_rate, f_rate]])
        self.belief = np.array([1.0, 0.0])
        self.log_evidence = 0.0
        self.log_no_flip = 0.0

    @classmethod
    def for_protocol(
        cls,
        params: SystemParams,
        protocol: str,
        alpha: float = math.sqrt(2.0),
    ) -> "ParityFilter":
        _check_protocol(protocol)
        return cls(
            parity_flip_probability(params, protocol, alpha),
            ASSIGNMENT_FIDELITY[protocol],
            F_OUTCOME_RATE[protocol],
        )

    def update(self, outcome):
        """Filter one round; return the posterior that the parity is even.

        ``outcome`` is a label of ``OUTCOMES``, or an array with one index
        into it per record, which makes the state and the result per record.
        """
        index = OUTCOMES.index(outcome) if isinstance(outcome, str) else np.asarray(outcome)
        emission = self.emission[index]
        posterior = emission * (self.belief @ self.transition.T)
        total = posterior.sum(axis=-1)
        if np.any(total <= 0.0):
            raise RuntimeError("record has zero likelihood under the filter model")
        self.belief = posterior / total[..., None]
        self.log_evidence = self.log_evidence + np.log(total)
        self.log_no_flip = self.log_no_flip + np.log(self.transition[0, 0] * emission[..., 0])
        even = self.belief[..., 0]
        return even if even.ndim else float(even)

    @property
    def no_flip_posterior(self):
        return np.exp(self.log_no_flip - self.log_evidence)


@dataclass(frozen=True)
class PrepStats:
    success_rate: float
    mean_parity: float
    attempts: int
    successes: int


@dataclass(frozen=True, eq=False)
class PrepResult:
    """One heralding run: final joint state, whether it heralded, tries."""

    state: np.ndarray
    success: bool
    attempts: int

    @property
    def cavity(self) -> np.ndarray:
        return self.state[: self.state.size // 4]


def prepare_cat(
    params: SystemParams,
    rng,
    basis: CavityBasis = CavityBasis(),
    alpha: float = math.sqrt(2.0),
    rounds: int = 4,
    protocol: str = "gf",
    max_attempts: int = 200,
) -> PrepResult:
    """Probabilistic cat preparation: displace, then herald even parity.

    Each attempt starts from a displaced vacuum and post-selects on
    ``rounds`` consecutive g outcomes.  Retries up to ``max_attempts``
    times; the result carries the last attempt's state either way.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    streams = RowStreams([rng])
    for attempt in range(1, max_attempts + 1):
        states, success = _herald_rows(params, basis, alpha, rounds, protocol, streams)
        if success[0]:
            return PrepResult(state=states[0], success=True, attempts=attempt)
    return PrepResult(state=states[0], success=False, attempts=max_attempts)


def _herald_rows(params, basis, alpha, rounds, protocol, streams):
    """One heralding attempt per stream, all at once.

    Every row starts from the displaced vacuum and leaves at its first
    outcome other than g.  Returns each row's last joint state and
    whether it heralded.
    """
    stack = np.zeros((len(streams), 4, basis.dim), dtype=complex)
    stack[:, 0] = coherent_state(alpha, basis)
    success = np.ones(len(streams), dtype=bool)
    live = np.arange(len(streams))
    for _ in range(rounds):
        part = streams.take(live)
        mapped, _ = _map_rows(stack[live], params, protocol, basis, part)
        read, _, reported, _ = _readout_rows(mapped, params, basis, part)
        stack[live] = read
        failed = reported != 0
        success[live[failed]] = False
        live = live[~failed]
        if not live.size:
            break
    return stack.reshape(len(streams), -1), success


def preparation_statistics(
    params: SystemParams,
    seed: int,
    n_attempts: int = 300,
    basis: CavityBasis = CavityBasis(),
    alpha: float = math.sqrt(2.0),
    rounds: int = 4,
    protocol: str = "gf",
) -> PrepStats:
    """Success rate and heralded parity over independent preparation tries.

    The tries run as rows of one batch, each on its own seeded stream.
    """
    if n_attempts < 1:
        raise ValueError("n_attempts must be at least 1")
    signs = 1.0 - 2.0 * (np.arange(basis.dim) % 2)
    successes = 0
    parity_acc = 0.0
    for block in _row_blocks(n_attempts):
        streams = RowStreams([trajectory_rng(seed, PREP_STREAM, attempt) for attempt in block])
        states, success = _herald_rows(params, basis, alpha, rounds, protocol, streams)
        cavities = states[success, : basis.dim]
        successes += len(cavities)
        parity_acc += float(np.sum(np.abs(cavities) ** 2 @ signs))
    if successes == 0:
        return PrepStats(0.0, math.nan, n_attempts, 0)
    return PrepStats(
        successes / n_attempts, parity_acc / successes, n_attempts, successes
    )


def _shot_outcomes(states, shots, params, basis, rng, protocol):
    """Reported outcome of ``shots`` parity maps and readouts of each state.

    ``states`` is a (points, 4, dim) stack; the shots run as rows that
    share ``rng``, point by point.  Returns (points, shots) indices into
    ``OUTCOMES``.
    """
    reported = np.empty(len(states) * shots, dtype=int)
    for block in _row_blocks(reported.size):
        rows = np.array(block)
        streams = RowStreams([rng] * rows.size)
        mapped, _ = _map_rows(states[rows // shots], params, protocol, basis, streams)
        reported[rows] = _readout_rows(mapped, params, basis, streams)[2]
    return reported.reshape(len(states), shots)
