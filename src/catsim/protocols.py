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
    CounterStreams,
    RowStreams,
    _blocks,
    _draw_index,
    _jump_tuples,
    _master_evolution,
    _row_blocks,
    _run_rows,
    _trajectory_rows,
)
from .hilbert import (
    DEFAULT_ALPHA,
    CavityBasis,
    cat_state,
    coherent_state,
    validate_state,
)
from .model import (
    CollapseChannel,
    DriveSpec,
    SystemParams,
    _check_count,
    _factors,
    build_hamiltonian,
    cancellation_detuning,
    collapse_channels,
)

__all__ = [
    "ASSIGNMENT_FIDELITY",
    "F_OUTCOME_RATE",
    "InjectedError",
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

# The map that heralded preparation and tomography shots run, and the
# number of consecutive g outcomes that herald a cat.
PROBE_PROTOCOL = "gf"
HERALD_ROUNDS = 4

# Calibration constants of the record filter: per-shot probability that a
# parity-preserving record shows the nominal outcome, and the rate of
# heralded f outcomes.  These describe the filter model, not the physics.
ASSIGNMENT_FIDELITY = {"ge": 0.83, "gf": 0.865, "ft": 0.82}
F_OUTCOME_RATE = {"ge": 0.005, "gf": 0.08, "ft": 0.10}

# Reported outcomes, indexed as the rows of the confusion matrix.
OUTCOMES = ("g", "e", "f")
_EVENT_BY_OUTCOME = {"g": "no_error", "e": "dephasing", "f": "relaxation"}


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


def _check_drive_mode(drive_mode: str) -> None:
    if drive_mode not in ("effective", "time_dependent"):
        raise ValueError(f"unknown drive mode {drive_mode!r}")


def map_duration(params: SystemParams, protocol: str) -> float:
    """Wait time that turns the parity into a pi phase on the ancilla."""
    _check_protocol(protocol)
    pull = params.chi_e if protocol == "ge" else params.chi_f
    return 1.0 / (2.0 * abs(pull))


def cat_mean_photons(alpha: float) -> float:
    """Mean photon number of an even cat, alpha^2 tanh(alpha^2), for a finite alpha."""
    if not math.isfinite(abs(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha}")
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
def _map_context(params, basis, protocol, drive_mode):
    """Hamiltonian and channels of the wait; ft drives at the ``zero_chi_fe`` point."""
    _check_drive_mode(drive_mode)
    if protocol != "ft":
        return _readout_context(params, basis)
    drive = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    ham = build_hamiltonian(params, basis, mode=drive_mode, drive=drive)
    channels = collapse_channels(params, basis, drive_on=True)
    return ham, channels


@lru_cache(maxsize=32)
def _readout_context(params, basis):
    ham = build_hamiltonian(params, basis)
    channels = collapse_channels(params, basis)
    return ham, channels


@lru_cache(maxsize=32)
def _readout_tables(params, basis):
    """The confusion rows' running sums over their last entry, and each
    reported level's derotation exp(2 pi i pull n t_ro)."""
    confusion = np.cumsum(params.assignment_error, axis=1)
    confusion /= confusion[:, -1:]
    pulls = np.array([0.0, params.chi_e, params.chi_f])
    derotation = np.exp(2j * math.pi * pulls[:, None] * np.arange(basis.dim) * params.t_ro)
    confusion.flags.writeable = derotation.flags.writeable = False  # cached: read-only
    return confusion, derotation


# The pulses before the wait as one 4x4 matrix: ge_half, then for gf and
# ft the e-f swap.  The pulses after the wait undo them: the conjugate
# transpose, which is exactly ef_full then ge_half_inv.
_OPENING = {
    protocol: (ancilla_rotation("ef_full") if protocol != "ge" else np.eye(4))
    @ ancilla_rotation("ge_half")
    for protocol in PROTOCOLS
}
_CLOSING = {protocol: u.conj().T for protocol, u in _OPENING.items()}


def parity_map(
    state: np.ndarray,
    params: SystemParams,
    protocol: str,
    basis: CavityBasis = CavityBasis(),
    rng=None,
    injected: tuple = (),
    drive_mode: str = "effective",
):
    """One parity-to-ancilla mapping sequence, stopping before readout.

    With ``rng=None`` the evolution is purely unitary (plus any injected
    errors); with a generator the wait runs as a stochastic trajectory.
    Returns ``(state, jumps)`` with jump times relative to the wait start.
    This is a one-row call of the batched map.
    """
    _check_protocol(protocol)
    validate_state(state)
    stack = np.asarray(state, dtype=complex).reshape(1, 4, basis.dim)
    streams = None if rng is None else RowStreams([rng])
    log = []
    out = _map_rows(stack, params, protocol, basis, streams, drive_mode, injected, log)
    return out[0].reshape(4 * basis.dim), _jump_tuples(log, 1)[0]


def _map_rows(stack, params, protocol, basis, streams, drive_mode="effective", injected=(),
              log=None):
    """``parity_map`` on a (rows, 4, dim) stack; without streams the wait is unitary.

    Each injected error strikes every row at its fraction of the wait, as
    a gather through the one-slot rows of its operator (``_Blocks.jump``'s
    product, equal to the dense ``error_operator`` product bit for bit),
    and each span starts at its offset into the wait, where a drive's
    phase stands.  A list ``log`` takes the jumps as ``dynamics._trajectory_rows``
    logs them, timed from the wait start.  The rows must be unit vectors;
    a stochastic wait without errors runs them through the engine unchecked.
    """
    events = sorted(injected, key=lambda err: err.at)
    if any(not 0.0 <= err.at <= 1.0 for err in events):
        raise ValueError("injected error time must lie in [0, 1]")
    ham, channels = _map_context(params, basis, protocol, drive_mode)
    wait = map_duration(params, protocol)
    # Rebound, so a stack the caller passed as a temporary is freed during
    # the wait.
    stack = _OPENING[protocol] @ stack
    flat = stack.reshape(len(stack), -1)
    if streams is not None and not events:
        flat = _trajectory_rows(flat, _blocks(ham, channels), channels, wait, streams, 0.0, log)
        return _CLOSING[protocol] @ flat.reshape(stack.shape)
    if streams is None:
        channels = ()
    t_done = 0.0
    for err in events + [None]:
        t_target = wait if err is None else err.at * wait
        if t_target > t_done:
            flat = _run_rows(flat, ham, channels, t_target - t_done, streams, t_done, log)
        t_done = t_target
        if err is not None:
            error = CollapseChannel._of_factors(err.name, 1.0, *_factors(err.name, basis))
            flat = flat.take(error.source, axis=1) * error.amplitude + 0.0
            norms = np.linalg.norm(flat, axis=1, keepdims=True)
            if np.any(norms < 1e-12):
                raise ValueError(f"injected error {err.name!r} annihilated the state")
            flat = flat / norms
            if log is not None:
                log.append((np.arange(len(flat)), np.full(len(flat), t_done),
                            [f"injected:{err.name}"] * len(flat)))
    return _CLOSING[protocol] @ flat.reshape(stack.shape)


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
    log = []
    out, truth, reported = _readout_rows(stack, params, basis, RowStreams([rng]), log)
    return MapResult(
        state=out[0].reshape(4 * dim),
        outcome=OUTCOMES[reported[0]],
        true_level=OUTCOMES[truth[0]],
        jumps=_jump_tuples(log, 1)[0],
    )


def _readout_rows(stack, params, basis, streams, log=None):
    """``readout_and_reset`` on a (rows, 4, dim) stack.

    Returns the reset stack and the true and the reported level of each
    row as indices into ``OUTCOMES``; the jumps go to ``log`` as in
    ``_map_rows``.  The rows must be unit vectors.  Each row draws its
    level and its reported label as one pair.
    """
    ham, channels = _readout_context(params, basis)
    flat = _trajectory_rows(stack.reshape(len(stack), -1), _blocks(ham, channels), channels,
                            params.t_ro, streams, 0.0, log)
    block = flat.reshape(stack.shape)
    draws = streams._draws(2)
    pops = (np.abs(block) ** 2).sum(axis=2)
    sums = pops.cumsum(axis=1)
    level = _draw_index(sums / sums[:, -1:], draws[:, 0])
    rows = np.arange(len(block))
    cavity = block[rows, level] / np.sqrt(pops[rows, level])[:, None]
    truth = np.minimum(level, 2)
    confusion, derotation = _readout_tables(params, basis)
    reported = _draw_index(confusion[truth], draws[:, 1])
    cavity *= derotation[reported]
    out = np.zeros_like(block)
    out[:, 0] = cavity
    return out, truth, reported


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
    density matrix, under either drive, carrying the cavity density of
    the reported-g branch from round to round, and returns the
    postselected all-g ensemble; it draws nothing, so it refuses ``rng``,
    ``trials`` and ``seed``.
    """
    _check_protocol(protocol)
    _check_drive_mode(drive_mode)
    _check_count("n_rounds", n_rounds, 1)
    if mode == "trajectory":
        if trials is not None:
            _check_count("trials", trials, 1)
        if trials is not None and seed is None:
            raise ValueError("trials requires a seed for independent streams")
        if trials is None and rng is None:
            raise ValueError("single-record mode requires an rng")
    elif mode != "master":
        raise ValueError(f"unknown mode {mode!r}")
    elif rng is not None or trials is not None or seed is not None:
        raise ValueError("master mode draws nothing: it takes no rng, trials or seed")
    if initial_cavity is None:
        cavity = cat_state(DEFAULT_ALPHA, basis)
    else:
        cavity = np.asarray(initial_cavity, dtype=complex)
        validate_state(cavity)
    if mode == "master":
        return _repeated_parity_master(params, protocol, n_rounds, basis, cavity, drive_mode)
    streams = RowStreams([rng]) if trials is None else _trial_streams(seed, protocol, trials)
    log = []
    reported, truth, cavities = _records(
        params, protocol, n_rounds, basis, cavity, drive_mode, streams, log
    )
    jumps = _jump_tuples(log, reported.size)
    records = [
        [ParityRound(OUTCOMES[o], OUTCOMES[t], c, jumps[row * n_rounds + k])
         for k, (o, t, c) in enumerate(zip(*fields))]
        for row, fields in enumerate(zip(reported.tolist(), truth.tolist(), cavities))
    ]
    return records[0] if trials is None else records


def _trial_streams(seed, protocol, trials):
    """The streams of ``trajectory_rng(seed, PROTOCOL_INDEX[protocol], t)`` for each trial t."""
    return CounterStreams(seed, PROTOCOL_INDEX[protocol], np.arange(trials))


def _records(params, protocol, n_rounds, basis, cavity, drive_mode, streams, log=None):
    """Records of ``n_rounds`` rounds from ``cavity``, one row per entry of ``streams``.

    The rows run in blocks of at most 256 and may share a generator.
    Returns the reported and the true levels as (rows, rounds) int8
    indices into ``OUTCOMES`` and the cavity after each round as a (rows,
    rounds, dim) array.  A list ``log`` takes the jumps of row i in round
    k, map then readout, as ``_map_rows`` logs them, at row i * n_rounds + k.
    """
    reported = np.empty((len(streams), n_rounds), dtype=np.int8)
    truth = np.empty_like(reported)
    cavities = np.empty((len(streams), n_rounds, basis.dim), dtype=complex)
    for block in _row_blocks(len(streams)):
        part = slice(block.start, block.stop)
        rows = streams.take(np.arange(block.start, block.stop))
        stack = np.zeros((len(block), 4, basis.dim), dtype=complex)
        stack[:, 0] = cavity
        for k in range(n_rounds):
            round_log = None if log is None else []
            stack = _map_rows(stack, params, protocol, basis, rows, drive_mode, (), round_log)
            stack, *levels = _readout_rows(stack, params, basis, rows, round_log)
            truth[part, k], reported[part, k] = levels
            cavities[part, k] = stack[:, 0]
            if log is not None:
                log += [((block.start + idx) * n_rounds + k, times, labels)
                        for idx, times, labels in round_log]
    return reported, truth, cavities


def _repeated_parity_master(params, protocol, n_rounds, basis, cavity, drive_mode):
    """Master mode of ``repeated_parity``: each round evolves U|g><g|U^dagger (x) sigma,
    U the opening pulses, through the wait, the closing pulses on the ancilla
    axes and the readout, and keeps the reported-g branch as the next sigma."""
    dim = basis.dim
    ham, channels = _map_context(params, basis, protocol, drive_mode)
    wait = _master_evolution(ham, channels, map_duration(params, protocol))
    readout = _master_evolution(*_readout_context(params, basis), params.t_ro)
    opened = _OPENING[protocol][:, 0]
    closing = _CLOSING[protocol]
    # Weight of each true level in the reported-g branch: h reads as f.
    reported_g = np.array(params.assignment_error)[[0, 1, 2, 2], 0]

    sigma = np.outer(cavity, cavity.conj())
    survival = 1.0
    for _ in range(n_rounds):
        rho = wait(np.kron(np.outer(opened, opened.conj()), sigma)).reshape(4, dim, 4, dim)
        rho = np.einsum("ab,bicj,dc->aidj", closing, rho, closing.conj())
        rho = readout(rho.reshape(4 * dim, 4 * dim)).reshape(4, dim, 4, dim)
        sigma = np.einsum("a,aiaj->ij", reported_g, rho)
        prob = float(np.real(np.trace(sigma)))
        survival *= prob
        sigma /= prob
    state = np.zeros((4 * dim, 4 * dim), dtype=complex)
    state[:dim, :dim] = sigma
    return PostselectedEnsemble(probability=survival, state=state)


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
        if (total <= 0.0).any():
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
    max_attempts: int = 200,
) -> PrepResult:
    """Probabilistic cat preparation: displace, then herald even parity.

    Each attempt starts from the vacuum displaced by ``DEFAULT_ALPHA`` and
    post-selects on ``HERALD_ROUNDS`` consecutive g outcomes of the
    ``PROBE_PROTOCOL`` map.  Retries up to ``max_attempts`` times; the
    result carries the last attempt's state either way.
    """
    _check_count("max_attempts", max_attempts, 1)
    streams = RowStreams([rng])
    for attempt in range(1, max_attempts + 1):
        states, success = _herald_rows(params, basis, streams)
        if success[0]:
            return PrepResult(state=states[0], success=True, attempts=attempt)
    return PrepResult(state=states[0], success=False, attempts=max_attempts)


def _herald_rows(params, basis, streams):
    """One heralding attempt per stream, all at once.

    Every row starts from the displaced vacuum and leaves at its first
    outcome other than g.  Returns each row's last joint state and
    whether it heralded.
    """
    stack = np.zeros((len(streams), 4, basis.dim), dtype=complex)
    stack[:, 0] = coherent_state(DEFAULT_ALPHA, basis)
    success = np.ones(len(streams), dtype=bool)
    live = np.arange(len(streams))
    for _ in range(HERALD_ROUNDS):
        part = streams.take(live)
        mapped = _map_rows(stack[live], params, PROBE_PROTOCOL, basis, part)
        read, _, reported = _readout_rows(mapped, params, basis, part)
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
) -> PrepStats:
    """Success rate and heralded parity over independent preparation tries.

    The tries run as rows of one batch; try a draws from the stream of
    ``trajectory_rng(seed, PREP_STREAM, a)``.
    """
    _check_count("n_attempts", n_attempts, 1)
    signs = 1.0 - 2.0 * (np.arange(basis.dim) % 2)
    successes = 0
    parity_acc = 0.0
    for block in _row_blocks(n_attempts):
        states, success = _herald_rows(params, basis, CounterStreams(seed, PREP_STREAM, block))
        cavities = states[success, : basis.dim]
        successes += len(cavities)
        parity_acc += float(np.sum(np.abs(cavities) ** 2 @ signs))
    if successes == 0:
        return PrepStats(0.0, math.nan, n_attempts, 0)
    return PrepStats(
        successes / n_attempts, parity_acc / successes, n_attempts, successes
    )


def _shot_outcomes(states, shots, params, basis, rng):
    """Reported outcome of ``shots`` ``PROBE_PROTOCOL`` maps and readouts of each state.

    ``states`` is a (points, 4, dim) stack; the shots run as rows that
    share ``rng``, point by point.  Returns (points, shots) indices into
    ``OUTCOMES``.
    """
    reported = np.empty(len(states) * shots, dtype=int)
    for block in _row_blocks(reported.size):
        rows = np.array(block)
        streams = RowStreams([rng] * rows.size)
        mapped = _map_rows(states[rows // shots], params, PROBE_PROTOCOL, basis, streams)
        reported[rows] = _readout_rows(mapped, params, basis, streams)[2]
    return reported.reshape(len(states), shots)
