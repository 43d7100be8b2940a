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
    evolve_master,
    evolve_unitary,
    run_trajectory,
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
    event: str
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


_PULSES = {kind: ancilla_rotation(kind) for kind in ("ge_half", "ge_half_inv", "ef_full")}


def _pulse(kind, psi, dim):
    """Apply an ancilla pulse to the (4, dim) view of a joint state."""
    return (_PULSES[kind] @ psi.reshape(4, dim)).reshape(4 * dim)


def _wait_segment(psi, ham, channels, duration, rng, injected, basis):
    """Evolve through the wait, applying injected errors at their times."""
    events = sorted(injected, key=lambda e: e.at)
    for err in events:
        if not 0.0 <= err.at <= 1.0:
            raise ValueError("injected error time must lie in [0, 1]")
    jumps = []
    t_done = 0.0
    for err in events:
        t_target = err.at * duration
        span = t_target - t_done
        if span > 0.0:
            psi, new = _evolve_span(psi, ham, channels, span, rng, t_done)
            jumps.extend(new)
            t_done = t_target
        op = error_operator(err.name, basis)
        psi = op @ psi
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            raise ValueError(f"injected error {err.name!r} annihilated the state")
        psi = psi / norm
        jumps.append(JumpRecord(time=t_done, label=f"injected:{err.name}"))
    span = duration - t_done
    if span > 0.0:
        psi, new = _evolve_span(psi, ham, channels, span, rng, t_done)
        jumps.extend(new)
    return psi, jumps


def _evolve_span(psi, ham, channels, span, rng, offset):
    if rng is None:
        return evolve_unitary(psi, ham, span), []
    res = run_trajectory(psi, ham, channels, span, rng)
    return res.state, [JumpRecord(time=offset + j.time, label=j.label) for j in res.jumps]


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
    if drive_mode not in ("effective", "time_dependent"):
        raise ValueError(f"unknown drive mode {drive_mode!r}")
    ham, channels = _map_context(params, basis, protocol, drive, drive_mode)
    wait = map_duration(params, protocol)

    dim = basis.dim
    psi = _pulse("ge_half", np.asarray(state, dtype=complex), dim)
    if protocol in ("gf", "ft"):
        psi = _pulse("ef_full", psi, dim)
    psi, jumps = _wait_segment(psi, ham, channels, wait, rng, injected, basis)
    if protocol in ("gf", "ft"):
        psi = _pulse("ef_full", psi, dim)
    psi = _pulse("ge_half_inv", psi, dim)
    return psi, tuple(jumps)


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
    protocol: str = "gf",
) -> MapResult:
    """Dispersive readout window, assignment sampling and ancilla reset.

    The joint state decoheres for ``t_ro`` under the undriven model, the
    ancilla is measured projectively (h folds into f), the reported label
    is drawn from the confusion matrix, and the cavity is derotated by the
    frame of the reported level before the ancilla is reset to g.
    """
    _check_protocol(protocol)
    ham, channels = _readout_context(params, basis)
    res = run_trajectory(state, ham, channels, params.t_ro, rng)

    dim = basis.dim
    block = res.state.reshape(4, dim)
    pops = np.sum(np.abs(block) ** 2, axis=1)
    level = int(np.searchsorted(np.cumsum(pops) / pops.sum(), rng.random(), side="right"))
    level = min(level, 3)
    cavity = block[level] / np.linalg.norm(block[level])
    true_level = ("g", "e", "f", "f")[level]

    row = params.assignment_error[("g", "e", "f").index(true_level)]
    reported = ("g", "e", "f")[
        min(int(np.searchsorted(np.cumsum(row), rng.random(), side="right")), 2)
    ]

    frame_pull = {"g": 0.0, "e": params.chi_e, "f": params.chi_f}[reported]
    n = np.arange(dim)
    cavity = cavity * np.exp(2j * math.pi * frame_pull * n * params.t_ro)

    out = np.zeros(4 * dim, dtype=complex)
    out[:dim] = cavity
    return MapResult(
        state=out,
        outcome=reported,
        true_level=true_level,
        jumps=res.jumps,
    )


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

    Trajectory mode returns one record (a list of rounds with pure cavity
    snapshots) when ``trials`` is None, or a list of records drawn from
    independent seeded streams when ``trials`` is given.  Master mode
    propagates the full density matrix and returns the postselected all-g
    ensemble; its cost grows as rounds times the squared joint dimension,
    so it is budget-capped to small problems, and it runs the effective
    drive only.
    """
    _check_protocol(protocol)
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
    if trials is not None:
        return [
            _repeated_parity_once(
                params,
                protocol,
                n_rounds,
                trajectory_rng(seed, PROTOCOL_INDEX[protocol], trial),
                basis,
                cavity,
                drive,
                drive_mode,
            )
            for trial in range(trials)
        ]
    return _repeated_parity_once(
        params, protocol, n_rounds, rng, basis, cavity, drive, drive_mode
    )


def _repeated_parity_once(params, protocol, n_rounds, rng, basis, cavity, drive, drive_mode="effective"):
    psi = joint_state("g", cavity)
    rounds = []
    for _ in range(n_rounds):
        psi, map_jumps = parity_map(
            psi, params, protocol, basis, rng=rng, drive=drive, drive_mode=drive_mode
        )
        result = readout_and_reset(psi, params, basis, rng, protocol)
        psi = result.state
        rounds.append(
            ParityRound(
                outcome=result.outcome,
                true_level=result.true_level,
                event=classify_event(result.outcome, protocol),
                cavity=result.state[: basis.dim].copy(),
                jumps=tuple(map_jumps) + result.jumps,
            )
        )
    return rounds


def _repeated_parity_master(params, protocol, n_rounds, basis, cavity, drive):
    dim = basis.dim
    ham, channels = _map_context(params, basis, protocol, drive, "effective")
    ro_ham, ro_channels = _readout_context(params, basis)
    confusion = np.array(params.assignment_error)

    psi0 = joint_state("g", cavity)
    rho = np.outer(psi0, psi0.conj())
    opening = ("ge_half", "ef_full") if protocol in ("gf", "ft") else ("ge_half",)
    pulses = [lift_ancilla(ancilla_rotation(kind), dim) for kind in opening]
    closing = [u.conj().T for u in reversed(pulses)]

    survival = 1.0
    wait = map_duration(params, protocol)
    for _ in range(n_rounds):
        for u in pulses:
            rho = u @ rho @ u.conj().T
        rho = evolve_master(rho, ham, channels, wait)
        for u in closing:
            rho = u @ rho @ u.conj().T
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
        self.emission = {
            "g": np.array([f_assign * keep, (1.0 - f_assign) * keep]),
            "e": np.array([(1.0 - f_assign) * keep, f_assign * keep]),
            "f": np.array([f_rate, f_rate]),
        }
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

    def update(self, outcome: str) -> float:
        predicted = self.transition @ self.belief
        posterior = self.emission[outcome] * predicted
        total = posterior.sum()
        if total <= 0.0:
            raise RuntimeError("record has zero likelihood under the filter model")
        self.belief = posterior / total
        self.log_evidence += math.log(total)
        self.log_no_flip += math.log(
            self.transition[0, 0] * self.emission[outcome][0]
        )
        return float(self.belief[0])

    @property
    def no_flip_posterior(self) -> float:
        return math.exp(self.log_no_flip - self.log_evidence)


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
    for attempt in range(1, max_attempts + 1):
        psi = joint_state("g", coherent_state(alpha, basis))
        good = True
        for _ in range(rounds):
            psi, _ = parity_map(psi, params, protocol, basis, rng=rng)
            result = readout_and_reset(psi, params, basis, rng, protocol)
            psi = result.state
            if result.outcome != "g":
                good = False
                break
        if good:
            return PrepResult(state=psi, success=True, attempts=attempt)
    return PrepResult(state=psi, success=False, attempts=max_attempts)


def preparation_statistics(
    params: SystemParams,
    seed: int,
    n_attempts: int = 300,
    basis: CavityBasis = CavityBasis(),
    alpha: float = math.sqrt(2.0),
    rounds: int = 4,
    protocol: str = "gf",
) -> PrepStats:
    """Success rate and heralded parity over independent preparation tries."""
    if n_attempts < 1:
        raise ValueError("n_attempts must be at least 1")
    signs = 1.0 - 2.0 * (np.arange(basis.dim) % 2)
    successes = 0
    parity_acc = 0.0
    for attempt in range(n_attempts):
        rng = trajectory_rng(seed, PREP_STREAM, attempt)
        res = prepare_cat(params, rng, basis, alpha, rounds, protocol, max_attempts=1)
        if not res.success:
            continue
        successes += 1
        parity_acc += float(signs @ (np.abs(res.cavity) ** 2))
    if successes == 0:
        return PrepStats(0.0, math.nan, n_attempts, 0)
    return PrepStats(
        successes / n_attempts, parity_acc / successes, n_attempts, successes
    )
