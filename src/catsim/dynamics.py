"""Time-evolution engines: Lindblad master equation and quantum trajectories.

Two integrators cover every need: an exact superoperator exponential for
small static problems, and dense RK4 stepping otherwise.  Trajectory
evolution additionally has an exact fast path for the common case where
the Hamiltonian is static diagonal and every decay product L+L is
diagonal; inter-jump evolution is then a per-amplitude exponential and
jump times come from a bracketed root solve, with no stepping error.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .hilbert import CavityBasis, as_density, joint_index, joint_state
from .model import (
    DriveSpec,
    HamiltonianSpec,
    SystemParams,
    build_hamiltonian,
    collapse_channels,
    induced_chi,
)

__all__ = [
    "JumpRecord",
    "RowStreams",
    "TrajectoryResult",
    "chevron_map",
    "evolve_master",
    "evolve_unitary",
    "liouvillian",
    "master_propagator",
    "measured_stark_shift",
    "ramsey_t2",
    "run_trajectories",
    "run_trajectory",
    "trajectory_ensemble_density",
    "trajectory_rng",
]

# Above this dimension the d^2 x d^2 superoperator exponential is slower
# than stepping; RK4 takes over.
SUPEROP_DIM_LIMIT = 32

POSITIVITY_FLOOR = -1e-5

# Fock dimension of the Ramsey probe: the 0-1 superposition plus headroom.
RAMSEY_CAVITY_DIM = 3

# Rows a batched caller evolves at once.  It bounds the working set: 3000
# preparation attempts at dim 20 added 25 MB of peak RSS in one block and
# 2.9 MB in blocks of 256, which ran within 10% as fast (blocks of 64
# ran 60% slower).
_ROW_BLOCK = 256


def _row_blocks(n: int):
    """Consecutive ranges of at most ``_ROW_BLOCK`` of ``n`` rows."""
    return (range(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK))


# Jump-time Newton solve: a step below this fraction of t, or a residual
# within this many units of round-off of log r, ends a row, and no row may
# take more than the cap.  On the ge, gf and ft rounds a row takes 4.1
# iterations on average and at most 5.
_NEWTON_RTOL = 1e-10
_NEWTON_ROUNDOFF = 32.0 * np.finfo(float).eps
_NEWTON_CAP = 60


@dataclass(frozen=True)
class JumpRecord:
    """One stochastic jump: segment-relative time and channel label."""

    time: float
    label: str


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    state: np.ndarray
    jumps: tuple


def trajectory_rng(seed: int, protocol_index: int = 0, trial_index: int = 0):
    """Counter-based generator giving independent streams per (protocol, trial).

    Each index fills 32 bits of the key, so it must lie in [0, 2**32).
    """
    for name, index in (("protocol", protocol_index), ("trial", trial_index)):
        if not 0 <= int(index) < 2**32:
            raise ValueError(f"{name} index {index} outside [0, 2**32)")
    key = (int(protocol_index) << 32) | int(trial_index)
    return np.random.Generator(
        np.random.Philox(key=np.array([int(seed), key], dtype=np.uint64))
    )


class RowStreams:
    """Uniform draws for a stack of trajectory rows.

    Each row draws from its own generator, or rows share one.  A row takes
    its draws in the order the one-row path takes them; a generator shared
    by several rows serves them in row order at each draw.
    """

    def __init__(self, rngs):
        rngs = list(rngs)
        self._shared = rngs[0] if all(rng is rngs[0] for rng in rngs) else None
        self._draws = np.array([rng.random for rng in rngs], dtype=object)

    def __len__(self) -> int:
        return len(self._draws)

    def take(self, rows) -> "RowStreams":
        """The streams of the selected rows, in the order given."""
        part = copy.copy(self)
        part._draws = self._draws[rows]
        return part

    def generators(self) -> list:
        return [draw.__self__ for draw in self._draws]

    def uniforms(self) -> np.ndarray:
        """One uniform per row; a shared generator draws them in one call."""
        if self._shared is not None:
            return self._shared.random(len(self._draws))
        return np.array([draw() for draw in self._draws], dtype=float)


def _frequency_scale(ham: HamiltonianSpec, extra_rate: float = 0.0) -> float:
    """Conservative bound (Hz) on the fastest timescale in the generator."""
    scale = float(np.max(np.abs(ham.static))) if ham.static.size else 0.0
    for op, freq in ham.periodic:
        scale += 2.0 * float(np.max(np.sum(np.abs(op), axis=1)))
        scale += 2.0 * math.pi * abs(freq)
    return scale / (2.0 * math.pi) + extra_rate


def _rk4_step(rhs, state, t, dt):
    k1 = rhs(state, t)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(state + dt * k3, t + dt)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_unitary(
    state: np.ndarray,
    ham: HamiltonianSpec,
    duration: float,
    t0: float = 0.0,
) -> np.ndarray:
    """Propagate a pure state without dissipation."""
    psi = np.asarray(state, dtype=complex)
    if duration == 0.0:
        return psi.copy()
    if ham.is_static:
        diag = ham.static_diagonal
        if diag is not None:
            return psi * np.exp(-1j * diag * duration)
        return expm(-1j * ham.static * duration) @ psi

    def rhs(vec, t):
        return -1j * (ham.matrix(t) @ vec)

    dt = min(duration / 10.0, 1.0 / (50.0 * _frequency_scale(ham)))
    steps = max(1, int(math.ceil(duration / dt)))
    dt = duration / steps
    t = t0
    for _ in range(steps):
        psi = _rk4_step(rhs, psi, t, dt)
        t += dt
    return psi / np.linalg.norm(psi)


def liouvillian(ham: HamiltonianSpec, channels) -> np.ndarray:
    """Dense Lindblad generator acting on row-major vectorized densities."""
    if not ham.is_static:
        raise ValueError("superoperator form requires a static Hamiltonian")
    h = ham.static
    d = h.shape[0]
    ident = np.eye(d, dtype=complex)
    sup = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for chan in channels:
        op = chan.operator
        ldl = op.conj().T @ op
        sup += np.kron(op, op.conj())
        sup -= 0.5 * (np.kron(ldl, ident) + np.kron(ident, ldl.T))
    return sup


def master_propagator(ham: HamiltonianSpec, channels, duration: float) -> np.ndarray:
    """exp(L t) for the static Lindblad generator; reusable across steps."""
    return expm(liouvillian(ham, channels) * duration)


def evolve_master(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    dt: float | None = None,
) -> np.ndarray:
    """Evolve a density matrix under the Lindblad equation.

    Small static problems go through the exact superoperator exponential;
    passing ``dt`` forces RK4 stepping with that step (useful for
    convergence checks), as does a time-dependent Hamiltonian or a
    dimension past the superoperator limit.
    """
    rho = as_density(state).astype(complex)
    d = rho.shape[0]
    if duration == 0.0:
        return rho
    if dt is None and ham.is_static and d <= SUPEROP_DIM_LIMIT:
        flat = master_propagator(ham, channels, duration) @ rho.reshape(-1)
        out = flat.reshape(d, d)
        out = 0.5 * (out + out.conj().T)
        return out / np.real(np.trace(out))
    return _master_rk4(rho, ham, channels, duration, dt)


def _master_rk4(rho, ham, channels, duration, dt):
    ops = [chan.operator for chan in channels]
    dags = [op.conj().T for op in ops]
    gamma_tot = sum(dag @ op for op, dag in zip(ops, dags)) if ops else None
    max_rate = max((chan.rate for chan in channels), default=0.0)
    static = ham.is_static
    h_static = ham.static

    def rhs(mat, t):
        h = h_static if static else ham.matrix(t)
        out = -1j * (h @ mat - mat @ h)
        for op, dag in zip(ops, dags):
            out += op @ mat @ dag
        if gamma_tot is not None:
            half = gamma_tot @ mat
            out -= 0.5 * (half + half.conj().T)
        return out

    if dt is None:
        dt = min(duration / 2000.0, 1.0 / (50.0 * _frequency_scale(ham, max_rate)))
    steps = max(1, int(math.ceil(duration / dt)))
    dt = duration / steps
    t = 0.0
    check_every = max(1, steps // 10)
    for k in range(steps):
        rho = _rk4_step(rhs, rho, t, dt)
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.real(np.trace(rho))
        t += dt
        if (k + 1) % check_every == 0 or k == steps - 1:
            eigmin = float(np.linalg.eigvalsh(rho)[0])
            if eigmin < POSITIVITY_FLOOR:
                raise RuntimeError(
                    f"density matrix lost positivity (min eigenvalue {eigmin:.2e}); "
                    "reduce the integration step"
                )
    return rho


def run_trajectory(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    rng,
) -> TrajectoryResult:
    """One stochastic wave-function trajectory over ``duration``.

    Returns the normalized final state and the jump records with times
    relative to the segment start.  Needs an explicit numpy Generator so
    that callers own reproducibility.  On the exact diagonal path this is
    a one-row call of ``run_trajectories``.
    """
    psi = np.array(state, dtype=complex)
    psi /= np.linalg.norm(psi)
    if duration == 0.0 or not channels:
        return TrajectoryResult(evolve_unitary(psi, ham, duration), ())
    rates = _diagonal_rates(ham, channels)
    if rates is None:
        return _trajectory_dense(psi, ham, channels, duration, rng)
    states, jumps = _trajectory_rows(psi[None], rates, channels, duration, RowStreams([rng]))
    return TrajectoryResult(states[0], jumps[0])


def run_trajectories(states, ham: HamiltonianSpec, channels, duration: float, streams):
    """Stochastic trajectories of a ``(rows, d)`` stack of states.

    ``streams`` is a ``RowStreams`` with one entry per row.  Each row
    consumes its draws in the order ``run_trajectory`` would, so a row
    with its own generator ends exactly as it would alone.  Returns the
    normalized final states and, per row, the tuple of jump records.
    Outside the exact diagonal path the rows run one by one.
    """
    states = np.asarray(states, dtype=complex)
    rates = _diagonal_rates(ham, channels) if duration > 0.0 and channels else None
    if rates is None:
        results = [
            run_trajectory(psi, ham, channels, duration, rng)
            for psi, rng in zip(states, streams.generators())
        ]
        return np.array([res.state for res in results]), [res.jumps for res in results]
    psi = states / np.linalg.norm(states, axis=1, keepdims=True)
    return _trajectory_rows(psi, rates, channels, duration, streams)


def _diagonal_rates(ham, channels):
    """(H diagonal, stacked L+L diagonals) when both are exactly diagonal."""
    diag_h = ham.static_diagonal if ham.is_static else None
    products = [c.product_diag for c in channels]
    if diag_h is None or any(p is None for p in products):
        return None
    return diag_h, np.array(products)


def _pick_channel(psi, channels, rng):
    weights = np.array(
        [np.vdot(c.operator @ psi, c.operator @ psi).real for c in channels]
    )
    total = weights.sum()
    if total <= 0.0:
        raise RuntimeError("no open jump channel at threshold crossing")
    cdf = np.cumsum(weights) / total
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    idx = min(idx, len(channels) - 1)
    jumped = channels[idx].operator @ psi
    return jumped / np.linalg.norm(jumped), channels[idx].label


def _trajectory_rows(psi, rates, channels, duration, streams):
    """Exact waiting-time trajectories of normalized rows, all at once.

    Each pass draws one threshold per live row; rows whose end-of-segment
    survival stays above it finish by an elementwise exponential, the
    rest jump at the time their survival falls to the threshold.
    """
    diag_h, products = rates
    gamma = np.sum(products, axis=0)
    freq = -1j * diag_h - 0.5 * gamma
    out = np.empty_like(psi)
    jumps = [()] * len(psi)
    live = np.arange(len(psi))
    t_done = np.zeros(len(psi))
    while live.size:
        remaining = duration - t_done
        r = streams.take(live).uniforms()
        weights = psi.real**2 + psi.imag**2
        # A row's survival to the end of the segment is its norm there.
        survival = np.einsum("rd,rd->r", weights, _exp_rows(-gamma, remaining))
        stay = survival >= r
        if stay.any():
            done = psi[stay] * _exp_rows(freq, remaining[stay])
            out[live[stay]] = done / np.sqrt(survival[stay])[:, None]
        jump = ~stay
        live, psi, t_done = live[jump], psi[jump], t_done[jump]
        if not live.size:
            break
        t_jump, _ = _jump_times(weights[jump], gamma, r[jump], remaining[jump])
        psi = psi * _exp_rows(freq, t_jump)
        # Channel weights |L psi|^2 from the L+L diagonals; the chosen one
        # is the squared norm of the jumped row.
        channel_weights = (psi.real**2 + psi.imag**2) @ products.T
        total = channel_weights.sum(axis=1, keepdims=True)
        if np.any(total <= 0.0):
            raise RuntimeError("no open jump channel at threshold crossing")
        picks = _draw_index(np.cumsum(channel_weights, axis=1) / total, streams.take(live))
        norms = np.sqrt(channel_weights[np.arange(len(picks)), picks])[:, None]
        for idx in np.unique(picks):
            rows = picks == idx
            psi[rows] = (psi[rows] @ channels[idx].operator.T) / norms[rows]
        t_done = t_done + t_jump
        for row, t, idx in zip(live, t_done, picks):
            jumps[row] += (JumpRecord(time=float(t), label=channels[idx].label),)
    return out, jumps


def _exp_rows(rate, times):
    """exp(rate * t) for each row's time t, one exp when all rows share t."""
    if np.all(times == times[0]):
        return np.broadcast_to(np.exp(rate * times[0]), (len(times), len(rate)))
    return np.exp(rate * times[:, None])


def _draw_index(cdf, streams):
    """Index each row's next uniform selects from its cumulative distribution."""
    return np.minimum(np.sum(cdf <= streams.uniforms()[:, None], axis=1), cdf.shape[1] - 1)


def _jump_times(weights, gamma, r, remaining):
    """Times at which each row's survival S(t) = sum w exp(-gamma t) falls to r.

    Newton's method on g(t) = log S(t) - log r: log S is convex and
    decreasing for a sum of decaying exponentials, so the iterates climb
    from t = 0 to the root without passing it.  A row stops once its step
    falls below ``_NEWTON_RTOL`` of its time, or once g is at round-off:
    when r is near 1 the root is so close to 0 that round-off in g moves
    t by more than that fraction.  Returns the times and the number of
    iterations run.
    """
    t = np.zeros(len(r))
    log_r = np.log(r)
    floor = _NEWTON_ROUNDOFF * (1.0 - log_r)
    live = np.arange(len(r))
    for iteration in range(1, _NEWTON_CAP + 1):
        terms = weights[live] * np.exp(-gamma * t[live, None])
        survival = terms.sum(axis=1)
        residual = np.log(survival) - log_r[live]
        new = np.clip(t[live] + residual * survival / (terms @ gamma), 0.0, remaining[live])
        converged = (np.abs(new - t[live]) <= _NEWTON_RTOL * new) | (
            np.abs(residual) <= floor[live]
        )
        t[live] = new
        live = live[~converged]
        if not live.size:
            return t, iteration
    raise RuntimeError(f"jump-time solve did not converge in {_NEWTON_CAP} iterations")


def _trajectory_dense(psi, ham, channels, duration, rng):
    gamma_tot = sum(c.operator.conj().T @ c.operator for c in channels)
    max_rate = max(c.rate for c in channels)
    static = ham.is_static
    h_static = ham.static

    def rhs(vec, t):
        h = h_static if static else ham.matrix(t)
        return -1j * (h @ vec) - 0.5 * (gamma_tot @ vec)

    dt = min(duration / 10.0, 1.0 / (50.0 * _frequency_scale(ham, max_rate)))
    steps = max(1, int(math.ceil(duration / dt)))
    dt = duration / steps

    jumps = []
    r = rng.random()
    t = 0.0
    norm_sq = 1.0
    for _ in range(steps):
        candidate = _rk4_step(rhs, psi, t, dt)
        cand_sq = float(np.vdot(candidate, candidate).real)
        if cand_sq >= r:
            psi = candidate
            norm_sq = cand_sq
            t += dt
            continue
        # jump inside this step: locate the crossing on a log scale
        frac = math.log(norm_sq / r) / math.log(norm_sq / cand_sq)
        frac = min(max(frac, 1e-6), 1.0)
        at_jump = _rk4_step(rhs, psi, t, dt * frac)
        psi, label = _pick_channel(at_jump, channels, rng)
        t += dt * frac
        jumps.append(JumpRecord(time=t, label=label))
        # finish the partial step with the fresh normalized state
        psi = _rk4_step(rhs, psi, t, dt * (1.0 - frac))
        norm_sq = float(np.vdot(psi, psi).real)
        t += dt * (1.0 - frac)
        r = rng.random() * norm_sq
    psi = psi / np.linalg.norm(psi)
    return TrajectoryResult(psi, tuple(jumps))


def trajectory_ensemble_density(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    n_traj: int,
    seed: int,
) -> np.ndarray:
    """Trajectory-averaged density matrix with per-trial seeded streams."""
    psi0 = np.asarray(state, dtype=complex)
    acc = np.zeros((psi0.size, psi0.size), dtype=complex)
    for trials in _row_blocks(n_traj):
        streams = RowStreams([trajectory_rng(seed, 0, trial) for trial in trials])
        rows = np.broadcast_to(psi0, (len(trials), psi0.size))
        states, _ = run_trajectories(rows, ham, channels, duration, streams)
        acc += states.T @ states.conj()
    return acc / n_traj


def ramsey_t2(
    params: SystemParams,
    drive=None,
    t_max: float = 12e-3,
    sample_dt: float = 2e-6,
) -> float:
    """Cavity Ramsey coherence time from a master-equation simulation.

    Prepares a 0-1 photon superposition with the ancilla in thermal
    equilibrium, tracks the cavity coherence and fits an exponential.
    Returns ``inf`` when no appreciable decay happens within ``t_max``
    (the flat-curve flag).  With a drive the dressed static Hamiltonian
    and the driven dephasing penalty apply.
    """
    basis = CavityBasis(dim=RAMSEY_CAVITY_DIM)
    mode = "effective" if drive is not None else "off"
    ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
    channels = collapse_channels(params, basis, drive_on=drive is not None)

    p_e = params.n_th / (1.0 + params.n_th)
    ancilla_pop = np.array([1.0 - p_e, p_e, 0.0, 0.0])
    plus = np.zeros(basis.dim, dtype=complex)
    plus[0] = plus[1] = 1.0 / math.sqrt(2.0)
    cavity_rho = np.outer(plus, plus.conj())
    rho = np.kron(np.diag(ancilla_pop).astype(complex), cavity_rho)

    prop = master_propagator(ham, channels, sample_dt)
    dim = rho.shape[0]

    def cavity_coherence(mat):
        blocks = mat.reshape(4, basis.dim, 4, basis.dim)
        return abs(np.einsum("anan->", blocks[:, 0:1, :, 1:2]))

    flat = rho.reshape(-1)
    c0 = cavity_coherence(rho)
    times = [0.0]
    values = [c0]
    t = 0.0
    while t < t_max:
        flat = prop @ flat
        t += sample_dt
        values.append(cavity_coherence(flat.reshape(dim, dim)))
        times.append(t)
        if values[-1] < 0.25 * c0:
            break

    values = np.asarray(values)
    times = np.asarray(times)
    if values[-1] > 0.97 * c0:
        return math.inf
    # log-linear fit; the chi beat note averages out over many periods
    mask = values > 1e-12
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    if slope >= 0.0:
        return math.inf
    return -1.0 / slope


def chevron_map(
    params: SystemParams,
    detunings,
    times,
    basis: CavityBasis | None = None,
) -> np.ndarray:
    """Sideband transfer population over a (detuning, time) grid.

    Starts in |e, 1> and drives the |e, 1>-|h, 0> transition with the
    oscillating coupling; returns P(h) with shape (len(detunings),
    len(times)).  Coherent dynamics only, so the pattern is the bare
    interference chevron.
    """
    basis = basis or CavityBasis(dim=4)
    times = np.asarray(sorted(float(t) for t in times))
    if len(times) and times[0] < 0.0:
        raise ValueError("sample times must be non-negative")
    h_block = slice(3 * basis.dim, 4 * basis.dim)
    populations = np.empty((len(detunings), len(times)))
    for i, delta in enumerate(detunings):
        drive = DriveSpec(params.omega_sb, float(delta))
        ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
        psi = joint_state("e", np.eye(basis.dim, dtype=complex)[1])
        t_prev = 0.0
        for j, t in enumerate(times):
            psi = evolve_unitary(psi, ham, t - t_prev, t0=t_prev)
            t_prev = t
            populations[i, j] = float(np.sum(np.abs(psi[h_block]) ** 2))
    return populations


def measured_stark_shift(
    params: SystemParams,
    drive: DriveSpec,
    n: int = 1,
    duration: float = 2e-6,
) -> float:
    """Drive-induced pull of |e, n> relative to |e, 0>, in Hz.

    Runs the oscillating drive on a superposition of |e, 0> and |e, n>
    with the static dispersive terms switched off, so the accumulated
    relative phase isolates the induced shift.  The window shrinks with
    the expected shift so the phase never wraps; sudden turn-on
    micromotion limits the accuracy to about a percent.
    """
    if n < 1:
        raise ValueError("photon number must be at least 1")
    if drive.detuning == 0.0:
        raise ValueError("shift measurement needs a detuned drive")
    from dataclasses import replace

    expected = abs(induced_chi(drive.omega, drive.detuning, n))
    if expected > 0.0:
        duration = min(duration, 0.2 / expected)
    bare = replace(params, chi_e=1e-30, chi_f=1e-30, chi_h=1e-30, kerr=1e-30)
    basis = CavityBasis(dim=max(6, n + 3))
    ham = build_hamiltonian(bare, basis, mode="time_dependent", drive=drive)
    psi = np.zeros(4 * basis.dim, dtype=complex)
    lo = joint_index("e", 0, basis.dim)
    hi = joint_index("e", n, basis.dim)
    psi[lo] = psi[hi] = 1.0 / math.sqrt(2.0)
    out = evolve_unitary(psi, ham, duration)
    relative = np.angle(out[hi] * np.conj(out[lo]))
    return -relative / (2.0 * math.pi * duration)
