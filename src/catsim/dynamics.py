"""Time-evolution engines: Lindblad master equation and quantum trajectories.

Every Hamiltonian catsim builds is static and block diagonal in a rotating
frame.  The sideband drive op e^{2 pi i f t} + h.c. couples disjoint pairs
of basis states; in the frame U(t) = exp(-2 pi i f t P), P the projector
onto the states op takes from and every state a channel links to them,
the generator is exactly H' = H_static - 2 pi f P + op + op+ (a change of
frame, not a rotating-wave approximation) and every channel is static up
to a global phase: one 2x2 block per pair, 1x1 blocks elsewhere, and the
undriven and effective models are the all-1x1 case.  Every L+L is
diagonal, so H' - (i/2) sum L+L has the same blocks.  Unitary evolution
and the batched waiting-time trajectories (Dalibard, Castin & Molmer,
PRL 68, 580 (1992)) are therefore exact, with jump times from a
safeguarded Newton solve.  The master equation runs in the same frame,
where its generator keeps N - N' of each density element (N = n + [h]);
each sector it never mixes is exponentiated exactly at every dimension,
and RK4 runs only at a caller's step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# Imported here, not as np.random.*, so numpy.random does not load on the
# first trajectory call.
from numpy.random import Generator, Philox

from .hilbert import (CavityBasis, as_density, joint_index, joint_state,
                      validate_density, validate_state)
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

POSITIVITY_FLOOR = -1e-5

# Fock dimension of the Ramsey probe: the 0-1 superposition.  No process
# of the probe raises the photon number, so it needs no headroom.
RAMSEY_CAVITY_DIM = 2

# Samples ramsey_t2 advances per product, from a stack of propagator powers.
_RAMSEY_CHUNK = 64

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
    """One stochastic jump: time on the clock ``t0`` starts, and channel label."""

    time: float
    label: str


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    state: np.ndarray
    jumps: tuple


def trajectory_rng(seed: int, protocol_index: int = 0, trial_index: int = 0):
    """Counter-based generator giving independent streams per (protocol, trial).

    The seed fills one 64-bit key word, so it must lie in [0, 2**64); each
    index fills 32 bits of the other, so it must lie in [0, 2**32).
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    for name, index in (("protocol", protocol_index), ("trial", trial_index)):
        if not 0 <= int(index) < 2**32:
            raise ValueError(f"{name} index {index} outside [0, 2**32)")
    key = (int(protocol_index) << 32) | int(trial_index)
    return Generator(Philox(key=np.array([int(seed), key], dtype=np.uint64)))


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

    def uniforms(self) -> np.ndarray:
        """One uniform per row; a shared generator draws them in one call."""
        if self._shared is not None:
            return self._shared.random(len(self._draws))
        return np.array([draw() for draw in self._draws], dtype=float)


def evolve_unitary(
    state: np.ndarray,
    ham: HamiltonianSpec,
    duration: float,
    t0: float = 0.0,
) -> np.ndarray:
    """Propagate a pure state without dissipation from time ``t0``.

    Exact for every generator of the block structure (see the module
    docstring); ``t0`` sets the phase of a periodic drive.  The state must
    be a unit vector.
    """
    validate_state(state)
    psi = np.asarray(state, dtype=complex)
    if duration == 0.0:
        return psi.copy()
    return _evolve_rows(_blocks(ham, ()), psi[None], duration, t0)[0]


def liouvillian(ham: HamiltonianSpec, channels) -> np.ndarray:
    """Dense Lindblad generator on row-major vectorized densities, in the frame of ``_blocks``."""
    heff = _blocks(ham, tuple(channels)).generator()
    ident = np.eye(len(heff), dtype=complex)
    sup = -1j * (np.kron(heff, ident) - np.kron(ident, heff.conj()))
    for chan in channels:
        sup += np.kron(chan.operator, chan.operator.conj())
    return sup


def _sectors(heff, channels):
    """(indices, generator block) of each sector of density elements the generator never mixes.

    A sector is a component of the sparsity of sum kron(A, B) over ``terms``
    on the row-major density: (j, j') links to (l, l') if A[j, l] B[j', l'] != 0.
    """
    d = len(heff)
    ident = np.eye(d)
    terms = [(-1j * heff, ident), (ident, 1j * heff.conj()),
             *((chan.operator, chan.operator.conj()) for chan in channels)]
    links = [np.nonzero(a) + np.nonzero(b) for a, b in terms]
    u = np.concatenate([(ja[:, None] * d + jb).ravel() for ja, _, jb, _ in links])
    v = np.concatenate([(la[:, None] * d + lb).ravel() for _, la, _, lb in links])
    u, v = np.concatenate([u, v]), np.concatenate([v, u])
    labels, old = np.arange(d * d), None
    while not np.array_equal(labels, old):  # each label falls to its component's least index
        old = labels.copy()
        np.minimum.at(labels, u, labels[v])
        labels = labels[labels]
    order = np.argsort(labels, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        rows, cols = divmod(idx, d)
        yield idx, sum(a[rows[:, None], rows] * b[cols[:, None], cols] for a, b in terms)


def master_propagator(ham: HamiltonianSpec, channels, duration: float) -> list:
    """exp(L t) of ``liouvillian``'s generator, as one (indices, matrix) pair per sector.

    The indices pick the sector's elements of the row-major density.
    """
    heff = _blocks(ham, tuple(channels)).generator()
    return [(idx, _expm(gen * duration)) for idx, gen in _sectors(heff, channels)]


# Pade-13 coefficients b_0..b_13 of exp and the 1-norm up to which the
# approximant has backward error below double-precision round-off (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE13_BOUND = 5.371920351148152
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005).

    The matrix is scaled by 2^-s until its 1-norm is within the degree-13
    bound, and the approximant squared s times.  With r_13 = p(A)/p(-A),
    p(A) = U + V splits into the odd part U and the even part V.
    """
    norm = float(np.linalg.norm(mat, 1))
    squarings = math.ceil(math.log2(norm / _PADE13_BOUND)) if norm > _PADE13_BOUND else 0
    mat = mat / 2.0**squarings
    b = _PADE13
    ident = np.eye(len(mat), dtype=mat.dtype)
    a2 = mat @ mat
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = mat @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
               + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def evolve_master(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    dt: float | None = None,
) -> np.ndarray:
    """Evolve a unit state vector or a density matrix under the Lindblad equation.

    Exact by the sector exponentials of ``master_propagator`` at every
    dimension; passing ``dt`` runs RK4 with that step instead (a reference
    for convergence checks).  Both run a drive in its frame and return the
    lab-frame state.
    """
    (validate_state if np.ndim(state) == 1 else validate_density)(state)
    rho = as_density(state).astype(complex)
    return _master_evolution(ham, channels, duration, dt)(rho)


def _master_evolution(ham: HamiltonianSpec, channels, duration: float, dt=None):
    """The map taking a density matrix through ``duration``, built once.

    The map applies the sector propagators, or steps RK4 at a given ``dt``,
    as ``evolve_master`` says; apply it to as many densities as needed.
    """
    if duration == 0.0:
        return lambda rho: rho
    blocks = _blocks(ham, tuple(channels))
    if dt is None:
        props = master_propagator(ham, channels, duration)

        def evolve(rho):
            out, vec = np.empty_like(rho), rho.reshape(-1)
            for idx, prop in props:
                out.flat[idx] = prop @ vec[idx]
            out = 0.5 * (out + out.conj().T)
            return out / np.real(np.trace(out))

    else:
        evolve = _master_rk4(blocks.generator(), channels, duration, dt)
    if not blocks.turn.any():
        return evolve
    leave = np.exp(-1j * duration * blocks.turn)
    return lambda rho: leave[:, None] * evolve(rho) * leave.conj()


def _master_rk4(heff, channels, duration, dt):
    """RK4 stepping of the Lindblad equation under the static H_eff ``heff``, as a map."""
    ops = [(chan.operator, chan.operator.conj().T) for chan in channels]

    def rhs(mat):
        half = heff @ mat  # rho H_eff+ is half+ for a Hermitian rho
        out = -1j * (half - half.conj().T)
        for op, dag in ops:
            out += op @ mat @ dag
        return out

    steps = max(1, int(math.ceil(duration / dt)))
    dt = duration / steps
    check_every = max(1, steps // 10)

    def apply(rho):
        for k in range(steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            rho /= np.real(np.trace(rho))
            if (k + 1) % check_every == 0 or k == steps - 1:
                eigmin = float(np.linalg.eigvalsh(rho)[0])
                if eigmin < POSITIVITY_FLOOR:
                    raise RuntimeError(
                        f"density matrix lost positivity (min eigenvalue {eigmin:.2e}); "
                        "reduce the integration step"
                    )
        return rho

    return apply


def run_trajectory(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    rng,
    t0: float = 0.0,
) -> TrajectoryResult:
    """One stochastic wave-function trajectory over ``duration`` from ``t0``.

    Returns the normalized final state and the jump records, timed on the
    clock ``t0`` starts: ``t0`` plus the offset into the segment.  Needs an
    explicit numpy Generator so that callers own reproducibility.  This is
    a one-row call of ``run_trajectories``; the state must be a unit vector.
    """
    validate_state(state)
    psi = np.array(state, dtype=complex)
    states, jumps = run_trajectories(psi[None], ham, channels, duration, RowStreams([rng]), t0)
    return TrajectoryResult(states[0], jumps[0])


def run_trajectories(
    states, ham: HamiltonianSpec, channels, duration: float, streams, t0: float = 0.0
):
    """Stochastic trajectories of a ``(rows, d)`` stack of states from ``t0``.

    ``streams`` is a ``RowStreams`` with one entry per row.  Each row
    consumes its draws in the order ``run_trajectory`` would, so a row
    with its own generator ends exactly as it would alone.  Returns the
    normalized final states and, per row, the tuple of jump records timed
    as ``t0`` plus the offset into the segment.  Without channels or
    duration the rows evolve unitarily and draw nothing.  A generator
    outside the block structure, or a row that is not finite or has zero
    norm, is a ValueError.
    """
    states = np.asarray(states, dtype=complex)
    blocks = _blocks(ham, tuple(channels))
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    if not np.all((norms > 0.0) & (norms < math.inf)):
        raise ValueError("every row must be finite with a nonzero norm")
    psi = states / norms
    if duration == 0.0 or not channels:
        return _evolve_rows(blocks, psi, duration, t0), [()] * len(psi)
    return _trajectory_rows(psi, blocks, channels, duration, streams, t0)


# Below this |s t| a 2x2 block takes sinh(s t)/s from its series, whose
# first omitted term is then 2.5e-18 of the sum; above it the exponential
# form loses at most one digit to cancellation.
_SERIES_RADIUS = 0.1


@dataclass(frozen=True, eq=False)
class _Blocks:
    """The inter-jump generator -i(H' - (i/2) sum L+L), block by block.

    Amplitude j evolves as exp(freq[j] t), except that each pair
    (upper[k], lower[k]) with coupling op[upper, lower] mixes by the
    exponential of its 2x2 block.  The frame turns state j by
    exp(i turn[j] t).  With no pairs this is the exact diagonal case.
    """

    freq: np.ndarray
    gamma: np.ndarray
    products: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    coupling: np.ndarray
    turn: np.ndarray

    def frame(self, psi, t, sign):
        """Lab-frame rows at time t into the frame (sign +1), or back (-1)."""
        if not self.turn.any():
            return psi
        return psi * np.exp(sign * 1j * self.turn * t)

    def generator(self):
        """The dense H' - (i/2) sum L+L."""
        heff = np.diag(1j * self.freq)
        heff[self.upper, self.lower] = self.coupling
        heff[self.lower, self.upper] = self.coupling.conj()
        return heff

    def mix(self, psi, t):
        """Each pair's amplitudes after each row's time t.

        A block is mean + N with N**2 = root**2, so its exponential is
        e^{mean t} (cosh(root t) + N sinh(root t)/root); at an exceptional
        point root = 0 and the series form of sinh(root t)/root holds.
        """
        f_up, f_low = self.freq[self.upper], self.freq[self.lower]
        mean, half = 0.5 * (f_up + f_low), 0.5 * (f_up - f_low)
        root = np.sqrt(half * half - self.coupling * self.coupling.conj())
        t = t[:, None]
        grow, shrink = np.exp((mean + root) * t), np.exp((mean - root) * t)
        z2 = (root * t) ** 2
        sinhc = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0 * (1.0 + z2 / 72.0)))
        exact = (grow - shrink) / (2.0 * np.where(root == 0.0, 1.0, root))
        odd = np.where(np.abs(root * t) < _SERIES_RADIUS, np.exp(mean * t) * t * sinhc, exact)
        even = 0.5 * (grow + shrink)
        up, low = psi[:, self.upper], psi[:, self.lower]
        return (
            (even + odd * half) * up - 1j * odd * self.coupling * low,
            (even - odd * half) * low - 1j * odd * self.coupling.conj() * up,
        )

    def propagate(self, psi, t):
        """Rows evolved in the frame for each row's time t, without jumps."""
        out = psi * _exp_rows(self.freq, t)
        if self.upper.size:
            out[:, self.upper], out[:, self.lower] = self.mix(psi, t)
        return out

    def weigh_pairs(self, psi, t, terms):
        """Write each pair's |amplitude|^2 after each row's time t into terms."""
        up, low = self.mix(psi, t)
        terms[:, self.upper] = up.real**2 + up.imag**2
        terms[:, self.lower] = low.real**2 + low.imag**2


@lru_cache(maxsize=32)
def _blocks(ham: HamiltonianSpec, channels: tuple) -> _Blocks:
    """The block structure of ``ham`` with ``channels`` and its frame, or a ValueError.

    Needs a diagonal static part, diagonal L+L products and at most one
    periodic term, whose operator couples disjoint pairs of basis states.
    The frame exp(-i omega t P_S) turns S: the drive's sources, grown by
    each state a channel links to S where it also links two states of S
    (the whole h level for the sideband, as cavity loss reaches the
    undriven |h, dim-1>).  A channel left turning by more than a global
    phase is a ValueError, as is a non-finite matrix entry.
    """
    mats = (ham.static, *(op for op, _ in ham.periodic), *(chan.operator for chan in channels))
    if not all(np.isfinite(mat).all() for mat in mats):
        raise ValueError("non-finite entry in the Hamiltonian or a channel operator")
    diag = ham.static_diagonal
    if diag is None:
        raise ValueError("exact evolution needs a diagonal static Hamiltonian")
    products = [chan.product_diag for chan in channels]
    if any(p is None for p in products):
        raise ValueError("exact evolution needs every L+L product to be diagonal")
    upper, lower, coupling, omega = ham.drive_pairs
    products = np.array(products, dtype=float).reshape(len(products), diag.size)
    gamma = np.sum(products, axis=0)
    inside = np.isin(np.arange(diag.size), lower)
    if upper.size:
        links = [chan.operator != 0.0 for chan in channels]
        size = 0
        while size < inside.sum():
            size = inside.sum()
            for link in links:
                if link[np.ix_(inside, inside)].any():
                    inside = inside | link[:, inside].any(axis=1) | link[inside].any(axis=0)
        steps = [inside[rows].astype(int) - inside[cols] for rows, cols in map(np.nonzero, links)]
        if inside[upper].any() or any(np.any(step != step[:1]) for step in steps):
            raise ValueError("no frame makes the drive and every channel static")
    turn = omega * inside
    freq = -1j * (diag - turn) - 0.5 * gamma
    for shared in (freq, gamma, products, turn):  # every caller gets the cached arrays
        shared.flags.writeable = False
    return _Blocks(freq, gamma, products, upper, lower, coupling, turn)


def _evolve_rows(blocks, psi, duration, t0):
    """Lab-frame rows evolved from ``t0`` for ``duration`` without jumps."""
    inside = blocks.propagate(blocks.frame(psi, t0, 1), np.full(len(psi), float(duration)))
    return blocks.frame(inside, t0 + duration, -1)


def _trajectory_rows(psi, blocks, channels, duration, streams, t0):
    """Exact waiting-time trajectories of normalized rows, all at once.

    Each pass draws one threshold per live row and propagates the live
    rows to the segment's end; a row's survival is its squared norm there.
    Rows whose survival stays above the threshold finish with that state,
    the rest jump at the time their survival falls to the threshold.  Rows
    evolve in the frame, entered at ``t0`` and left at the segment's end;
    a jump there changes a row by at most a global phase.
    """
    out = np.empty_like(psi)
    jumps = [()] * len(psi)
    live = np.arange(len(psi))
    t_done = np.zeros(len(psi))
    psi = blocks.frame(psi, t0, 1)
    while live.size:
        remaining = duration - t_done
        r = streams.take(live).uniforms()
        ends = blocks.propagate(psi, remaining)
        parts = ends.view(float)  # real and imaginary parts side by side
        survival = np.einsum("rk,rk->r", parts, parts)
        stay = survival >= r
        if stay.any():
            # In place: a normalized copy would add a stack-sized array to
            # the peak memory of every batched round.
            np.divide(ends, np.sqrt(survival)[:, None], out=ends, where=stay[:, None])
            out[live[stay]] = blocks.frame(ends[stay], t0 + duration, -1)
        jump = ~stay
        live, psi, t_done = live[jump], psi[jump], t_done[jump]
        if not live.size:
            break
        weights = psi.real**2 + psi.imag**2
        t_jump, _ = _jump_times(weights, blocks.gamma, r[jump], remaining[jump], blocks, psi)
        psi = blocks.propagate(psi, t_jump)
        # Channel weights |L psi|^2 from the L+L diagonals; the chosen one
        # is the squared norm of the jumped row.
        channel_weights = (psi.real**2 + psi.imag**2) @ blocks.products.T
        total = channel_weights.sum(axis=1, keepdims=True)
        if not np.all(total > 0.0):
            raise RuntimeError("no open jump channel at threshold crossing")
        picks = _draw_index(np.cumsum(channel_weights, axis=1) / total, streams.take(live))
        norms = np.sqrt(channel_weights[np.arange(len(picks)), picks])[:, None]
        t_done = t_done + t_jump
        # The channels picked, in order; np.unique would load numpy.ma on the
        # first call.
        for idx in np.flatnonzero(np.bincount(picks)):
            rows = picks == idx
            psi[rows] = psi[rows] @ channels[idx].operator.T / norms[rows]
        for row, t, idx in zip(live, t0 + t_done, picks):
            jumps[row] += (JumpRecord(time=float(t), label=channels[idx].label),)
    return out, jumps


def _exp_rows(rate, times):
    """exp(rate * t) for each row's time t, one exp when all rows share t."""
    if len(times) and np.all(times == times[0]):
        return np.broadcast_to(np.exp(rate * times[0]), (len(times), len(rate)))
    return np.exp(rate * times[:, None])


def _draw_index(cdf, streams):
    """Index each row's next uniform selects from its cumulative distribution."""
    return np.minimum(np.sum(cdf <= streams.uniforms()[:, None], axis=1), cdf.shape[1] - 1)


def _jump_times(weights, gamma, r, remaining, blocks=None, psi=None):
    """Times at which each row's survival S(t) falls to r.

    S(t) = sum w exp(-gamma t) for weights w, except that the pairs of
    ``blocks`` take their weights from the rows ``psi`` mixed to t.
    Newton's method on g(t) = log S(t) - log r, safeguarded by the bracket
    around the root ([0, remaining] at first): a step out of it bisects.
    Without pairs log S is convex, so the iterates climb from t = 0 to the
    root and the bracket never acts; with them it need not be convex.  A
    row stops once its step falls below ``_NEWTON_RTOL`` of its time, or
    once g is at round-off, as when r is so near 1 that round-off in g
    moves t by more than that fraction.  Returns the times and the number
    of iterations run.
    """
    t = np.zeros(len(r))
    log_r = np.log(r)
    floor = _NEWTON_ROUNDOFF * (1.0 - log_r)
    live = np.arange(len(r))
    # The bracket of each live row; a zero rate makes a step out of it.
    lo, hi = np.zeros(len(r)), np.array(remaining, dtype=float)
    for iteration in range(1, _NEWTON_CAP + 1):
        now = t[live]
        terms = weights[live] * np.exp(-gamma * now[:, None])
        if blocks is not None and blocks.upper.size:
            blocks.weigh_pairs(psi[live], now, terms)
        survival = terms.sum(axis=1)
        residual = np.log(survival) - log_r[live]
        early = residual > 0.0
        lo, hi = np.where(early, now, lo), np.where(early, hi, now)
        new = now + residual * survival / np.maximum(terms @ gamma, 1e-300)
        out = ~((new >= lo) & (new <= hi))
        if out.any():
            new[out] = 0.5 * (lo[out] + hi[out])
        converged = (np.abs(new - now) <= _NEWTON_RTOL * new) | (
            np.abs(residual) <= floor[live]
        )
        t[live] = new
        live, lo, hi = live[~converged], lo[~converged], hi[~converged]
        if not live.size:
            return t, iteration
    raise RuntimeError(f"jump-time solve did not converge in {_NEWTON_CAP} iterations")


def trajectory_ensemble_density(
    state: np.ndarray,
    ham: HamiltonianSpec,
    channels,
    duration: float,
    n_traj: int,
    seed: int,
) -> np.ndarray:
    """Trajectory-averaged density matrix of a unit state, with per-trial seeded streams."""
    validate_state(state)
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
    and the driven dephasing penalty apply.  Raises ValueError unless
    ``t_max`` and ``sample_dt`` are positive and finite.
    """
    if not (0.0 < t_max < math.inf and 0.0 < sample_dt < math.inf):
        raise ValueError("t_max and sample_dt must be positive and finite")
    basis = CavityBasis(dim=RAMSEY_CAVITY_DIM)
    mode = "effective" if drive is not None else "off"
    ham = build_hamiltonian(params, basis, mode=mode, drive=drive)
    channels = collapse_channels(params, basis, drive_on=drive is not None)

    p_e = params.n_th / (1.0 + params.n_th)
    ancilla_pop = np.array([1.0 - p_e, p_e, 0.0, 0.0])
    cavity_rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    cavity_rho[:2, :2] = 0.5  # |+><+| for the 0-1 superposition
    rho = np.kron(np.diag(ancilla_pop), cavity_rho)

    # The (a, 0; a, 1) elements of the row-major density.  Only the g and e
    # ones start nonzero, and no channel feeds the f and h ones; every T1 is
    # finite, so relaxation from e to g puts g and e in one sector.
    tracked = np.ravel_multi_index((np.arange(4), 0, np.arange(4), 1), (4, basis.dim) * 2)
    idx, gen = next((idx, gen)
                    for idx, gen in _sectors(_blocks(ham, tuple(channels)).generator(), channels)
                    if tracked[0] in idx)
    # powers[j] = P^(j+1) for the one-sample propagator P, so the tracked
    # rows of the stack give the coherence at each of the next samples.
    powers = _expm(gen * sample_dt)[None]
    while len(powers) < _RAMSEY_CHUNK:
        powers = np.concatenate([powers, powers @ powers[-1]])
    in_tracked = np.isin(idx, tracked)
    readout = powers[:, in_tracked].sum(axis=1)

    sector = rho.reshape(-1)[idx]
    c0 = abs(sector[in_tracked].sum())
    times = [np.zeros(1)]
    values = [np.array([c0])]
    while True:
        # np.add.accumulate adds in order: the times of t += sample_dt, bit for bit.
        steps = np.full(_RAMSEY_CHUNK + 1, sample_dt)
        steps[0] = times[-1][-1]
        chunk_times = np.add.accumulate(steps)[1:]
        chunk_values = np.abs(readout @ sector)
        sector = powers[-1] @ sector
        # The curve ends at the first sample at t_max or below a quarter of c0.
        ends = np.flatnonzero((chunk_times >= t_max) | (chunk_values < 0.25 * c0))
        stop = ends[0] + 1 if len(ends) else _RAMSEY_CHUNK
        times.append(chunk_times[:stop])
        values.append(chunk_values[:stop])
        if len(ends):
            break

    values = np.concatenate(values)
    times = np.concatenate(times)
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
) -> np.ndarray:
    """Sideband transfer population over a (detuning, time) grid.

    Starts in |e, 1> and drives the |e, 1>-|h, 0> transition with the
    oscillating coupling; returns P(h) with shape (len(detunings),
    len(times)), in the caller's order of times.  Coherent dynamics only,
    so the pattern is the bare interference chevron.  The sample times of
    one detuning are the rows of one exact block propagation from t = 0.
    """
    basis = CavityBasis(dim=4)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be non-negative and finite")
    h_block = slice(3 * basis.dim, 4 * basis.dim)
    psi = joint_state("e", np.eye(basis.dim, dtype=complex)[1])
    rows = np.broadcast_to(psi, (len(times), psi.size))
    populations = np.empty((len(detunings), len(times)))
    for i, delta in enumerate(detunings):
        drive = DriveSpec(params.omega_sb, float(delta))
        ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
        # P(h) is the same in the frame, and the frame starts at t = 0.
        states = _blocks(ham, ()).propagate(rows, times)
        populations[i] = np.sum(np.abs(states[:, h_block]) ** 2, axis=1)
    return populations


def measured_stark_shift(
    params: SystemParams,
    drive: DriveSpec,
    n: int = 1,
) -> float:
    """Drive-induced pull of |e, n> relative to |e, 0>, in Hz.

    Runs the oscillating drive on a superposition of |e, 0> and |e, n>
    with the static dispersive terms switched off, so the accumulated
    relative phase isolates the induced shift.  The 2 us window shrinks
    with the expected shift so the phase never wraps; sudden turn-on
    micromotion limits the accuracy to about a percent.
    """
    if n < 1:
        raise ValueError("photon number must be at least 1")
    if drive.detuning == 0.0:
        raise ValueError("shift measurement needs a detuned drive")
    expected = abs(induced_chi(drive.omega, drive.detuning, n))
    duration = min(2e-6, 0.2 / expected) if expected > 0.0 else 2e-6
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
