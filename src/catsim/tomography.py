"""Wigner scanning, reconstruction, and rotation-aligned fidelity.

Two routes produce a Wigner grid: direct evaluation of
W(beta) = (2/pi) Tr[D(beta) P D(beta)^dag rho] on a cavity state, and a
shot-by-shot simulation of the measurement circuit (displace, map parity
onto the ancilla, read out) under the full noise model.  Simulated grids
carry the readout contrast of the hardware and are normalized by the
contrast measured on vacuum before reconstruction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import (
    CavityBasis,
    as_density,
    cat_state,
    fock_state,
    joint_state,
    validate_density,
    validate_state,
)
from .model import SystemParams, _check_count
from .protocols import _shot_outcomes

__all__ = [
    "ReconstructionResult",
    "WignerGrid",
    "aligned_cat_fidelity",
    "mle_reconstruct",
    "normalize_grid",
    "simulate_tomography",
    "square_grid",
    "vacuum_contrast",
    "wigner_scan",
]

TWO_OVER_PI = 2.0 / math.pi

# Grid points per product in ``_observable_blocks`` and ``_displaced``: it
# bounds what they hold at once, so a scan never holds its whole
# (K, dim*dim) matrix and a simulated grid no second (K, 4, dim) stack.
_BLOCK_ROWS = 32


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Sampled Wigner function: points beta, values, shots per point.

    ``shots`` is 0 for exact evaluations.
    """

    betas: np.ndarray
    values: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        if not (len(self.betas) == len(self.values) == len(self.shots)):
            raise ValueError("grid columns must have equal length")

    def __len__(self) -> int:
        return len(self.betas)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Fitted state, final residual, iterations run, residual per
    iteration, and why the fit stopped: "floor", "tolerance" or "cap"."""

    rho: np.ndarray
    residual: float
    iterations: int
    history: np.ndarray
    stop: str


def square_grid(n: int = 21, extent: float = 2.5) -> np.ndarray:
    """Row-major n-by-n grid of displacements covering [-extent, extent]."""
    axis = np.linspace(-extent, extent, n)
    re, im = np.meshgrid(axis, axis, indexing="xy")
    return (re + 1j * im).ravel()


def wigner_scan(rho_cavity: np.ndarray, betas) -> WignerGrid:
    """Exact Wigner values of a cavity state on a grid of displacements.

    The truncated space is the state's own, and the state's shape picks
    the path.  A unit vector is scanned by ``_vector_values`` at O(dim^2)
    per point.  A density matrix gives Re Tr[O(beta) rho] with the
    observables that ``mle_reconstruct`` fits, taken block by block from
    ``_observable_blocks``, so the whole (K, dim*dim) observable matrix is
    never held.  Raises ValueError unless the state is a unit vector or a
    density matrix and every displacement is finite.
    """
    betas = _finite_betas(betas)
    state = np.asarray(rho_cavity, dtype=complex)
    if state.ndim == 1:
        validate_state(state)
    else:
        validate_density(state)
    dim = state.shape[0]
    # Amplitude bound inside which a truncated Wigner value is trustworthy.
    radius = math.sqrt(dim / 4.0)
    if np.any(np.abs(betas) > radius):
        warnings.warn(
            f"displacements beyond |beta| = {radius:.2f} exceed the "
            f"trusted region at dim {dim}; edge values are approximate",
            stacklevel=2,
        )
    if state.ndim == 1:
        values = _vector_values(state, betas)
    else:
        coordinates = _coordinates(state)
        values = np.empty(len(betas))
        for rows, block in _observable_blocks(betas, dim):
            values[rows] = block @ coordinates
    return WignerGrid(betas=betas, values=values, shots=np.zeros(len(betas), dtype=int))


def _vector_values(psi: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Wigner values of the unit vector ``psi``, ``_BLOCK_ROWS`` points at a time.

    With D(beta) P D(beta)+ = D(2 beta) P (see ``_observable_matrix``),
    D = R V e^{i r Lambda} V+ R+ for beta = r e^{i phi} and R = e^{i phi n}
    (see ``CavityBasis.displacement``), W(beta) is
    (2/pi) Re sum_l e^{2 i r lambda_l} conj(a_l) c_l with a = V+ R+ psi and
    c = V+ R+ P psi: two (rows, dim) by (dim, dim) products and a row sum.
    """
    vals, vecs = CavityBasis(len(psi))._quadrature_eigh
    n = np.arange(len(psi))
    flipped = psi * (1.0 - 2.0 * (n % 2))
    values = np.empty(len(betas))
    for start in range(0, len(betas), _BLOCK_ROWS):
        chunk = betas[start:start + _BLOCK_ROWS]
        turn = np.exp(-1j * np.outer(np.angle(chunk), n))
        a = (turn * psi) @ vecs.conj()
        c = (turn * flipped) @ vecs.conj()
        terms = np.exp(2j * np.outer(np.abs(chunk), vals)) * a.conj() * c
        values[start:start + len(chunk)] = TWO_OVER_PI * terms.real.sum(axis=1)
    return values


def _finite_betas(betas) -> np.ndarray:
    """The displacements as a flat complex array; ValueError if any is not finite."""
    betas = np.asarray(betas, dtype=complex).ravel()
    if not np.isfinite(betas).all():
        raise ValueError("displacements must be finite")
    return betas


def _displaced(block: np.ndarray, betas: np.ndarray, basis: CavityBasis) -> np.ndarray:
    """The (K, 4, dim) stack of block @ D(beta)^T, one (4, dim) block per beta.

    With D = R V e^{i r Lambda} V+ R+ (see ``CavityBasis.displacement``)
    and R = e^{i phi n} for beta = r e^{i phi}, that is two products in the
    eigenbasis V, ``_BLOCK_ROWS`` points at a time.
    """
    vals, vecs = basis._quadrature_eigh
    displaced = np.empty((len(betas), 4, basis.dim), dtype=complex)
    for start in range(0, len(betas), _BLOCK_ROWS):
        chunk = betas[start:start + _BLOCK_ROWS]
        phases = np.exp(1j * np.outer(np.angle(chunk), np.arange(basis.dim)))[:, None, :]
        rotated = (block * phases.conj()) @ vecs.conj()
        rotated *= np.exp(1j * np.outer(np.abs(chunk), vals))[:, None, :]
        displaced[start:start + len(chunk)] = (rotated @ vecs.T) * phases
    return displaced


def simulate_tomography(
    state: np.ndarray,
    betas,
    params: SystemParams,
    shots: int,
    rng,
    basis: CavityBasis,
) -> WignerGrid:
    """Circuit-simulated Wigner grid from repeated single-shot parity.

    ``state`` is a joint unit state with the ancilla in g.  Each point
    displaces the cavity, runs one gf parity map and readout under the
    full noise model, and scores +1 for a reported g.  The shots of all
    points run as rows of one batch that share ``rng``.  Values carry the
    finite readout contrast; divide by ``vacuum_contrast`` to compare
    with exact scans.  Raises ValueError for a shot count that is not a
    positive integer or for a non-finite displacement.
    """
    _check_count("shots", shots, 1)
    betas = _finite_betas(betas)
    validate_state(state)
    block = np.asarray(state, dtype=complex).reshape(4, basis.dim)
    outcomes = _shot_outcomes(_displaced(block, -betas, basis), shots, params, basis, rng)
    totals = np.sum(np.where(outcomes == 0, 1, -1), axis=1)
    values = TWO_OVER_PI * totals / shots
    return WignerGrid(
        betas=betas, values=values, shots=np.full(len(betas), shots, dtype=int)
    )


def vacuum_contrast(
    params: SystemParams,
    shots: int,
    rng,
    basis: CavityBasis,
) -> float:
    """Mean measured parity of vacuum through the same circuit, near 0.735."""
    grid = simulate_tomography(
        joint_state("g", fock_state(0, basis)), [0.0], params, shots, rng, basis
    )
    return float(grid.values[0]) / TWO_OVER_PI


def normalize_grid(grid: WignerGrid, contrast: float) -> WignerGrid:
    """Scale out the measured readout contrast."""
    if contrast <= 0.0:
        raise ValueError("contrast must be positive")
    return WignerGrid(
        betas=grid.betas, values=grid.values / contrast, shots=grid.shots
    )


_triu = lru_cache(maxsize=None)(np.triu_indices)


@lru_cache(maxsize=None)
def _coordinate_maps(dim: int):
    """Index maps between a dim x dim complex matrix's float view and its coordinates.

    ``pick`` and ``scale`` gather the coordinates from the 2 dim^2 floats;
    ``source`` and ``weight`` rebuild every float from a coordinate: the
    real part of an entry and its mirror from the Re coordinate, their
    imaginary parts from the Im coordinate with opposite signs, and a
    diagonal imaginary part as zero.
    """
    upper_i, upper_j = _triu(dim, 1)
    diag = np.arange(dim) * (dim + 1)
    upper, lower = upper_i * dim + upper_j, upper_j * dim + upper_i
    re = np.arange(dim, dim + len(upper))
    im = re + len(upper)
    root = math.sqrt(2.0)
    pick = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    scale = np.concatenate([np.ones(dim), np.full(2 * len(upper), root)])
    source = np.zeros(2 * dim * dim, dtype=np.intp)
    weight = np.zeros(2 * dim * dim)
    source[2 * diag], weight[2 * diag] = np.arange(dim), 1.0
    for slot, index, sign in ((2 * upper, re, 1.0), (2 * lower, re, 1.0),
                              (2 * upper + 1, im, 1.0), (2 * lower + 1, im, -1.0)):
        source[slot], weight[slot] = index, sign / root
    return pick, scale, source, weight


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of a dim x dim Hermitian matrix, a vector of dim*dim.

    The diagonal, then sqrt(2) Re and sqrt(2) Im of the upper triangle:
    orthonormal, so Re Tr[X Y] is the dot product of the coordinates.
    One gather on the float view; the lower triangle is not read.
    """
    pick, scale, _, _ = _coordinate_maps(len(mat))
    return np.asarray(mat, dtype=complex).ravel().view(float)[pick] * scale


def _from_coordinates(x: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix with coordinates ``x`` (inverse of ``_coordinates``)."""
    _, _, source, weight = _coordinate_maps(dim)
    return (x[source] * weight).view(complex).reshape(dim, dim)


def _observable_blocks(betas: np.ndarray, dim: int):
    """Rows of ``_observable_matrix``, ``_BLOCK_ROWS`` points at a time, as (rows, block) pairs.

    With the quadrature i(a - a+) = V Lambda V+ and beta = r e^{i phi},
    entry (i, j) of (2/pi) D(2 beta) Pi is e^{-i phi (j - i)} sum_l E_l W_l(i, j)
    for E_l = e^{2 i r lambda_l} and W_l(i, j) = (2/pi) (-1)^j V_il conj(V_jl).
    So a block is one product E W over the pairs i <= j (W times sqrt(2)
    off the diagonal), after which each upper entry takes the phase of its lag.
    """
    vals, vecs = CavityBasis(dim)._quadrature_eigh
    upper_i, upper_j = _triu(dim, 1)
    pair_i = np.concatenate([np.arange(dim), upper_i])
    pair_j = np.concatenate([np.arange(dim), upper_j])
    weights = vecs[pair_i].T * vecs[pair_j].T.conj() * (TWO_OVER_PI * (1.0 - 2.0 * (pair_j % 2)))
    weights[:, dim:] *= math.sqrt(2.0)
    lag = upper_j - upper_i
    for start in range(0, len(betas), _BLOCK_ROWS):
        chunk = betas[start:start + _BLOCK_ROWS]
        sums = np.exp(2j * np.outer(np.abs(chunk), vals)) @ weights
        phases = np.exp(-1j * np.outer(np.angle(chunk), np.arange(dim)))
        upper = sums[:, dim:] * phases[:, lag]
        block = np.concatenate([sums[:, :dim].real, upper.real, upper.imag], axis=1)
        yield slice(start, start + len(chunk)), block


def _observable_matrix(betas: np.ndarray, dim: int) -> np.ndarray:
    """Displaced-parity observables (2/pi) D(beta) P D(beta)+ as one real (K, d*d) matrix.

    Row k holds the coordinates of the k-th observable, so Re Tr[O_k rho]
    is ``(A @ _coordinates(rho))[k]``; the rows are ``_observable_blocks``
    in order.  The truncated a is parity-odd (P a P = -a), so
    P D(beta) P = D(beta)+ and D(beta) P D(beta)+ = D(2 beta) P exactly in
    the truncated space.
    """
    matrix = np.empty((len(betas), dim * dim))
    for rows, block in _observable_blocks(betas, dim):
        matrix[rows] = block
    return matrix


def _project_density(mat: np.ndarray) -> np.ndarray:
    """Nearest physical state in Frobenius norm to the Hermitian ``mat``.

    Eigenvalues are renormalized to unit sum by a common shift and
    clipped at zero (the Euclidean projection of the spectrum onto the
    probability simplex); a plain rescale would not be a projection and
    stalls the gradient iteration.  ``eigh`` reads the lower triangle and
    returns the values ascending; the k largest stay positive after the
    shift, so the state is rebuilt from their eigenvectors alone.
    """
    vals, vecs = np.linalg.eigh(mat)
    desc = vals[::-1]
    cumulative = np.cumsum(desc) - 1.0
    support = desc - cumulative / np.arange(1, len(desc) + 1) > 0
    k = int(np.flatnonzero(support)[-1]) + 1
    top = vecs[:, -k:]
    return (top * (vals[-k:] - cumulative[k - 1] / k)) @ top.conj().T


def mle_reconstruct(
    grid: WignerGrid,
    dim: int,
    max_iterations: int = 2000,
    tolerance: float = 1e-8,
) -> ReconstructionResult:
    """Least-squares density-matrix fit to a Wigner grid.

    Accelerated projected gradient (Shang, Zhang and Ng, PRA 95, 062336):
    the observables are one real matrix A over the coordinates of
    ``_coordinates``, so values are A x and the gradient is 2 A^T r.  Each
    step extrapolates along the last move, steps by 1/L against the
    gradient and projects onto the density matrices; L tracks the
    curvature along the steps, shrinking by a tenth per step and doubling
    while a step overshoots it.  When the extrapolated step would not
    lower the residual, the momentum restarts with a plain projected step
    from the current state, so ``history`` never increases.  ``stop`` is
    ``"floor"`` once the residual is below the round-off of the grid,
    K (dim^2 eps 2/pi)^2 for K values that are dim^2-term sums of at most
    2/pi; ``"tolerance"`` once a step gains less than ``tolerance``
    (relative) and the Frank-Wolfe gap <grad, x> - lambda_min(grad), a
    bound on the distance to the optimal residual, is below ``tolerance``
    times the residual, or when no step gains; ``"cap"`` when
    ``max_iterations`` run out first.

    Displaced-parity values built from the truncated displacement span
    only dim*(dim+1)/2 of the dim*dim Hermitian directions, however many
    points the grid has.  Positivity pins the remainder for pure and
    near-pure states; for strongly mixed states only the fitted values
    themselves are reproducible.  Raises ValueError for a dim or
    max_iterations below 1, an empty grid or non-finite grid entries.
    """
    betas = np.asarray(grid.betas, dtype=complex)
    target = np.asarray(grid.values, dtype=float)
    if dim < 1 or max_iterations < 1:
        raise ValueError(f"dim and max_iterations must be at least 1, got {dim}, {max_iterations}")
    if len(grid) == 0:
        raise ValueError("the grid has no points")
    if not (np.isfinite(betas).all() and np.isfinite(target).all()):
        raise ValueError("grid points and values must be finite")
    if len(grid) < dim * dim:
        warnings.warn(
            f"{len(grid)} grid points under-determine a dim-{dim} state "
            f"({dim * dim} real parameters); the fit may not be unique",
            stacklevel=2,
        )
    obs = _observable_matrix(betas, dim)
    floor = len(grid) * (dim * dim * np.finfo(float).eps * TWO_OVER_PI) ** 2
    # L starts at twice the top eigenvalue of A^T A, by power iteration.
    probe = np.ones(dim * dim)
    for _ in range(20):
        probe = obs.T @ (obs @ probe)
        lipschitz = 2.0 * float(np.linalg.norm(probe))
        probe *= 2.0 / lipschitz

    def descend(x, predicted):
        # Shrinks L, then doubles it until the curvature |A d|^2 / |d|^2
        # along the step d, taken by dot products, is within L / 2.  The
        # residual, which decides restarts and stops, keeps np.sum's
        # pairwise order: a dot product rounds it differently, enough to
        # move where a noisy fit stops.
        nonlocal lipschitz
        grad = 2.0 * (obs.T @ (predicted - target))
        lipschitz *= 0.9
        while True:
            new = _coordinates(_project_density(_from_coordinates(x - grad / lipschitz, dim)))
            new_pred = obs @ new
            step, moved = new - x, new_pred - predicted
            if moved @ moved <= 0.5 * lipschitz * (1.0 + 1e-9) * (step @ step):
                return new, new_pred, float(np.sum((new_pred - target) ** 2))
            lipschitz *= 2.0

    x = x_prev = _coordinates(np.eye(dim) / dim)
    predicted = predicted_prev = obs @ x
    history = [float(np.sum((predicted - target) ** 2))]
    momentum, iterations = 1.0, 0
    stop = "floor" if history[-1] <= floor else "cap"
    while stop == "cap" and iterations < max_iterations:
        iterations += 1
        next_momentum = 0.5 + math.sqrt(0.25 + momentum * momentum)
        weight = (momentum - 1.0) / next_momentum
        new = descend(x + weight * (x - x_prev), predicted + weight * (predicted - predicted_prev))
        if new[2] >= history[-1] and weight > 0.0:
            next_momentum, new = 1.0, descend(x, predicted)
        if new[2] >= history[-1]:
            stop = "tolerance"
            break
        gain = (history[-1] - new[2]) / history[-1]
        x_prev, predicted_prev, (x, predicted, _) = x, predicted, new
        momentum = next_momentum
        history.append(new[2])
        if new[2] <= floor:
            stop = "floor"
        elif gain < tolerance:
            grad = 2.0 * (obs.T @ (predicted - target))
            gap = x @ grad - np.linalg.eigvalsh(_from_coordinates(grad, dim))[0]
            if gap <= tolerance * new[2]:
                stop = "tolerance"
    return ReconstructionResult(
        _from_coordinates(x, dim), history[-1], iterations, np.array(history), stop
    )


def _golden_section(func, lo: float, hi: float, iterations: int = 60):
    """Minimize a unimodal function on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    x = (a + b) / 2.0
    return x, func(x)


def aligned_cat_fidelity(
    rho_cavity: np.ndarray,
    alpha: float = math.sqrt(2.0),
    basis: CavityBasis | None = None,
):
    """Best fidelity to an even cat over phase-space rotations, ``(theta_star, fidelity)``.

    A one-row call of ``_aligned``; raises ValueError unless the state is
    a unit vector or a density matrix.
    """
    rho = as_density(rho_cavity)
    if basis is None:
        basis = CavityBasis(rho.shape[0])
    theta, fidelity = _aligned(rho[None], cat_state(alpha, basis))
    return float(theta[0]), float(fidelity[0])


def _aligned(rhos: np.ndarray, reference: np.ndarray):
    """Best rotation angle and fidelity of each of a (R, dim, dim) stack of densities.

    With v = exp(-i theta n) ref, F(theta) = <v|rho|v> is the sum of
    c_k exp(i k theta), where c_k sums the entries (m, n) with m - n = k
    of conj(ref) rho ref; rho is Hermitian, so c_-k = conj(c_k) and
    F(theta) = Re sum_{k >= 0} p_k exp(i k theta) with p_0 = c_0 and
    p_k = 2 c_k, a trigonometric polynomial.  Each F is scanned at 64
    angles on [0, pi), the period of an even cat, then F' = 0 is solved by
    Newton's method from the best of them, safeguarded by the bracket of
    its two neighbours: a step out of the bracket, or one where F'' >= 0,
    bisects.  The steps end below 1e-12.  Returns the angles modulo pi and
    F there.
    """
    dim = len(reference)
    n = np.arange(dim)
    weighted = reference.conj()[:, None] * rhos * reference
    # The lag m - k of each lower entry, in a run of dim bins per density.
    rows, cols = np.tril_indices(dim)
    lag = (rows - cols + dim * np.arange(len(rhos))[:, None]).ravel()
    lower = weighted[:, rows, cols].ravel()
    coeffs = (np.bincount(lag, lower.real) + 1j * np.bincount(lag, lower.imag)).reshape(-1, dim)
    coeffs[:, 1:] *= 2.0
    scan = np.linspace(0.0, math.pi, 64, endpoint=False)
    theta = scan[np.argmax(np.real(np.exp(1j * np.outer(scan, n)) @ coeffs.T), axis=0)]
    lo, hi = theta - math.pi / 64, theta + math.pi / 64
    for _ in range(64):
        terms = coeffs * np.exp(1j * np.outer(theta, n))
        slope = -(terms @ n).imag
        curve = -(terms @ (n * n)).real
        rising = slope >= 0.0  # a flat F climbs to the bracket's upper end
        lo, hi = np.where(rising, theta, lo), np.where(rising, hi, theta)
        new = theta - slope / np.where(curve < 0.0, curve, -np.inf)
        out = (curve >= 0.0) | (new < lo) | (new > hi)
        new = np.where(out, 0.5 * (lo + hi), new)
        settled = np.abs(new - theta) <= 1e-12
        theta = new
        if settled.all():
            break
    fidelity = np.real((coeffs * np.exp(1j * np.outer(theta, n))).sum(axis=1))
    return theta % math.pi, fidelity
