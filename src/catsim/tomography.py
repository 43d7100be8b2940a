"""Wigner scanning, reconstruction, and rotation-aligned fidelity.

Two routes produce a Wigner grid: direct evaluation of
W(beta) = (2/pi) Tr[D(beta) P D(beta)^dag rho] on a cavity state, and a
shot-by-shot simulation of the measurement circuit (displace, map parity
onto the ancilla, read out) under the full noise model.  Simulated grids
carry the readout contrast of the hardware and are normalized by the
contrast measured on vacuum before reconstruction.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

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
from .model import SystemParams
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
    rho: np.ndarray
    residual: float
    iterations: int
    history: np.ndarray


def square_grid(n: int = 21, extent: float = 2.5) -> np.ndarray:
    """Row-major n-by-n grid of displacements covering [-extent, extent]."""
    axis = np.linspace(-extent, extent, n)
    re, im = np.meshgrid(axis, axis, indexing="xy")
    return (re + 1j * im).ravel()


def wigner_scan(rho_cavity: np.ndarray, betas) -> WignerGrid:
    """Exact Wigner values of a cavity state on a grid of displacements.

    The truncated space is the state's own; the values are
    Re Tr[O(beta) rho] with the observables that ``mle_reconstruct`` fits.
    Raises ValueError unless the state is a unit vector or a density matrix.
    """
    rho_cavity = np.asarray(rho_cavity)
    if rho_cavity.ndim == 1:
        validate_state(rho_cavity)
    else:
        validate_density(rho_cavity)
    rho = as_density(rho_cavity)
    dim = rho.shape[0]
    betas = np.asarray(betas, dtype=complex).ravel()
    # Amplitude bound inside which a truncated Wigner value is trustworthy.
    radius = math.sqrt(dim / 4.0)
    if np.any(np.abs(betas) > radius):
        warnings.warn(
            f"displacements beyond |beta| = {radius:.2f} exceed the "
            f"trusted region at dim {dim}; edge values are approximate",
            stacklevel=2,
        )
    values = _expectations(_observables(betas, dim), rho)
    return WignerGrid(betas=betas, values=values, shots=np.zeros(len(betas), dtype=int))


def simulate_tomography(
    state: np.ndarray,
    betas,
    params: SystemParams,
    shots: int,
    rng,
    basis: CavityBasis,
    protocol: str = "gf",
) -> WignerGrid:
    """Circuit-simulated Wigner grid from repeated single-shot parity.

    ``state`` is a joint pure state with the ancilla in g.  Each point
    displaces the cavity, runs one parity map and readout under the full
    noise model, and scores +1 for a reported g.  The shots of all
    points run as rows of one batch that share ``rng``.  Values carry the
    finite readout contrast; divide by ``vacuum_contrast`` to compare
    with exact scans.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    state = np.asarray(state, dtype=complex)
    betas = np.asarray(betas, dtype=complex).ravel()
    block = state.reshape(4, basis.dim)
    displaced = np.array([block @ basis.displacement(-beta).T for beta in betas])
    outcomes = _shot_outcomes(displaced, shots, params, basis, rng, protocol)
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
    protocol: str = "gf",
) -> float:
    """Mean measured parity of vacuum through the same circuit, near 0.735."""
    grid = simulate_tomography(
        joint_state("g", fock_state(0, basis)), [0.0], params, shots, rng, basis, protocol
    )
    return float(grid.values[0]) / TWO_OVER_PI


def normalize_grid(grid: WignerGrid, contrast: float) -> WignerGrid:
    """Scale out the measured readout contrast."""
    if contrast <= 0.0:
        raise ValueError("contrast must be positive")
    return WignerGrid(
        betas=grid.betas, values=grid.values / contrast, shots=grid.shots
    )


def _observables(betas: np.ndarray, dim: int) -> np.ndarray:
    """Displaced-parity observables (2/pi) D(beta) P D(beta)+, one per beta."""
    basis = CavityBasis(dim)
    signs = 1.0 - 2.0 * (np.arange(dim) % 2)
    obs = np.empty((len(betas), dim, dim), dtype=complex)
    for k, beta in enumerate(betas):
        u = basis.displacement(-beta)
        obs[k] = TWO_OVER_PI * (u.conj().T * signs) @ u
    return obs


def _expectations(obs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr[O_k rho] for every observable in the stack."""
    return np.real(np.einsum("kij,ji->k", obs, rho))


def _project_density(mat: np.ndarray) -> np.ndarray:
    """Nearest physical state in Frobenius norm.

    Eigenvalues are renormalized to unit sum by a common shift and
    clipped at zero (the Euclidean projection of the spectrum onto the
    probability simplex); a plain rescale would not be a projection and
    stalls the gradient iteration.
    """
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    desc = np.sort(vals)[::-1]
    cumulative = np.cumsum(desc) - 1.0
    ranks = np.arange(1, len(desc) + 1)
    support = desc - cumulative / ranks > 0
    k = int(np.nonzero(support)[0][-1]) + 1
    shift = cumulative[k - 1] / k
    clipped = np.clip(vals - shift, 0.0, None)
    return (vecs * clipped) @ vecs.conj().T


def mle_reconstruct(
    grid: WignerGrid,
    dim: int,
    max_iterations: int = 2000,
    tolerance: float = 1e-8,
) -> ReconstructionResult:
    """Least-squares density-matrix fit to a Wigner grid.

    Projected gradient descent over the physical set: each step moves
    against the residual gradient, then clips eigenvalues and restores
    unit trace.  The step size backtracks until the residual decreases,
    so the residual is monotone; iteration stops when its relative
    improvement falls below ``tolerance``.

    Displaced-parity expectation values built from the truncated
    displacement span only dim*(dim+1)/2 of the dim*dim Hermitian
    directions, however many points the grid has.  Positivity pins the
    remainder for pure and near-pure states; for strongly mixed states
    only the fitted values themselves are reproducible.
    """
    if len(grid) < dim * dim:
        warnings.warn(
            f"{len(grid)} grid points under-determine a dim-{dim} state "
            f"({dim * dim} real parameters); the fit may not be unique",
            stacklevel=2,
        )
    obs = _observables(np.asarray(grid.betas, dtype=complex), dim)
    target = np.asarray(grid.values, dtype=float)

    rho = np.eye(dim, dtype=complex) / dim
    predicted = _expectations(obs, rho)
    residual = float(np.sum((predicted - target) ** 2))
    history = [residual]
    # Lipschitz-style scale for the first trial step.
    step = 1.0 / (2.0 * float(np.sum(np.abs(obs) ** 2)) / len(grid) + 1e-30)

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        grad = 2.0 * np.einsum("k,kij->ij", predicted - target, obs)
        improved = False
        trial_step = step
        for _ in range(40):
            candidate = _project_density(rho - trial_step * grad)
            cand_pred = _expectations(obs, candidate)
            cand_res = float(np.sum((cand_pred - target) ** 2))
            if cand_res < residual:
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            break
        gain = (residual - cand_res) / max(residual, 1e-300)
        rho, predicted, residual = candidate, cand_pred, cand_res
        history.append(residual)
        step = trial_step * 2.0
        if gain < tolerance:
            break
    return ReconstructionResult(
        rho=rho,
        residual=residual,
        iterations=iterations,
        history=np.array(history),
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
    """Best fidelity to an even cat over phase-space rotations.

    Scans 64 rotation angles on [0, pi), the period of an even cat, then
    refines the best bracket by golden-section search.  Returns
    ``(theta_star, fidelity)``.

    With v = exp(-i theta n) ref, F(theta) = <v|rho|v> is the sum of
    c_k exp(i k theta), where c_k sums the entries (m, n) with m - n = k
    of conj(ref) rho ref; rho is Hermitian, so c_-k = conj(c_k) and
    F(theta) = Re sum_{k >= 0} p_k exp(i k theta) with p_0 = c_0 and
    p_k = 2 c_k, a polynomial in exp(i theta): the scan is one product,
    and each golden-section step one Horner evaluation of dim terms.
    """
    rho = as_density(np.asarray(rho_cavity, dtype=complex))
    dim = rho.shape[0]
    if basis is None:
        basis = CavityBasis(dim)
    reference = cat_state(alpha, basis)
    weighted = reference.conj()[:, None] * rho * reference
    n = np.arange(dim)
    lag = np.subtract.outer(n, n)
    lower = lag >= 0
    coeffs = np.bincount(lag[lower], weighted.real[lower], dim) + 1j * np.bincount(
        lag[lower], weighted.imag[lower], dim
    )
    coeffs[1:] *= 2.0
    highest_first = coeffs[::-1].tolist()

    def fidelity(theta: float) -> float:
        z = cmath.exp(1j * theta)
        value = 0j
        for p in highest_first:
            value = value * z + p
        return value.real

    thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
    coarse = np.real(np.exp(1j * np.outer(thetas, n)) @ coeffs)
    best = int(np.argmax(coarse))
    span = math.pi / 64
    lo = thetas[best] - span
    hi = thetas[best] + span
    theta_star, neg = _golden_section(lambda t: -fidelity(t), lo, hi)
    theta_star = theta_star % math.pi
    return theta_star, -neg
