"""Fock-space and ancilla primitives shared by the whole simulator.

Conventions used across the package:

* States are plain complex ndarrays.  A cavity state vector has shape
  ``(dim,)``.  A joint state vector has shape ``(4 * dim,)`` and is
  ancilla-major: entry ``a * dim + n`` holds the amplitude on ancilla
  level ``a`` and photon number ``n``.
* The four transmon levels g, e, f, h map to ancilla indices 0, 1, 2, 3.
* Density matrices are square arrays over the same index sets.
* Operators are dense complex matrices; nothing here is sparse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ANCILLA_LEVELS",
    "AncillaBasis",
    "CavityBasis",
    "as_density",
    "cat_overlap",
    "cat_state",
    "coherent_state",
    "fock_state",
    "joint_index",
    "joint_state",
    "lift_ancilla",
    "lift_cavity",
    "reduce_to_cavity",
    "state_fidelity",
    "validate_density",
    "validate_state",
]

ANCILLA_LEVELS = ("g", "e", "f", "h")

DEFAULT_ALPHA = math.sqrt(2.0)

# Norm deficit above which a truncated coherent state is no longer trusted.
TAIL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class AncillaBasis:
    """Four-level transmon ladder with fixed level order g, e, f, h."""

    levels: tuple[str, ...] = ANCILLA_LEVELS

    @property
    def dim(self) -> int:
        return len(self.levels)

    def index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except ValueError:
            raise KeyError(f"unknown ancilla level {label!r}") from None

    def ket(self, label: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(label)] = 1.0
        return vec

    def projector(self, label: str) -> np.ndarray:
        i = self.index(label)
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[i, i] = 1.0
        return mat

    def transition(self, to_label: str, from_label: str) -> np.ndarray:
        """Matrix |to><from| on the ancilla space."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[self.index(to_label), self.index(from_label)] = 1.0
        return mat


_ANCILLA = AncillaBasis()


@dataclass(frozen=True)
class CavityBasis:
    """Truncated Fock space of the storage cavity."""

    dim: int = 20

    def annihilation(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        n = np.arange(1, self.dim)
        mat[n - 1, n] = np.sqrt(n)
        return mat

    def creation(self) -> np.ndarray:
        return self.annihilation().conj().T

    def number(self) -> np.ndarray:
        return np.diag(np.arange(self.dim)).astype(complex)

    def parity(self) -> np.ndarray:
        signs = 1.0 - 2.0 * (np.arange(self.dim) % 2)
        return np.diag(signs).astype(complex)

    @cached_property
    def _quadrature_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues Lambda and eigenvectors V of the truncated P = i(a - a+)."""
        a = self.annihilation()
        return np.linalg.eigh(1j * (a - a.conj().T))

    def displacement(self, beta: complex) -> np.ndarray:
        """Displacement operator exp(beta a+ - beta* a) on the truncated space.

        The generator is truncated before exponentiating, so the result is
        exactly unitary at any amplitude; it approximates the true
        displacement well while ``|beta|**2`` stays below ``dim / 4``.
        With beta = r e^{i phi} the generator is R (i r P) R+ for
        R = e^{i phi n}, so D = R V e^{i r Lambda} V+ R+ in closed form.
        """
        vals, vecs = self._quadrature_eigh
        left = np.exp(1j * np.angle(beta) * np.arange(self.dim))[:, None] * vecs
        return (left * np.exp(1j * abs(beta) * vals)) @ left.conj().T


def fock_state(n: int, basis: CavityBasis = CavityBasis()) -> np.ndarray:
    if not 0 <= n < basis.dim:
        raise ValueError(f"Fock index {n} outside truncated space of dim {basis.dim}")
    vec = np.zeros(basis.dim, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent_state(alpha: complex, basis: CavityBasis = CavityBasis()) -> np.ndarray:
    """Normalized coherent state |alpha> in the truncated Fock basis.

    Raises ValueError when ``|alpha|**2 > dim / 3``; that regime parks too
    much weight near the truncation edge for downstream evolution to be
    meaningful.  A milder truncation deficit still triggers a warning.
    """
    nbar = abs(alpha) ** 2
    if nbar > basis.dim / 3.0:
        raise ValueError(
            f"|alpha|^2 = {nbar:.4g} exceeds dim/3 = {basis.dim / 3.0:.4g}; "
            "enlarge the Fock space"
        )
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = math.exp(-nbar / 2.0)
    for n in range(1, basis.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    captured = float(np.vdot(amps, amps).real)
    if 1.0 - captured > TAIL_TOLERANCE:
        warnings.warn(
            f"coherent state truncation deficit {1.0 - captured:.3g} exceeds "
            f"{TAIL_TOLERANCE:g}",
            stacklevel=2,
        )
    return amps / math.sqrt(captured)


def cat_state(
    alpha: complex,
    basis: CavityBasis = CavityBasis(),
    parity: str = "even",
) -> np.ndarray:
    """Normalized two-component cat state |alpha> +/- |-alpha>."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    sign = 1.0 if parity == "even" else -1.0
    vec = coherent_state(alpha, basis) + sign * coherent_state(-alpha, basis)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("cat state amplitude too small to normalize")
    return vec / norm


def cat_overlap(theta, alpha: complex = DEFAULT_ALPHA):
    """Fidelity of an even cat with a copy of itself rotated by ``theta``.

    Closed form of ``|<cat| exp(i theta n) |cat>|**2``.  Only ``|alpha|``
    matters because a global Fock-space rotation commutes with the tested
    one.  Accepts scalar or array ``theta``.
    """
    a2 = abs(alpha) ** 2
    theta = np.asarray(theta, dtype=float)
    big = np.exp(-a2 * (1.0 - np.cos(theta)))
    small = np.exp(-a2 * (1.0 + np.cos(theta)))
    phase = a2 * np.sin(theta)
    norm = (1.0 + math.exp(-2.0 * a2)) ** 2
    value = (
        (big + small) ** 2 * np.cos(phase) ** 2
        + (big - small) ** 2 * np.sin(phase) ** 2
    ) / norm
    if value.ndim == 0:
        return float(value)
    return value


def as_density(state: np.ndarray) -> np.ndarray:
    """Promote a state vector to a density matrix; pass matrices through."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise ValueError(f"state must be a vector or square matrix, got shape {arr.shape}")


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity between a pure state and a state vector or density matrix.

    For two vectors this is ``|<a|b>|**2``; for a vector against a density
    matrix it is ``<psi| rho |psi>``.  Two mixed states are not supported.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 2 and b.ndim == 2:
        raise ValueError("at least one argument must be a pure state vector")
    if a.ndim == 2:
        a, b = b, a
    if b.ndim == 1:
        return float(abs(np.vdot(a, b)) ** 2)
    return float(np.real(np.vdot(a, b @ a)))


def joint_index(level, fock: int, dim: int) -> int:
    """Flat index of |level, fock> in the ancilla-major joint ordering."""
    a = _ANCILLA.index(level) if isinstance(level, str) else int(level)
    if not 0 <= a < _ANCILLA.dim:
        raise ValueError(f"ancilla index {a} out of range")
    if not 0 <= fock < dim:
        raise ValueError(f"Fock index {fock} outside truncated space of dim {dim}")
    return a * dim + fock


def joint_state(level, cavity_vec: np.ndarray) -> np.ndarray:
    """Product state |level> (x) |cavity> as a flat joint vector."""
    if isinstance(level, str):
        avec = _ANCILLA.ket(level)
    else:
        avec = np.asarray(level, dtype=complex)
    return np.kron(avec, np.asarray(cavity_vec, dtype=complex))


def lift_cavity(op: np.ndarray) -> np.ndarray:
    """Embed a cavity operator in the joint space (identity on the ancilla)."""
    return np.kron(np.eye(_ANCILLA.dim, dtype=complex), np.asarray(op, dtype=complex))


def lift_ancilla(op: np.ndarray, dim: int) -> np.ndarray:
    """Embed an ancilla operator in the joint space (identity on the cavity)."""
    return np.kron(np.asarray(op, dtype=complex), np.eye(dim, dtype=complex))


def reduce_to_cavity(state: np.ndarray, dim: int) -> np.ndarray:
    """Partial trace over the ancilla; returns a cavity density matrix."""
    arr = np.asarray(state, dtype=complex)
    n_anc = arr.shape[0] // dim
    if n_anc * dim != arr.shape[0]:
        raise ValueError(f"joint size {arr.shape[0]} not divisible by cavity dim {dim}")
    if arr.ndim == 1:
        block = arr.reshape(n_anc, dim)
        return block.T @ block.conj()
    blocks = arr.reshape(n_anc, dim, n_anc, dim)
    return np.einsum("anam->nm", blocks)


def validate_state(vec: np.ndarray, atol: float = 1e-7) -> None:
    """Raise ValueError unless ``vec`` is a finite unit-norm state vector."""
    arr = np.asarray(vec)
    if arr.ndim != 1:
        raise ValueError(f"state vector must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float) if arr.dtype == complex else arr)):
        raise ValueError("state vector has non-finite entries")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > atol:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {atol}")


def validate_density(rho: np.ndarray, atol: float = 1e-7) -> None:
    """Raise ValueError unless ``rho`` is a valid density matrix."""
    arr = np.asarray(rho)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("density matrix has non-finite entries")
    if np.max(np.abs(arr - arr.conj().T)) > atol:
        raise ValueError("density matrix is not hermitian")
    trace = float(np.real(np.trace(arr)))
    if abs(trace - 1.0) > atol:
        raise ValueError(f"density matrix trace {trace} deviates from 1")
    eigmin = float(np.linalg.eigvalsh(arr)[0])
    if eigmin < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {eigmin}")
