"""Hardware model: system parameters, Hamiltonians and dissipation channels.

Frequencies are plain Hz and times are seconds everywhere in the public
interface; the single conversion to angular units happens when a
Hamiltonian is assembled.  All operators live in the joint
ancilla-cavity space with the ancilla-major ordering from `hilbert`.
They are stored in the structure the engines run on: a Hamiltonian is
its diagonal plus the sideband's disjoint drive pairs, and a jump
channel is one gather slot per row.  Neither builder forms a dense
joint matrix.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .hilbert import AncillaBasis, CavityBasis

__all__ = [
    "CollapseChannel",
    "DriveSpec",
    "HamiltonianSpec",
    "SystemParams",
    "build_hamiltonian",
    "cancellation_detuning",
    "collapse_channels",
    "error_operator",
    "induced_chi",
]

TWO_PI = 2.0 * math.pi

_ANCILLA = AncillaBasis()

# Ancilla factor of every jump operator and injectable error except cavity
# loss, in collapse-channel order, then the two ancilla phase flips.
_ANCILLA_JUMPS = {
    "relax_eg": _ANCILLA.transition("g", "e"),
    "relax_fe": _ANCILLA.transition("e", "f"),
    "dephase_g": _ANCILLA.projector("g"),
    "dephase_e": _ANCILLA.projector("e"),
    "dephase_f": _ANCILLA.projector("f"),
    "thermal_ge": _ANCILLA.transition("e", "g"),
    "thermal_fh": _ANCILLA.transition("h", "f"),
    "flip_ge": np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex),
    "flip_gf": np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex),
}

_DEFAULT_ASSIGNMENT = (
    (0.9996, 0.0004, 0.0),
    (0.0001, 0.9997, 0.0002),
    (0.0, 0.0001, 0.9999),
)


def _finite_number(value) -> bool:
    """True for a finite real number; a bool or a string is not one."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


def _check_count(name: str, value, least: int) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _row_sequence(value) -> bool:
    """True for a list, tuple or array of three items."""
    return isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3


def _slot(mat: np.ndarray):
    """Each row's first nonzero (or NaN) column, column 0 for a zero row, and its entry."""
    source = np.argmax(mat != 0.0, axis=1)
    return source, mat[np.arange(len(mat)), source]


@dataclass(frozen=True)
class SystemParams:
    """Dispersive shifts, coherence times and readout model of the device.

    ``chi_e``, ``chi_f`` and ``chi_h`` are the cavity frequency pulls (Hz)
    with the ancilla in e, f and h; the g-level pull defines the rotating
    frame and is zero by convention.  ``assignment_error`` is the
    row-stochastic confusion matrix P(reported | true) over (g, e, f).
    ``drive_dephasing_factor`` scales every ancilla dephasing rate while
    the sideband drive is on.
    """

    chi_e: float = -93.0e3
    chi_f: float = -236.0e3
    chi_h: float = -515.0e3
    kerr: float = -10.0
    T1_cavity: float = 1.07e-3
    T1_eg: float = 25.0e-6
    T1_fe: float = 23.0e-6
    Tphi_g: float = 81.0e-6
    Tphi_e: float = 17.0e-6
    Tphi_f: float = 12.0e-6
    n_th: float = 0.025
    omega_sb: float = 1.7e6
    t_ro: float = 1.2e-6
    drive_dephasing_factor: float = 1.15
    assignment_error: tuple = _DEFAULT_ASSIGNMENT

    def __post_init__(self):
        for field in fields(self):
            if field.name != "assignment_error" and not _finite_number(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be a finite number")
        for name in ("T1_cavity", "T1_eg", "T1_fe", "Tphi_g", "Tphi_e", "Tphi_f",
                     "omega_sb", "t_ro", "drive_dephasing_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_th < 0:
            raise ValueError("n_th must be non-negative")
        rows = self.assignment_error
        if not (_row_sequence(rows) and all(_row_sequence(row) for row in rows)):
            raise ValueError("assignment_error must be a 3x3 matrix over (g, e, f)")
        if not all(_finite_number(x) for row in rows for x in row):
            raise ValueError("assignment_error entries must be finite numbers")
        matrix = tuple(tuple(float(x) for x in row) for row in rows)
        object.__setattr__(self, "assignment_error", matrix)
        for row in matrix:
            if any(x < 0 for x in row):
                raise ValueError("assignment_error entries must be non-negative")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError("assignment_error rows must sum to 1 within 1e-12")

    @classmethod
    def from_mapping(cls, raw: dict) -> "SystemParams":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown parameter(s): {', '.join(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "SystemParams":
        """Load parameters from a flat JSON object; unknown keys are errors."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("parameter file must contain a JSON object")
        return cls.from_mapping(raw)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["assignment_error"] = [list(row) for row in self.assignment_error]
        return out


@dataclass(frozen=True)
class DriveSpec:
    """Sideband drive amplitude and detuning, both in Hz."""

    omega: float
    detuning: float

    def __post_init__(self):
        if not (_finite_number(self.omega) and _finite_number(self.detuning)):
            raise ValueError("drive amplitude and detuning must be finite numbers")
        if self.omega <= 0:
            raise ValueError("drive amplitude must be positive")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """A diagonal Hamiltonian with an optional drive on disjoint pairs of basis states.

    ``diagonal`` holds each basis state's energy in rad/s.  ``drive`` is
    ``(upper, lower, coupling, freq_hz)``: the drive operator op has
    ``op[upper, lower] = coupling`` and no other entry, and the generator
    is ``diag + op exp(2j pi f t) + h.c.``.  A non-finite entry or
    frequency, an index outside the diagonal, or pairs that share a basis
    state, are a ValueError.
    """

    diagonal: np.ndarray
    drive: tuple | None = None

    def __post_init__(self):
        diagonal = np.asarray(self.diagonal, dtype=float)
        finite = np.isfinite(diagonal).all()
        if self.drive is not None:
            upper, lower, coupling, freq_hz = self.drive
            upper, lower = np.asarray(upper, dtype=np.intp), np.asarray(lower, dtype=np.intp)
            coupling = np.asarray(coupling, dtype=complex)
            finite = finite and np.isfinite(coupling).all() and math.isfinite(freq_hz)
            indices = np.concatenate([upper.ravel(), lower.ravel()])
            if ((indices < 0) | (indices >= len(diagonal))).any():
                raise ValueError(f"drive indices must lie in [0, {len(diagonal)})")
            if len(set(upper.tolist()) | set(lower.tolist())) < 2 * upper.size:
                raise ValueError("the drive must couple disjoint pairs of basis states")
            object.__setattr__(self, "drive", (upper, lower, coupling, freq_hz))
        if not finite:
            raise ValueError("non-finite entry or drive frequency in the Hamiltonian")
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def is_static(self) -> bool:
        return self.drive is None

    @property
    def static_diagonal(self) -> np.ndarray:
        """The diagonal of the static part, which is the whole of it."""
        return self.diagonal

    def matrix(self, t: float) -> np.ndarray:
        """The dense H(t), built on each call."""
        h = np.diag(self.diagonal.astype(complex))
        if self.drive is not None:
            upper, lower, coupling, freq = self.drive
            op = np.zeros_like(h)
            op[upper, lower] = coupling
            phase = np.exp(2j * math.pi * freq * t)
            h += op * phase + op.conj().T * np.conjugate(phase)
        return h


def induced_chi(omega: float, delta: float, n: int = 1) -> float:
    """Exact drive-induced shift (Hz) of |e, n> from the sideband coupling.

    The sideband couples |e, n> to |h, n-1> with matrix element
    ``sqrt(n) omega / 2`` at detuning ``delta``; the returned value is the
    dressed-state displacement of the e level, which reduces to the
    familiar ``n omega**2 / (4 delta)`` when ``|delta| >> omega``.
    """
    if delta == 0.0:
        raise ValueError("induced shift is undefined at zero detuning")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if n == 0:
        return 0.0
    return math.copysign(0.5, delta) * (
        math.sqrt(delta * delta + n * omega * omega) - abs(delta)
    )


def cancellation_detuning(params: SystemParams, target: str) -> float:
    """Drive detuning that tunes the dressed e-level shift to a target.

    ``zero_chi_eg`` nulls the total e-g dispersive shift; ``zero_chi_fe``
    matches the e-level pull to the f-level pull so that an e-f swap no
    longer changes the cavity frequency.  Solves the exact single-photon
    expression in closed form.
    """
    if target == "zero_chi_eg":
        goal = -params.chi_e
    elif target == "zero_chi_fe":
        goal = params.chi_f - params.chi_e
    else:
        raise ValueError(f"unknown cancellation target {target!r}")
    omega = params.omega_sb
    if omega <= 2.0 * abs(goal):
        raise ValueError("drive too weak to reach the requested shift")
    magnitude = (omega * omega - 4.0 * goal * goal) / (4.0 * abs(goal))
    return math.copysign(magnitude, goal)


def build_hamiltonian(
    params: SystemParams,
    basis: CavityBasis = CavityBasis(),
    mode: str = "off",
    drive: DriveSpec | None = None,
) -> HamiltonianSpec:
    """Assemble the joint Hamiltonian in the g-level rotating frame.

    ``mode`` selects how the sideband drive enters: ``"off"`` (no drive),
    ``"effective"`` (drive folded into static dressed shifts) or
    ``"time_dependent"`` (explicit oscillating coupling to the h level,
    which ``dynamics`` evolves exactly in the frame rotating with the h
    level, where it is static; this is not a rotating-wave approximation).
    """
    if mode not in ("off", "effective", "time_dependent"):
        raise ValueError(f"unknown Hamiltonian mode {mode!r}")
    if mode != "off" and drive is None:
        raise ValueError(f"{mode} mode requires a drive specification")
    dim = basis.dim
    n = np.arange(dim, dtype=float)
    kerr_part = 0.5 * params.kerr * n * (n - 1.0)
    pulls = (0.0, params.chi_e, params.chi_f, params.chi_h)
    diag = np.concatenate([pull * n + kerr_part for pull in pulls])

    pairs = None
    if mode == "effective":
        if abs(drive.detuning) < drive.omega:
            raise ValueError(
                "effective mode needs |detuning| >= drive amplitude; "
                "use time_dependent mode closer to resonance"
            )
        shift = induced_chi(drive.omega, drive.detuning, 1)
        diag[dim : 2 * dim] += shift * n
        diag[3 * dim : 4 * dim] += -shift * (n + 1.0)
    elif mode == "time_dependent":
        # The sideband takes |h, n> to |e, n+1> with sqrt(n + 1) Omega / 2.
        coupling = TWO_PI * 0.5 * drive.omega * np.sqrt(n[1:])
        pairs = (np.arange(dim + 1, 2 * dim), np.arange(3 * dim, 4 * dim - 1),
                 coupling.astype(complex), drive.detuning)

    return HamiltonianSpec(TWO_PI * diag, pairs)


@dataclass(frozen=True, eq=False, init=False)
class CollapseChannel:
    """Jump operator with its rate folded in, sqrt(rate) * L, as one gather slot per row.

    Row j of L holds ``amplitude[j]`` in column ``source[j]`` and nothing
    else; a zero row reads column 0.  L+L is therefore diagonal, and
    ``product_diag`` is its diagonal (rate included).  The constructor
    takes the dense square matrix, which ``operator`` rebuilds on each
    access; a non-finite entry, or a row with more than one nonzero, is a
    ValueError naming the label.
    """

    label: str
    source: np.ndarray
    amplitude: np.ndarray
    rate: float
    product_diag: np.ndarray

    def __init__(self, label: str, operator, rate: float):
        mat = np.asarray(operator, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"channel {label!r} needs a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError(f"channel {label!r} has a non-finite entry")
        if (np.count_nonzero(mat, axis=1) > 1).any():
            raise ValueError(f"channel {label!r} has more than one nonzero entry in a row")
        self._store(label, rate, *_slot(mat))

    @classmethod
    def _of_factors(cls, label: str, rate: float, ancilla, cavity):
        """sqrt(rate) kron(A, C) for an A and a C with at most one nonzero per row.

        Row (i, n) reads column (source_A[i], source_C[n]) with amplitude
        sqrt(rate) (A_i C_n), the product np.kron forms, and a zero row
        reads column 0, as in ``_slot``.
        """
        (a_source, a_amp), (c_source, c_amp) = _slot(ancilla), _slot(cavity)
        amplitude = math.sqrt(rate) * (a_amp[:, None] * c_amp).ravel()
        source = (a_source[:, None] * len(cavity) + c_source).ravel()
        chan = cls.__new__(cls)
        chan._store(label, rate, np.where(amplitude != 0.0, source, 0), amplitude)
        return chan

    def _store(self, label, rate, source, amplitude):
        """Set the fields; L+L is |amplitude|^2 summed by source."""
        weights = amplitude.real**2 + amplitude.imag**2
        self.__dict__.update(label=label, source=source, amplitude=amplitude, rate=rate,
                             product_diag=np.bincount(source, weights, len(source)))

    @property
    def operator(self) -> np.ndarray:
        """The dense matrix sqrt(rate) * L, rebuilt on each access."""
        mat = np.zeros((len(self.source),) * 2, dtype=complex)
        mat[np.arange(len(mat)), self.source] = self.amplitude
        return mat


def collapse_channels(
    params: SystemParams,
    basis: CavityBasis = CavityBasis(),
    drive_on: bool = False,
) -> tuple:
    """All dissipation channels of the joint system.

    Ancilla dephasing enters as ``sqrt(2 / Tphi) |i><i|`` so that the
    coherence between levels i and j decays at ``1/Tphi_i + 1/Tphi_j``.
    ``drive_on`` multiplies every dephasing rate by the drive penalty
    factor.  Thermal excitation feeds g to e and, with the ladder scaling,
    f to h.
    """
    deph_scale = params.drive_dephasing_factor if drive_on else 1.0
    rates = (
        ("cavity_loss", 1.0 / params.T1_cavity),
        ("relax_eg", 1.0 / params.T1_eg),
        ("relax_fe", 1.0 / params.T1_fe),
        ("dephase_g", deph_scale * 2.0 / params.Tphi_g),
        ("dephase_e", deph_scale * 2.0 / params.Tphi_e),
        ("dephase_f", deph_scale * 2.0 / params.Tphi_f),
        ("thermal_ge", params.n_th / params.T1_eg),
        ("thermal_fh", 3.0 * params.n_th / params.T1_eg),
    )
    return tuple(
        CollapseChannel._of_factors(label, rate, *_factors(label, basis))
        for label, rate in rates
        if rate > 0.0
    )


def error_operator(name: str, basis: CavityBasis = CavityBasis()) -> np.ndarray:
    """Unnormalized jump or flip operator for deterministic error injection.

    ``flip_ge`` and ``flip_gf`` are ancilla phase flips (a dephasing event
    on the g-e or g-f superposition); the rest are the jump operators of
    the matching dissipation channels.
    """
    return np.kron(*_factors(name, basis))


def _factors(name: str, basis: CavityBasis):
    """The ancilla and the cavity factor whose kron is operator ``name``."""
    if name == "cavity_loss":
        return np.eye(_ANCILLA.dim, dtype=complex), basis.annihilation()
    if name not in _ANCILLA_JUMPS:
        raise KeyError(f"unknown error operator {name!r}")
    return _ANCILLA_JUMPS[name], np.eye(basis.dim, dtype=complex)
