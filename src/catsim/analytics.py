"""Closed-form error models and the reduced phase-kick Monte Carlo.

Everything here trades the full state-vector simulation for analytic or
sampled shortcuts: the thermal-hopping dephasing rate, the T2-vs-detuning
curve it predicts, the per-protocol table of ancilla failure modes with
their cavity phase kicks, a Monte Carlo that decays a cat by drawing those
kicks, and the exponential fit used to compare decay curves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _row_blocks, trajectory_rng
from .hilbert import DEFAULT_ALPHA, CavityBasis, cat_overlap, cat_state
from .model import SystemParams, _check_count, induced_chi
from .protocols import (
    ParityFilter,
    _check_drive_mode,
    _records,
    _trial_streams,
    map_duration,
)
from .tomography import _aligned, _golden_section

TWO_PI = 2.0 * math.pi

# Ancilla occupations at the end of a parity round, entering the readout
# decay rates.
END_POPULATIONS = {"g": 0.80, "e": 0.12, "f": 0.08}

# Philox stream index for the phase-kick Monte Carlo.
KICK_STREAM = 5

# Loss-free-history posterior a trial needs to stay in the decay ensemble.
POSTERIOR_THRESHOLD = 0.20

# Gauss-Legendre rule per panel of a kick window: 20 nodes over a quarter
# turn agree with adaptive quadrature to round-off for cat amplitudes up to
# 3.  The overlap's peak narrows as 1/|alpha| and its phase |alpha|^2 sin
# turns faster, so past |alpha| = 3 the panels shrink as 9/|alpha|^2.
_KICK_NODES, _KICK_WEIGHTS = np.polynomial.legendre.leggauss(20)


@dataclass(frozen=True)
class ErrorEventSpec:
    """One ancilla failure mode and the cavity phase kick it causes.

    ``delta_chi`` is the signed difference (Hz) between the cavity pull
    the ancilla actually exerts after the failure and the pull assumed
    for its reported level.  The kick angle is uniform over
    ``2 pi delta_chi [t0, t1]``; a ``dephasing_per_occurrence`` of 1
    marks a fully scrambling event.
    """

    label: str
    probability: float
    delta_chi: float
    window: tuple[float, float]
    dephasing_per_occurrence: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.window[0] > self.window[1]:
            raise ValueError("window must satisfy t0 <= t1")
        if not 0.0 <= self.dephasing_per_occurrence <= 1.0:
            raise ValueError("dephasing_per_occurrence must lie in [0, 1]")
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Mean cat fidelity against the number of parity measurements."""

    n: np.ndarray
    fidelity: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=int)
        fidelity = np.asarray(self.fidelity, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        if not (len(n) == len(fidelity) == len(stderr)):
            raise ValueError("curve columns must have equal length")
        if len(n) and np.any(np.diff(n) <= 0):
            raise ValueError("measurement counts must be strictly increasing")
        if np.any(fidelity < 0.0) or np.any(fidelity > 1.0):
            raise ValueError("fidelities must lie in [0, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fidelity", fidelity)
        object.__setattr__(self, "stderr", stderr)

    def __len__(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class FitResult:
    """Parameters of F(N) = amplitude * exp(-N / n0) + floor.

    ``n0`` is ``inf`` for a curve with no spread.  ``covariance`` is None
    then, and also when the fit's Jacobian is singular to round-off, which
    leaves some parameter (usually n0) unresolved.
    """

    amplitude: float
    n0: float
    floor: float
    covariance: np.ndarray | None


def thermal_dephasing_rate(chi: float, gamma: float, n_th: float) -> float:
    """Cavity dephasing rate from thermal hopping of the coupled ancilla.

    rate = (gamma/2) Re[sqrt((1 + i chi'/gamma)^2 + 4 i chi' n_th/gamma) - 1]
    with chi' = 2 pi chi.  Interpolates between the motional-narrowing
    limit chi'^2 n_th/gamma for |chi'| << gamma and the telegraph limit
    n_th * gamma for |chi'| >> gamma.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n_th < 0:
        raise ValueError("n_th must be non-negative")
    x = TWO_PI * chi / gamma
    # Re sqrt(z) - 1 for z = (1 + ix)^2 + 4ix n_th, as Re of (z - (1 + ix)^2)
    # over (sqrt(z) + 1 + ix): no cancellation, so never below zero.
    root = cmath.sqrt((1.0 + 1j * x) ** 2 + 4j * x * n_th)
    return 0.5 * gamma * (4j * x * n_th / (root + 1.0 + 1j * x)).real


def residual_dephasing_time(params: SystemParams) -> float:
    """Dephasing-time ceiling from double thermal excitation, T1_eg/(2 n_th^2)."""
    if params.n_th == 0.0:
        return math.inf
    return params.T1_eg / (2.0 * params.n_th**2)


def t2_model_curve(params: SystemParams, detunings) -> list:
    """Predicted cavity T2 against sideband-drive detuning.

    1/T2 = 1/(2 T1_cavity) + thermal dephasing at the dressed g-e pull
    + the double-excitation residual.  The dressed pull is
    chi_e + induced_chi(omega_sb, delta), so the curve peaks where the
    drive cancels the g-e dispersive shift.
    """
    detunings = [float(d) for d in detunings]
    if any(d == 0.0 for d in detunings):
        raise ValueError("detunings must be nonzero")
    background = 1.0 / (2.0 * params.T1_cavity) + 1.0 / residual_dephasing_time(params)
    curve = []
    for delta in detunings:
        pull = params.chi_e + induced_chi(params.omega_sb, delta, 1)
        rate = background + thermal_dephasing_rate(pull, 1.0 / params.T1_eg, params.n_th)
        curve.append((delta, 1.0 / rate))
    return curve


def kick_infidelity(
    delta_chi: float,
    t0: float,
    t1: float,
    alpha: float = DEFAULT_ALPHA,
    align: bool = False,
) -> float:
    """Mean cat infidelity from a pull error active since a uniform time in [t0, t1].

    Averages 1 - cat_overlap(2 pi delta_chi t) over the window by
    composite Gauss-Legendre quadrature, in equal panels of at most a
    quarter turn of the kick angle (narrower for |alpha| > 3); a
    degenerate window evaluates the integrand pointwise.  ``align`` removes the deterministic mean
    rotation first, matching an analysis that re-aligns the cat before
    scoring.
    """
    if t1 < t0:
        raise ValueError("window must satisfy t0 <= t1")
    if delta_chi == 0.0:
        return 0.0
    center = math.pi * delta_chi * (t0 + t1) if align else 0.0
    if t0 == t1:
        return 1.0 - cat_overlap(TWO_PI * delta_chi * t0 - center, alpha)
    panels = math.ceil(4.0 * abs(delta_chi) * (t1 - t0) * max(1.0, abs(alpha) ** 2 / 9.0))
    width = (t1 - t0) / panels
    times = t0 + width * (np.arange(panels)[:, None] + 0.5 * (1.0 + _KICK_NODES))
    overlap = cat_overlap(TWO_PI * delta_chi * times - center, alpha)
    return 1.0 - float(np.sum(overlap @ _KICK_WEIGHTS)) / (2.0 * panels)


def dephasing_per_occurrence(
    delta_chi: float,
    t0: float,
    t1: float,
    align: bool = False,
) -> float:
    """Kick infidelity of the default cat normalized by the fully dephased value, capped at 1."""
    if delta_chi == 0.0:
        return 0.0
    infidelity = kick_infidelity(delta_chi, t0, t1, align=align)
    floor = kick_infidelity(delta_chi, 0.0, 1.0 / abs(delta_chi))
    return min(1.0, infidelity / floor)


def error_event_table(params: SystemParams, protocol: str = "gf") -> list:
    """Failure modes of one parity round with their kick windows.

    Probabilities come from first-order rate-times-duration estimates;
    the f-to-e map row is the dominant entry and loses its kick entirely
    under the fault-tolerant drive.  Rows whose kick exceeds a full
    rotation, and pure misassignments, scramble completely and carry
    dephasing 1.
    """
    if protocol not in ("gf", "ft"):
        raise ValueError(f"protocol must be gf or ft, got {protocol!r}")
    t_map = map_duration(params, protocol)
    t_ro = params.t_ro
    chi_e, chi_ef = params.chi_e, params.chi_e - params.chi_f
    confusion = params.assignment_error
    readout_ge = dephasing_per_occurrence(chi_e, 0.0, t_ro)
    if protocol == "gf":
        relax_fe = (chi_ef, dephasing_per_occurrence(chi_ef, 0.0, t_map, align=True))
    else:
        relax_fe = (0.0, 0.0)
    # label, probability, delta_chi, window, dephasing_per_occurrence
    rows = (
        ("map_relax_fe", t_map / (2.0 * params.T1_fe), relax_fe[0], (0.0, t_map), relax_fe[1]),
        ("map_double_relax", 0.25 * t_map**2 / (params.T1_fe * params.T1_eg), -params.chi_f,
         (t_map / 3.0, t_map), 1.0),
        ("map_thermal_fh", 1.5 * t_map * params.n_th / params.T1_eg,
         params.chi_h - params.chi_f, (0.0, t_map), 1.0),
        ("map_thermal_ge", 0.5 * t_map * params.n_th / params.T1_eg, chi_e, (0.0, t_map),
         dephasing_per_occurrence(chi_e, 0.0, t_map)),
        ("readout_thermal_ge", END_POPULATIONS["g"] * params.n_th * t_ro / params.T1_eg, chi_e,
         (0.0, t_ro), readout_ge),
        ("readout_relax_eg", END_POPULATIONS["e"] * t_ro / params.T1_eg, -chi_e, (0.0, t_ro),
         readout_ge),
        ("readout_relax_fe", END_POPULATIONS["f"] * t_ro / params.T1_fe, chi_ef, (0.0, t_ro),
         dephasing_per_occurrence(chi_ef, 0.0, t_ro)),
        ("assign_g_as_e", confusion[0][1], -chi_e, (t_ro, t_ro), 1.0),
        ("assign_e_as_g", confusion[1][0], chi_e, (t_ro, t_ro), 1.0),
        ("assign_e_as_f", confusion[1][2], chi_ef, (t_ro, t_ro), 1.0),
        ("assign_f_as_e", confusion[2][1], -chi_ef, (t_ro, t_ro), 1.0),
    )
    return [ErrorEventSpec(*row) for row in rows]


def total_dephasing_probability(events) -> float:
    """Per-measurement dephasing probability, sum of p * dephasing over rows."""
    return sum(e.probability * e.dephasing_per_occurrence for e in events)


def phase_kick_monte_carlo(
    events,
    n_max: int,
    trials: int = 10000,
    seed: int = 0,
) -> DecayCurve:
    """Decay curve of the default cat subjected to sampled ancilla-error phase kicks.

    For each N a trial's number of occurrences is binomial in N with the
    summed event probability, and each occurrence is one event drawn in
    proportion to its probability, so the per-event counts are
    multinomial.  Each occurrence contributes a kick uniform over its
    window (over a full turn for scrambling rows) and the trial scores the
    rotation overlap of the summed kick.  Trials are vectorized in a fixed
    order, so a seed pins the whole curve.
    """
    events = list(events)
    probabilities = np.array([e.probability for e in events])
    total = float(probabilities.sum())
    if total > 1.0 + 1e-12:
        raise ValueError("event probabilities must sum to at most 1")
    _check_count("trials", trials, 1000)  # fewer give no stable curve
    _check_count("n_max", n_max, 1)
    rng = trajectory_rng(seed, KICK_STREAM, 0)
    cumulative = np.cumsum(probabilities)
    ranges = np.sort([
        (0.0, TWO_PI) if e.dephasing_per_occurrence >= 1.0
        else (TWO_PI * e.delta_chi * e.window[0], TWO_PI * e.delta_chi * e.window[1])
        for e in events
    ]).reshape(-1, 2)

    ns = np.arange(1, n_max + 1)
    means = np.empty(len(ns))
    errors = np.empty(len(ns))
    for k, n in enumerate(ns):
        counts = rng.binomial(n, min(total, 1.0), size=trials)
        occurrences = int(counts.sum())
        # The last event absorbs a draw past the cumulative sum's round-off.
        which = np.minimum(
            np.searchsorted(cumulative, total * rng.random(occurrences), side="right"),
            len(events) - 1,
        )
        kicks = rng.uniform(ranges[which, 0], ranges[which, 1])
        owner = np.repeat(np.arange(trials), counts)
        overlap = cat_overlap(np.bincount(owner, weights=kicks, minlength=trials))
        means[k] = overlap.mean()
        errors[k] = overlap.std(ddof=1) / math.sqrt(trials)
    return DecayCurve(ns, means, errors)


def fit_decay(curve: DecayCurve) -> FitResult:
    """Least-squares fit of amplitude * exp(-N/n0) + floor to a decay curve.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a given n0 the model is linear in amplitude and floor,
    so their least-squares values and the residual follow in closed form,
    and only n0 is searched, by one vectorised scan of log n0 from a
    twentieth of the smallest step in N to 1e4 times the span of N, then
    a golden-section refinement between the neighbours of the best scan
    point (32 per decade).  The search needs no starting values and is
    deterministic; a curve that keeps improving towards a straight line
    ends at the top of the range, with a sigma(n0) far above n0.
    ``covariance`` is s^2 (J^T J)^-1 at the optimum with s^2 = RSS/(m - 3),
    J the Jacobian in (amplitude, n0, floor); it is None when a singular
    value of J falls below round-off of the largest, since the curve then
    does not resolve every parameter (typically n0 at the top of its
    range).  A curve with no spread returns the n0 = inf flag instead of
    fitting; a non-finite fidelity raises FloatingPointError.
    """
    if len(curve) < 5:
        raise ValueError("need at least 5 points to fit a decay")
    n = curve.n.astype(float)
    fidelity = curve.fidelity
    if not np.all(np.isfinite(fidelity)):
        raise FloatingPointError("the decay curve holds non-finite fidelities")
    if float(fidelity.max() - fidelity.min()) < 1e-9:
        return FitResult(0.0, math.inf, float(fidelity.mean()), None)

    # exp(-(N - N_first)/n0) is the amplitude column up to a constant
    # factor; it stays representable however small n0 gets.
    shifted = n - n[0]
    centered = fidelity - fidelity.mean()

    def projection(log_n0):
        """Decay columns, their centred least-squares slopes and the RSS."""
        column = np.exp(-shifted / np.exp(log_n0)[..., None])
        column_c = column - column.mean(axis=-1, keepdims=True)
        slope = (column_c @ centered) / np.sum(column_c * column_c, axis=-1)
        residual = centered - slope[..., None] * column_c
        return column, slope, np.sum(residual * residual, axis=-1)

    lo = math.log(float(np.diff(n).min()) / 20.0)
    hi = math.log(1e4 * float(shifted[-1]))
    scan = np.linspace(lo, hi, math.ceil(32 * (hi - lo) / math.log(10.0)) + 1)
    best = int(np.argmin(projection(scan)[2]))
    log_n0, _ = _golden_section(
        lambda x: float(projection(np.array(x))[2]),
        scan[max(best - 1, 0)], scan[min(best + 1, len(scan) - 1)],
    )
    column, slope, rss = projection(np.array(log_n0))
    n0 = math.exp(log_n0)
    floor = float(fidelity.mean() - slope * column.mean())
    amplitude = float(slope) * math.exp(n[0] / n0)
    jacobian = np.column_stack([column * math.exp(-n[0] / n0),
                                slope * column * n / n0**2, np.ones_like(n)])
    _, singular, vt = np.linalg.svd(jacobian, full_matrices=False)
    if singular[-1] <= np.finfo(float).eps * len(n) * singular[0]:
        return FitResult(amplitude, n0, floor, None)
    covariance = (vt.T / singular**2) @ vt
    covariance *= float(rss) / (len(n) - 3)
    return FitResult(amplitude, n0, floor, covariance)


def trajectory_decay_curve(
    params: SystemParams,
    protocol: str,
    n_max: int,
    trials: int = 2000,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
    basis: CavityBasis | None = None,
    drive_mode: str = "effective",
):
    """Full-model cat fidelity versus number of parity rounds.

    Runs ``trials`` independent trajectory records of ``n_max`` rounds
    from the cat of amplitude ``alpha`` and filters them all at once, one
    round at a time.  At every prefix length it keeps the trials whose
    loss-free-history posterior clears ``POSTERIOR_THRESHOLD``, aligns
    the surviving ensemble to the best rotated cat, and scores each kept
    trial against that one target.  The per-trial scores average to the
    ensemble fidelity exactly, and their scatter gives the standard error.
    The ensembles of all rounds are aligned by one call of ``_aligned``
    and scored by one product.

    Returns ``(curve, kept)`` where ``kept`` counts the surviving trials
    at each point of the curve.  Round numbers where fewer than two
    trials survive are dropped.
    """
    _check_count("n_max", n_max, 1)
    _check_count("trials", trials, 2)
    _check_drive_mode(drive_mode)
    basis = basis or CavityBasis()
    filt = ParityFilter.for_protocol(params, protocol, alpha)
    reference = cat_state(alpha, basis)
    reported, _, cavities = _records(
        params, protocol, n_max, basis, reference, drive_mode,
        _trial_streams(seed, protocol, trials),
    )
    keep = np.empty((trials, n_max), dtype=bool)
    for k in range(n_max):
        filt.update(reported[:, k])
        keep[:, k] = filt.no_flip_posterior >= POSTERIOR_THRESHOLD
    kept = keep.sum(axis=0)
    # Every round is aligned and scored; rounds with fewer than two
    # survivors are dropped afterwards.
    survivors = np.maximum(kept, 1)
    rhos = np.zeros((n_max, basis.dim, basis.dim), dtype=complex)
    for block in _row_blocks(trials):  # bounds the temporaries as _records does
        part = cavities[block.start:block.stop]
        weighted = part * (keep[block.start:block.stop] / survivors)[:, :, None]
        rhos += np.matmul(weighted.transpose(1, 2, 0), part.transpose(1, 0, 2).conj())
    theta, _ = _aligned(rhos, reference)
    targets = np.exp(-1j * np.outer(theta, np.arange(basis.dim))) * reference
    # Squared overlaps of unit vectors, so at most 1; round-off can put a
    # perfect overlap an ulp above it, which no fidelity may be.
    scores = np.minimum(np.abs(np.einsum("trn,rn->tr", cavities, targets.conj())) ** 2, 1.0)
    means = (scores * keep).sum(axis=0) / survivors
    spread = (((scores - means) * keep) ** 2).sum(axis=0) / np.maximum(kept - 1, 1)
    stderrs = np.sqrt(spread) / np.sqrt(survivors)
    rounds = np.flatnonzero(kept >= 2)
    curve = DecayCurve(rounds + 1, means[rounds], stderrs[rounds])
    return curve, kept[rounds]
