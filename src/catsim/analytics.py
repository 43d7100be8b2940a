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
from scipy.integrate import quad
from scipy.optimize import curve_fit

from .dynamics import trajectory_rng
from .hilbert import DEFAULT_ALPHA, CavityBasis, cat_overlap, cat_state
from .model import SystemParams, induced_chi
from .protocols import ParityFilter, _records, _trial_rngs, map_duration
from .tomography import aligned_cat_fidelity

TWO_PI = 2.0 * math.pi

# Ancilla occupations at the end of a parity round, entering the readout
# decay rates.
END_POPULATIONS = {"g": 0.80, "e": 0.12, "f": 0.08}

# Philox stream index for the phase-kick Monte Carlo.
KICK_STREAM = 5

# Loss-free-history posterior a trial needs to stay in the decay ensemble.
POSTERIOR_THRESHOLD = 0.20


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

    ``n0`` is ``inf`` for a curve with no resolvable decay, in which case
    ``covariance`` is None.
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

    Averages 1 - cat_overlap(2 pi delta_chi t) over the window by adaptive
    quadrature; a degenerate window evaluates the integrand pointwise.
    ``align`` removes the deterministic mean rotation first, matching an
    analysis that re-aligns the cat before scoring.
    """
    if t1 < t0:
        raise ValueError("window must satisfy t0 <= t1")
    if delta_chi == 0.0:
        return 0.0
    center = math.pi * delta_chi * (t0 + t1) if align else 0.0

    def integrand(t: float) -> float:
        return 1.0 - cat_overlap(TWO_PI * delta_chi * t - center, alpha)

    if t0 == t1:
        return integrand(t0)
    value, _ = quad(integrand, t0, t1, epsabs=1e-9, epsrel=1e-9, limit=200)
    return value / (t1 - t0)


def dephasing_per_occurrence(
    delta_chi: float,
    t0: float,
    t1: float,
    alpha: float = DEFAULT_ALPHA,
    align: bool = False,
) -> float:
    """Kick infidelity normalized by the fully dephased value, capped at 1."""
    if delta_chi == 0.0:
        return 0.0
    infidelity = kick_infidelity(delta_chi, t0, t1, alpha, align=align)
    floor = kick_infidelity(delta_chi, 0.0, 1.0 / abs(delta_chi), alpha)
    return min(1.0, infidelity / floor)


def error_event_table(params: SystemParams, protocol: str = "gf") -> list:
    """Failure modes of one parity round with their kick windows.

    Probabilities come from first-order rate-times-duration estimates;
    the f-to-e map row is the dominant entry and loses its kick entirely
    under the fault-tolerant drive.  Rows whose kick exceeds a full
    rotation, and pure misassignments, scramble completely and carry
    dephasing 1.
    """
    name = protocol[3:] if protocol.startswith("pi_") else protocol
    if name not in ("gf", "ft"):
        raise ValueError(f"protocol must be gf or ft, got {protocol!r}")
    t_map = map_duration(params, name)
    t_ro = params.t_ro
    chi_e, chi_ef = params.chi_e, params.chi_e - params.chi_f
    confusion = params.assignment_error
    readout_ge = dephasing_per_occurrence(chi_e, 0.0, t_ro)
    if name == "gf":
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


def _kick_sums(event: ErrorEventSpec, counts: np.ndarray, rng) -> np.ndarray:
    """Summed kick angle per trial for ``counts`` occurrences of one event."""
    top = int(counts.max())
    if top == 0:
        return np.zeros(len(counts))
    if event.dephasing_per_occurrence >= 1.0:
        lo, hi = 0.0, TWO_PI
    else:
        edges = (
            TWO_PI * event.delta_chi * event.window[0],
            TWO_PI * event.delta_chi * event.window[1],
        )
        lo, hi = min(edges), max(edges)
    if lo == hi:
        return counts * lo
    draws = rng.uniform(lo, hi, size=(len(counts), top))
    used = np.arange(top) < counts[:, None]
    return (draws * used).sum(axis=1)


def phase_kick_monte_carlo(
    events,
    n_max: int,
    trials: int = 10000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> DecayCurve:
    """Decay curve of a cat subjected to sampled ancilla-error phase kicks.

    For each N the number of occurrences of every event is multinomial,
    drawn by sequential binomial conditioning; each occurrence
    contributes a kick uniform over its window (uniform over a full turn
    for scrambling rows) and the trial scores the rotation overlap of
    the summed kick.  Trials are vectorized in a fixed order, so a seed
    pins the whole curve.
    """
    events = list(events)
    probabilities = [e.probability for e in events]
    if sum(probabilities) > 1.0 + 1e-12:
        raise ValueError("event probabilities must sum to at most 1")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable curve")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rng = trajectory_rng(seed, KICK_STREAM, 0)

    ns = np.arange(1, n_max + 1)
    means = np.empty(len(ns))
    errors = np.empty(len(ns))
    for k, n in enumerate(ns):
        remaining = np.full(trials, n, dtype=np.int64)
        mass = 1.0
        total = np.zeros(trials)
        for event, p in zip(events, probabilities):
            share = 1.0 if mass <= p else p / mass
            counts = rng.binomial(remaining, share)
            remaining -= counts
            mass -= p
            total += _kick_sums(event, counts, rng)
        overlap = cat_overlap(total, alpha)
        means[k] = overlap.mean()
        errors[k] = overlap.std(ddof=1) / math.sqrt(trials)
    return DecayCurve(ns, means, errors)


def fit_decay(curve: DecayCurve) -> FitResult:
    """Fit amplitude * exp(-N/n0) + floor to a decay curve.

    Initialization is pinned so the fit is deterministic: the amplitude
    seed is the first-to-last drop, the floor seed the minimum, and the
    n0 seed the first N at half decay.  A curve with no spread returns
    the n0 = inf flag instead of fitting.
    """
    if len(curve) < 5:
        raise ValueError("need at least 5 points to fit a decay")
    n = curve.n.astype(float)
    fidelity = curve.fidelity
    if float(fidelity.max() - fidelity.min()) < 1e-9:
        return FitResult(0.0, math.inf, float(fidelity.mean()), None)

    amp0 = float(fidelity[0] - fidelity[-1])
    floor0 = float(fidelity.min())
    half_level = float(fidelity[-1]) + 0.5 * amp0
    below = np.nonzero(fidelity <= half_level)[0]
    n0_init = float(n[below[0]]) if len(below) else float(n[-1])

    def model(count, amplitude, n0, floor):
        return amplitude * np.exp(-count / n0) + floor

    popt, pcov = curve_fit(
        model,
        n,
        fidelity,
        p0=(amp0, max(n0_init, 1.0), floor0),
        bounds=((-np.inf, 1e-9, -np.inf), (np.inf, np.inf, np.inf)),
        maxfev=20000,
    )
    return FitResult(float(popt[0]), float(popt[1]), float(popt[2]), pcov)


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

    Returns ``(curve, kept)`` where ``kept`` counts the surviving trials
    at each point of the curve.  Round numbers where fewer than two
    trials survive are dropped.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if trials < 2:
        raise ValueError("need at least two trials")
    basis = basis or CavityBasis()
    filt = ParityFilter.for_protocol(params, protocol, alpha)
    reference = cat_state(alpha, basis)
    reported, _, cavities, _ = _records(
        params, protocol, n_max, basis, reference, None, drive_mode,
        _trial_rngs(seed, protocol, trials),
    )
    phases = np.arange(basis.dim)
    ns, fidelities, stderrs, kept = [], [], [], []
    for k in range(n_max):
        filt.update(reported[:, k])
        keep = filt.no_flip_posterior >= POSTERIOR_THRESHOLD
        survivors = int(keep.sum())
        if survivors < 2:
            continue
        ensemble = cavities[keep, k]
        rho = ensemble.T @ ensemble.conj() / survivors
        theta, _ = aligned_cat_fidelity(rho, alpha, basis)
        target = np.exp(-1j * theta * phases) * reference
        scores = np.abs(ensemble @ target.conj()) ** 2
        ns.append(k + 1)
        fidelities.append(float(scores.mean()))
        stderrs.append(float(scores.std(ddof=1) / math.sqrt(survivors)))
        kept.append(survivors)
    curve = DecayCurve(np.array(ns), np.array(fidelities), np.array(stderrs))
    return curve, np.array(kept)
