import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import curve_fit

from catsim.analytics import (
    DecayCurve,
    ErrorEventSpec,
    dephasing_per_occurrence,
    error_event_table,
    fit_decay,
    kick_infidelity,
    phase_kick_monte_carlo,
    residual_dephasing_time,
    t2_model_curve,
    thermal_dephasing_rate,
    total_dephasing_probability,
    trajectory_decay_curve,
)
from catsim.hilbert import DEFAULT_ALPHA, CavityBasis, cat_overlap, cat_state
from catsim.model import SystemParams, cancellation_detuning
from catsim.protocols import ParityFilter, map_duration

CAT_FLOOR = 0.3852155733436824
GAMMA = 1.0 / 25e-6


def test_rate_vanishes_without_thermal_population():
    # 3864.5 Hz left -2.2e-12 when the rate was formed as Re sqrt(z) - 1.
    for chi in (93e3, 3864.523440464749):
        assert thermal_dephasing_rate(chi, GAMMA, 0.0) == 0.0


def test_rate_telegraph_limit():
    # Strong-dispersive regime: every thermal hop scrambles, rate = n_th * gamma.
    rate = thermal_dephasing_rate(93e3, GAMMA, 0.025)
    assert rate == pytest.approx(0.025 * GAMMA, rel=0.05)
    assert 1.0 / rate == pytest.approx(1e-3, rel=0.05)


def test_rate_asymptotics_both_sides():
    for n_th in (0.01, 0.025):
        chi_small = 0.05 * GAMMA / (2 * math.pi)
        expected = (2 * math.pi * chi_small) ** 2 * n_th / GAMMA
        assert thermal_dephasing_rate(chi_small, GAMMA, n_th) == pytest.approx(
            expected, rel=0.05
        )
        chi_big = 20.0 * GAMMA / (2 * math.pi)
        assert thermal_dephasing_rate(chi_big, GAMMA, n_th) == pytest.approx(
            n_th * GAMMA, rel=0.05
        )


@given(
    chi=st.floats(-5e5, 5e5),
    n_th=st.floats(0.0, 0.2),
)
@settings(max_examples=60, deadline=None)
def test_rate_even_in_chi_and_nonnegative(chi, n_th):
    rate = thermal_dephasing_rate(chi, GAMMA, n_th)
    assert rate >= 0.0
    assert rate == pytest.approx(thermal_dephasing_rate(-chi, GAMMA, n_th), abs=1e-9)


def test_rate_monotone_in_thermal_population():
    rates = [thermal_dephasing_rate(93e3, GAMMA, n) for n in (0.0, 0.01, 0.05, 0.1)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_validates_inputs():
    with pytest.raises(ValueError):
        thermal_dephasing_rate(93e3, 0.0, 0.025)
    with pytest.raises(ValueError):
        thermal_dephasing_rate(93e3, GAMMA, -0.01)


def test_residual_dephasing_time_values():
    assert residual_dephasing_time(SystemParams()) == pytest.approx(0.02, rel=1e-12)
    assert residual_dephasing_time(SystemParams(n_th=0.0)) == math.inf


def test_t2_background_and_peak():
    params = SystemParams()
    far = t2_model_curve(params, [1e9])[0][1]
    assert far == pytest.approx(700e-6, rel=0.15)
    peak_delta = cancellation_detuning(params, "zero_chi_eg")
    peak = t2_model_curve(params, [peak_delta])[0][1]
    assert peak == pytest.approx(1.9e-3, rel=0.15)
    # The analytic composition: no thermal dephasing left at the peak.
    direct = 1.0 / (1.0 / (2.0 * params.T1_cavity) + 1.0 / residual_dephasing_time(params))
    assert peak == pytest.approx(direct, rel=1e-9)


def test_t2_peaks_at_cancellation():
    params = SystemParams()
    peak_delta = cancellation_detuning(params, "zero_chi_eg")
    deltas = np.linspace(0.75 * peak_delta, 1.25 * peak_delta, 41)
    curve = t2_model_curve(params, deltas)
    best = max(curve, key=lambda pair: pair[1])[0]
    assert best == pytest.approx(peak_delta, rel=0.02)


def test_t2_rejects_zero_detuning():
    with pytest.raises(ValueError):
        t2_model_curve(SystemParams(), [1e6, 0.0])


def test_kick_infidelity_zero_shift():
    assert kick_infidelity(0.0, 0.0, 2e-6) == 0.0


def test_kick_infidelity_degenerate_window():
    theta = 2 * math.pi * 93e3 * 1.2e-6
    assert kick_infidelity(93e3, 1.2e-6, 1.2e-6) == pytest.approx(
        1.0 - cat_overlap(theta), rel=1e-9
    )


def test_kick_infidelity_full_rotation_hits_floor():
    value = kick_infidelity(143e3, 0.0, 1.0 / 143e3)
    assert value == pytest.approx(1.0 - CAT_FLOOR, abs=1e-6)


def test_kick_infidelity_rejects_reversed_window():
    with pytest.raises(ValueError):
        kick_infidelity(93e3, 2e-6, 1e-6)


def quad_kick_infidelity(delta_chi, t0, t1, alpha, align=False):
    """Adaptive-quadrature reference for ``kick_infidelity``."""
    center = math.pi * delta_chi * (t0 + t1) if align else 0.0
    value, _ = quad(
        lambda t: 1.0 - cat_overlap(2.0 * math.pi * delta_chi * t - center, alpha),
        t0, t1, epsabs=1e-12, epsrel=1e-12, limit=500,
    )
    return value / (t1 - t0)


@pytest.mark.parametrize("protocol", ["gf", "ft"])
def test_kick_infidelity_matches_adaptive_quadrature(protocol):
    # Every kick window of the error table, aligned and not, and the full
    # turn that normalizes it, at the default cat, at |alpha| = 3 (the
    # largest one a quarter-turn panel holds) and past it.
    for alpha in (DEFAULT_ALPHA, 3.0, 7.0):
        for event in error_event_table(SystemParams(), protocol):
            chi, (t0, t1) = event.delta_chi, event.window
            if chi == 0.0 or t0 == t1:
                continue
            for window in ((t0, t1), (0.0, 1.0 / abs(chi))):
                for align in (False, True):
                    expected = quad_kick_infidelity(chi, *window, alpha, align=align)
                    assert kick_infidelity(
                        chi, *window, alpha, align=align
                    ) == pytest.approx(expected, abs=1e-10)


def test_dephasing_per_occurrence_published_values():
    params = SystemParams()
    t_map = map_duration(params, "gf")
    assert dephasing_per_occurrence(93e3, 0.0, t_map) == pytest.approx(0.8410, abs=0.005)
    assert dephasing_per_occurrence(93e3, 0.0, 1.2e-6) == pytest.approx(0.4338, abs=0.005)
    assert dephasing_per_occurrence(143e3, 0.0, 1.2e-6) == pytest.approx(0.7395, abs=0.005)
    assert dephasing_per_occurrence(143e3, 0.0, t_map, align=True) == pytest.approx(
        0.6464, abs=0.005
    )
    # Published rounded values with the stated column tolerance.
    assert dephasing_per_occurrence(93e3, 0.0, t_map) == pytest.approx(0.83, abs=0.03)
    assert dephasing_per_occurrence(93e3, 0.0, 1.2e-6) == pytest.approx(0.42, abs=0.03)
    assert dephasing_per_occurrence(143e3, 0.0, 1.2e-6) == pytest.approx(0.72, abs=0.03)


def test_dephasing_per_occurrence_caps_at_one():
    # Kicks spanning a full turn scramble completely.
    assert dephasing_per_occurrence(236e3, 0.7e-6, 2.12e-6) == 1.0


def test_error_event_table_probabilities():
    params = SystemParams()
    table = error_event_table(params, "gf")
    by_label = {e.label: e for e in table}
    assert len(table) == 11
    assert by_label["map_relax_fe"].probability == pytest.approx(0.046057, abs=1e-5)
    assert by_label["map_double_relax"].probability == pytest.approx(0.001952, abs=1e-5)
    assert by_label["map_thermal_fh"].probability == pytest.approx(0.003178, abs=1e-5)
    assert by_label["map_thermal_ge"].probability == pytest.approx(0.001059, abs=1e-5)
    assert by_label["readout_thermal_ge"].probability == pytest.approx(0.00096, abs=1e-6)
    assert by_label["readout_relax_eg"].probability == pytest.approx(0.00576, abs=1e-6)
    assert by_label["readout_relax_fe"].probability == pytest.approx(0.004174, abs=1e-5)
    assert by_label["assign_g_as_e"].probability == pytest.approx(4e-4, abs=1e-9)
    assert by_label["assign_e_as_g"].probability == pytest.approx(1e-4, abs=1e-9)
    assert by_label["assign_e_as_f"].probability == pytest.approx(2e-4, abs=1e-9)
    assert by_label["assign_f_as_e"].probability == pytest.approx(1e-4, abs=1e-9)


def test_error_event_table_kicks_and_windows():
    params = SystemParams()
    table = {e.label: e for e in error_event_table(params, "gf")}
    t_map = map_duration(params, "gf")
    assert table["map_relax_fe"].delta_chi == pytest.approx(143e3)
    assert table["map_relax_fe"].window == pytest.approx((0.0, t_map))
    assert table["map_double_relax"].delta_chi == pytest.approx(236e3)
    assert table["map_double_relax"].window[0] == pytest.approx(t_map / 3.0)
    assert table["map_thermal_fh"].delta_chi == pytest.approx(-279e3)
    assert table["assign_e_as_f"].window == (1.2e-6, 1.2e-6)
    assert table["assign_e_as_f"].dephasing_per_occurrence == 1.0


def test_error_event_table_fault_tolerant_variant():
    params = SystemParams()
    ft_row = error_event_table(params, "ft")[0]
    assert ft_row.label == "map_relax_fe"
    assert ft_row.delta_chi == 0.0
    assert ft_row.dephasing_per_occurrence == 0.0
    for protocol in ("ge", "pi_ft"):
        with pytest.raises(ValueError):
            error_event_table(params, protocol)


def test_error_event_table_totals():
    params = SystemParams()
    total_gf = total_dephasing_probability(error_event_table(params, "gf"))
    total_ft = total_dephasing_probability(error_event_table(params, "ft"))
    assert total_gf == pytest.approx(0.042596, abs=1e-5)
    assert total_ft == pytest.approx(0.012822, abs=1e-5)
    assert total_gf == pytest.approx(0.0420, abs=0.0015)
    assert total_ft == pytest.approx(0.0136, abs=0.0010)


def test_event_spec_validation():
    with pytest.raises(ValueError):
        ErrorEventSpec("x", 1.2, 0.0, (0.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        ErrorEventSpec("x", 0.1, 0.0, (2.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        ErrorEventSpec("x", 0.1, 0.0, (0.0, 1.0), 1.5)


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve(np.array([1, 1, 2]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        DecayCurve(np.array([1, 2]), np.array([0.5, 1.2]), np.zeros(2))
    curve = DecayCurve(np.array([1, 2]), np.array([0.9, 0.8]), np.array([0.01, 0.01]))
    columns = zip(curve.n.tolist(), curve.fidelity.tolist(), curve.stderr.tolist())
    assert list(columns) == [(1, 0.9, 0.01), (2, 0.8, 0.01)]


def test_monte_carlo_no_events_is_flat_unity():
    curve = phase_kick_monte_carlo([], 10, trials=1000, seed=3)
    assert np.all(curve.fidelity == 1.0)
    assert np.all(curve.stderr == 0.0)
    assert list(curve.n) == list(range(1, 11))


def test_monte_carlo_scrambling_event_sits_at_floor():
    event = ErrorEventSpec("scramble", 1.0, 1e5, (0.0, 1e-5), 1.0)
    curve = phase_kick_monte_carlo([event], 6, trials=4000, seed=5)
    for fidelity, stderr in zip(curve.fidelity, curve.stderr):
        assert fidelity == pytest.approx(CAT_FLOOR, abs=5 * stderr + 1e-4)


def test_monte_carlo_full_rotation_window_hits_floor():
    # Same floor reached through the literal window sampling path.
    event = ErrorEventSpec("turn", 1.0, 143e3, (0.0, 1.0 / 143e3), 0.99)
    curve = phase_kick_monte_carlo([event], 3, trials=4000, seed=6)
    assert curve.fidelity[0] == pytest.approx(CAT_FLOOR, abs=5 * curve.stderr[0] + 1e-4)


def test_monte_carlo_first_order_in_probability():
    window = (0.0, 1.2e-6)
    event = ErrorEventSpec("rare", 0.01, 93e3, window, 0.5)
    expected = 1.0 - 0.01 * kick_infidelity(93e3, *window)
    curve = phase_kick_monte_carlo([event], 1, trials=40000, seed=9)
    assert abs(curve.fidelity[0] - expected) < 3.0 * curve.stderr[0] + 1e-5


def test_monte_carlo_reproducible_and_seed_sensitive():
    params = SystemParams()
    events = error_event_table(params, "gf")
    one = phase_kick_monte_carlo(events, 12, trials=1000, seed=11)
    two = phase_kick_monte_carlo(events, 12, trials=1000, seed=11)
    other = phase_kick_monte_carlo(events, 12, trials=1000, seed=12)
    assert np.array_equal(one.fidelity, two.fidelity)
    assert np.array_equal(one.stderr, two.stderr)
    assert not np.array_equal(one.fidelity, other.fidelity)


def test_monte_carlo_validates_inputs():
    good = ErrorEventSpec("x", 0.6, 1e5, (0.0, 1e-6), 0.5)
    with pytest.raises(ValueError):
        phase_kick_monte_carlo([good, good], 10, trials=1000)
    with pytest.raises(ValueError):
        phase_kick_monte_carlo([good], 10, trials=10)
    with pytest.raises(ValueError):
        phase_kick_monte_carlo([good], 0, trials=1000)


def exact_kick_decay(events, ns, alpha=DEFAULT_ALPHA, dim=60):
    """E[cat_overlap(summed kick)] after N rounds, from the characteristic function.

    cat_overlap(theta) = C0 + 2 sum_k C_k cos(k theta) with C_k =
    sum_n P_n P_{n+k} over the cat's photon distribution P, and N
    independent rounds each kick by an event's uniform window with that
    event's probability, so E[exp(i k theta)] = phi_k**N.
    """
    photons = np.abs(cat_state(alpha, CavityBasis(dim))) ** 2
    k = np.arange(1, dim)
    c0 = photons @ photons
    ck = np.array([photons[:-j] @ photons[j:] for j in k])
    phi = np.full(len(k), 1.0 + 0j)
    for event in events:
        lo, hi = ((0.0, 2.0 * math.pi) if event.dephasing_per_occurrence >= 1.0
                  else sorted(2.0 * math.pi * event.delta_chi * np.array(event.window)))
        # Mean of exp(i k u) over u uniform on [lo, hi]; np.sinc is sin(pi x)/(pi x).
        mean = np.exp(0.5j * k * (lo + hi)) * np.sinc(k * (hi - lo) / (2.0 * math.pi))
        phi += event.probability * (mean - 1.0)
    return np.array([c0 + 2.0 * np.sum(ck * (phi**n).real) for n in ns])


@pytest.mark.parametrize("table", ["gf", "mix"])
def test_monte_carlo_matches_exact_characteristic_function(table):
    if table == "gf":
        events = error_event_table(SystemParams(), "gf")
    else:
        events = [ErrorEventSpec("window", 0.05, 93e3, (0.0, 1.2e-6), 0.5),
                  ErrorEventSpec("scramble", 0.02, 1e5, (1e-6, 1e-6), 1.0)]
    curve = phase_kick_monte_carlo(events, 20, trials=40000, seed=2)
    z = (curve.fidelity - exact_kick_decay(events, curve.n)) / curve.stderr
    assert np.max(np.abs(z)) < 4.5


@pytest.mark.slow
def test_monte_carlo_decay_matches_dephasing_budget():
    # The gf curve decays several times faster than the ft curve.
    params = SystemParams()
    gf = phase_kick_monte_carlo(error_event_table(params, "gf"), 40, 10000, seed=0)
    ft = phase_kick_monte_carlo(error_event_table(params, "ft"), 40, 10000, seed=0)
    assert np.all(ft.fidelity >= gf.fidelity - 1e-3)
    fit_gf = fit_decay(gf)
    assert fit_gf.amplitude == pytest.approx(0.56, abs=0.15)
    assert fit_gf.floor == pytest.approx(0.37, abs=0.10)


def curve_fit_reference(curve):
    """Bounded trust-region fit of the model from pinned starting values."""
    n, fidelity = curve.n.astype(float), curve.fidelity
    amp0 = float(fidelity[0] - fidelity[-1])
    below = np.nonzero(fidelity <= fidelity[-1] + 0.5 * amp0)[0]
    n0_init = float(n[below[0]]) if len(below) else float(n[-1])
    popt, pcov = curve_fit(
        lambda count, amplitude, n0, floor: amplitude * np.exp(-count / n0) + floor,
        n, fidelity, p0=(amp0, max(n0_init, 1.0), float(fidelity.min())),
        bounds=((-np.inf, 1e-9, -np.inf), (np.inf, np.inf, np.inf)), maxfev=20000,
    )
    return popt, pcov


def synthetic_curve():
    rng = np.random.default_rng(21)
    n = np.arange(1, 81)
    truth = 0.56 * np.exp(-n / 20.0) + 0.37
    noisy = np.clip(truth * (1.0 + 0.005 * rng.standard_normal(len(n))), 0.0, 1.0)
    return DecayCurve(n, noisy, np.full(len(n), 0.005))


def test_fit_recovers_synthetic_exponential():
    result = fit_decay(synthetic_curve())
    assert result.amplitude == pytest.approx(0.56, rel=0.05)
    assert result.n0 == pytest.approx(20.0, rel=0.05)
    assert result.floor == pytest.approx(0.37, rel=0.05)
    assert result.covariance.shape == (3, 3)


@pytest.mark.parametrize("source", ["synthetic", "trajectory"])
def test_fit_matches_curve_fit(source):
    if source == "synthetic":
        curve = synthetic_curve()
    else:
        curve, _ = trajectory_decay_curve(SystemParams(), "gf", 20, trials=150, seed=0)
    fit = fit_decay(curve)
    (amplitude, n0, floor), pcov = curve_fit_reference(curve)
    sigma = math.sqrt(pcov[1, 1])
    assert abs(fit.n0 - n0) <= 1e-3 * sigma
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-3)
    assert fit.floor == pytest.approx(floor, rel=1e-3)
    assert math.sqrt(fit.covariance[1, 1]) == pytest.approx(sigma, rel=1e-3)


def test_fit_rejects_non_finite_fidelities():
    fidelity = 0.5 * np.exp(-np.arange(1, 11) / 4.0) + 0.4
    fidelity[6] = np.nan
    curve = DecayCurve(np.arange(1, 11), fidelity, np.full(10, 0.01))
    with pytest.raises(FloatingPointError):
        fit_decay(curve)


def test_fit_flags_constant_curve():
    curve = DecayCurve(
        np.arange(1, 11), np.full(10, 0.42), np.full(10, 0.01)
    )
    result = fit_decay(curve)
    assert result.amplitude == 0.0
    assert math.isinf(result.n0)
    assert result.floor == pytest.approx(0.42)
    assert result.covariance is None


def test_fit_reports_no_covariance_when_n0_is_lost_to_round_off():
    # A barely curved line: the Jacobian's n0 column sits below round-off
    # of the others, so sigma(n0) cannot be told and must not read ~0.
    n = np.arange(1, 11)
    flat = fit_decay(DecayCurve(n, 1.0 - 4.2e-7 * n**2, np.zeros(10)))
    assert flat.n0 > 1e4
    assert flat.covariance is None
    curved = fit_decay(DecayCurve(n, 1.0 - 1e-4 * n**2, np.zeros(10)))
    assert math.sqrt(curved.covariance[1, 1]) > curved.n0


def test_fit_requires_five_points():
    curve = DecayCurve(
        np.arange(1, 5), np.array([0.9, 0.8, 0.7, 0.6]), np.full(4, 0.01)
    )
    with pytest.raises(ValueError):
        fit_decay(curve)


def test_trajectory_decay_declines_under_filtering():
    curve, kept = trajectory_decay_curve(
        SystemParams(), "gf", 20, trials=150, seed=0
    )
    assert np.array_equal(curve.n, np.arange(1, 21))
    assert curve.fidelity[0] > 0.94
    assert curve.fidelity[-1] < 0.70
    assert np.all(curve.stderr > 0.0)
    assert np.all(kept <= 150)
    assert kept[-1] > 75


@pytest.mark.slow
def test_trajectory_decay_orders_protocols_by_robustness():
    fid_at_end = {}
    for protocol in ("ge", "gf", "ft"):
        curve, _ = trajectory_decay_curve(
            SystemParams(), protocol, 12, trials=200, seed=0
        )
        fid_at_end[protocol] = curve.fidelity[-1]
    assert fid_at_end["ft"] > fid_at_end["gf"] + 0.05
    assert fid_at_end["gf"] > fid_at_end["ge"] + 0.05


def test_trajectory_decay_reproducible_and_seed_sensitive():
    first = trajectory_decay_curve(SystemParams(), "gf", 4, trials=40, seed=7)
    again = trajectory_decay_curve(SystemParams(), "gf", 4, trials=40, seed=7)
    other = trajectory_decay_curve(SystemParams(), "gf", 4, trials=40, seed=8)
    assert np.array_equal(first[0].fidelity, again[0].fidelity)
    assert np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0].fidelity, other[0].fidelity)


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_trajectory_decay_starts_from_the_cat_it_scores(alpha):
    # The records start from the cat of the requested amplitude, the one
    # the filter and the reference use; scored against a sqrt(2) cat
    # they would start near 0.8.
    curve, _ = trajectory_decay_curve(SystemParams(), "gf", 5, trials=40, seed=1, alpha=alpha)
    assert curve.n[0] == 1
    assert curve.fidelity[0] > 0.9


def test_trajectory_decay_validation():
    with pytest.raises(ValueError):
        trajectory_decay_curve(SystemParams(), "gf", 0, trials=40, seed=0)
    with pytest.raises(ValueError):
        trajectory_decay_curve(SystemParams(), "gf", 4, trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        trajectory_decay_curve(SystemParams(), "gf", 4, trials=2.5, seed=0)
    with pytest.raises(ValueError, match="n_max"):
        trajectory_decay_curve(SystemParams(), "gf", 4.5, trials=2, seed=0)
    # A NaN amplitude is refused where the filter's flip probability is
    # set, before any record runs.
    with pytest.raises(ValueError, match="finite"):
        trajectory_decay_curve(SystemParams(), "gf", 4, trials=2, seed=0, alpha=math.nan)
    with pytest.raises(ValueError, match="finite"):
        ParityFilter.for_protocol(SystemParams(), "gf", alpha=math.nan)
    # A dim-4 cavity cannot hold the cat, so the drive mode must be named first.
    with pytest.raises(ValueError, match="unknown drive mode"):
        trajectory_decay_curve(
            SystemParams(), "gf", 4, trials=2, basis=CavityBasis(4), drive_mode="bogus"
        )
