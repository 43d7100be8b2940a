"""Wigner grids, reconstruction, and aligned fidelity."""

import math

import numpy as np
import pytest

from catsim.dynamics import trajectory_rng
from catsim.hilbert import CavityBasis, cat_state, joint_state, state_fidelity
from catsim.model import SystemParams
from catsim.tomography import (
    WignerGrid,
    _golden_section,
    aligned_cat_fidelity,
    mle_reconstruct,
    normalize_grid,
    simulate_tomography,
    square_grid,
    vacuum_contrast,
    wigner_scan,
)

ALPHA = math.sqrt(2.0)

CAT_FLOOR = 0.3852155733436824

QUIET = SystemParams(
    T1_cavity=1e3,
    T1_eg=1e3,
    T1_fe=1e3,
    Tphi_g=1e3,
    Tphi_e=1e3,
    Tphi_f=1e3,
    n_th=1e-12,
    assignment_error=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
)


def test_square_grid_layout():
    grid = square_grid(5, 2.0)
    assert grid.shape == (25,)
    assert grid[0] == pytest.approx(-2.0 - 2.0j)
    assert grid[-1] == pytest.approx(2.0 + 2.0j)
    assert grid[2] == pytest.approx(0.0 - 2.0j)


def test_vacuum_scan_peak():
    vac = np.zeros(16, dtype=complex)
    vac[0] = 1.0
    grid = wigner_scan(vac, [0.0])
    assert grid.values[0] == pytest.approx(2 / math.pi, abs=1e-12)
    assert grid.shots[0] == 0


def test_cat_fringe_period():
    # Interference fringes along the imaginary axis repeat with period
    # pi / (2 alpha); half a period flips the sign.
    basis = CavityBasis(24)
    cat = cat_state(ALPHA, basis)
    period = math.pi / (2 * ALPHA)
    y0 = 0.15
    grid = wigner_scan(
        cat, [1j * y0, 1j * (y0 + period / 2), 1j * (y0 + period)]
    )
    first, half, full = grid.values
    assert first > 0.05
    assert half < -0.05
    assert np.sign(full) == np.sign(first)


def test_cat_wigner_integrates_to_one():
    basis = CavityBasis(44)
    cat = cat_state(ALPHA, basis)
    step = 0.25
    axis = np.arange(-3.0, 3.0 + step / 2, step)
    re, im = np.meshgrid(axis, axis)
    betas = (re + 1j * im).ravel()
    with pytest.warns(UserWarning, match="trusted region"):
        grid = wigner_scan(cat, betas)
    integral = np.sum(grid.values) * step * step
    assert integral == pytest.approx(1.0, abs=0.02)


def test_scan_bounds_warning():
    vac = np.zeros(9, dtype=complex)
    vac[0] = 1.0
    with pytest.warns(UserWarning, match="trusted region"):
        wigner_scan(vac, [2.0])


def test_scan_rejects_invalid_states():
    basis = CavityBasis(8)
    cat = cat_state(ALPHA, basis)
    with pytest.raises(ValueError, match="norm"):
        wigner_scan(2.0 * cat, [0.0])
    with pytest.raises(ValueError, match="non-finite"):
        wigner_scan(np.full(8, np.nan, dtype=complex), [0.0])
    rho = np.outer(cat, cat.conj())
    with pytest.raises(ValueError, match="trace"):
        wigner_scan(0.5 * rho, [0.0])
    with pytest.raises(ValueError, match="hermitian"):
        wigner_scan(rho + np.triu(np.ones((8, 8)), 1), [0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        wigner_scan(np.diag([1.5, -0.5] + [0.0] * 6).astype(complex), [0.0])


def test_grid_values_bounded():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi /= np.linalg.norm(psi)
    betas = square_grid(9, 1.9)
    grid = wigner_scan(psi, betas)
    assert np.all(np.abs(grid.values) <= 2 / math.pi + 1e-9)
    mixed = wigner_scan(np.outer(psi, psi.conj()), betas)
    assert np.max(np.abs(mixed.values - grid.values)) <= 1e-14


def test_normalization_roundtrip():
    grid = WignerGrid(
        betas=np.array([0.0 + 0j]), values=np.array([0.45]), shots=np.array([50])
    )
    scaled = WignerGrid(grid.betas, grid.values * 0.735, grid.shots)
    back = normalize_grid(scaled, 0.735)
    assert back.values[0] == pytest.approx(grid.values[0], rel=1e-12)
    with pytest.raises(ValueError):
        normalize_grid(grid, 0.0)


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_recovers_cat():
    dim = 12
    basis = CavityBasis(dim)
    cat = cat_state(ALPHA, basis)
    grid = wigner_scan(cat, square_grid(21, 2.5))
    result = mle_reconstruct(grid, dim)
    assert state_fidelity(cat, result.rho) > 0.999
    assert np.allclose(result.rho, result.rho.conj().T, atol=1e-10)
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-9)
    eigs = np.linalg.eigvalsh(result.rho)
    assert eigs.min() > -1e-9


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_residual_monotone_and_noise_robust():
    dim = 10
    basis = CavityBasis(dim)
    cat = cat_state(ALPHA, basis)
    grid = wigner_scan(cat, square_grid(21, 2.5))
    rng = np.random.default_rng(11)
    noisy = WignerGrid(
        betas=grid.betas,
        values=grid.values * (1.0 + 0.1 * rng.standard_normal(len(grid))),
        shots=grid.shots,
    )
    result = mle_reconstruct(noisy, dim)
    assert np.all(np.diff(result.history) <= 0.0)
    assert state_fidelity(cat, result.rho) >= 0.97


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_recovers_random_pure_states():
    rng = np.random.default_rng(11)
    for dim in (6, 10, 12):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a /= np.linalg.norm(a)
        grid = wigner_scan(np.outer(a, a.conj()), square_grid(21, 2.5))
        result = mle_reconstruct(grid, dim)
        assert float(np.real(a.conj() @ result.rho @ a)) > 0.9999
        assert result.residual < 1e-10


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_mixed_state_matches_observations():
    # Displaced-parity values pin only dim*(dim+1)/2 Hermitian directions,
    # so a mixed state is checked in observation space, not state space.
    rng = np.random.default_rng(11)
    dim = 6
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    rho = 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())
    grid = wigner_scan(rho, square_grid(21, 2.5))
    result = mle_reconstruct(grid, dim, max_iterations=20000, tolerance=1e-14)
    rescan = wigner_scan(result.rho, grid.betas)
    assert np.abs(rescan.values - grid.values).max() < 1e-8
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(result.rho).min() > -1e-9


def test_mle_rank_deficiency_warning():
    grid = WignerGrid(
        betas=np.linspace(0, 1, 10).astype(complex),
        values=np.zeros(10),
        shots=np.zeros(10, dtype=int),
    )
    with pytest.warns(UserWarning, match="under-determine"):
        mle_reconstruct(grid, 8, max_iterations=3)


def test_aligned_fidelity_recovers_rotation():
    basis = CavityBasis(20)
    cat = cat_state(ALPHA, basis)
    for theta0 in (0.0, 0.7, 2.5):
        rotated = np.exp(-1j * theta0 * np.arange(20)) * cat
        theta_star, fid = aligned_cat_fidelity(rotated, ALPHA, basis)
        assert fid == pytest.approx(1.0, abs=1e-9)
        assert theta_star == pytest.approx(theta0 % math.pi, abs=1e-6)


def test_aligned_fidelity_uniform_mixture_floor():
    basis = CavityBasis(20)
    cat = cat_state(ALPHA, basis)
    n = np.arange(20)
    rho = np.zeros((20, 20), dtype=complex)
    angles = np.linspace(0.0, math.pi, 720, endpoint=False)
    for theta in angles:
        v = np.exp(-1j * theta * n) * cat
        rho += np.outer(v, v.conj())
    rho /= len(angles)
    theta_star, fid = aligned_cat_fidelity(rho, ALPHA, basis)
    assert fid == pytest.approx(CAT_FLOOR, abs=1e-6)


def test_aligned_fidelity_phase_invariance():
    basis = CavityBasis(20)
    cat = cat_state(ALPHA, basis)
    rotated = np.exp(-1j * 1.1 * np.arange(20)) * cat
    t1, f1 = aligned_cat_fidelity(rotated, ALPHA, basis)
    t2, f2 = aligned_cat_fidelity(np.exp(0.3j) * rotated, ALPHA, basis)
    assert f2 == pytest.approx(f1, abs=1e-12)
    assert t2 == pytest.approx(t1, abs=1e-6)
    # Rotating the input by pi lands on the same even-cat state.
    shifted = np.exp(-1j * (1.1 + math.pi) * np.arange(20)) * cat
    t3, f3 = aligned_cat_fidelity(shifted, ALPHA, basis)
    assert f3 == pytest.approx(f1, abs=1e-9)
    assert t3 == pytest.approx(t1, abs=1e-6)


def per_angle_aligned_fidelity(rho, alpha, basis):
    """The per-angle reference: F(theta) = <v|rho|v> with v = exp(-i theta n) cat,
    the same 64-angle scan and 60-step golden-section refinement."""
    reference = cat_state(alpha, basis)
    n = np.arange(basis.dim)

    def fidelity(theta):
        v = np.exp(-1j * theta * n) * reference
        return float(np.real(np.vdot(v, rho @ v)))

    thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
    best = thetas[int(np.argmax([fidelity(t) for t in thetas]))]
    theta, neg = _golden_section(lambda t: -fidelity(t), best - math.pi / 64, best + math.pi / 64)
    return theta % math.pi, -neg, fidelity


def test_aligned_fidelity_matches_per_angle_formula():
    # The Fourier form gives the fidelity of the per-angle formula to
    # round-off.  Near the maximum F is flat to round-off over about
    # 1e-8 in theta, so the two golden-section searches may stop that far
    # apart; each stop is as good a maximizer as the other.
    basis = CavityBasis(20)
    rng = np.random.default_rng(12)
    g = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    random_density = g @ g.conj().T / np.trace(g @ g.conj().T).real
    rotated_cat = np.exp(-1j * 2.2 * np.arange(20)) * cat_state(ALPHA, basis)
    for state in (random_density, np.outer(rotated_cat, rotated_cat.conj())):
        theta, fid = aligned_cat_fidelity(state, ALPHA, basis)
        ref_theta, ref_fid, per_angle = per_angle_aligned_fidelity(state, ALPHA, basis)
        assert abs(fid - ref_fid) <= 1e-12
        assert abs(per_angle(theta) - ref_fid) <= 1e-12
        assert abs(theta - ref_theta) <= 1e-6


@pytest.mark.slow
def test_simulated_grid_matches_exact_when_noiseless():
    basis = CavityBasis(20)
    cat = cat_state(ALPHA, basis)
    betas = np.array([0.0, 0.5, 1j * 0.555, 1.0 + 0.5j])
    exact = wigner_scan(cat, betas)
    rng = trajectory_rng(13, 4, 0)
    shots = 400
    sim = simulate_tomography(joint_state("g", cat), betas, QUIET, shots, rng, basis)
    for meas, truth in zip(sim.values, exact.values):
        parity = truth * math.pi / 2
        sigma = (2 / math.pi) * math.sqrt(max(1e-12, 1 - parity**2) / shots)
        assert abs(meas - truth) < 4.5 * sigma + 1e-9
    assert np.all(sim.shots == shots)


@pytest.mark.slow
def test_vacuum_contrast_with_defaults():
    basis = CavityBasis(20)
    rng = trajectory_rng(29, 4, 1)
    contrast = vacuum_contrast(SystemParams(), 2000, rng, basis)
    assert 0.66 < contrast < 0.80


def test_simulate_tomography_validates_shots():
    basis = CavityBasis(8)
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    with pytest.raises(ValueError):
        simulate_tomography(joint_state("g", vac), [0.0], QUIET, 0, None, basis)
