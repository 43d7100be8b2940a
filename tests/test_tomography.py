"""Wigner grids, reconstruction, and aligned fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsim import analytics, protocols, tomography
from catsim.dynamics import trajectory_rng
from catsim.hilbert import (
    STATE_ATOL,
    CavityBasis,
    cat_state,
    fock_state,
    joint_state,
    state_fidelity,
)
from catsim.model import SystemParams
from catsim.tomography import (
    WignerGrid,
    _coordinates,
    _from_coordinates,
    _golden_section,
    _observable_matrix,
    _project_density,
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
    one_nan = cat.copy()
    one_nan[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        wigner_scan(one_nan, [0.0])
    with pytest.raises(ValueError, match="norm"):
        wigner_scan((1.0 + 2.0 * STATE_ATOL) * cat, [0.0])
    assert len(wigner_scan((1.0 + 0.5 * STATE_ATOL) * cat, [0.0]).values) == 1
    rho = np.outer(cat, cat.conj())
    with pytest.raises(ValueError, match="trace"):
        wigner_scan(0.5 * rho, [0.0])
    with pytest.raises(ValueError, match="hermitian"):
        wigner_scan(rho + np.triu(np.ones((8, 8)), 1), [0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        wigner_scan(np.diag([1.5, -0.5] + [0.0] * 6).astype(complex), [0.0])
    # The aligned fidelity checks its state the same way.
    with pytest.raises(ValueError, match="norm"):
        aligned_cat_fidelity(3.0 * cat, ALPHA, basis)
    with pytest.raises(ValueError, match="non-finite"):
        aligned_cat_fidelity(np.full(8, np.nan, dtype=complex), ALPHA, basis)


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


def noisy_cat_grid(dim=10):
    """The dim-10 cat on the 21x21 grid with 10% multiplicative noise."""
    grid = wigner_scan(cat_state(ALPHA, CavityBasis(dim)), square_grid(21, 2.5))
    rng = np.random.default_rng(11)
    return WignerGrid(
        betas=grid.betas,
        values=grid.values * (1.0 + 0.1 * rng.standard_normal(len(grid))),
        shots=grid.shots,
    )


def rank_two_grid(dim=6):
    rng = np.random.default_rng(11)
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    rho = 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())
    return wigner_scan(rho, square_grid(21, 2.5))


def observable_stack(betas, dim):
    """The (K, dim, dim) stack of (2/pi) D(beta) P D(beta)+, one matrix at a time."""
    basis = CavityBasis(dim)
    stack = []
    for beta in betas:
        u = basis.displacement(-beta)
        stack.append((2 / math.pi) * u.conj().T @ basis.parity() @ u)
    return np.array(stack)


def round_off_floor(grid, dim):
    return len(grid) * (dim * dim * np.finfo(float).eps * 2 / math.pi) ** 2


def reference_projected_gradient(grid, dim, max_iterations=2000, tolerance=1e-8):
    """The plain projected-gradient fit on the complex observable stack:
    a trial step that halves up to 40 times until the residual drops, then
    doubles; stop on a relative gain below ``tolerance``.  Returns the
    final residual."""
    obs = observable_stack(grid.betas, dim)
    target = np.asarray(grid.values, dtype=float)

    def expectations(rho):
        return np.real(np.einsum("kij,ji->k", obs, rho))

    rho = np.eye(dim, dtype=complex) / dim
    predicted = expectations(rho)
    residual = float(np.sum((predicted - target) ** 2))
    step = 1.0 / (2.0 * float(np.sum(np.abs(obs) ** 2)) / len(grid) + 1e-30)
    for _ in range(max_iterations):
        grad = 2.0 * np.einsum("k,kij->ij", predicted - target, obs)
        trial_step = step
        for _ in range(40):
            candidate = _project_density(rho - trial_step * grad)
            cand_pred = expectations(candidate)
            cand_res = float(np.sum((cand_pred - target) ** 2))
            if cand_res < residual:
                break
            trial_step *= 0.5
        else:
            break
        gain = (residual - cand_res) / max(residual, 1e-300)
        rho, predicted, residual = candidate, cand_pred, cand_res
        step = trial_step * 2.0
        if gain < tolerance:
            break
    return residual


@pytest.mark.parametrize("dim", [1, 2, 6, 20, 50])
def test_observable_matrix_matches_the_complex_stack(dim):
    # A x is Re Tr[O_k rho] and 2 A^T r is the gradient 2 sum_k r_k O_k.
    # The 21 x 21 grid spans several blocks; beta = 0 and the negative
    # real axis are listed again on their own.
    rng = np.random.default_rng(dim)
    betas = np.concatenate([square_grid(21, 2.5), [0.0, -0.7, -2.0]])
    obs = observable_stack(betas, dim)
    matrix = _observable_matrix(betas, dim)
    assert matrix.shape == (len(betas), dim * dim) and matrix.flags.c_contiguous
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g + g.conj().T
    x = _coordinates(rho)
    assert np.abs(_from_coordinates(x, dim) - rho).max() <= 1e-14
    expected = np.real(np.einsum("kij,ji->k", obs, rho))
    assert np.abs(matrix @ x - expected).max() <= 1e-12
    r = rng.normal(size=len(betas))
    gradient = _from_coordinates(2.0 * matrix.T @ r, dim)
    assert np.abs(gradient - 2.0 * np.einsum("k,kij->ij", r, obs)).max() <= 1e-12
    assert _observable_matrix(np.zeros(0, dtype=complex), dim).shape == (0, dim * dim)


def full_spectrum_clip(mat):
    """The projection onto the density matrices as the full spectrum's clip:
    symmetrize, sort the eigenvalues, shift and clip every one of them."""
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    desc = np.sort(vals)[::-1]
    cumulative = np.cumsum(desc) - 1.0
    support = desc - cumulative / np.arange(1, len(desc) + 1) > 0
    k = int(np.nonzero(support)[0][-1]) + 1
    clipped = np.clip(vals - cumulative[k - 1] / k, 0.0, None)
    return (vecs * clipped) @ vecs.conj().T


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["generic", "degenerate", "rank_deficient"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coordinates_round_trip_and_the_projection_clips_the_spectrum(dim, kind, seed):
    # Exactly Hermitian inputs, as the fit builds them: generic, with a
    # repeated eigenvalue, or of rank at most two (the rest of the
    # spectrum at zero, so the projection's support is that small).
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "generic":
        mat = g + g.conj().T
    else:
        vecs = np.linalg.qr(g)[0]
        vals = rng.normal(size=dim)
        if kind == "degenerate":
            vals[: (dim + 1) // 2] = vals[0]
        else:
            vals[2:] = 0.0
        mat = (vecs * vals) @ vecs.conj().T
        mat = 0.5 * (mat + mat.conj().T)
    x = _coordinates(mat)
    assert np.abs(_from_coordinates(x, dim) - mat).max() <= 1e-14
    assert np.abs(_coordinates(_from_coordinates(x, dim)) - x).max() <= 1e-14
    assert np.abs(_project_density(mat) - full_spectrum_clip(mat)).max() <= 1e-14


@pytest.mark.filterwarnings("ignore:displacements beyond", "ignore:coherent state truncation")
@pytest.mark.parametrize("dim", [1, 2, 6, 20, 50])
def test_wigner_scan_matches_the_stacked_product(dim):
    # A density matrix is scanned through the observable blocks and a unit
    # vector in the quadrature eigenbasis; both match the stacked product,
    # and the vectors also match the explicit observable stack and the
    # scan of their outer product.  beta = 0 and the negative real axis
    # are listed again on their own.
    rng = np.random.default_rng(dim)
    betas = np.concatenate([square_grid(21, 2.5), [0.0, -0.7, -2.0]])
    matrix = _observable_matrix(betas, dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    stacked = matrix @ _coordinates(rho)
    assert np.abs(wigner_scan(rho, betas).values - stacked).max() <= 1e-13
    assert len(wigner_scan(rho, []).values) == 0
    obs = observable_stack(betas, dim)
    basis = CavityBasis(dim)
    random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for psi in (cat_state(min(ALPHA, 0.5 * math.sqrt(dim)), basis),
                random / np.linalg.norm(random), fock_state(dim - 1, basis)):
        rho = np.outer(psi, psi.conj())
        values = wigner_scan(psi, betas).values
        assert np.abs(values - matrix @ _coordinates(rho)).max() <= 1e-13
        assert np.abs(values - np.real(np.einsum("kij,ji->k", obs, rho))).max() <= 1e-13
        assert np.abs(values - wigner_scan(rho, betas).values).max() <= 1e-13
    assert len(wigner_scan(psi, []).values) == 0


def test_wigner_scan_rejects_non_finite_displacements():
    vac = fock_state(0, CavityBasis(6))
    with pytest.raises(ValueError, match="finite"):
        wigner_scan(vac, [np.nan, 0.3, np.inf])
    with pytest.raises(ValueError, match="finite"):
        wigner_scan(vac, [complex(0.1, np.inf)])


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_fits_no_worse_than_the_plain_projected_gradient():
    noisy = noisy_cat_grid()
    reference = reference_projected_gradient(noisy, 10)
    assert mle_reconstruct(noisy, 10).residual <= reference
    # On an exact grid both fits reach round-off; the accelerated fit stops
    # at the floor, where the reference runs on.
    mixed = rank_two_grid()
    reference = reference_projected_gradient(mixed, 6)
    result = mle_reconstruct(mixed, 6)
    assert result.stop == "floor"
    assert result.residual <= max(reference, round_off_floor(mixed, 6))


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_stop_reasons():
    dim = 12
    grid = wigner_scan(cat_state(ALPHA, CavityBasis(dim)), square_grid(21, 2.5))
    exact = mle_reconstruct(grid, dim)
    assert exact.stop == "floor"
    assert exact.residual <= round_off_floor(grid, dim)
    assert exact.iterations < 302
    noisy = noisy_cat_grid()
    fit = mle_reconstruct(noisy, 10)
    assert fit.stop == "tolerance"
    # The Frank-Wolfe gap certifies the residual within tolerance of the optimum.
    best = mle_reconstruct(noisy, 10, tolerance=1e-14).residual
    assert fit.residual - best <= 1e-8 * best
    capped = mle_reconstruct(grid, dim, max_iterations=3)
    assert capped.stop == "cap" and capped.iterations == 3


@pytest.mark.filterwarnings("ignore:displacements beyond")
def test_mle_rejects_invalid_inputs():
    grid = wigner_scan(cat_state(ALPHA, CavityBasis(8)), square_grid(5, 1.5))
    with pytest.raises(ValueError, match="dim"):
        mle_reconstruct(grid, 0)
    empty = WignerGrid(np.zeros(0, dtype=complex), np.zeros(0), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="no points"):
        mle_reconstruct(empty, 4)
    values = grid.values.copy()
    values[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        mle_reconstruct(WignerGrid(grid.betas, values, grid.shots), 4)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_iterations"):
            mle_reconstruct(grid, 4, max_iterations=cap)


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


def test_aligned_fidelity_of_a_flat_overlap_takes_the_upper_end_of_its_bracket():
    # An odd cat has no overlap with the even cat at any angle, and a Fock
    # state the same overlap at every angle; F is flat, so the angle is a
    # convention: the upper end of the bracket around the first scan angle,
    # pi/64, where the golden-section search this replaced also ended
    # (catsim parity-once reports it after an injected cavity loss).
    basis = CavityBasis(20)
    for state, fid in ((cat_state(ALPHA, basis, "odd"), 0.0), (fock_state(2, basis), None)):
        theta, got = aligned_cat_fidelity(state, ALPHA, basis)
        assert theta == pytest.approx(math.pi / 64, abs=1e-9)
        if fid is not None:
            assert got == pytest.approx(fid, abs=1e-15)


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


def test_batched_alignment_matches_per_angle_formula_on_every_decay_round():
    # The ensembles of every round of a seeded decay run, aligned at once
    # by _aligned, against the per-angle formula one round at a time; the
    # decay curve's points are the per-angle fidelities.
    params, basis = SystemParams(), CavityBasis(20)
    reference = cat_state(ALPHA, basis)
    trials, rounds = 30, 40
    streams = protocols._trial_streams(2, "gf", trials)
    reported, _, cavities = protocols._records(
        params, "gf", rounds, basis, reference, "effective", streams
    )
    filt = protocols.ParityFilter.for_protocol(params, "gf", ALPHA)
    rhos = []
    for k in range(rounds):
        filt.update(reported[:, k])
        ensemble = cavities[filt.no_flip_posterior >= analytics.POSTERIOR_THRESHOLD, k]
        assert len(ensemble) >= 2
        rhos.append(ensemble.T @ ensemble.conj() / len(ensemble))
    theta, fidelity = tomography._aligned(np.array(rhos), reference)
    curve, _ = analytics.trajectory_decay_curve(
        params, "gf", rounds, trials=trials, seed=2, basis=basis
    )
    assert len(curve) == rounds
    for k, rho in enumerate(rhos):
        ref_theta, ref_fid, _ = per_angle_aligned_fidelity(rho, ALPHA, basis)
        gap = abs(theta[k] - ref_theta)
        assert min(gap, math.pi - gap) <= 1e-6
        assert abs(fidelity[k] - ref_fid) <= 1e-12
        assert abs(curve.fidelity[k] - ref_fid) <= 1e-12


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


def test_simulate_tomography_displaces_like_the_single_point_operator(monkeypatch):
    basis = CavityBasis(12)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4 * basis.dim) + 1j * rng.normal(size=4 * basis.dim)
    psi /= np.linalg.norm(psi)
    betas = np.concatenate([square_grid(7, 1.5), [0.0, -0.7]])  # two blocks
    captured = []

    def capture(displaced, shots, params, basis, rng):
        captured.append(displaced)
        return np.zeros((len(displaced), shots), dtype=int)

    monkeypatch.setattr(tomography, "_shot_outcomes", capture)
    simulate_tomography(psi, betas, QUIET, 1, None, basis)
    block = psi.reshape(4, basis.dim)
    expected = np.array([block @ basis.displacement(-beta).T for beta in betas])
    assert np.abs(captured[0] - expected).max() <= 1e-13


def test_seeded_tomography_shots_are_pinned():
    # Shot totals of a seeded run; a change to the displaced rows beyond
    # round-off, or to how the shots draw from rng, moves them.
    basis = CavityBasis(20)
    cat = joint_state("g", cat_state(ALPHA, basis))
    betas = [0.0, 0.5, 1j * 0.555, -1.0 + 0.5j]
    grid = simulate_tomography(cat, betas, SystemParams(), 50, trajectory_rng(17, 4, 0), basis)
    totals = np.rint(grid.values * 50 / (2 / math.pi)).astype(int)
    assert totals.tolist() == [42, 24, -20, 2]
    contrast = vacuum_contrast(SystemParams(), 100, trajectory_rng(19, 4, 1), basis)
    assert round(contrast * 100) == 88


def test_simulate_tomography_rejects_non_finite_displacements():
    basis = CavityBasis(8)
    vac = joint_state("g", fock_state(0, basis))
    with pytest.raises(ValueError, match="finite"):
        simulate_tomography(vac, [0.0, np.nan], QUIET, 10, None, basis)
    with pytest.raises(ValueError, match="finite"):
        simulate_tomography(vac, [np.inf], QUIET, 10, None, basis)


def test_simulate_tomography_validates_shots():
    basis = CavityBasis(8)
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    with pytest.raises(ValueError):
        simulate_tomography(joint_state("g", vac), [0.0], QUIET, 0, None, basis)
