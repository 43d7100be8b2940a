import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.linalg import expm

from catsim import hilbert
from catsim.hilbert import (
    AncillaBasis,
    CavityBasis,
    cat_overlap,
    cat_state,
    coherent_state,
    fock_state,
    joint_index,
    joint_state,
    lift_ancilla,
    lift_cavity,
    reduce_to_cavity,
    state_fidelity,
    validate_density,
    validate_state,
)
from catsim.tomography import square_grid, wigner_scan

ALPHA = math.sqrt(2.0)

# Independent oracle: even-cat Fock weights P(n) = 2 e^{-2} 2^n / (n! (1 + e^-4))
# and derived moments, computed from the coherent-superposition definition.
CAT_MEAN_PHOTON = 2.0 * math.tanh(2.0)  # alpha^2 tanh(alpha^2) = 1.92805516...
CAT_PURITY_FLOOR = 0.3852155733436824  # sum_n P(n)^2


def test_commutator_on_retained_levels(basis20):
    a = basis20.annihilation()
    comm = a @ a.conj().T - a.conj().T @ a
    d = basis20.dim
    assert np.allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-12)
    # the last diagonal entry absorbs the truncation
    assert comm[d - 1, d - 1].real == pytest.approx(1 - d)


def test_parity_conjugation_flips_annihilation(basis20):
    a = basis20.annihilation()
    par = basis20.parity()
    assert np.array_equal(par @ a @ par, -a)
    assert np.array_equal(par @ par, np.eye(basis20.dim))


def test_number_operator_diagonal(basis20):
    n_op = basis20.number()
    assert np.array_equal(np.diagonal(n_op).real, np.arange(20.0))


def test_coherent_state_moments(basis20):
    psi = coherent_state(ALPHA, basis20)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    n_mean = float(np.real(np.vdot(psi, basis20.number() @ psi)))
    assert n_mean == pytest.approx(2.0, abs=1e-9)


def test_coherent_state_overlap_formula(basis20):
    plus = coherent_state(ALPHA, basis20)
    minus = coherent_state(-ALPHA, basis20)
    # <alpha|-alpha> = exp(-2 |alpha|^2)
    assert np.vdot(plus, minus) == pytest.approx(math.exp(-4.0), abs=1e-10)


def test_coherent_state_rejects_large_amplitude():
    with pytest.raises(ValueError, match="dim/3"):
        coherent_state(math.sqrt(7.0), CavityBasis(dim=20))
    # A non-finite amplitude is refused, not returned as a NaN vector.
    for alpha in (math.nan, math.inf, complex(1.0, math.nan)):
        for make in (coherent_state, cat_state):
            with pytest.raises(ValueError, match="finite"):
                make(alpha, CavityBasis(dim=20))


def test_coherent_state_allows_round_off_at_the_bound():
    # sqrt(2)**2 is 2.0000000000000004, and dim/3 is exactly 2.
    with pytest.warns(UserWarning, match="truncation deficit"):
        vec = coherent_state(math.sqrt(2.0), CavityBasis(dim=6))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="dim/3"):
        coherent_state(1.001 * math.sqrt(2.0), CavityBasis(dim=6))


def test_coherent_state_warns_on_truncation_deficit():
    with pytest.warns(UserWarning, match="truncation deficit"):
        coherent_state(math.sqrt(6.5), CavityBasis(dim=20))


def test_cat_states_are_parity_eigenstates(basis20, even_cat, odd_cat):
    par = basis20.parity()
    assert np.real(np.vdot(even_cat, par @ even_cat)) == pytest.approx(1.0, abs=1e-9)
    assert np.real(np.vdot(odd_cat, par @ odd_cat)) == pytest.approx(-1.0, abs=1e-9)
    assert np.max(np.abs(even_cat[1::2])) < 1e-12
    assert np.max(np.abs(odd_cat[0::2])) < 1e-12


def test_cat_mean_photon_number(basis20, even_cat):
    n_mean = float(np.real(np.vdot(even_cat, basis20.number() @ even_cat)))
    assert n_mean == pytest.approx(CAT_MEAN_PHOTON, abs=1e-9)


def test_cat_fock_weight_purity_floor(even_cat):
    weights = np.abs(even_cat) ** 2
    assert float(np.sum(weights**2)) == pytest.approx(CAT_PURITY_FLOOR, abs=1e-9)


def test_cat_state_rejects_unknown_parity(basis20):
    with pytest.raises(ValueError, match="parity"):
        cat_state(ALPHA, basis20, parity="mixed")


def test_cat_overlap_against_fock_rotation():
    basis = CavityBasis(dim=40)
    n_diag = np.arange(basis.dim)
    rng = np.random.default_rng(7)
    for _ in range(100):
        alpha = rng.uniform(0.3, 2.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cat = cat_state(alpha, basis)
        rotated = np.exp(1j * theta * n_diag) * cat
        oracle = abs(np.vdot(cat, rotated)) ** 2
        assert cat_overlap(theta, alpha) == pytest.approx(oracle, abs=1e-8)


def test_cat_overlap_endpoints_and_period():
    assert cat_overlap(0.0) == pytest.approx(1.0, abs=1e-12)
    assert cat_overlap(math.pi) == pytest.approx(1.0, abs=1e-12)
    thetas = np.linspace(0.1, 3.0, 17)
    assert np.allclose(cat_overlap(thetas), cat_overlap(-thetas), atol=1e-12)
    assert np.allclose(cat_overlap(thetas), cat_overlap(thetas + math.pi), atol=1e-12)


def test_cat_overlap_circle_average_is_purity_floor():
    # Parseval: the full-circle average of the overlap equals sum_n P(n)^2.
    thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
    avg = trapezoid(cat_overlap(thetas), thetas) / (2.0 * math.pi)
    assert avg == pytest.approx(CAT_PURITY_FLOOR, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_cat_overlap_bounded(theta):
    value = cat_overlap(theta)
    assert -1e-12 <= value <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
)
def test_coherent_state_normalized(alpha):
    basis = CavityBasis(dim=24)
    psi = coherent_state(alpha, basis)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_displacement_is_unitary():
    basis = CavityBasis(dim=28)
    disp = basis.displacement(1.1 - 2.0j)
    assert np.max(np.abs(disp.conj().T @ disp - np.eye(basis.dim))) < 1e-8


def test_displacement_generates_coherent_state():
    basis = CavityBasis(dim=30)
    beta = 1.2 + 0.3j
    displaced = basis.displacement(beta) @ fock_state(0, basis)
    assert np.linalg.norm(displaced - coherent_state(beta, basis)) < 1e-8


def test_displacement_inverse_composition():
    basis = CavityBasis(dim=24)
    beta = 0.7 - 1.1j
    both = basis.displacement(beta) @ basis.displacement(-beta)
    assert np.max(np.abs(both - np.eye(basis.dim))) < 1e-8


@pytest.mark.parametrize("dim", [6, 20, 50])
def test_displacement_matches_truncated_expm(dim):
    # Oracle: expm of the truncated generator, on the default tomography
    # grid (whose centre is beta = 0).
    basis = CavityBasis(dim)
    a = basis.annihilation()
    betas = square_grid()
    assert 0.0 in betas
    for beta in betas:
        oracle = expm(beta * a.conj().T - np.conj(beta) * a)
        assert np.max(np.abs(basis.displacement(beta) - oracle)) <= 1e-13


def test_wigner_vacuum_values():
    basis = CavityBasis(dim=20)
    vac = fock_state(0, basis)
    values = wigner_scan(vac, [0.0, 0.5]).values
    assert values[0] == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert values[1] == pytest.approx(2.0 / math.pi * math.exp(-0.5), abs=1e-10)


def test_wigner_cat_interference_fringe(even_cat):
    # Fringe minimum on the imaginary axis where cos(4 alpha y) = -1.
    y = math.pi / (4.0 * ALPHA)
    assert wigner_scan(even_cat, [1j * y]).values[0] < -0.25


def test_wigner_warns_outside_trusted_region(even_cat):
    with pytest.warns(UserWarning, match="trusted region"):
        wigner_scan(even_cat, [3.0])


def test_wigner_integrates_to_one():
    # Keep every sampling point inside the trusted disk |beta|^2 <= dim/4;
    # outside it the displaced state is truncation garbage.
    basis = CavityBasis(dim=48)
    vac = fock_state(0, basis)
    step = 0.2
    xs = np.arange(-2.4, 2.4 + 1e-9, step)
    betas = [x + 1j * y for x in xs for y in xs]
    total = np.sum(wigner_scan(vac, betas).values) * step * step
    assert total == pytest.approx(1.0, abs=1e-4)


def test_joint_index_layout():
    assert joint_index("g", 0, 20) == 0
    assert joint_index("e", 3, 20) == 23
    assert joint_index(3, 19, 20) == 79
    with pytest.raises(ValueError):
        joint_index("g", 20, 20)
    with pytest.raises(KeyError):
        AncillaBasis().index("x")


def test_joint_state_and_reductions(basis20, even_cat):
    psi = joint_state("e", even_cat)
    assert psi.shape == (80,)
    assert abs(psi[joint_index("e", 0, 20)] - even_cat[0]) < 1e-12
    rho_c = reduce_to_cavity(psi, 20)
    assert np.allclose(rho_c, np.outer(even_cat, even_cat.conj()), atol=1e-12)


def test_lift_operators_commute_across_subsystems(basis20):
    anc = AncillaBasis()
    a_joint = lift_cavity(basis20.annihilation())
    proj_e = lift_ancilla(anc.projector("e"), basis20.dim)
    assert np.allclose(a_joint @ proj_e, proj_e @ a_joint, atol=1e-12)


def test_state_fidelity_cases(basis20, even_cat, odd_cat):
    assert state_fidelity(even_cat, even_cat) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(even_cat, odd_cat) == pytest.approx(0.0, abs=1e-12)
    rho = 0.25 * np.outer(even_cat, even_cat.conj()) + 0.75 * np.outer(
        odd_cat, odd_cat.conj()
    )
    assert state_fidelity(even_cat, rho) == pytest.approx(0.25, abs=1e-12)
    assert state_fidelity(rho, even_cat) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        state_fidelity(rho, rho)


def test_validators_accept_and_reject(basis20, even_cat):
    validate_state(even_cat)
    # A strided column of a complex array is a state like any other.
    validate_state(np.stack([even_cat, even_cat], axis=1)[:, 0])
    with pytest.raises(ValueError):
        validate_state(2.0 * even_cat)
    with pytest.raises(ValueError):
        validate_state(np.outer(even_cat, even_cat))
    rho = np.outer(even_cat, even_cat.conj())
    validate_density(rho)
    with pytest.raises(ValueError):
        validate_density(1.5 * rho)
    bad = rho.copy()
    bad[0, 1] += 1.0
    with pytest.raises(ValueError):
        validate_density(bad)
