import json
import math

import numpy as np
import pytest

from catsim.hilbert import AncillaBasis, CavityBasis, cat_state, joint_index, joint_state
from catsim.model import (
    CollapseChannel,
    DriveSpec,
    HamiltonianSpec,
    SystemParams,
    build_hamiltonian,
    cancellation_detuning,
    collapse_channels,
    error_operator,
    induced_chi,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def params():
    return SystemParams()


def test_default_parameters_frozen(params):
    assert params.chi_e == -93.0e3
    assert params.chi_f == -236.0e3
    # h-level pull follows the ladder estimate 3|chi_e| + |chi_f|
    assert params.chi_h == -(3 * 93.0e3 + 236.0e3)
    assert params.kerr == -10.0
    assert params.T1_cavity == 1.07e-3
    assert params.T1_eg == 25.0e-6
    assert params.T1_fe == 23.0e-6
    assert (params.Tphi_g, params.Tphi_e, params.Tphi_f) == (81e-6, 17e-6, 12e-6)
    assert params.n_th == 0.025
    assert params.omega_sb == 1.7e6
    assert params.t_ro == 1.2e-6
    assert params.drive_dephasing_factor == 1.15


def test_assignment_matrix_row_stochastic(params):
    for row in params.assignment_error:
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="sum to 1"):
        SystemParams(assignment_error=((0.9, 0.2, 0.0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        SystemParams(assignment_error=((1.1, -0.1, 0.0), (0, 1, 0), (0, 0, 1)))


def test_invalid_scalars_rejected():
    with pytest.raises(ValueError):
        SystemParams(T1_eg=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_th=-0.1)


@pytest.mark.parametrize(
    "bad",
    [
        {"t_ro": "abc"},
        {"T1_eg": math.nan},
        {"chi_e": math.nan},
        {"kerr": math.inf},
        {"T1_eg": True},
        {"n_th": None},
        {"assignment_error": 5},
        {"assignment_error": ((1, 0, 0), (0, 1, 0))},
        {"assignment_error": ((1, 0, 0), (0, 1, 0), (0, 0, "1"))},
        {"assignment_error": ((1, 0, 0), (0, 1, 0), (0, 0, True))},
        {"assignment_error": ((1, 0, 0), (0, 1, 0), (0, 0, math.nan))},
    ],
)
def test_non_numeric_and_non_finite_values_rejected(bad):
    # Rejected, not converted: a NaN rate would drop its channel and a
    # boolean would read as 1 s.
    with pytest.raises(ValueError):
        SystemParams(**bad)


@pytest.mark.parametrize(
    "omega, detuning",
    [(math.inf, 1e6), (math.nan, 1e6), (1e6, math.nan), (1e6, -math.inf),
     ("1e6", 1e6), (1e6, None)],
)
def test_drive_spec_rejects_non_finite_values(omega, detuning):
    # A NaN detuning would give NaN chevron populations and Stark shifts.
    with pytest.raises(ValueError, match="finite numbers"):
        DriveSpec(omega, detuning)


def test_from_json_roundtrip(tmp_path, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params.to_dict()))
    assert SystemParams.from_json(path) == params


def test_from_json_partial_override(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"chi_e": -90e3, "n_th": 0.03}))
    loaded = SystemParams.from_json(path)
    assert loaded.chi_e == -90e3
    assert loaded.n_th == 0.03
    assert loaded.chi_f == -236e3


def test_from_json_unknown_key_is_error(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"chi_ge": -93e3}))
    with pytest.raises(ValueError, match="unknown parameter"):
        SystemParams.from_json(path)


def test_induced_chi_exact_value():
    # sqrt(6.4^2 + 1.7^2) = 6.62193 MHz; half the dressed gap change.
    shift = induced_chi(1.7e6, -6.4e6, 1)
    assert shift == pytest.approx(-110.966e3, rel=1e-4)
    # first-order value for comparison
    assert 1.7e6**2 / (4 * -6.4e6) == pytest.approx(-112.891e3, rel=1e-4)


def test_induced_chi_limits_and_symmetry():
    omega = 1.7e6
    far = 50 * omega
    assert induced_chi(omega, far, 1) == pytest.approx(
        omega**2 / (4 * far), rel=3e-3
    )
    assert induced_chi(omega, -far, 2) == -induced_chi(omega, far, 2)
    assert induced_chi(omega, 5e6, 0) == 0.0
    # sublinear in photon number
    s1 = induced_chi(omega, 6e6, 1)
    s2 = induced_chi(omega, 6e6, 2)
    assert s2 < 2 * s1
    with pytest.raises(ValueError):
        induced_chi(omega, 0.0, 1)


def test_cancellation_detuning_frozen_values(params):
    # |Delta| = (Omega^2 - 4 c^2) / (4 |c|) with c the target shift
    d_eg = cancellation_detuning(params, "zero_chi_eg")
    assert d_eg == pytest.approx(7.6758172e6, rel=1e-6)
    d_fe = cancellation_detuning(params, "zero_chi_fe")
    assert d_fe == pytest.approx(-4.9094476e6, rel=1e-6)


def test_cancellation_detuning_inverts_induced_chi(params):
    d_eg = cancellation_detuning(params, "zero_chi_eg")
    assert params.chi_e + induced_chi(params.omega_sb, d_eg, 1) == pytest.approx(
        0.0, abs=1e-6
    )
    d_fe = cancellation_detuning(params, "zero_chi_fe")
    assert params.chi_e + induced_chi(params.omega_sb, d_fe, 1) == pytest.approx(
        params.chi_f, abs=1e-6
    )
    with pytest.raises(ValueError):
        cancellation_detuning(params, "zero_chi_fg")
    with pytest.raises(ValueError):
        cancellation_detuning(SystemParams(omega_sb=100e3), "zero_chi_fe")


def test_static_hamiltonian_entries(params):
    basis = CavityBasis(dim=8)
    ham = build_hamiltonian(params, basis)
    assert ham.is_static
    diag = ham.diagonal
    assert diag.dtype == float and diag is ham.static_diagonal
    # (e, 2): chi_e * 2 + kerr/2 * 2 * 1
    idx = joint_index("e", 2, basis.dim)
    assert diag[idx] == pytest.approx(TWO_PI * (2 * -93e3 + -10.0), rel=1e-12)
    # (g, 3): kerr only
    idx = joint_index("g", 3, basis.dim)
    assert diag[idx] == pytest.approx(TWO_PI * (0.5 * -10.0 * 3 * 2), rel=1e-12)
    # (h, 1): chi_h
    idx = joint_index("h", 1, basis.dim)
    assert diag[idx] == pytest.approx(TWO_PI * -515e3, rel=1e-12)


def test_effective_mode_at_cancellation(params):
    basis = CavityBasis(dim=10)
    drive = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    ham = build_hamiltonian(params, basis, mode="effective", drive=drive)
    diag = ham.diagonal
    dim = basis.dim
    # dressed e pull equals the f pull for every photon number
    assert np.allclose(diag[dim : 2 * dim], diag[2 * dim : 3 * dim], atol=1e-4)
    # h level picks up the opposite shift, including the vacuum term
    shift = induced_chi(drive.omega, drive.detuning, 1)
    idx = joint_index("h", 0, dim)
    assert diag[idx] == pytest.approx(TWO_PI * -shift, rel=1e-9)


def test_effective_mode_guards(params):
    basis = CavityBasis(dim=6)
    with pytest.raises(ValueError, match="requires a drive"):
        build_hamiltonian(params, basis, mode="effective")
    with pytest.raises(ValueError, match="time_dependent"):
        build_hamiltonian(
            params, basis, mode="effective", drive=DriveSpec(1.7e6, 0.5e6)
        )
    with pytest.raises(ValueError, match="unknown Hamiltonian mode"):
        build_hamiltonian(params, basis, mode="floquet")


def test_time_dependent_mode_coupling(params):
    basis = CavityBasis(dim=6)
    drive = DriveSpec(1.7e6, -5.0e6)
    ham = build_hamiltonian(params, basis, mode="time_dependent", drive=drive)
    assert not ham.is_static
    upper, lower, coupling, freq = ham.drive
    assert freq == -5.0e6
    # couples |h, n> to |e, n+1> with sqrt(n+1) scaling
    pair = list(zip(upper, lower)).index((joint_index("e", 2, basis.dim),
                                          joint_index("h", 1, basis.dim)))
    assert coupling[pair] == pytest.approx(TWO_PI * 0.5 * 1.7e6 * math.sqrt(2), rel=1e-12)
    assert len(upper) == len(lower) == np.count_nonzero(coupling) == basis.dim - 1
    # full matrix at t flips the phase as expected and stays hermitian
    h_t = ham.matrix(1.3e-7)
    assert np.allclose(h_t, h_t.conj().T, atol=1e-6)


def test_collapse_channels_rates_and_structure(params):
    basis = CavityBasis(dim=6)
    ordered = collapse_channels(params, basis)
    channels = {c.label: c for c in ordered}
    # Channel order decides which uniform draw picks which jump.
    assert [c.label for c in ordered] == [
        "cavity_loss",
        "relax_eg",
        "relax_fe",
        "dephase_g",
        "dephase_e",
        "dephase_f",
        "thermal_ge",
        "thermal_fh",
    ]
    # Each channel operator is the injectable error operator scaled by its rate.
    for chan in ordered:
        expected = math.sqrt(chan.rate) * error_operator(chan.label, basis)
        assert np.array_equal(chan.operator, expected)
    assert [c.label for c in collapse_channels(SystemParams(n_th=0.0), basis)][-1] == "dephase_f"
    assert channels["cavity_loss"].rate == pytest.approx(1 / 1.07e-3)
    assert channels["dephase_e"].rate == pytest.approx(2 / 17e-6)
    assert channels["thermal_ge"].rate == pytest.approx(1000.0)
    assert channels["thermal_fh"].rate == pytest.approx(3000.0)
    for chan in channels.values():
        ldl = chan.operator.conj().T @ chan.operator
        assert np.allclose(ldl, np.diag(np.diagonal(ldl)), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 20, 40])
@pytest.mark.parametrize("drive_on", [False, True])
def test_channels_built_from_their_factors_match_the_dense_operator(dim, drive_on):
    # collapse_channels builds each channel's rows from its ancilla and
    # cavity factors; they are the rows of the dense matrix byte for byte.
    basis = CavityBasis(dim)
    for chan in collapse_channels(SystemParams(), basis, drive_on=drive_on):
        dense = CollapseChannel(
            chan.label, math.sqrt(chan.rate) * error_operator(chan.label, basis), chan.rate
        )
        for name in ("source", "amplitude", "product_diag"):
            got, want = getattr(chan, name), getattr(dense, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), (chan.label, name)


def test_drive_on_scales_only_dephasing(params):
    basis = CavityBasis(dim=4)
    base = {c.label: c.rate for c in collapse_channels(params, basis)}
    driven = {c.label: c.rate for c in collapse_channels(params, basis, drive_on=True)}
    for label in base:
        if label.startswith("dephase"):
            assert driven[label] == pytest.approx(1.15 * base[label])
        else:
            assert driven[label] == base[label]


def test_error_operator_flips_and_jumps(params):
    basis = CavityBasis(dim=8)
    cat = cat_state(math.sqrt(2.0), basis)
    psi_f = joint_state("f", cat)
    flipped = error_operator("flip_gf", basis) @ psi_f
    assert np.allclose(flipped, -psi_f, atol=1e-12)
    psi_g = joint_state("g", cat)
    assert np.allclose(error_operator("flip_gf", basis) @ psi_g, psi_g, atol=1e-12)
    jumped = error_operator("relax_fe", basis) @ psi_f
    assert np.allclose(jumped, joint_state("e", cat), atol=1e-12)
    with pytest.raises(KeyError):
        error_operator("relax_hg", basis)


def test_dephasing_pair_rate_matches_lifetimes(params):
    # coherence between g and e decays at 1/Tphi_g + 1/Tphi_e under the
    # projector convention; frozen: 1/81us + 1/17us = 71170/s -> T2phi ~ 14 us
    rate = 0.5 * (
        collapse_channels(params)[3].rate + collapse_channels(params)[4].rate
    )
    assert rate == pytest.approx(1 / 81e-6 + 1 / 17e-6, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 20, 40])
@pytest.mark.parametrize("mode", ["off", "effective", "time_dependent"])
def test_matrix_is_the_dense_construction_bit_for_bit(params, mode, dim):
    # The lab-frame oracle steps matrix(t), so it must be the dense H(t)
    # built independently here: np.diag of the diagonal plus the np.kron
    # drive of transition("e", "h") and creation().
    basis = CavityBasis(dim)
    drive = DriveSpec(params.omega_sb, cancellation_detuning(params, "zero_chi_fe"))
    ham = build_hamiltonian(params, basis, mode=mode, drive=None if mode == "off" else drive)
    n = np.arange(dim, dtype=float)
    kerr = 0.5 * params.kerr * n * (n - 1.0)
    diag = np.concatenate([pull * n + kerr for pull in (0.0, params.chi_e, params.chi_f,
                                                        params.chi_h)])
    if mode == "effective":
        shift = induced_chi(drive.omega, drive.detuning, 1)
        diag[dim: 2 * dim] += shift * n
        diag[3 * dim:] += -shift * (n + 1.0)
    static = np.diag((TWO_PI * diag).astype(complex))
    ladder = AncillaBasis().transition("e", "h")
    op = np.kron(TWO_PI * 0.5 * drive.omega * ladder, basis.creation())
    for t in (0.0, 1.3e-7, 2.9e-6):
        expected = np.array(static, dtype=complex)
        if mode == "time_dependent":
            phase = np.exp(2j * math.pi * drive.detuning * t)
            expected += op * phase + op.conj().T * np.conjugate(phase)
        assert ham.matrix(t).tobytes() == expected.tobytes()


def test_constructors_refuse_what_the_engines_cannot_run():
    # Each refusal happens when the structure is built, not when it runs.
    none = np.zeros(0, dtype=int)
    for diagonal, drive in (
        ([np.nan, 0.0], None),
        ([0.0, np.inf], None),
        ([0.0, 0.0], ([0], [1], [np.nan], 1e6)),
        ([0.0, 0.0], ([0], [1], [1e6], np.nan)),
        ([0.0, 0.0], (none, none, none, np.inf)),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            HamiltonianSpec(diagonal, drive)
    for upper, lower in (([0, 0], [1, 2]), ([0, 1], [1, 2]), ([0], [0])):
        with pytest.raises(ValueError, match="disjoint pairs"):
            HamiltonianSpec(np.zeros(3), (upper, lower, [1e6] * len(upper), 1e6))
    # An index past the end failed later, in the engine, and a negative
    # one wrapped round to the end.
    for upper, lower in (([0], [3]), ([7], [1]), ([-1], [1]), ([0, 1], [2, -3])):
        with pytest.raises(ValueError, match=r"drive indices must lie in \[0, 3\)"):
            HamiltonianSpec(np.zeros(3), (upper, lower, [1e6] * len(upper), 1e6))
    for op in ([[1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [1.0, 1e-300]]):
        with pytest.raises(ValueError, match="'two' has more than one nonzero entry in a row"):
            CollapseChannel("two", op, 1.0)
    for op in ([[0.0, np.nan], [0.0, 0.0]], [[complex(0.0, -np.inf), 0.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="'bad' has a non-finite entry"):
            CollapseChannel("bad", op, 1.0)
