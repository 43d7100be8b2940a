import json
import math
import os
import subprocess
import sys

import pytest

import catsim
import catsim.cli as cli


def run_json(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli.run(argv + ["--out", str(out), "--format", "json"])
    assert rc == 0
    return json.loads(out.read_text())


def test_missing_params_file_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = cli.run(["error-budget", "--params", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "parameter file" in capsys.readouterr().err


def test_unknown_parameter_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"chi_q": 5}')
    rc = cli.run(["error-budget", "--params", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"t_ro": "abc"}',
        '{"assignment_error": 5}',
        '{"T1_eg": NaN}',
        '{"T1_eg": true}',
        '{"chi_e": NaN}',
    ],
)
def test_non_numeric_or_non_finite_parameter_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "x.json"
    argv = ["parity-decay", "--params", str(bad), "--trajectories", "20", "--n-max", "6"]
    rc = cli.run(argv + ["--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "bad parameter file" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["prep-cat", "parity-decay", "error-budget"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, experiment, seed):
    out = tmp_path / "x.json"
    argv = [experiment, "--seed", seed, "--trajectories", "1000", "--n-max", "6"]
    rc = cli.run(argv + ["--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "seed" in capsys.readouterr().err


def test_unknown_experiment_exits_2(tmp_path, capsys):
    rc = cli.run(["frobnicate", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    capsys.readouterr()


def test_ft_protocol_without_drive_exits_2(tmp_path):
    out = tmp_path / "x.json"
    rc = cli.run(["parity-decay", "--protocol", "ft", "--drive", "off", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_undersized_monte_carlo_exits_2(tmp_path):
    out = tmp_path / "x.json"
    rc = cli.run(["error-budget", "--trajectories", "200", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_prep_cat_without_attempts_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = cli.run(["prep-cat", "--trajectories", "-5", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "n_attempts" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path, monkeypatch, capsys):
    def explode(curve):
        raise RuntimeError("fit did not converge")

    monkeypatch.setattr(cli, "fit_decay", explode)
    out = tmp_path / "x.json"
    rc = cli.run([
        "parity-decay", "--trajectories", "40", "--n-max", "6", "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()
    assert "did not converge" in capsys.readouterr().err


def test_non_finite_decay_curve_exits_3(tmp_path, monkeypatch, capsys):
    real_curve = cli.trajectory_decay_curve

    def with_nan(*args, **kwargs):
        curve, kept = real_curve(*args, **kwargs)
        curve.fidelity[3] = float("nan")
        return curve, kept

    monkeypatch.setattr(cli, "trajectory_decay_curve", with_nan)
    out = tmp_path / "x.json"
    rc = cli.run([
        "parity-decay", "--trajectories", "40", "--n-max", "6", "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_failed_write_leaves_no_output_or_temp_file(tmp_path, monkeypatch, capsys):
    real_writer = cli.csv.writer

    class DiskFull:
        def __init__(self, fh):
            self.inner = real_writer(fh)
            self.rows = 0

        def writerow(self, row):
            if self.rows == 2:
                raise OSError("no space left on device")
            self.rows += 1
            self.inner.writerow(row)

    monkeypatch.setattr(cli.csv, "writer", DiskFull)
    out = tmp_path / "eb.csv"
    rc = cli.run(["error-budget", "--out", str(out), "--format", "csv"])
    assert rc == 2
    assert "no space left" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_error_budget_meta_and_totals(tmp_path):
    doc = run_json(tmp_path, "eb.json", ["error-budget", "--protocol", "gf"])
    meta = doc["meta"]
    assert meta["experiment"] == "error-budget"
    assert meta["seed"] == 0
    assert meta["params"]["chi_f"] == -236.0e3
    assert len(doc["data"]["label"]) == 11
    assert meta["derived"]["total"] == pytest.approx(0.0420, abs=0.0015)
    fit = meta["derived"]["kick_fit"]
    assert 0.3 < fit["floor"] < 0.5
    assert len(meta["derived"]["kick_curve"]["n"]) == 80


def test_error_budget_csv_carries_meta_comment(tmp_path):
    out = tmp_path / "eb.csv"
    rc = cli.run([
        "error-budget", "--protocol", "ft", "--out", str(out), "--format", "csv",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# meta: ")
    meta = json.loads(lines[0][len("# meta: "):])
    assert meta["derived"]["total"] == pytest.approx(0.0136, abs=0.0010)
    assert lines[1] == "label,probability,delta_chi_hz,t0_s,t1_s,dephasing"
    assert len(lines) == 2 + 11


def test_byte_identical_reruns_and_seed_sensitivity(tmp_path):
    argv = ["error-budget", "--protocol", "gf", "--format", "json"]
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert cli.run(argv + ["--out", str(a)]) == 0
    assert cli.run(argv + ["--out", str(b)]) == 0
    assert cli.run(argv + ["--seed", "1", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_parity_decay_columns_and_fit(tmp_path):
    doc = run_json(tmp_path, "pd.json", [
        "parity-decay", "--protocol", "gf", "--trajectories", "80", "--n-max", "8",
    ])
    data = doc["data"]
    assert data["n"] == list(range(1, 9))
    assert len(data["fidelity"]) == len(data["stderr"]) == len(data["kept"]) == 8
    assert all(k <= 80 for k in data["kept"])
    assert data["fidelity"][0] > data["fidelity"][-1]
    assert set(doc["meta"]["derived"]["fit"]) == {"amplitude", "n0", "floor", "n0_sigma", "flag"}


def test_decay_fits_carry_sigma_and_flag(tmp_path):
    # Twenty trials over ten rounds show no resolvable decay: the fit's n0
    # lies far past n_max with a sigma larger than itself, and is flagged.
    argv = [
        "parity-decay", "--protocol", "gf", "--trajectories", "20", "--n-max", "10",
        "--seed", "3",
    ]
    doc = run_json(tmp_path, "a.json", argv)
    fit = doc["meta"]["derived"]["fit"]
    assert fit["n0"] > 10
    assert fit["n0_sigma"] is None or fit["n0_sigma"] >= fit["n0"]
    assert fit["flag"] == "unresolved"
    run_json(tmp_path, "b.json", argv)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # The ft kick curve decays with n0 near 67, resolved but past 40 rounds.
    fit = run_json(tmp_path, "ft.json", [
        "error-budget", "--protocol", "ft", "--n-max", "40",
    ])["meta"]["derived"]["kick_fit"]
    assert fit["n0"] > 40 and fit["n0_sigma"] < fit["n0"]
    assert fit["flag"] == "n0_beyond_n_max"
    # Ten rounds cannot resolve that decay.
    fit = run_json(tmp_path, "ft10.json", [
        "error-budget", "--protocol", "ft", "--n-max", "10",
    ])["meta"]["derived"]["kick_fit"]
    assert fit["flag"] == "unresolved"


def test_noiseless_decay_fit_is_unresolved(tmp_path):
    # With no noise the curve is a barely bent line whose n0 the fit cannot
    # resolve, so sigma(n0) is unknown rather than a misleadingly tiny number.
    params = tmp_path / "noiseless.json"
    params.write_text(json.dumps({
        "T1_cavity": 1e3, "T1_eg": 1e3, "T1_fe": 1e3, "Tphi_g": 1e3, "Tphi_e": 1e3,
        "Tphi_f": 1e3, "n_th": 0.0, "assignment_error": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }))
    fit = run_json(tmp_path, "nl.json", [
        "parity-decay", "--protocol", "ge", "--trajectories", "20", "--n-max", "10",
        "--params", str(params),
    ])["meta"]["derived"]["fit"]
    assert fit["n0"] > 10
    assert fit["n0_sigma"] is None
    assert fit["flag"] == "unresolved"


@pytest.mark.parametrize("protocol", ["ge", "gf", "ft"])
def test_noiseless_decay_curve_is_a_valid_curve(tmp_path, protocol):
    # A noiseless device keeps every cat perfect, and at fock dim 14 the
    # squared overlaps of unit vectors used to round to one ulp above 1.
    params = tmp_path / "noiseless.json"
    params.write_text(json.dumps({
        "T1_cavity": 1e6, "T1_eg": 1e6, "T1_fe": 1e6, "Tphi_g": 1e6, "Tphi_e": 1e6,
        "Tphi_f": 1e6, "n_th": 0.0, "kerr": 0.0,
        "assignment_error": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }))
    data = run_json(tmp_path, "nl.json", [
        "parity-decay", "--protocol", protocol, "--fock-dim", "14", "--trajectories", "20",
        "--n-max", "6", "--params", str(params),
    ])["data"]
    assert len(data["fidelity"]) == 6
    assert all(f <= 1.0 for f in data["fidelity"])


def test_parity_once_shows_error_transparency(tmp_path):
    gf = run_json(tmp_path, "gf.json", ["parity-once", "--protocol", "gf"])["data"]
    ft = run_json(tmp_path, "ft.json", ["parity-once", "--protocol", "ft"])["data"]
    assert gf["injection"][0] == "none"
    assert gf["fidelity"][0] > 0.999
    i = gf["injection"].index("relax_fe")
    assert gf["conditioned_on"][i] == "f"
    assert gf["fidelity"][i] < 0.85
    j = ft["injection"].index("relax_fe")
    assert ft["fidelity"][j] > 0.98


def test_parity_once_ge_roster(tmp_path):
    ge = run_json(tmp_path, "ge.json", ["parity-once", "--protocol", "ge"])["data"]
    assert "relax_eg" in ge["injection"]
    assert "relax_fe" not in ge["injection"]
    k = ge["injection"].index("cavity_loss")
    assert ge["conditioned_on"][k] == "e"
    assert ge["fidelity"][k] < 0.01


def test_parity_once_reports_no_angle_for_a_flat_overlap(tmp_path):
    # After an injected cavity loss the branch is an odd cat, with no
    # overlap with the even cat at any angle, so no rotation is measured;
    # every other branch keeps its aligned angle.
    for protocol in ("gf", "ge"):
        argv = ["parity-once", "--protocol", protocol]
        data = run_json(tmp_path, f"{protocol}.json", argv)["data"]
        for name, theta, aligned in zip(
            data["injection"], data["aligned_theta"], data["aligned_fidelity"]
        ):
            if name == "cavity_loss":
                assert theta is None
                assert aligned == pytest.approx(0.0, abs=1e-12)
            else:
                assert 0.0 <= theta < math.pi


def test_wigner_grid_dump(tmp_path):
    data = run_json(tmp_path, "wig.json", ["wigner"])["data"]
    assert len(data["value"]) == 441
    bound = 2.0 / math.pi + 0.05
    assert all(abs(v) <= bound for v in data["value"])
    assert all(s == 0 for s in data["shots"])
    assert max(data["value"]) > 0.5


def test_prep_cat_statistics(tmp_path):
    data = run_json(tmp_path, "prep.json", ["prep-cat", "--trajectories", "300"])["data"]
    assert data["attempts"] == [300]
    assert 0.20 < data["success_rate"][0] < 0.40
    assert data["mean_parity"][0] > 0.98


def test_chevron_has_full_contrast_on_resonance(tmp_path):
    data = run_json(tmp_path, "chev.json", ["chevron"])["data"]
    resonant = [
        p for d, p in zip(data["delta_hz"], data["population"]) if d == 0.0
    ]
    assert len(resonant) == 51
    assert max(resonant) > 0.99
    assert max(data["population"]) <= 1.0


def test_stark_shift_rows_track_model(tmp_path):
    data = run_json(tmp_path, "stark.json", ["stark-shift"])["data"]
    assert set(data["sweep"]) == {"detuning", "photon"}
    for measured, model in zip(data["chi_measured_hz"], data["chi_model_hz"]):
        assert measured == pytest.approx(model, rel=0.10)


def test_t2_sweep_peaks_near_cancellation(tmp_path):
    data = run_json(tmp_path, "t2.json", ["t2-sweep"])["data"]
    assert len(data["delta_hz"]) == 10
    assert max(data["t2_model_s"]) == pytest.approx(1.9e-3, rel=0.15)
    for ramsey, model in zip(data["t2_ramsey_s"], data["t2_model_s"]):
        assert ramsey == pytest.approx(model, rel=0.15)


def test_module_entry_point_runs_without_a_runpy_warning():
    # runpy warns when the package has imported catsim.cli before
    # `python -m catsim.cli` executes it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(catsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "catsim.cli", "--help"], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
