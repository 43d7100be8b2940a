import json
import math

import pytest

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
    assert set(doc["meta"]["derived"]["fit"]) == {"amplitude", "n0", "floor"}


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
