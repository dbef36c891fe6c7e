"""Command-line interface: subcommand behavior and exit codes."""

import json

import numpy as np
import pytest

from randcech.cli import main
from randcech.pointproc import PointCloud, sample_iid, save_cloud_csv, substream, uniform_box


@pytest.fixture
def cloud_csv(tmp_path):
    cloud = sample_iid(uniform_box(2), 30, substream(600, 0))
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    return str(path)


def test_enumerate_from_cloud_file(cloud_csv, capsys, tmp_path):
    out = tmp_path / "critical.csv"
    code = main(["enumerate", "--cloud", cloud_csv, "--eps", "0.2",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "counts by index:" in text
    assert out.exists()


def test_enumerate_global_alternating_sum(capsys, tmp_path):
    code = main(["enumerate", "--density", "uniform_box", "--n", "15",
                 "--d", "2", "--seed", "4", "--global"])
    assert code == 0
    assert "alternating sum: 1" in capsys.readouterr().out


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0), (2, 0), (3, 0)],
    [(x, y) for x in range(4) for y in range(4)],
], ids=["collinear", "lattice"])
def test_enumerate_global_degenerate_cloud(points, capsys, tmp_path):
    pts = np.asarray(points, dtype=float)
    path = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(2, pts), path)
    assert main(["enumerate", "--cloud", str(path), "--global"]) == 0
    assert "alternating sum: 1" in capsys.readouterr().out


def test_enumerate_coincident_points_is_config_error(capsys, tmp_path):
    path = tmp_path / "coincident.csv"
    save_cloud_csv(PointCloud(2, np.zeros((12, 2)) + 0.3), path)
    assert main(["enumerate", "--cloud", str(path), "--eps", "0.6"]) == 2
    assert "config error: points 0 and 1 coincide" in capsys.readouterr().err


def test_enumerate_one_dimensional_cloud(capsys, tmp_path):
    path = tmp_path / "line.csv"
    save_cloud_csv(sample_iid(uniform_box(1), 1000, substream(3, 0)), path)
    assert main(["enumerate", "--cloud", str(path), "--eps", "0.05"]) == 0
    assert "counts by index: 1000 999" in capsys.readouterr().out


def test_enumerate_needs_radius(cloud_csv):
    assert main(["enumerate", "--cloud", cloud_csv]) == 2


def test_enumerate_missing_cloud_is_config_error(tmp_path):
    assert main(["enumerate", "--cloud", str(tmp_path / "nope.csv"),
                 "--eps", "0.2"]) == 2


def test_cech_with_betti(cloud_csv, capsys):
    code = main(["cech", "--cloud", cloud_csv, "--eps", "0.15", "--betti"])
    assert code == 0
    text = capsys.readouterr().out
    assert "euler characteristic:" in text
    assert "betti numbers:" in text


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--eps=nan"], "eps must be > 0"),
    (["enumerate", "--eps=-inf"], "eps must be > 0"),
    (["cech", "--eps=nan"], "eps must be > 0"),
    (["cech", "--eps=0.15", "--max-dim=0"], "dim_cap"),
], ids=["enumerate-nan", "enumerate-minus-inf", "cech-nan", "cech-max-dim-0"])
def test_bad_radius_or_dimension_cap_is_config_error(cloud_csv, capsys, argv, message):
    assert main([*argv, "--cloud", cloud_csv]) == 2
    assert message in capsys.readouterr().err


def test_cech_budget_exit_code(capsys):
    # 40 coincident-scale points at a huge radius blow the simplex budget
    code = main(["cech", "--density", "uniform_box", "--n", "40", "--d", "2",
                 "--seed", "1", "--eps", "5.0"])
    assert code == 3


def test_constants_subcommand(capsys, tmp_path):
    out = tmp_path / "constants.json"
    code = main(["constants", "--d", "2", "--k", "1", "--lambda", "1.0",
                 "--samples", "20000", "--seed", "5", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == table  # --out holds the printed table
    key = "gamma_k|k=1|j=-|lambda=1.0"
    assert key in table
    assert table[key]["value"] == pytest.approx(1.9136, abs=0.05)


def test_constants_variance_table_is_consistent(tmp_path):
    """The printed gamma_k is the one sigma2_hat_k was built from."""
    out = tmp_path / "constants.json"
    code = main(["constants", "--d", "2", "--k", "1", "--lambda", "1.0",
                 "--samples", "20000", "--variance", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())

    def value(name, j="-"):
        return table[f"{name}|k=1|j={j}|lambda=1.0"]["value"]

    parts = value("gamma_k") + value("gamma_k_j", 0) + value("gamma_k_j", 1)
    assert abs(value("sigma2_hat_k") - parts) <= 1e-12 * abs(parts)
    alpha = 2 * value("gamma_k") - value("eta_k")
    assert abs(value("alpha_k") - alpha) <= 1e-12 * abs(alpha)


def test_constants_needs_lambda():
    assert main(["constants", "--d", "2", "--k", "1"]) == 2


def test_constants_bad_sample_count_is_config_error():
    assert main(["constants", "--d", "2", "--k", "1", "--lambda", "1.0",
                 "--samples", "0"]) == 2


def test_experiment_subcommand(tmp_path, capsys):
    cfg = {
        "mode": "counts", "d": 2, "c": 1.0, "beta": 0.75,
        "k_targets": [1], "n_schedule": [50], "trials": 3, "seed": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    code = main(["experiment", "--config", str(path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "raw_counts.csv").exists()
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"config", "results"}
    assert json.loads((out_dir / "report.json").read_text()) == printed


def test_experiment_bad_config_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "bogus"}))
    assert main(["experiment", "--config", str(path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("mode", "mean_scaling"), ("mode", "morse_euler_audit"), ("trials", 2.5),
    ("d", "2"), ("seed", -1), ("density_params", {"sidee": 2}),
])
def test_experiment_malformed_config_is_config_error(field, value, tmp_path, capsys):
    cfg = {"mode": "counts", "n_schedule": [50], "trials": 2, field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--density", "uniform_box", "--n", "10", "--eps", "0.1", "--seed", "-1"],
    ["constants", "--lambda", "1.0", "--samples", "100", "--seed", "-2"],
])
def test_negative_seed_is_config_error(argv, capsys):
    assert main(argv) == 2
    assert "config error: substream: seed" in capsys.readouterr().err


def test_experiment_malformed_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["experiment", "--config", str(path)]) == 2


def test_audit_subcommand(capsys):
    code = main(["audit", "--clouds", "3", "--n", "20", "--radii", "3",
                 "--seed", "0"])
    assert code == 0
    text = capsys.readouterr().out
    assert "audited 18 (cloud, radius) cases: 0 mismatches; skipped 0" in text


def test_audit_counts_skipped_cases(capsys):
    # up to 80 points in the unit square outgrow the cap at the larger radii
    assert main(["audit", "--clouds", "4", "--n", "80", "--seed", "0"]) == 0
    assert ("audited 29 (cloud, radius) cases: 0 mismatches; skipped 11 with "
            "more than 500000 simplices") in capsys.readouterr().out


def test_dimension_below_one_is_config_error(capsys):
    argv = ["enumerate", "--density", "uniform_box", "--n", "10", "--d", "0", "--eps", "0.1"]
    assert main(argv) == 2
    assert "config error: d must be an integer >= 1, got 0" in capsys.readouterr().err


def test_audit_needs_five_points(capsys):
    assert main(["audit", "--n", "3"]) == 2
    assert "config error: --n must be >= 5, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--clouds", "0"), ("--clouds", "-1"), ("--radii", "0")])
def test_audit_refuses_an_empty_sweep(flag, value, capsys):
    """An audit of no cloud or no radius would check nothing and pass."""
    assert main(["audit", flag, value]) == 2
    assert f"config error: {flag} must be >= 1, got {value}" in capsys.readouterr().err
