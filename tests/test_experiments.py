"""Experiment runner: config validation, reproducibility, distributional
diagnostics, global/local gaps, Euler phase plumbing."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from randcech.experiments import (
    ConfigError,
    ExperimentConfig,
    aggregate_from_raw,
    calibrate_d_star,
    empirical_dtv_poisson,
    euler_phase,
    global_vs_local,
    load_raw_csv,
    normality_diagnostics,
    report,
    run,
    save_raw_csv,
)
from randcech import experiments
from randcech.cech import ComplexTooLarge
from randcech.pointproc import substream


def small_config(**overrides):
    base = dict(
        mode="counts",
        d=2,
        c=1.0,
        beta=0.75,
        k_targets=(1,),
        n_schedule=(60, 120),
        trials=4,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- config checks

def test_config_valid():
    small_config().validate()


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(mode="nonsense"), "mode"),
        (dict(process="quantum"), "process"),
        (dict(rule="exp"), "rule"),
        (dict(c=-1.0), "rule.c"),
        (dict(rule="log", d_star=None), "d_star"),
        (dict(n_schedule=()), "n_schedule"),
        (dict(trials=0), "trials"),
        (dict(k_targets=(5,)), "k_targets"),
        (dict(c=math.inf), "rule.c"),
        (dict(trials=2.5), "trials"),
        (dict(n_schedule=(50.5,)), "n_schedule"),
        (dict(n_schedule=(50, 50)), "n_schedule"),
        (dict(k_targets=(1.5,)), "k_targets"),
        (dict(d="2"), "d"),
        (dict(seed=-1), "seed"),
        (dict(density_params={"sidee": 2}), "density_params"),
        (dict(beta=0.25, density_params={"side": 0}), "density_params"),
        (dict(density="nonsense"), "density"),
    ] + [(dict(mode=old), "mode") for old in (
        "mean_scaling", "variance_scaling", "poisson_limit", "clt",
        "gamma_curve", "morse_euler_audit")] + [
        # no radius r_n > 0: log n / n vanishes at n = 1, c n^-beta
        # underflows to 0.0, and n = 10^400 has no float
        (dict(rule="log", d_star=1.0, n_schedule=(1, 60)), "n_schedule"),
        (dict(beta=2000.0), "n_schedule"),
        (dict(n_schedule=(10**400,)), "n_schedule"),
    ],
)
def test_config_errors_name_the_field(overrides, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b"):
        small_config(**overrides).validate()


def test_config_rule_error_names_the_values():
    for c, beta in ((math.nan, 0.5), (1.0, math.inf), (-1.0, 0.5)):
        with pytest.raises(ConfigError, match=rf"got c = {c!r}, beta = {beta!r}$"):
            small_config(c=c, beta=beta).validate()


def test_supercritical_requires_density_flags():
    cfg = small_config(beta=0.25, density="uniform_annulus",
                       density_params={"r_in": 1.0, "r_out": 2.0})
    with pytest.raises(ConfigError, match="density"):
        cfg.validate()
    cfg.annulus_counterexample = True
    cfg.validate()  # waived


def test_config_roundtrip_json(tmp_path):
    cfg = small_config(density_params={"side": 1.0})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_json(path)
    assert back == cfg


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "counts", "frobnicate": 1}))
    with pytest.raises(ConfigError, match="frobnicate"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("data", [[1, 2], {"d": 2}])
def test_config_without_mode_is_a_config_error(data):
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig.from_dict(data)


def test_log_rule_radius():
    cfg = small_config(rule="log", d_star=4.0)
    n = 1000
    assert cfg.radius(n) == pytest.approx((4.0 * math.log(n) / n) ** 0.5)


# -------------------------------------------------------------------- runner

def test_run_emits_schema_and_is_reproducible(tmp_path):
    cfg = small_config()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    stats = run(cfg, out_dir=out_a)
    run(cfg, out_dir=out_b)
    raw_a = (out_a / "raw_counts.csv").read_bytes()
    assert raw_a == (out_b / "raw_counts.csv").read_bytes()  # byte-identical
    agg = json.loads((out_a / "aggregates.json").read_text())
    assert "config" in agg and "aggregates" in agg
    # k=0 rows carry the cloud size
    assert np.all(stats.counts_for(60, 0) == 60)
    assert len(stats.counts_for(120, 1)) == cfg.trials


def test_poisson_process_k0_is_cloud_size():
    cfg = small_config(process="poisson", n_schedule=(80,), trials=6)
    stats = run(cfg)
    sizes = stats.counts_for(80, 0)
    assert len(sizes) == 6 and not np.all(sizes == 80)  # Poisson counts vary


def test_aggregates_recomputable_from_raw(tmp_path):
    cfg = small_config()
    out = tmp_path / "r"
    stats = run(cfg, out_dir=out)
    rows = load_raw_csv(out / "raw_counts.csv")
    assert aggregate_from_raw(rows) == stats.aggregates


def test_raw_csv_roundtrip(tmp_path):
    rows = [(10, 0, 0, 10), (10, 0, 1, 3), (10, 1, 0, 10), (10, 1, 1, 5)]
    path = tmp_path / "raw.csv"
    save_raw_csv(rows, path)
    assert load_raw_csv(path) == rows


def test_above_critical_index_counts_vanish_with_n():
    """k > k_c: the fraction of trials with a nonzero count decreases."""
    cfg = small_config(
        beta=1.0, k_targets=(2,), n_schedule=(50, 400), trials=40, seed=3
    )  # k_c = 1, so k=2 counts die out
    stats = run(cfg)
    frac = [
        float(np.mean(stats.counts_for(n, 2) > 0)) for n in cfg.n_schedule
    ]
    assert frac[1] <= frac[0]


# ----------------------------------------------------------------- diagnostics

def test_dtv_poisson_self_test():
    rng = substream(500, 0)
    draws = rng.poisson(4.5, size=10_000)
    assert empirical_dtv_poisson(draws, 4.5) < 0.03


def test_dtv_identical_distribution_is_zero():
    # empirical pmf set exactly to the truncated Poisson pmf: only the
    # analytic tail remains
    mean = 2.0
    samples = np.repeat(np.arange(3), [100, 100, 100])
    pm = sps.poisson.pmf(np.arange(3), mean)
    dtv = empirical_dtv_poisson(samples, mean)
    hand = 0.5 * (np.abs(np.array([1 / 3] * 3) - pm).sum() + sps.poisson.sf(2, mean))
    assert dtv == pytest.approx(hand)


def test_dtv_point_mass_vs_poisson5():
    samples = np.zeros(1000, dtype=int)
    assert empirical_dtv_poisson(samples, 5.0) == pytest.approx(
        1 - math.exp(-5.0), abs=1e-9
    )


def test_dtv_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        empirical_dtv_poisson([1, 2], 0.0)


def test_normality_diagnostics_gaussian():
    rng = substream(501, 0)
    d = normality_diagnostics(rng.standard_normal(10_000))
    assert abs(d["skewness"]) < 0.08
    assert abs(d["excess_kurtosis"]) < 0.15
    assert d["ks_stat_vs_fitted_normal"] < 0.02


def test_normality_diagnostics_detects_poisson_skew():
    rng = substream(501, 1)
    d = normality_diagnostics(rng.poisson(1.0, size=10_000).astype(float))
    assert d["skewness"] == pytest.approx(1.0, abs=0.15)


def test_normality_diagnostics_rejects_degenerate():
    with pytest.raises(ValueError):
        normality_diagnostics(np.ones(500))
    with pytest.raises(ValueError):
        normality_diagnostics(np.arange(10))


# ----------------------------------------------------------- global vs local

def test_global_vs_local_diameter_radius_zero_gap():
    # radius beyond the support diameter: every critical point is kept
    cfg = small_config(
        mode="global_vs_local", rule="power", c=2.0, beta=1e-9,
        k_targets=(1, 2), n_schedule=(40,), trials=5,
    )
    res = global_vs_local(cfg)
    assert all(v == 0.0 for v in res["gap"][40].values())


def test_global_vs_local_gap_shrinks_with_log_rule():
    cfg = small_config(
        mode="global_vs_local", rule="log", d_star=4.0,
        k_targets=(1, 2), n_schedule=(100, 800), trials=10, seed=21,
    )
    res = global_vs_local(cfg)
    gap_small = max(res["gap"][100].values())
    gap_big = max(res["gap"][800].values())
    assert gap_big <= gap_small


def test_global_vs_local_annulus_gap_needs_no_index_d_target():
    cfg = small_config(
        mode="global_vs_local", density="uniform_annulus",
        density_params={"r_in": 1.0, "r_out": 2.0}, k_targets=(1,),
        n_schedule=(60,), trials=2, annulus_counterexample=True,
    )
    full = global_vs_local(replace(cfg, k_targets=(1, 2)))
    assert global_vs_local(cfg)["signed_top_gap"] == full["signed_top_gap"]


def test_global_vs_local_with_only_index_zero():
    cfg = small_config(mode="global_vs_local", k_targets=(0,), n_schedule=(40,), trials=2)
    assert global_vs_local(cfg) == {"gap": {40: {}}, "signed_top_gap": {}}


def test_calibrate_d_star_returns_candidate():
    cfg = small_config(mode="global_vs_local", k_targets=(1,),
                       n_schedule=(400,), trials=10)
    d_star = calibrate_d_star(cfg, candidates=(2.0, 4.0), trials=5)
    assert d_star in (2.0, 4.0)


# ----------------------------------------------------------------- Euler phase

def test_euler_phase_subcritical_chi_over_n_near_one():
    cfg = small_config(mode="euler_phase", beta=0.9, n_schedule=(300,), trials=8)
    res = euler_phase(cfg)
    assert res["audited"] == 3 and res["audit_skipped"] == 0
    assert res["chi_over_n"][300] == pytest.approx(1.0, abs=0.1)


def test_euler_phase_counts_skipped_audits(monkeypatch):
    def too_large(points, eps):
        raise ComplexTooLarge("complex exceeds the cap")

    monkeypatch.setattr(experiments, "build_cech", too_large)
    cfg = small_config(mode="euler_phase", beta=0.9, n_schedule=(100, 200), trials=4)
    res = euler_phase(cfg)
    assert res["audited"] == 0 and res["audit_skipped"] == 3


def test_euler_phase_dust_radius_chi_equals_n():
    cfg = small_config(mode="euler_phase", c=1e-6, beta=0.5,
                       n_schedule=(200,), trials=3)
    res = euler_phase(cfg)
    assert res["chi_over_n"][200] == 1.0


# ------------------------------------------------------------------ report

@pytest.mark.parametrize("mode", ["counts", "global_vs_local", "euler_phase"])
def test_report_serves_every_mode(mode, tmp_path):
    cfg = small_config(mode=mode, n_schedule=(40,), trials=2)
    out = report(cfg, out_dir=tmp_path)
    assert set(out) == {"config", "results"} and out["config"] == cfg.to_dict()
    assert json.loads((tmp_path / "report.json").read_text()) == json.loads(json.dumps(out))
    assert (tmp_path / "raw_counts.csv").exists() == (mode == "counts")
    if mode == "counts":
        assert out["results"] == {f"n={n}|k={k}": v for (n, k), v in run(cfg).aggregates.items()}
