"""End-to-end acceptance checks.

Each test prints one `[criterion NN] PASS/FAIL` line summarizing the
check and its measured numbers, then asserts.  All checks are seeded and
deterministic; tolerances are part of the stated criteria.
"""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from randcech.cech import build_cech, euler_characteristic
from randcech.enumeration import (
    GLOBAL,
    count_index1,
    counts,
    enumerate_brute,
    enumerate_grid,
)
from randcech.experiments import (
    ExperimentConfig,
    calibrate_d_star,
    empirical_dtv_poisson,
    euler_phase,
    global_vs_local,
    normality_diagnostics,
)
from randcech.pointproc import (
    sample_iid,
    sample_poisson,
    substream,
    uniform_box,
)
from randcech.theory import (
    gamma_1_closed_uniform,
    gamma_k_estimate,
    gamma_k_inf_estimate,
    variance_constants_estimate,
)

pytestmark = pytest.mark.acceptance

GAMMA_1_UNIF = 2.0 * (1.0 - math.exp(-math.pi))  # = gamma_1(1), d=2, unit square
TWO_PI = 2.0 * math.pi


# one line per criterion; the conftest terminal-summary hook echoes these
# at the end of the run, where passing tests' stdout is otherwise hidden
REPORT_LINES: list = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}: {detail}"
    print(line)
    REPORT_LINES.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_morse_euler_identity():
    """100 seeded clouds, 10 radii each: Morse counting equals the
    complex's Euler characteristic exactly."""
    mismatches = 0
    cases = 0
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        rng = substream(9001, i)
        n = int(rng.integers(5, 51))
        cloud = sample_iid(uniform_box(d), n, rng)
        top = 0.20 if d == 2 else 0.28
        radii = np.geomspace(0.02, top, 10)
        for eps in radii:
            chi_complex = euler_characteristic(build_cech(cloud.points, eps))
            cc = counts(enumerate_grid(cloud, eps), n, eps, d)
            cases += 1
            if chi_complex != cc.alternating_sum():
                mismatches += 1
    _report(1, "Morse-Euler identity", mismatches == 0,
            f"{cases} (cloud, radius) cases, {mismatches} mismatches")


def test_criterion_02_global_alternating_sum():
    bad = 0
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        rng = substream(9002, i)
        n = int(rng.integers(2, 21))
        cloud = sample_iid(uniform_box(d), n, rng)
        cc = counts(enumerate_grid(cloud, GLOBAL), n, GLOBAL, d)
        if cc.alternating_sum() != 1:
            bad += 1
    _report(2, "global alternating sum = 1", bad == 0,
            f"100 clouds, {bad} violations")


def test_criterion_03_oracle_equivalence(caplog):
    """Grid-accelerated enumeration reproduces the brute-force oracle as a
    multiset of (index, value) to 1e-9 on 200 instances."""
    caplog.set_level(logging.DEBUG, logger="randcech.enumeration")
    bad = 0
    for i in range(200):
        d = 2 if i % 4 != 3 else 3
        rng = substream(9003, i)
        n = int(rng.integers(20, 201)) if d == 2 else int(rng.integers(20, 61))
        cloud = sample_iid(uniform_box(d), n, rng)
        eps = float(rng.uniform(0.05, 0.30 if d == 2 else 0.35))
        brute = sorted((cp.index, round(cp.value, 9))
                       for cp in enumerate_brute(cloud, eps))
        grid = sorted((cp.index, round(cp.value, 9))
                      for cp in enumerate_grid(cloud, eps))
        if brute != grid:
            bad += 1
    paths = [r.args[0] for r in caplog.records if r.name == "randcech.enumeration"]
    _report(3, "grid = brute oracle", bad == 0,
            f"200 instances ({paths.count('delaunay')} Delaunay, {paths.count('grid')} grid "
            f"candidates), {bad} mismatches")


def test_criterion_04_gamma1_closed_form():
    """Poisson process at the critical radius: mean saddle count per point
    approaches 2(1 - e^-pi)."""
    n, trials = 10_000, 200
    f = uniform_box(2)
    eps = n ** -0.5
    total = 0
    for t in range(trials):
        cloud = sample_poisson(f, n, substream(9004, t))
        total += count_index1(cloud.points, eps)
    mean = total / trials / n
    rel = abs(mean - GAMMA_1_UNIF) / GAMMA_1_UNIF
    _report(4, "critical-regime mean vs closed form", rel < 0.03,
            f"mean/n = {mean:.4f} vs {GAMMA_1_UNIF:.4f} (rel err {rel:.2%}, tol 3%)")


def test_criterion_05_mu1_subcritical_scaling():
    """Subcritical scaling: mean(N_1) / (n^2 r_n^2) -> 2 pi, closer at
    larger n."""
    trials = 200
    f = uniform_box(2)
    rels = {}
    for idx, n in enumerate((10_000, 40_000)):
        eps = n ** -0.75
        total = 0
        for t in range(trials):
            cloud = sample_iid(f, n, substream(9005, idx, t))
            total += count_index1(cloud.points, eps)
        scaled = total / trials / (n**2 * eps**2)
        rels[n] = abs(scaled - TWO_PI) / TWO_PI
    ok = max(rels.values()) < 0.05 and rels[40_000] <= rels[10_000]
    _report(5, "subcritical mean scaling", ok,
            f"rel errs {rels[10_000]:.2%} (n=1e4), {rels[40_000]:.2%} (n=4e4), "
            "tol 5% and nonincreasing")


def test_criterion_06_poisson_limit():
    """r_n = 1/n: saddle counts converge in law to Poisson(2 pi)."""
    n, trials = 10_000, 2000
    f = uniform_box(2)
    eps = 1.0 / n
    cnts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        cloud = sample_iid(f, n, substream(9006, t))
        cnts[t] = count_index1(cloud.points, eps)
    dtv = empirical_dtv_poisson(cnts, TWO_PI)
    mean, var = float(cnts.mean()), float(cnts.var(ddof=1))
    rel_m = abs(mean - TWO_PI) / TWO_PI
    rel_v = abs(var - TWO_PI) / TWO_PI
    ok = dtv < 0.1 and rel_m < 0.1 and rel_v < 0.1
    _report(6, "Poisson limit", ok,
            f"dTV = {dtv:.3f} (tol 0.1), mean = {mean:.3f}, var = {var:.3f} "
            f"vs {TWO_PI:.3f} (rel errs {rel_m:.2%}, {rel_v:.2%}, tol 10%)")


def test_criterion_07_gamma_inf_alternating_sum_d3():
    rng = substream(9007, 0)
    samples = {1: 50_000, 2: 500_000, 3: 1_600_000}
    g = {k: gamma_k_inf_estimate(k, 3, samples[k], rng) for k in (1, 2, 3)}
    total = 1.0 - g[1].value + g[2].value - g[3].value
    se = math.sqrt(sum(e.std_err**2 for e in g.values()))
    ok = all(e.std_err < 0.02 for e in g.values()) and abs(total) < 3 * se
    _report(7, "gamma_k(inf) alternating sum, d=3", ok,
            f"sum = {total:+.4f}, combined se = {se:.4f}, "
            f"per-term se max = {max(e.std_err for e in g.values()):.4f} (tol 0.02)")


def test_criterion_08_gamma1_inf_power_of_two():
    results = {}
    ok = True
    for d, target in ((2, 2.0), (3, 4.0)):
        est = gamma_k_inf_estimate(1, d, 100_000, substream(9008, d))
        results[d] = est
        ok &= est.agrees(target)
    _report(8, "gamma_1(inf) = 2^(d-1)", ok,
            ", ".join(f"d={d}: {e.value:.6f} +- {e.std_err:.2e}"
                      for d, e in results.items()))


def test_criterion_09_clt_regime():
    """Standardized saddle counts look Gaussian in both CLT regimes, and
    the critical-regime variance matches the limit-constant estimate."""
    n, trials = 10_000, 2000
    f = uniform_box(2)
    out = {}
    for regime, beta in (("subcritical", 0.625), ("critical", 0.5)):
        eps = n ** -beta
        cnts = np.empty(trials)
        for t in range(trials):
            cloud = sample_iid(f, n, substream(9009, int(beta * 1000), t))
            cnts[t] = count_index1(cloud.points, eps)
        out[regime] = (normality_diagnostics(cnts), cnts)
    vc = variance_constants_estimate(1, 2, f, 1.0, 3_200_000, substream(9009, 1))
    emp_var = float(out["critical"][1].var(ddof=1)) / n
    rel_var = abs(emp_var - vc.sigma2.value) / emp_var
    moments_ok = all(
        abs(diag["skewness"]) < 0.25 and abs(diag["excess_kurtosis"]) < 0.5
        for diag, _ in out.values()
    )
    ok = moments_ok and rel_var < 0.15
    detail = ", ".join(
        f"{r}: skew {d['skewness']:+.3f}, ex.kurt {d['excess_kurtosis']:+.3f}"
        for r, (d, _) in out.items()
    )
    _report(9, "CLT regime diagnostics", ok,
            f"{detail}; Var(N_1)/n = {emp_var:.3f} vs sigma2_1(1) = "
            f"{vc.sigma2.value:.3f} +- {vc.sigma2.std_err:.3f} "
            f"(rel err {rel_var:.2%}, tol 15%)")


def test_criterion_10_global_vs_local():
    base = ExperimentConfig(
        mode="global_vs_local", d=2, k_targets=(1, 2),
        n_schedule=(500, 1000, 2000, 4000), trials=100, seed=9010,
    )
    d_star = calibrate_d_star(base)
    cfg = ExperimentConfig(
        mode="global_vs_local", d=2, rule="log", d_star=d_star,
        k_targets=(1, 2), n_schedule=(500, 1000, 2000, 4000),
        trials=100, seed=9010,
    )
    res = global_vs_local(cfg)
    gaps = [max(res["gap"][n].values()) for n in cfg.n_schedule]
    main_ok = all(b <= a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.1

    # at half the calibrated D* the gaps are nonzero, so their decay is seen
    half = global_vs_local(replace(cfg, d_star=d_star / 2))
    half_gaps = [max(half["gap"][n].values()) for n in cfg.n_schedule]
    half_ok = (all(g > 0 for g in half_gaps)
               and all(b <= a for a, b in zip(half_gaps, half_gaps[1:])))

    annulus = ExperimentConfig(
        mode="global_vs_local", d=2, density="uniform_annulus",
        density_params={"r_in": 1.0, "r_out": 2.0}, rule="log", d_star=8.0,
        k_targets=(2,), n_schedule=(4000,), trials=100, seed=9010,
        annulus_counterexample=True,
    )
    signed = global_vs_local(annulus)["signed_top_gap"][4000]
    annulus_ok = 0.5 <= signed <= 1.5
    _report(10, "global vs radius-restricted counts", main_ok and half_ok and annulus_ok,
            f"D* = {d_star}, gaps {['%.3f' % g for g in gaps]} "
            f"(nonincreasing, last < 0.1); D*/2 gaps {['%.3f' % g for g in half_gaps]} "
            f"(positive, nonincreasing); annulus signed gap = {signed:.3f} "
            "(target [0.5, 1.5])")


def test_criterion_11_euler_phases():
    f = uniform_box(2)

    # subcritical: chi/n -> 1.  The finite-n deficit is ~ mu_1 * n r_n^2
    # = 2 pi n^(-1/2) for beta = 3/4, so n must be large enough for 5%.
    sub = euler_phase(ExperimentConfig(
        mode="euler_phase", d=2, c=1.0, beta=0.75, k_targets=(1, 2),
        n_schedule=(32_000,), trials=30, seed=9011,
    ))
    sub_val = sub["chi_over_n"][32_000]
    sub_ok = abs(sub_val - 1.0) < 0.05

    # critical lambda = 1: chi/n -> 1 - gamma_1(1) + gamma_2(1)
    g2 = gamma_k_estimate(2, 2, f, 1.0, 4_000_000, substream(9011, 1))
    target = 1.0 - gamma_1_closed_uniform(2, 1.0, 1.0) + g2.value
    crit = euler_phase(ExperimentConfig(
        mode="euler_phase", d=2, c=1.0, beta=0.5, k_targets=(1, 2),
        n_schedule=(48_000,), trials=30, seed=9011,
    ))
    crit_val = crit["chi_over_n"][48_000]
    crit_rel = abs(crit_val - target) / abs(target)
    crit_ok = crit_rel < 0.05

    # supercritical log rule: chi/n -> 0 and mean chi -> 1
    sup = euler_phase(ExperimentConfig(
        mode="euler_phase", d=2, rule="log", d_star=1.0, k_targets=(1, 2),
        n_schedule=(1000, 4000), trials=60, seed=9011,
    ))
    sup_trend_ok = abs(sup["chi_over_n"][4000]) < abs(sup["chi_over_n"][1000])
    sup_mean = sup["chi_mean"][4000]
    sup_ok = sup_trend_ok and 0.8 <= sup_mean <= 1.2

    ok = sub_ok and crit_ok and sup_ok
    _report(11, "Euler characteristic phases", ok,
            f"subcritical chi/n = {sub_val:.4f} (target 1 +- 5%); "
            f"critical chi/n = {crit_val:.5f} vs {target:.5f} "
            f"(rel err {crit_rel:.2%}, tol 5%); supercritical chi/n "
            f"{sup['chi_over_n'][1000]:.4f} -> {sup['chi_over_n'][4000]:.4f}, "
            f"mean chi = {sup_mean:.3f} (target [0.8, 1.2])")
