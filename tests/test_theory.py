"""Limit constants: regime classification, closed forms, Monte Carlo
estimators and their mutual consistency."""

import json
import math

import numpy as np
import pytest

from randcech.pointproc import make_density, substream, uniform_ball, uniform_box
from randcech.theory import (
    Estimate,
    RegimeSpec,
    WrongRegime,
    constants_table,
    critical_index,
    eta_1_closed_uniform,
    eta_k_estimate,
    exact,
    gamma_1_closed_uniform,
    gamma_k_0_estimate,
    gamma_k_estimate,
    gamma_k_inf_estimate,
    gamma_k_j_estimate,
    mu_1_closed,
    mu_k_estimate,
    structure_integral,
    variance_constants_estimate,
)

INF = math.inf


# -------------------------------------------------------------------- regimes

def test_regime_classification():
    assert RegimeSpec(1.0, 0.75, 2).classification == "subcritical"
    assert RegimeSpec(2.0, 0.5, 2).classification == "critical"
    assert RegimeSpec(1.0, 0.25, 2).classification == "supercritical"


def test_regime_lambda_and_radius():
    spec = RegimeSpec(2.0, 0.5, 2)
    assert spec.lam == pytest.approx(4.0)  # lambda = c^d
    assert spec.radius(10_000) == pytest.approx(0.02)


@pytest.mark.parametrize("c, beta", [(1.0, math.nan), (math.nan, 0.5), (math.inf, 0.5),
                                     (1.0, math.inf), (0.0, 0.5), (1.0, -0.5)])
def test_regime_refuses_nonfinite_or_nonpositive_parameters(c, beta):
    """NaN used to classify as supercritical (beta) or critical (c)."""
    with pytest.raises(ValueError, match=rf"got c = {c!r}, beta = {beta!r}, d = 2"):
        RegimeSpec(c, beta, 2)


def test_critical_index_examples():
    assert critical_index(RegimeSpec(1.0, 0.75, 2)).value == 2
    assert critical_index(RegimeSpec(1.0, 1.0, 2)).value == 1
    assert critical_index(RegimeSpec(1.0, 2.0 / 3.0, 3)).value == 1


def test_critical_index_clamping():
    high = critical_index(RegimeSpec(1.0, 0.51, 2))  # alpha = 50 -> clamp to d
    assert high.value == 2 and high.clamped
    low = critical_index(RegimeSpec(1.0, 5.0, 2))  # alpha = 1/9 -> floor 0
    assert low.value == 0 and low.clamped


def test_critical_index_wrong_regime():
    with pytest.raises(WrongRegime):
        critical_index(RegimeSpec(1.0, 0.5, 2))


# ---------------------------------------------------------------- closed forms

def test_mu_1_closed_uniform_square():
    assert mu_1_closed(uniform_box(2)).value == pytest.approx(2 * math.pi)


def test_mu_1_closed_uniform_cube():
    assert mu_1_closed(uniform_box(3)).value == pytest.approx(16 * math.pi / 3)


def test_mu_1_closed_uniform_disk():
    # 2^{d-1} omega_d int f^2 = 2 pi / (4 pi) = 1/2 for the radius-2 disk
    assert mu_1_closed(uniform_ball(2, 2.0)).value == pytest.approx(0.5)


def test_gamma_1_closed_values():
    assert gamma_1_closed_uniform(2, 1.0, 1.0) == pytest.approx(
        2 * (1 - math.exp(-math.pi)), rel=1e-12
    )
    assert gamma_1_closed_uniform(2, 1e9, 1.0) == pytest.approx(2.0)
    assert gamma_1_closed_uniform(3, 1e9, 1.0) == pytest.approx(4.0)
    lam = 1e-8
    assert gamma_1_closed_uniform(2, lam, 1.0) == pytest.approx(
        2 * lam * math.pi, rel=1e-4
    )


# ----------------------------------------------------------------- estimators

def test_mu_k_estimate_matches_closed_form():
    for d in (2, 3):
        est = mu_k_estimate(1, d, uniform_box(d), 100_000, substream(400, d))
        # for k=1 the hull indicator is identically 1 on the sampling
        # domain, so the estimator collapses to the closed form exactly
        assert est.value == pytest.approx(mu_1_closed(uniform_box(d)).value)


def test_mu_2_dual_estimator_agreement():
    """Radial-reduction oracle vs the ball-sampling estimator."""
    d = 2
    a = mu_k_estimate(2, d, uniform_box(d), 150_000, substream(401, 0))
    i2 = structure_integral(2, d, 150_000, substream(401, 1))
    b = Estimate(i2.value / math.factorial(3), i2.std_err / math.factorial(3), i2.samples)
    assert a.agrees(b)
    assert a.value > 0


def test_gamma_1_estimate_matches_closed_form():
    est = gamma_k_estimate(1, 2, uniform_box(2), 1.0, 150_000, substream(402, 0))
    assert est.agrees(gamma_1_closed_uniform(2, 1.0, 1.0))


def test_gamma_1_inf_is_exact_power_of_two():
    for d, target in ((2, 2.0), (3, 4.0)):
        est = gamma_k_inf_estimate(1, d, 50_000, substream(403, d))
        assert est.value == pytest.approx(target, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gamma_1_inf_is_bit_exact(d):
    """h(0, u) R(0, u)^(-d) is 2^d for a pair, up to the rounding of |u|,
    and the factor is exactly 1/2, so the estimate is exactly 2^(d-1)."""
    for seed in (404, 405, 406):
        est = gamma_k_inf_estimate(1, d, 20_000, substream(seed, d))
        assert est.value == 2.0 ** (d - 1)
        assert est.std_err <= 1e-9 * est.value


def test_near_constant_integrand_has_no_cancellation_noise():
    """The 20 000 values are 8 within a few ulp, so the standard error is
    below 1e-15; s2/n - mean^2 would leave about 1e-9 of rounding noise."""
    est = gamma_k_inf_estimate(1, 4, 20_000, substream(404, 4))
    assert est.value == 8.0
    assert est.std_err < 1e-12


def test_gamma_inf_alternating_sum_d3():
    rng = substream(404, 0)
    samples = {1: 50_000, 2: 500_000, 3: 1_600_000}
    g = [gamma_k_inf_estimate(k, 3, samples[k], rng) for k in (1, 2, 3)]
    assert all(e.std_err < 0.02 for e in g)
    total = 1.0 - g[0].value + g[1].value - g[2].value
    se = math.sqrt(sum(e.std_err**2 for e in g))
    assert abs(total) < 3 * se


def test_gamma_monotone_in_lambda_saturates():
    d, k = 3, 1
    f = uniform_box(d)
    vals = []
    for i, lam in enumerate((1.0, 4.0, 16.0, 64.0, 256.0)):
        vals.append(gamma_k_estimate(k, d, f, lam, 200_000, substream(405, i)))
    inf = gamma_k_inf_estimate(k, d, 50_000, substream(405, 9))
    for lo, hi in zip(vals, vals[1:]):
        assert hi.value > lo.value - 3 * math.hypot(lo.std_err, hi.std_err)
    assert vals[-1].value == pytest.approx(inf.value, rel=0.05)


def test_eta_1_estimate_matches_closed_form():
    est = eta_k_estimate(1, 2, uniform_box(2), 1.0, 200_000, substream(406, 0))
    assert est.agrees(eta_1_closed_uniform(2, 1.0, 1.0))


def test_eta_inf_is_k_gamma_inf():
    for k in (1, 2):
        eta = eta_k_estimate(k, 3, None, INF, 100_000, substream(407, k))
        gam = gamma_k_inf_estimate(k, 3, 100_000, substream(407, 10 + k))
        assert eta.agrees(Estimate(k * gam.value, k * gam.std_err, gam.samples))


# --------------------------------------------------------- variance constants

def test_variance_constants_ordering():
    vc = variance_constants_estimate(
        1, 2, uniform_box(2), 1.0, 150_000, substream(408, 0)
    )
    assert set(vc.gamma_k_j) == {0, 1}
    assert vc.sigma2_hat.value > vc.sigma2.value > 0
    assert not vc.negative_variance
    assert vc.alpha_k.value == pytest.approx(
        2 * vc.gamma_k.value - vc.eta_k.value
    )
    assert vc.sigma2_hat.value == pytest.approx(
        vc.gamma_k.value + sum(e.value for e in vc.gamma_k_j.values())
    )
    assert vc.sigma2.value == pytest.approx(
        vc.sigma2_hat.value - vc.alpha_k.value**2
    )


def test_variance_constants_inf_regime():
    vc = variance_constants_estimate(1, 2, None, INF, 100_000, substream(409, 0))
    assert vc.gamma_k.value == pytest.approx(2.0, rel=1e-9)
    assert vc.sigma2_hat.value > vc.sigma2.value > 0


def test_variance_constants_std_errs_match_spread():
    """The std errors of the combinations, which include the covariance of
    their parts on common draws, match the spread over independent runs."""
    runs = [variance_constants_estimate(1, 2, uniform_box(2), 1.0, 2000, substream(412, i))
            for i in range(60)]
    for name in ("sigma2_hat", "alpha_k", "sigma2"):
        ests = [getattr(vc, name) for vc in runs]
        spread = np.std([e.value for e in ests], ddof=1)
        ratio = spread / np.mean([e.std_err for e in ests])
        assert 0.7 < ratio < 1.4, (name, ratio)


@pytest.mark.parametrize("lam", [1.0, INF])
def test_one_pass_pair_constants_match_standalone(lam):
    f = None if math.isinf(lam) else uniform_box(2)
    vc = variance_constants_estimate(1, 2, f, lam, 50_000, substream(413, 0))
    alone = {1: gamma_k_j_estimate(1, 1, 2, f, lam, 50_000, substream(413, 1)),
             0: gamma_k_0_estimate(1, 2, f, lam, 50_000, substream(413, 2))}
    for j, est in alone.items():
        assert vc.gamma_k_j[j].agrees(est, n_sigma=4.0), (j, vc.gamma_k_j[j], est)
        assert vc.gamma_k_j[j].samples == 50_000


ESTIMATORS = pytest.mark.parametrize("estimator", [
    lambda f, lam, samples=1000: gamma_k_estimate(1, 2, f, lam, samples),
    lambda f, lam, samples=1000: eta_k_estimate(1, 2, f, lam, samples),
    lambda f, lam, samples=1000: gamma_k_j_estimate(1, 1, 2, f, lam, samples),
    lambda f, lam, samples=1000: gamma_k_0_estimate(1, 2, f, lam, samples),
    lambda f, lam, samples=1000: variance_constants_estimate(1, 2, f, lam, samples),
], ids=["gamma_k", "eta_k", "gamma_k_j", "gamma_k_0", "variance_constants"])


@pytest.mark.parametrize("lam", [0.0, -1.0])
@ESTIMATORS
def test_nonpositive_lambda_raises(estimator, lam):
    with pytest.raises(ValueError, match="lambda"):
        estimator(uniform_box(2), lam)


@pytest.mark.parametrize("samples", [0, -5])
@ESTIMATORS
def test_bad_sample_count_raises(estimator, samples):
    with pytest.raises(ValueError, match="samples"):
        estimator(uniform_box(2), 1.0, samples)


@ESTIMATORS
def test_density_of_another_dimension_raises(estimator):
    with pytest.raises(ValueError, match=r"f\.dim = 3.* d = 2"):
        estimator(uniform_box(3), 1.0)


def test_mu_k_refuses_a_density_of_another_dimension():
    with pytest.raises(ValueError, match=r"f\.dim = 2.* d = 3"):
        mu_k_estimate(1, 3, uniform_box(2), 1000)


# --------------------------------------------------------------- MC mechanics

def test_estimators_deterministic_given_seed():
    a = gamma_k_estimate(1, 2, uniform_box(2), 1.0, 50_000, substream(410, 0))
    b = gamma_k_estimate(1, 2, uniform_box(2), 1.0, 50_000, substream(410, 0))
    assert a.value == b.value and a.std_err == b.std_err


def test_std_err_scales_with_samples():
    """Quadrupling the sample count halves the standard error, about."""
    small = mu_k_estimate(2, 2, uniform_box(2), 50_000, substream(411, 0))
    big = mu_k_estimate(2, 2, uniform_box(2), 200_000, substream(411, 1))
    ratio = big.std_err / small.std_err
    assert 0.4 < ratio < 0.62


def test_estimate_agrees_overloads():
    e = Estimate(1.0, 0.1, 10)
    assert e.agrees(1.25)
    assert not e.agrees(1.45)
    assert e.agrees(Estimate(1.5, 0.2, 10))
    assert exact(2.0).std_err == 0.0


# ---------------------------------------------------------------- export table

def test_constants_table_schema():
    est = Estimate(1.5, 0.01, 1000)
    entries = [("gamma_k", 1, None, 1.0, est), ("gamma_k_j", 1, 0, 1.0, est)]
    table = constants_table(entries, seed=7)
    assert "gamma_k|k=1|j=-|lambda=1.0" in table
    row = table["gamma_k|k=1|j=-|lambda=1.0"]
    assert row == {"value": 1.5, "std_err": 0.01, "samples": 1000, "seed": 7}
    assert json.loads(json.dumps(table)) == table  # JSON-ready as it is
