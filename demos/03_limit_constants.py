"""Limit constants of critical-point counts: closed forms vs Monte Carlo.

For a Poisson or iid cloud with radius r_n = (c^d / n)^(1/d) ("critical"
scaling), the expected number of index-k critical points grows like
gamma_k(lambda) * n with lambda = c^d; the subcritical analogue is
mu_k, and the fluctuations are governed by sigma2_hat_k (Poisson input)
and sigma2_k (iid input).  This demo evaluates the Monte Carlo
estimators against every closed form available and prints the variance
decomposition for k = 1 on the unit square.

Run:  python3 demos/03_limit_constants.py   (about 2 s)
"""

import math

from randcech.pointproc import substream, uniform_box
from randcech.theory import (
    eta_1_closed_uniform,
    eta_k_estimate,
    gamma_1_closed_uniform,
    gamma_k_estimate,
    gamma_k_inf_estimate,
    mu_1_closed,
    mu_k_estimate,
    variance_constants_estimate,
)

SEED = 20240818


def line(name, est, closed=None):
    tail = ""
    if closed is not None:
        ok = est.agrees(closed) or math.isclose(est.value, closed, rel_tol=1e-9)
        tail = f"   closed form {closed:.6f}  ({'agrees' if ok else 'DISAGREES'})"
    print(f"  {name:<14} {est.value: .6f} +- {est.std_err:.6f}{tail}")


def main() -> None:
    d, lam = 2, 1.0
    f = uniform_box(d)
    print(f"uniform density on the unit square, lambda = {lam}\n")

    print("means:")
    line("mu_1", mu_k_estimate(1, d, f, 100_000, substream(SEED, 0)),
         mu_1_closed(f).value)
    line("gamma_1(1)", gamma_k_estimate(1, d, f, lam, 200_000, substream(SEED, 1)),
         gamma_1_closed_uniform(d, lam, 1.0))
    line("gamma_1(inf)", gamma_k_inf_estimate(1, d, 50_000, substream(SEED, 2)),
         2.0 ** (d - 1))
    line("eta_1(1)", eta_k_estimate(1, d, f, lam, 200_000, substream(SEED, 3)),
         eta_1_closed_uniform(d, lam, 1.0))
    line("gamma_2(1)", gamma_k_estimate(2, d, f, lam, 400_000, substream(SEED, 4)))
    line("gamma_2(inf)", gamma_k_inf_estimate(2, d, 400_000, substream(SEED, 5)))

    print("\nvariance constants for k = 1 (one pass over 300k common samples):")
    vc = variance_constants_estimate(1, d, f, lam, 300_000, substream(SEED, 6))
    line("gamma_1", vc.gamma_k)
    for j, est in sorted(vc.gamma_k_j.items()):
        line(f"gamma_1^({j})", est)
    line("eta_1", vc.eta_k)
    line("alpha_1", vc.alpha_k)
    line("sigma2_hat_1", vc.sigma2_hat)
    line("sigma2_1", vc.sigma2)
    print("\n  sigma2_hat is the Poisson-input variance per point;")
    print("  subtracting alpha_1^2 de-Poissonizes it to the iid value.")
    print("  gamma_1^(0) < 0 is real: disjoint nearby critical pairs are")
    print("  anti-correlated because each one's empty ball excludes the")
    print("  other's generators.")

    total = 1.0
    ses = []
    print("\nglobal identity in d = 3: 1 - g1 + g2 - g3 = 0 at lambda = inf")
    for k, m in ((1, 50_000), (2, 300_000), (3, 800_000)):
        est = gamma_k_inf_estimate(k, 3, m, substream(SEED, 10 + k))
        total += (-1) ** k * est.value
        ses.append(est.std_err)
        line(f"gamma_{k}(inf)", est)
    print(f"  alternating sum {total:+.4f} +- {math.hypot(*ses):.4f}")


if __name__ == "__main__":
    main()
