"""Euler characteristic of a random Cech complex across radius regimes.

With n points in the unit square and radius r_n = c * n^(-beta), the
normalized Euler characteristic chi_n / n has three phases:

* beta > 1/2 (subcritical / dust): isolated vertices dominate and
  chi_n / n -> 1;
* beta = 1/2 (critical): chi_n / n -> 1 - gamma_1(lambda) + gamma_2(lambda),
  a computable constant that can be negative (cycles outnumber
  components);
* beta < 1/2 with the connectivity-rule radius r_n^2 = D* log(n)/n
  (supercritical): the union of balls becomes contractible and
  chi_n -> 1, so chi_n / n -> 0.

This demo sweeps the three phases at moderate sizes and prints the
measured chi_n / n next to the limit prediction.

Run:  python3 demos/04_phase_portrait.py   (about 5 s)
"""

from randcech.experiments import ExperimentConfig, euler_phase
from randcech.pointproc import substream, uniform_box
from randcech.theory import gamma_1_closed_uniform, gamma_k_estimate

SEED = 20240819


def sweep(tag, prediction, **cfg_fields):
    cfg = ExperimentConfig(mode="euler_phase", d=2, k_targets=(1, 2),
                           seed=SEED, **cfg_fields)
    res = euler_phase(cfg)
    for n in cfg.n_schedule:
        print(f"  {tag:<13} n={n:<6} chi/n = {res['chi_over_n'][n]:+.4f}"
              f"   limit {prediction:+.4f}")


def main() -> None:
    lam = 1.0
    g1 = gamma_1_closed_uniform(2, lam, 1.0)
    g2 = gamma_k_estimate(2, 2, uniform_box(2), lam, 1_000_000,
                          substream(SEED, 0))
    crit = 1.0 - g1 + g2.value
    print(f"critical-phase limit: 1 - {g1:.4f} + {g2.value:.4f} = {crit:+.4f}"
          f" (+- {g2.std_err:.4f})\n")

    sweep("subcritical", 1.0, c=1.0, beta=0.75,
          n_schedule=(1000, 4000), trials=10)
    sweep("critical", crit, c=1.0, beta=0.5,
          n_schedule=(4000, 16000), trials=10)
    sweep("supercritical", 0.0, rule="log", d_star=1.0, c=1.0, beta=0.25,
          n_schedule=(1000, 4000), trials=10)
    print("\nthe critical value converges from above (boundary effects")
    print("shrink like a surface-to-volume ratio); the supercritical chi")
    print("itself is already 1 once the union of balls is contractible.")


if __name__ == "__main__":
    main()
