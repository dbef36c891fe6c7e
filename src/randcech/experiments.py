"""Seeded Monte Carlo experiments for the critical-point limit theorems.

Each experiment draws point clouds (i.i.d. or Poisson), counts critical
points of the distance function below the scheduled radius r_n, and
compares scaled empirical statistics against the limit constants from
the theory module.  Every trial runs on its own RNG substream derived
from (master seed, n index, trial index), so results are reproducible
and order-independent; raw per-trial counts are persisted before any
aggregation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import stats as sps

from .enumeration import (
    count_index1,
    counts as tally_counts,
    critical_values_by_index,
    enumerate_grid,
)
from .cech import ComplexTooLarge, build_cech, euler_characteristic

# largest cloud for which the cross-audit builds the full complex;
# beyond this the simplex count at critical radii is prohibitive
AUDIT_N_CAP = 10_000
from .pointproc import Density, make_density, sample_iid, sample_poisson, substream
from .theory import RegimeSpec

MODES = (
    "mean_scaling",
    "variance_scaling",
    "poisson_limit",
    "clt",
    "global_vs_local",
    "euler_phase",
    "gamma_curve",
    "morse_euler_audit",
)


class ConfigError(ValueError):
    """Config validation failure; message names the offending field."""


@dataclass
class ExperimentConfig:
    mode: str
    d: int = 2
    density: str = "uniform_box"
    density_params: dict = field(default_factory=dict)
    process: str = "iid"  # "iid" | "poisson"
    rule: str = "power"  # "power": r_n = c n^-beta; "log": (d_star log n / n)^(1/d)
    c: float = 1.0
    beta: float = 0.5
    d_star: float | None = None
    k_targets: tuple = (1,)
    n_schedule: tuple = (1000, 2000, 4000, 8000)
    trials: int = 200
    seed: int = 0
    annulus_counterexample: bool = False

    # -- derived -------------------------------------------------------------

    def make_density(self) -> Density:
        return make_density(self.density, self.d, **self.density_params)

    def regime(self) -> RegimeSpec | None:
        if self.rule == "power":
            return RegimeSpec(self.c, self.beta, self.d)
        return None

    def radius(self, n: int) -> float:
        if self.rule == "power":
            return self.c * n ** (-self.beta)
        return (self.d_star * math.log(n) / n) ** (1.0 / self.d)

    def is_supercritical(self) -> bool:
        if self.rule == "log":
            return True
        return self.beta < 1.0 / self.d

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: {self.mode!r} not in {MODES}")
        if self.d < 1:
            raise ConfigError(f"d: must be >= 1, got {self.d}")
        if self.process not in ("iid", "poisson"):
            raise ConfigError(f"process: {self.process!r} not in ('iid', 'poisson')")
        if self.rule not in ("power", "log"):
            raise ConfigError(f"rule: {self.rule!r} not in ('power', 'log')")
        if self.rule == "power" and (self.c <= 0 or self.beta <= 0):
            raise ConfigError(f"rule.c/rule.beta: need c > 0 and beta > 0")
        if self.rule == "log" and (self.d_star is None or self.d_star <= 0):
            raise ConfigError("d_star: the log radius rule needs d_star > 0")
        if not self.n_schedule or any(int(n) <= 0 for n in self.n_schedule):
            raise ConfigError(f"n_schedule: need positive sizes, got {self.n_schedule}")
        if self.trials <= 0:
            raise ConfigError(f"trials: must be > 0, got {self.trials}")
        if not self.k_targets or any(not 0 <= k <= self.d for k in self.k_targets):
            raise ConfigError(
                f"k_targets: indices must lie in [0, d={self.d}], got {self.k_targets}"
            )
        if self.is_supercritical():
            f = self.make_density()
            if not (f.lower_bounded and f.support_convex):
                if not self.annulus_counterexample:
                    raise ConfigError(
                        "density: supercritical runs need a lower-bounded density "
                        "with convex support; set annulus_counterexample to waive"
                    )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        out["k_targets"] = list(self.k_targets)
        out["n_schedule"] = list(self.n_schedule)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.k_targets = tuple(cfg.k_targets)
        cfg.n_schedule = tuple(cfg.n_schedule)
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# trial execution


def _sample_cloud(f: Density, n: int, process: str, rng):
    if process == "poisson":
        return sample_poisson(f, n, rng)
    return sample_iid(f, n, rng)


def _trial_counts(points: np.ndarray, eps: float, d: int, k_targets) -> dict:
    """Counts of critical points with value <= eps for the target indices."""
    ks = sorted(k for k in k_targets if k >= 1)
    out = {0: len(points)}
    if not ks:
        return out
    if ks == [1]:
        out[1] = count_index1(points, eps)
        return out
    cps = enumerate_grid(points, eps, k_max=max(ks))
    cc = tally_counts(cps, len(points), eps, d)
    for k in ks:
        out[k] = int(cc.by_index[k])
    return out


@dataclass
class TrialStats:
    config: ExperimentConfig
    raw: list  # rows (n, trial, k, count), canonical order
    aggregates: dict  # (n, k) -> {mean, variance, skewness, excess_kurtosis, trials}

    def counts_for(self, n: int, k: int) -> np.ndarray:
        return np.asarray(
            [c for (nn, _, kk, c) in self.raw if nn == n and kk == k], dtype=float
        )


def aggregate_from_raw(rows) -> dict:
    """Per-(n, k) aggregates; recomputable offline from the raw CSV."""
    groups: dict = {}
    for n, _, k, c in rows:
        groups.setdefault((int(n), int(k)), []).append(float(c))
    out = {}
    for key, vals in sorted(groups.items()):
        v = np.asarray(vals)
        mean = float(v.mean())
        var = float(v.var(ddof=1)) if len(v) > 1 else 0.0
        if var > 0:
            skew = float(sps.skew(v))
            kurt = float(sps.kurtosis(v))
        else:
            skew = 0.0
            kurt = 0.0
        out[key] = {
            "mean": mean,
            "variance": var,
            "skewness": skew,
            "excess_kurtosis": kurt,
            "trials": len(v),
        }
    return out


def save_raw_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("n,trial,k,count\n")
        for n, t, k, c in rows:
            fh.write(f"{n},{t},{k},{c}\n")


def load_raw_csv(path) -> list:
    rows = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            n, t, k, c = line.strip().split(",")
            rows.append((int(n), int(t), int(k), int(c)))
    return rows


def run(config: ExperimentConfig, out_dir=None) -> TrialStats:
    """Execute a counting experiment: per-trial critical-point counts at
    the scheduled radii, raw rows persisted before aggregation."""
    config.validate()
    f = config.make_density()
    rows = []
    for i, n in enumerate(config.n_schedule):
        eps = config.radius(n)
        for t in range(config.trials):
            rng = substream(config.seed, i, t)
            cloud = _sample_cloud(f, n, config.process, rng)
            cnts = _trial_counts(cloud.points, eps, config.d, config.k_targets)
            for k in sorted(cnts):
                rows.append((n, t, k, cnts[k]))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        save_raw_csv(rows, os.path.join(out_dir, "raw_counts.csv"))
    stats = TrialStats(config, rows, aggregate_from_raw(rows))
    if out_dir is not None:
        with open(os.path.join(out_dir, "aggregates.json"), "w") as fh:
            json.dump(
                {
                    "config": config.to_dict(),
                    "aggregates": {
                        f"n={n}|k={k}": v for (n, k), v in stats.aggregates.items()
                    },
                },
                fh,
                indent=2,
                sort_keys=True,
            )
    return stats


# ---------------------------------------------------------------------------
# distributional diagnostics


def empirical_dtv_poisson(samples, mean: float) -> float:
    """Total-variation distance between the empirical distribution of
    integer samples and Poisson(mean); the tail beyond the largest
    observed value is summed analytically."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    samples = np.asarray(samples, dtype=np.int64)
    top = int(samples.max(initial=0))
    emp = np.bincount(samples, minlength=top + 1) / len(samples)
    theo = sps.poisson.pmf(np.arange(top + 1), mean)
    tail = float(sps.poisson.sf(top, mean))
    return 0.5 * (float(np.abs(emp - theo).sum()) + tail)


def normality_diagnostics(samples) -> dict:
    """Standardized moments and KS statistic against the fitted normal."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 200:
        raise ValueError("need at least 200 samples")
    sd = samples.std(ddof=1)
    if sd == 0:
        raise ValueError("degenerate (constant) samples")
    ks = sps.kstest(samples, "norm", args=(samples.mean(), sd))
    return {
        "skewness": float(sps.skew(samples)),
        "excess_kurtosis": float(sps.kurtosis(samples)),
        "ks_stat_vs_fitted_normal": float(ks.statistic),
    }


# ---------------------------------------------------------------------------
# global vs radius-restricted counts


def global_vs_local(config: ExperimentConfig, k_max: int | None = None) -> dict:
    """Paired global/restricted enumeration per trial.

    Returns per-n mean |N_k_global - N_k(r_n)| for each target k; with
    the annulus flag also the signed mean of the index-d gap (the
    missing maximum near the hole).
    """
    config.validate()
    f = config.make_density()
    k_max = max(config.k_targets) if k_max is None else k_max
    out = {"gap": {}, "signed_top_gap": {}}
    for i, n in enumerate(config.n_schedule):
        eps = config.radius(n)
        gaps = {k: [] for k in config.k_targets if k >= 1}
        signed = []
        for t in range(config.trials):
            rng = substream(config.seed, i, t)
            cloud = _sample_cloud(f, n, config.process, rng)
            vals = critical_values_by_index(cloud.points, k_max=k_max)
            for k in gaps:
                n_g = len(vals[k])
                n_loc = int(np.sum(vals[k] <= eps))
                gaps[k].append(n_g - n_loc)
            if config.annulus_counterexample:
                top = vals[config.d]
                signed.append(len(top) - int(np.sum(top <= eps)))
        out["gap"][n] = {k: float(np.mean(np.abs(v))) for k, v in gaps.items()}
        if signed:
            out["signed_top_gap"][n] = float(np.mean(signed))
    return out


def calibrate_d_star(base: ExperimentConfig, candidates=(1.0, 2.0, 4.0, 8.0),
                     trials: int = 20, gap_tol: float = 0.05) -> float:
    """Smallest D* among the candidates for which the mean global/local
    gap at the largest scheduled n falls below gap_tol."""
    from dataclasses import replace

    n_top = max(base.n_schedule)
    for d_star in candidates:
        cfg = replace(
            base, rule="log", d_star=d_star, n_schedule=(n_top,), trials=trials
        )
        res = global_vs_local(cfg)
        gap = max(res["gap"][n_top].values())
        if gap < gap_tol:
            return d_star
    return candidates[-1]


# ---------------------------------------------------------------------------
# Euler characteristic phase diagram


def euler_phase(config: ExperimentConfig, audit_trials: int = 3) -> dict:
    """Mean Euler characteristic along the n schedule.

    chi_n is the alternating sum of critical-point counts at r_n (Morse
    counting); the first few trials at the smallest n are cross-audited
    against the simplex-count alternating sum of the built complex.
    """
    config.validate()
    f = config.make_density()
    out = {"chi_over_n": {}, "chi_mean": {}, "audited": 0}
    for i, n in enumerate(config.n_schedule):
        eps = config.radius(n)
        chis = []
        for t in range(config.trials):
            rng = substream(config.seed, i, t)
            cloud = _sample_cloud(f, n, config.process, rng)
            cps = enumerate_grid(cloud.points, eps)
            cc = tally_counts(cps, cloud.n, eps, config.d)
            chi = cc.alternating_sum()
            if (i == 0 and t < audit_trials and n <= AUDIT_N_CAP
                    and not config.is_supercritical()):
                try:
                    cx = build_cech(cloud.points, eps)
                except ComplexTooLarge:
                    pass  # audit is best-effort; chi itself is Morse-counted
                else:
                    if euler_characteristic(cx) != chi:
                        raise AssertionError(
                            f"Morse/complex Euler mismatch at n={n}, trial {t}"
                        )
                    out["audited"] += 1
            chis.append(chi)
        chis = np.asarray(chis, dtype=float)
        out["chi_over_n"][n] = float(chis.mean() / n)
        out["chi_mean"][n] = float(chis.mean())
    return out
