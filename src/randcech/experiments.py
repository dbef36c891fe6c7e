"""Seeded Monte Carlo experiments for the critical-point limit theorems.

One trial loop serves every experiment.  It validates the config once,
then draws the cloud of every (n, trial) from its own RNG substream
``substream(seed, n index, trial index)`` with the configured process
(i.i.d. or Poisson), so results are reproducible and independent of
order.  Three modes iterate it, each with work of its own:

* ``counts`` (`run`): critical-point counts below the scheduled radius
  r_n, raw per-trial rows persisted before aggregation;
* ``global_vs_local``: global counts against the radius-restricted ones;
* ``euler_phase``: the Morse-counted Euler characteristic along the
  schedule, cross-audited against the built Čech complex.

`report` runs the config's mode and returns ``{"config", "results"}``;
the distributional diagnostics compare counts with the limit constants
of the theory module.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict, replace
from numbers import Integral, Real

import numpy as np
from scipy import stats as sps

from .enumeration import (
    count_index1,
    counts as tally_counts,
    critical_values_by_index,
    enumerate_grid,
)
from .cech import ComplexTooLarge, build_cech, euler_characteristic
from .pointproc import Density, make_density, sample_iid, sample_poisson, substream
from .theory import RegimeSpec

# largest cloud for which the cross-audit builds the full complex;
# beyond this the simplex count at critical radii is prohibitive
AUDIT_N_CAP = 10_000


class ConfigError(ValueError):
    """Config validation failure; message names the offending field."""


def _ints(xs, lo, hi=math.inf) -> bool:
    """xs is a nonempty list or tuple of integers (not bools) in [lo, hi]."""
    return isinstance(xs, (tuple, list)) and len(xs) > 0 and all(
        isinstance(x, Integral) and not isinstance(x, bool) and lo <= x <= hi for x in xs)


def _positive(*xs) -> bool:
    return all(isinstance(x, Real) and 0 < x < math.inf for x in xs)


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

    def radius(self, n: int) -> float:
        if self.rule == "power":
            return RegimeSpec(self.c, self.beta, self.d).radius(n)
        return (self.d_star * math.log(n) / n) ** (1.0 / self.d)

    def phase(self) -> str:
        """The regime of the power rule, as ``theory.RegimeSpec`` classifies
        it; the log rule is supercritical."""
        if self.rule == "log":
            return "supercritical"
        return RegimeSpec(self.c, self.beta, self.d).classification

    def validate(self) -> None:
        if self.mode not in tuple(MODES):
            raise ConfigError(f"mode: {self.mode!r} not in {tuple(MODES)}")
        if not _ints((self.d,), 1):
            raise ConfigError(f"d: must be an integer >= 1, got {self.d!r}")
        if self.process not in ("iid", "poisson"):
            raise ConfigError(f"process: {self.process!r} not in ('iid', 'poisson')")
        if self.rule not in ("power", "log"):
            raise ConfigError(f"rule: {self.rule!r} not in ('power', 'log')")
        if self.rule == "power" and not _positive(self.c, self.beta):
            raise ConfigError(f"rule.c/rule.beta: need c > 0 and beta > 0")
        if self.rule == "log" and not _positive(self.d_star):
            raise ConfigError("d_star: the log radius rule needs d_star > 0")
        if not _ints(self.n_schedule, 1) or len(set(self.n_schedule)) < len(self.n_schedule):
            raise ConfigError(
                f"n_schedule: need distinct positive integer sizes, got {self.n_schedule!r}"
            )
        for n in self.n_schedule:
            try:
                r = self.radius(n)
            except OverflowError:  # n beyond the range of floats
                r = math.inf
            if not 0 < r < math.inf:
                raise ConfigError(f"n_schedule: the {self.rule} rule gives radius {r!r} "
                                  f"at n = {n}; it must be finite and > 0")
        if not _ints((self.trials,), 1):
            raise ConfigError(f"trials: must be an integer > 0, got {self.trials!r}")
        if not _ints((self.seed,), 0, 2**64 - 1):
            raise ConfigError(f"seed: must be an integer in [0, 2^64), got {self.seed!r}")
        if not _ints(self.k_targets, 0, self.d):
            raise ConfigError(
                f"k_targets: indices must be integers in [0, d={self.d}], got {self.k_targets!r}"
            )
        try:
            f = self.make_density()
        except KeyError as exc:
            raise ConfigError(f"density: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"density_params: {exc}") from None
        if (self.phase() == "supercritical" and not (f.lower_bounded and f.support_convex)
                and not self.annulus_counterexample):
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
        if not isinstance(data, dict) or "mode" not in data:
            raise ConfigError("mode: a config is a JSON object that names its mode")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# the trial loop


def _trials(config: ExperimentConfig):
    """Validate the config, then yield (i, n, eps, t, points) for trial t
    at the i-th scheduled size n, its cloud drawn from substream(seed, i, t)."""
    config.validate()
    f = config.make_density()
    sample = sample_poisson if config.process == "poisson" else sample_iid
    for i, n in enumerate(config.n_schedule):
        eps = config.radius(n)
        for t in range(config.trials):
            yield i, n, eps, t, sample(f, n, substream(config.seed, i, t)).points


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


def _keyed(aggregates: dict) -> dict:
    return {f"n={n}|k={k}": v for (n, k), v in aggregates.items()}


def run(config: ExperimentConfig, out_dir=None) -> TrialStats:
    """Execute a counting experiment: per-trial critical-point counts at
    the scheduled radii, raw rows persisted before aggregation."""
    rows = []
    for _, n, eps, t, points in _trials(config):
        cnts = _trial_counts(points, eps, config.d, config.k_targets)
        rows.extend((n, t, k, c) for k, c in cnts.items())
    rows.sort(key=lambda r: r[:3])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_raw_csv(rows, os.path.join(out_dir, "raw_counts.csv"))
    stats = TrialStats(config, rows, aggregate_from_raw(rows))
    if out_dir is not None:
        with open(os.path.join(out_dir, "aggregates.json"), "w") as fh:
            json.dump({"config": config.to_dict(), "aggregates": _keyed(stats.aggregates)},
                      fh, indent=2, sort_keys=True)
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


def global_vs_local(config: ExperimentConfig) -> dict:
    """Paired global/restricted enumeration per trial.

    Returns per-n mean N_k_global - N_k(r_n) (never negative) for each
    target k; with the annulus flag also the mean of the index-d gap
    (the missing maximum near the hole).
    """
    ks = [k for k in config.k_targets if k >= 1]
    gaps, top = {}, {}
    for _, n, eps, _, points in _trials(config):
        vals = critical_values_by_index(points, k_max=max(
            *config.k_targets, config.d if config.annulus_counterexample else 0))
        gaps.setdefault(n, []).append([int(np.sum(vals[k] > eps)) for k in ks])
        if config.annulus_counterexample:
            top.setdefault(n, []).append(int(np.sum(vals[config.d] > eps)))
    return {
        "gap": {n: dict(zip(ks, np.mean(g, axis=0).tolist())) for n, g in gaps.items()},
        "signed_top_gap": {n: float(np.mean(g)) for n, g in top.items()},
    }


def calibrate_d_star(base: ExperimentConfig, candidates=(1.0, 2.0, 4.0, 8.0),
                     trials: int = 20, gap_tol: float = 0.05) -> float:
    """Smallest D* among the candidates for which the mean global/local
    gap at the largest scheduled n falls below gap_tol."""
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
    counting).  The first few trials at the smallest n (if n <=
    AUDIT_N_CAP and the regime is not supercritical) are cross-audited
    against the simplex-count alternating sum of the built complex;
    ``audit_skipped`` counts those whose complex was too large to build.
    """
    chis = {}
    audited = skipped = 0
    for i, n, eps, t, points in _trials(config):
        chi = tally_counts(enumerate_grid(points, eps), len(points), eps,
                           config.d).alternating_sum()
        chis.setdefault(n, []).append(chi)
        if (i > 0 or t >= audit_trials or n > AUDIT_N_CAP
                or config.phase() == "supercritical"):
            continue
        try:
            cx = build_cech(points, eps)
        except ComplexTooLarge:
            skipped += 1  # chi itself is Morse-counted
            continue
        if euler_characteristic(cx) != chi:
            raise AssertionError(f"Morse/complex Euler mismatch at n={n}, trial {t}")
        audited += 1
    means = {n: float(np.asarray(c, dtype=float).mean()) for n, c in chis.items()}
    return {"chi_over_n": {n: m / n for n, m in means.items()}, "chi_mean": means,
            "audited": audited, "audit_skipped": skipped}


# ---------------------------------------------------------------------------
# one entry point


MODES = {
    "counts": lambda config, out_dir: _keyed(run(config, out_dir).aggregates),
    "global_vs_local": lambda config, out_dir: global_vs_local(config),
    "euler_phase": lambda config, out_dir: euler_phase(config),
}


def report(config: ExperimentConfig, out_dir=None) -> dict:
    """Run the config's mode and return {"config", "results"}; with
    out_dir, also write it to report.json (`run` adds its raw rows and
    aggregates there)."""
    config.validate()  # an unknown mode is a ConfigError, not a KeyError
    out = {"config": config.to_dict(), "results": MODES[config.mode](config, out_dir)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
    return out
