"""Limit constants for critical-point counts of random distance functions.

With r_n = c * n^(-beta), the scaled counts of index-k critical points
converge to constants determined by the regime of n * r_n^d:

* subcritical (beta > 1/d): E[N_k,n] ~ mu_k * n^(k+1) r_n^(dk); the
  critical index k_c = floor(1/(d beta - 1)) separates the indices whose
  counts diverge from those that vanish.
* critical (beta = 1/d, lambda = c^d): E[N_k,n]/n -> gamma_k(lambda),
  Var[N_k,n]/n -> sigma2_k(lambda) with a CLT.
* the global count (no radius restriction) scales with gamma_k(inf).

All constants are integrals of geometric indicator functions:
h(0, y) asks that the circumcenter of the k+1 points (0, y) lie in
their open convex hull, and h_1 additionally bounds the circumradius
by 1.  Closed forms are used where they exist (k = 1, uniform
densities); everything else is seeded Monte Carlo with reported
standard errors.

One sampler and one accumulator serve every Monte Carlo estimate.  The
sampler draws x ~ f and coordinate blocks y uniform in B(0, 2), the
support of h_1.  For lambda = inf the radial part is done analytically:
the indicators are scale-invariant and the weights homogeneous of degree
d, so each integral becomes a bounded expectation over the unit sphere
of its coordinate space, drawn as normal blocks divided by their norm.
The variance constants share one set of draws (common random numbers),
and the standard errors of their combinations include the covariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln

from .geometry import (
    circumspheres_batch,
    two_ball_union_volumes_batch,
    unit_ball_volume,
)
from .pointproc import Density

INF = math.inf

DEFAULT_SAMPLES = 200_000
_CHUNK = 100_000


class WrongRegime(ValueError):
    pass


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_err: float
    samples: int = 0

    def agrees(self, other, n_sigma: float = 3.0) -> bool:
        """Within n_sigma combined standard errors of a float or Estimate."""
        if isinstance(other, Estimate):
            se = math.hypot(self.std_err, other.std_err)
            other = other.value
        else:
            se = self.std_err
        return abs(self.value - float(other)) <= n_sigma * max(se, 1e-300)


def exact(value: float) -> Estimate:
    return Estimate(float(value), 0.0, 0)


@dataclass(frozen=True)
class RegimeSpec:
    """Radius rule r_n = c * n^(-beta) in dimension d."""

    c: float
    beta: float
    d: int

    def __post_init__(self):
        if self.c <= 0 or self.beta <= 0 or self.d < 1:
            raise ValueError("need c > 0, beta > 0, d >= 1")

    def radius(self, n: float) -> float:
        return self.c * n ** (-self.beta)

    @property
    def classification(self) -> str:
        if self.beta > 1.0 / self.d:
            return "subcritical"
        if self.beta == 1.0 / self.d:
            return "critical"
        return "supercritical"

    @property
    def lam(self) -> float:
        """Limit of n r_n^d: 0, c^d, or inf by regime."""
        if self.classification == "critical":
            return self.c**self.d
        return 0.0 if self.classification == "subcritical" else INF


@dataclass(frozen=True)
class CriticalIndex:
    value: int
    clamped: bool


def critical_index(spec: RegimeSpec) -> CriticalIndex:
    """Largest index whose expected count diverges in the subcritical
    regime: floor(alpha) with alpha = 1/(d beta - 1), clamped to [0, d]."""
    if spec.classification != "subcritical":
        raise WrongRegime(f"critical index needs beta > 1/d, got {spec.classification}")
    alpha = 1.0 / (spec.d * spec.beta - 1.0)
    kc = math.floor(alpha)
    if kc > spec.d:
        return CriticalIndex(spec.d, True)
    if kc < 1:
        return CriticalIndex(0, True)
    return CriticalIndex(kc, False)


# ---------------------------------------------------------------------------
# closed forms


def mu_1_closed(f: Density) -> Estimate:
    """mu_1 = 2^(d-1) * omega_d * int f^2."""
    d = f.dim
    f2 = f.integral_f_power(2.0)
    if f2 is None:
        raise ValueError("no closed form for int f^2; use mu_k_estimate")
    return exact(2.0 ** (d - 1) * unit_ball_volume(d) * f2)


def gamma_1_closed_uniform(d: int, lam: float, vol_D: float) -> float:
    """gamma_1(lambda) for the uniform density on a set of volume vol_D:
    2^(d-1) * (1 - exp(-lambda omega_d / vol_D))."""
    if vol_D <= 0:
        raise ValueError("vol_D must be > 0")
    if math.isinf(lam):
        return 2.0 ** (d - 1)
    return 2.0 ** (d - 1) * (1.0 - math.exp(-lam * unit_ball_volume(d) / vol_D))


def eta_1_closed_uniform(d: int, lam: float, vol_D: float) -> float:
    """eta_1(lambda) for the uniform density, by direct integration of
    the radial profile: 2^(d-1) * (1 - e^(-c)(1 + c)), c = lambda omega_d / vol_D."""
    if math.isinf(lam):
        return 2.0 ** (d - 1)
    c = lam * unit_ball_volume(d) / vol_D
    return 2.0 ** (d - 1) * (1.0 - math.exp(-c) * (1.0 + c))


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^(dim-1) in R^dim."""
    return float(np.exp(math.log(2.0) + 0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim)))


# ---------------------------------------------------------------------------
# Monte Carlo kernel: one sampler, one accumulator


def _mc_mean(fn, samples: int, rng):
    """Chunked streaming means of the rows of ``fn(rng, m)``, a (p, m)
    array of per-sample values, and their covariance, from the sums of v_i
    and of v_i v_j.  Deterministic for a given rng state and sample count,
    but not independent of the chunking: each chunk draws all blocks of
    one kind before the next."""
    done = 0
    s = s2 = 0.0
    while done < samples:
        m = min(_CHUNK, samples - done)
        v = np.asarray(fn(rng, m), dtype=float)
        s = s + v.sum(axis=1)
        s2 = s2 + np.array([[(a * b).sum() for b in v] for a in v])
        done += m
    mean = s / samples
    return mean, (s2 / samples - np.outer(mean, mean)) / samples


def _with_origin(y: np.ndarray) -> np.ndarray:
    """Prepend the origin to each (m, k, d) tuple -> (m, k+1, d)."""
    m, _, d = y.shape
    return np.concatenate([np.zeros((m, 1, d)), y], axis=1)


def _outside_ball(points, centers, radii) -> np.ndarray:
    """All of the (m, t, d) points at distance >= radius from the center."""
    dist = np.linalg.norm(points - centers[:, None, :], axis=2)
    return np.all(dist >= radii[:, None], axis=1)


class _Integrand(NamedTuple):
    blocks: int  # leading coordinate blocks read; for lambda = inf, the sphere
    density: bool  # reads f(x)
    value: Callable  # _Draws -> (m,) per-sample values


class _Draws:
    """One chunk of common random numbers: ``fx`` = f(x) for x ~ f, and
    ``width`` blocks of R^d per sample, uniform in B(0, 2) for finite
    lambda and standard normal for lambda = inf.  There an integrand's
    leading ``sel`` blocks are divided by their joint norm, uniform on the
    unit sphere of R^(d sel).  Circumsphere batches are solved once."""

    def __init__(self, rng, m: int, d: int, f: Density | None, width: int, inf: bool):
        self.m, self.inf = m, inf
        self.fx = None if f is None else f.pdf(f.sample(rng, m))
        self.u = rng.normal(size=(m, width, d)) if width else None
        if width and not inf:
            norms = np.linalg.norm(self.u, axis=2, keepdims=True)
            radii = 2.0 * rng.random((m, width, 1)) ** (1.0 / d)
            self.u = self.u / np.where(norms > 0, norms, 1.0) * radii
        self._norms, self._spheres = {}, {}

    def points(self, cols: tuple, sel: int) -> np.ndarray:
        """The (m, len(cols), d) blocks ``cols`` of the selection ``sel``."""
        u = self.u[:, list(cols)]
        if not self.inf:
            return u
        if sel not in self._norms:
            norms = np.linalg.norm(self.u[:, :sel].reshape(self.m, -1), axis=1)
            self._norms[sel] = np.where(norms > 0, norms, 1.0)[:, None, None]
        return u / self._norms[sel]

    def sphere(self, cols: tuple, sel: int):
        """(h, radii, centers) of the tuples (0, points(cols, sel)), where h
        says that the circumcenter lies in the open convex hull."""
        key = (cols, sel if self.inf else None)
        if key not in self._spheres:
            centers, radii, bary, ok = circumspheres_batch(_with_origin(self.points(cols, sel)))
            self._spheres[key] = (ok & np.all(bary > 0.0, axis=1), radii, centers)
        return self._spheres[key]


def _integrate(integrands: list, d: int, samples: int, rng, f: Density | None = None,
               lam: float | None = None):
    """Means of ``integrands`` on one set of draws, and their covariance.

    ``lam`` is finite, inf (normal blocks put on spheres) or None for the
    integrals that carry no intensity (mu_k).  Every estimator passes its
    lambda and sample count through here, so this is where bad ones are
    refused.
    """
    if not samples >= 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    inf = lam == INF
    if lam is not None and not inf:
        if not lam > 0:
            raise ValueError(f"lambda must be > 0 or inf, got {lam}")
        if f is None:
            raise ValueError("finite lambda needs a density")
    rng = np.random.default_rng(0) if rng is None else rng
    width = max(ig.blocks for ig in integrands)
    density = f if any(ig.density for ig in integrands) else None

    def values(r, m):
        draws = _Draws(r, m, d, density, width, inf)
        return [ig.value(draws) for ig in integrands]

    return _mc_mean(values, samples, rng)


def _estimate(integrand: _Integrand, d: int, samples: int, rng, f=None, lam=None) -> Estimate:
    mean, cov = _integrate([integrand], d, samples, rng, f, lam)
    return Estimate(float(mean[0]), math.sqrt(max(cov[0, 0], 0.0)), samples)


def _hull(k: int, factor: float, term, density: bool = True) -> _Integrand:
    """factor * h_1(0, y) * term(R(0, y), f(x)) on the k blocks y; with
    lambda = inf the hull indicator h(0, u) alone, u on the sphere."""
    cols = tuple(range(k))

    def value(draws):
        h, radii, _ = draws.sphere(cols, k)
        good = h if draws.inf else h & (radii <= 1.0)
        vals = np.zeros(draws.m)
        vals[good] = term(radii[good], None if draws.fx is None else draws.fx[good])
        return factor * vals

    return _Integrand(k, density, value)


def _radial(k: int, d: int, factor: float) -> _Integrand:
    """factor * h(0, u) R(0, u)^(-dk) for u on the unit sphere of R^(dk)."""
    return _hull(k, factor, lambda r, fx: r ** (-(d * k)), density=False)


def _gamma_inf_factor(k: int, d: int) -> float:
    omega = unit_ball_volume(d)
    return sphere_area(d * k) * math.gamma(k) / (d * omega**k * math.factorial(k + 1))


def _gamma(k: int, d: int, lam: float) -> _Integrand:
    if lam == INF:
        return _radial(k, d, _gamma_inf_factor(k, d))
    omega = unit_ball_volume(d)
    w = (2.0**d * omega) ** k
    return _hull(k, lam**k * w / math.factorial(k + 1),
                 lambda r, fx: fx**k * np.exp(-lam * omega * r**d * fx))


def _eta(k: int, d: int, lam: float) -> _Integrand:
    if lam == INF:
        return _radial(k, d, k * _gamma_inf_factor(k, d))
    omega = unit_ball_volume(d)
    w = (2.0**d * omega) ** k

    def term(r, fx):
        vol = omega * r**d
        return fx ** (k + 1) * vol * np.exp(-lam * vol * fx)

    return _hull(k, lam ** (k + 1) * w / math.factorial(k + 1), term)


def _pair(k: int, j: int, d: int, lam: float) -> _Integrand:
    """Integrand of gamma_k^(j), 0 <= j <= k, on 2k+1-j blocks.

    The first subset is (0, y) on blocks 0..k-1, the tuple of gamma_k.
    For j >= 1 the second is (0, y2, z): a = k+1-j private blocks y2
    after y, and the last j-1 blocks z of y.  For j = 0 it is (z, z + y2)
    with y2 on blocks k..2k-1 and the offset z on block 2k.  Each
    subset's private points must lie outside the other's open circumball.
    The value is h1 h2 V_union^-(2k+1-j) for lambda = inf, else
    h_1 h_1 f^(2k+1-j) e^(-lam V_union f).
    """
    a, sel = k + 1 - j, 2 * k + 1 - j
    inf = lam == INF
    omega = unit_ball_volume(d)
    first = tuple(range(k))
    second = tuple(range(k, k + min(a, k))) + first[a:]
    comb = 1.0 / (math.factorial(j) * math.factorial(a) ** 2)
    if inf:
        pref = sphere_area(d * sel) * math.gamma(sel) / d * comb
    else:  # every block but the offset is uniform in B(0, 2)
        pref = lam**sel * (2.0**d * omega) ** (k + min(a, k)) * comb

    def weight(vol, fx):
        return vol ** (-sel) if inf else fx**sel * np.exp(-lam * vol * fx)

    def value(draws):
        h1, r1, c1 = draws.sphere(first, sel)
        h2, r2, c2 = draws.sphere(second, sel)
        good = h1 & h2 if inf else h1 & h2 & (r1 <= 1.0) & (r2 <= 1.0)
        vals = np.zeros(draws.m)
        if not np.any(good):
            return vals
        r1, c1, r2, c2 = r1[good], c1[good], r2[good], c2[good]
        fx = None if inf else draws.fx[good]
        p1 = draws.points(first[:a], sel)[good]
        p2 = draws.points(second[:a], sel)[good]
        if j == 0:
            z = draws.points((2 * k,), sel)[good, 0]
            if not inf:  # z uniform in B(c1 - c2, R1 + R2), where the balls can meet
                rsum = r1 + r2
                z = (c1 - c2) + z / 2.0 * rsum[:, None]
            c2 = c2 + z
            p1, p2 = _with_origin(p1), z[:, None, :] + _with_origin(p2)
        cross = _outside_ball(p2, c1, r1) & _outside_ball(p1, c2, r2)
        union = two_ball_union_volumes_batch(c1, r1, c2, r2, d)
        v = np.where(cross, weight(union, fx), 0.0)
        if j == 0:  # less the product term, on the same draws
            v = v - weight(omega * (r1**d + r2**d), fx)
            if not inf:
                v = v * omega * rsum**d
        vals[good] = v
        return pref * vals

    return _Integrand(sel, not inf, value)


# ---------------------------------------------------------------------------
# mean constants


def structure_integral(k: int, d: int, samples: int, rng) -> Estimate:
    """I_k = int over (R^d)^k of h_1(0, y) dy, by radial reduction.

    With y = rho * u, |u| = 1 in R^(dk): the hull indicator is
    scale-invariant and the radius constraint integrates to
    R(0, u)^(-dk) / (dk), so I_k = S_dk/(dk) * E_u[h R^(-dk)].
    On the support of h, 1/(2 sqrt(k)) <= R(0, u) <= 1 holds, so the
    integrand is bounded.
    """
    return _estimate(_radial(k, d, sphere_area(d * k) / (d * k)), d, samples, rng, lam=INF)


def mu_k_estimate(k: int, d: int, f: Density, samples: int = DEFAULT_SAMPLES,
                  rng=None) -> Estimate:
    """mu_k = (1/(k+1)!) * int f^(k+1) * I_k, with I_k estimated by
    uniform sampling of y in B(0, 2)^k (the support of h_1)."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    rng = np.random.default_rng(0) if rng is None else rng
    w = (2.0**d * unit_ball_volume(d)) ** k
    ik = _estimate(_hull(k, w, lambda r, fx: 1.0, density=False), d, samples, rng)
    closed = f.integral_f_power(k + 1.0)  # else int f^(k+1) = E_f[f^k], on its own draws
    if closed is not None:
        fk = exact(closed)
    else:
        fk = _estimate(_Integrand(0, True, lambda draws: draws.fx**k), d, samples, rng, f)
    factor = 1.0 / math.factorial(k + 1)
    se = factor * math.hypot(ik.std_err * fk.value, fk.std_err * ik.value)
    return Estimate(factor * ik.value * fk.value, se, samples)


def gamma_k_inf_estimate(k: int, d: int, samples: int = DEFAULT_SAMPLES,
                         rng=None) -> Estimate:
    """gamma_k(inf) = (1/(k+1)!) int h(0,y) e^(-omega_d R^d(0,y)) dy,
    density-independent, by exact radial reduction:

        gamma_k(inf) = S_dk Gamma(k) / (d omega_d^k (k+1)!)
                       * E_u[h(0,u) R(0,u)^(-dk)].
    """
    return gamma_k_estimate(k, d, None, INF, samples, rng)


def gamma_k_estimate(k: int, d: int, f: Density | None, lam: float,
                     samples: int = DEFAULT_SAMPLES, rng=None) -> Estimate:
    """gamma_k(lambda) by Monte Carlo.

    Finite lambda: sample x from f and y uniform in B(0,2)^k, average
    lambda^k f^k(x) h_1(0,y) e^(-lambda omega_d R^d f(x)) times the
    sampling volume over (k+1)!.  lambda = inf needs no density.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    return _estimate(_gamma(k, d, lam), d, samples, rng, f, lam)


# ---------------------------------------------------------------------------
# variance constants


def eta_k_estimate(k: int, d: int, f: Density | None, lam: float,
                   samples: int = DEFAULT_SAMPLES, rng=None) -> Estimate:
    """eta_k(lambda): the expected loss of critical points when one
    cloud point is removed, entering the de-Poissonized variance.

    The inner z-integral over the circumball is omega_d R^d exactly, so

        eta_k(lambda) = lambda^(k+1)/(k+1)! * int f^(k+2)(x) h_1(0,y)
                        omega_d R^d e^(-lambda omega_d R^d f(x)) dy dx.

    For lambda = inf the same scaling that gives gamma_k(inf) yields
    eta_k(inf) = k * gamma_k(inf) exactly.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    return _estimate(_eta(k, d, lam), d, samples, rng, f, lam)


def gamma_k_j_estimate(k: int, j: int, d: int, f: Density | None, lam: float,
                       samples: int = DEFAULT_SAMPLES, rng=None) -> Estimate:
    """gamma_k^(j)(lambda), 1 <= j <= k: contribution of pairs of
    generating subsets sharing j points (the origin plus j-1 common
    coordinates), with the union of the two circumballs in the exponent.
    """
    if not 1 <= j <= k <= d:
        raise ValueError("need 1 <= j <= k <= d")
    return _estimate(_pair(k, j, d, lam), d, samples, rng, f, lam)


def gamma_k_0_estimate(k: int, d: int, f: Density | None, lam: float,
                       samples: int = DEFAULT_SAMPLES, rng=None) -> Estimate:
    """gamma_k^(0)(lambda): pairs of disjoint generating subsets whose
    circumballs overlap.

    The joint term carries the union-volume exponential together with the
    indicator that neither subset's points fall inside the other's open
    circumball (both cannot be critical otherwise); the product term is
    subtracted on common random numbers.  The difference vanishes exactly
    when the balls are disjoint, so the offset z is importance-sampled
    from the ball where overlap is possible (center c1 - c2, radius
    R1 + R2).  The value may be negative: close disjoint critical pairs
    are anti-correlated by the exclusion condition.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    return _estimate(_pair(k, 0, d, lam), d, samples, rng, f, lam)


@dataclass
class VarianceConstants:
    """All variance-related constants for one (k, lambda)."""

    k: int
    d: int
    lam: float
    gamma_k: Estimate
    gamma_k_j: dict  # j -> Estimate, j = 0..k
    eta_k: Estimate
    alpha_k: Estimate
    sigma2_hat: Estimate
    sigma2: Estimate
    negative_variance: bool = False


def variance_constants_estimate(k: int, d: int, f: Density | None, lam: float,
                                samples: int = DEFAULT_SAMPLES,
                                rng=None) -> VarianceConstants:
    """All constants of the variance limit for index k at intensity lam:

        sigma2_hat_k = gamma_k + sum_j gamma_k^(j)      (Poisson input)
        alpha_k      = (k+1) gamma_k - eta_k
        sigma2_k     = sigma2_hat_k - alpha_k^2         (i.i.d. input)

    All of them are estimated in one pass over common draws: gamma_k^(j)
    reuses the gamma_k tuple, so the standard errors of the combinations
    come from the sample covariance of their parts (first order for
    sigma2_k).  A negative sigma2_k estimate is flagged, never clamped.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    parts = [_gamma(k, d, lam), _eta(k, d, lam)]
    parts += [_pair(k, j, d, lam) for j in (*range(1, k + 1), 0)]
    mean, cov = _integrate(parts, d, samples, rng, f, lam)

    def estimate(grad, value):
        return Estimate(float(value), math.sqrt(max(float(grad @ cov @ grad), 0.0)), samples)

    unit = np.eye(len(parts))
    g, eta, *pairs = (estimate(e, v) for e, v in zip(unit, mean))
    gj = dict(zip((*range(1, k + 1), 0), pairs))
    da, dh = (k + 1) * unit[0] - unit[1], unit[0] + unit[2:].sum(axis=0)
    alpha = estimate(da, (k + 1) * g.value - eta.value)
    s2h = estimate(dh, g.value + sum(e.value for e in gj.values()))
    s2 = estimate(dh - 2.0 * alpha.value * da, s2h.value - alpha.value**2)
    return VarianceConstants(
        k=k, d=d, lam=lam, gamma_k=g, gamma_k_j=gj, eta_k=eta,
        alpha_k=alpha, sigma2_hat=s2h, sigma2=s2,
        negative_variance=s2.value < 0.0,
    )


# ---------------------------------------------------------------------------
# export


def constants_table(entries: list, seed: int | None = None) -> dict:
    """JSON-ready table keyed by (constant, k, j, lambda).

    ``entries`` holds (name, k, j, lam, Estimate) tuples; j and lam may
    be None.
    """
    out = {}
    for name, k, j, lam, est in entries:
        key = f"{name}|k={k}|j={'-' if j is None else j}|lambda={lam}"
        out[key] = {
            "value": est.value,
            "std_err": est.std_err,
            "samples": est.samples,
            "seed": seed,
        }
    return out


def save_constants(entries: list, path, seed: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(constants_table(entries, seed), fh, indent=2, sort_keys=True)
