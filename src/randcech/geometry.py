"""Geometric predicates and measures for critical-point enumeration.

Everything here is a pure function of its arguments: circumspheres of
point tuples, open-convex-hull membership of the circumcenter, smallest
enclosing balls, and volumes of unions of two balls.  These are the
building blocks for deciding whether a subset of a point cloud generates
a critical point of the distance function, and for testing membership of
a simplex in a Cech complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

# Absolute tolerance (model units) for rank tests, equidistance residuals
# and conditioning cutoffs.  Random clouds make exact degeneracy
# measure-zero, so a fixed absolute tolerance is enough.
TAU_GEOM = 1e-9

# Open-hull test uses strict inequalities on barycentric coordinates;
# boundary configurations are classified as non-critical.
TAU_HULL = 0.0


class DegenerateConfiguration(ValueError):
    """Raised when a circumsphere system is too ill-conditioned to solve."""


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class CircumSphere:
    center: np.ndarray
    radius: float
    affine_dim: int


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return float(np.exp(0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1.0)))


def ball_volume(radius: float, d: int) -> float:
    return unit_ball_volume(d) * radius**d


def affine_rank(points: np.ndarray, tol: float = TAU_GEOM) -> int:
    """Dimension of the affine hull of the given points.

    Singular values of the difference matrix below ``tol`` are treated
    as zero (absolute cutoff).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        points = points.reshape(len(points), -1)
    if len(points) <= 1:
        return 0
    diffs = points[1:] - points[0]
    s = np.linalg.svd(diffs, compute_uv=False)
    return int(np.sum(s > tol))


def general_position(points, tol: float = TAU_GEOM) -> bool:
    """True iff k+1 points do not lie in a (k-1)-dimensional affine space.

    Degenerate input (repeats, collinear triples, ...) returns False and
    never raises.
    """
    points = np.asarray(points, dtype=float)
    k = len(points) - 1
    if k < 1 or not np.all(np.isfinite(points)):
        return False
    return affine_rank(points, tol) == k


def circumsphere(points, tol: float = TAU_GEOM) -> CircumSphere:
    """Center and radius of the unique (k-1)-sphere through k+1 points.

    The center is the point of the affine hull equidistant from all
    inputs: ``circumspheres_batch`` on a single tuple.
    """
    points = np.asarray(points, dtype=float)
    k = len(points) - 1
    if k == 0:
        return CircumSphere(points[0].copy(), 0.0, 0)
    centers, radii, _, ok = circumspheres_batch(points[None], tol)
    if not ok[0]:
        raise DegenerateConfiguration(
            "circumsphere points are affinely dependent within tau_geom"
        )
    return CircumSphere(centers[0], float(radii[0]), k)


def barycentric_coordinates(c, points) -> np.ndarray:
    """Barycentric coordinates of c with respect to k+1 affinely
    independent points (c assumed in their affine hull)."""
    points = np.asarray(points, dtype=float)
    c = np.asarray(c, dtype=float)
    v = points[1:] - points[0]
    gram = v @ v.T
    lam = np.linalg.solve(gram, v @ (c - points[0]))
    return np.concatenate([[1.0 - lam.sum()], lam])


def in_open_convex_hull(c, points, tol: float = TAU_HULL) -> bool:
    """True iff c lies strictly inside the convex hull of the points.

    Realizes the indicator used by the first critical-point condition:
    all barycentric coordinates strictly greater than ``tol``.
    """
    lam = barycentric_coordinates(c, points)
    return bool(np.all(lam > tol))


# -- batched variants -------------------------------------------------------
#
# Enumeration evaluates the same predicates on large arrays of candidate
# subsets; these operate on an (m, k+1, d) stack in one shot.

def circumspheres_batch(stacks: np.ndarray, tol: float = TAU_GEOM):
    """Circumcenters/radii/barycentric coordinates for m point tuples.

    Parameters
    ----------
    stacks : (m, k+1, d) array of point tuples.

    Returns
    -------
    centers : (m, d); radii : (m,); bary : (m, k+1); ok : (m,) bool
        ``ok`` is False where the smallest singular value of the offsets
        is at most ``tol`` times the largest (the cutoff of
        ``circumsphere``); the other outputs are undefined there.
    """
    stacks = np.asarray(stacks, dtype=float)
    m, kp1, d = stacks.shape
    k = kp1 - 1
    if k == 0:
        return (
            stacks[:, 0].copy(),
            np.zeros(m),
            np.ones((m, 1)),
            np.ones(m, dtype=bool),
        )
    v = stacks[:, 1:, :] - stacks[:, :1, :]  # (m, k, d)
    gram = v @ np.swapaxes(v, 1, 2)  # (m, k, k)
    # Eigenvalues of the Gram matrix are squared singular values of v, but
    # resolve their ratio only down to sqrt(machine epsilon): rows that
    # fail this coarse test get the exact one on the singular values, and
    # are solved through them, as in ``circumsphere``.
    eig = np.linalg.eigvalsh(gram)
    ok = eig[:, 0] > tol * eig[:, -1]
    rhs = 0.5 * np.einsum("mij,mij->mi", v, v)
    gram_safe = np.where(ok[:, None, None], gram, np.eye(k)[None])
    w = np.linalg.solve(gram_safe, rhs[..., None])[..., 0]
    low = np.nonzero(~ok)[0]
    if k <= d and len(low):
        u, s, _ = np.linalg.svd(v[low], full_matrices=False)
        thin = s[:, -1] > tol * s[:, 0]
        ok[low] = thin
        ut_rhs = np.einsum("mji,mj->mi", u[thin], rhs[low[thin]])
        w[low[thin]] = np.einsum("mij,mj->mi", u[thin], ut_rhs / s[thin] ** 2)
    offsets = np.einsum("mi,mij->mj", w, v)
    centers = stacks[:, 0, :] + offsets
    radii = np.linalg.norm(offsets, axis=1)
    bary = np.concatenate([(1.0 - w.sum(axis=1))[:, None], w], axis=1)
    return centers, radii, bary, ok


# -- smallest enclosing ball -------------------------------------------------

def _ball_of_boundary(points: np.ndarray):
    """Smallest ball with all given points on its boundary."""
    if len(points) == 0:
        return np.zeros(points.shape[1] if points.ndim == 2 else 0), 0.0
    if len(points) == 1:
        return points[0].copy(), 0.0
    v = points[1:] - points[0]
    gram = v @ v.T
    rhs = 0.5 * np.einsum("ij,ij->i", v, v)
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    offset = w @ v
    return points[0] + offset, float(np.linalg.norm(offset))


def _welzl(pts: np.ndarray, idx: tuple, boundary: tuple, d: int, tol: float):
    if not idx or len(boundary) == d + 1:
        return _ball_of_boundary(pts[list(boundary)])
    p = idx[0]
    c, r = _welzl(pts, idx[1:], boundary, d, tol)
    if np.linalg.norm(pts[p] - c) <= r + tol:
        return c, r
    return _welzl(pts, idx[1:], boundary + (p,), d, tol)


def min_enclosing_ball(points, tol: float = TAU_GEOM) -> Ball:
    """Smallest ball containing all points (Welzl's recursion).

    The input order is pre-shuffled with a fixed seed, which gives the
    usual expected-linear behavior while keeping the result
    deterministic for a given input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if len(pts) == 0:
        raise ValueError("min_enclosing_ball needs at least one point")
    d = pts.shape[1]
    order = np.arange(len(pts))
    if len(pts) > d + 2:
        np.random.default_rng(0x5EED).shuffle(order)
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(pts) + 100))
    try:
        c, r = _welzl(pts, tuple(order), (), d, tol)
    finally:
        sys.setrecursionlimit(old)
    return Ball(np.asarray(c, dtype=float), float(r))


def min_enclosing_radii_batch(stacks: np.ndarray, tol: float = TAU_GEOM) -> np.ndarray:
    """Smallest-enclosing-ball radius for each (k+1)-tuple in a stack.

    For tuples of up to d+1 points the optimum is attained on a support
    subset; small tuple sizes make the per-row Welzl call cheap, but for
    the common sizes (2 and 3 points) closed forms are used instead.
    """
    stacks = np.asarray(stacks, dtype=float)
    m, kp1, d = stacks.shape
    if kp1 == 1:
        return np.zeros(m)
    if kp1 == 2:
        return 0.5 * np.linalg.norm(stacks[:, 1] - stacks[:, 0], axis=1)
    if kp1 == 3:
        return _min_ball_radius_3(stacks)
    if kp1 == 4:
        return _min_ball_radius_4(stacks)
    return np.array([min_enclosing_ball(row, tol).radius for row in stacks])


def _min_ball_radius_3(stacks: np.ndarray) -> np.ndarray:
    """Miniball radius of point triples: the longest edge's diametral
    ball if it contains the third point, else the circumball."""
    a, b, c = stacks[:, 0], stacks[:, 1], stacks[:, 2]
    radii = np.empty(len(stacks))
    best = np.full(len(stacks), np.inf)
    for p, q, r in ((a, b, c), (a, c, b), (b, c, a)):
        mid = 0.5 * (p + q)
        rad = 0.5 * np.linalg.norm(q - p, axis=1)
        inside = np.linalg.norm(r - mid, axis=1) <= rad + TAU_GEOM
        cand = np.where(inside, rad, np.inf)
        best = np.minimum(best, cand)
    need_circ = ~np.isfinite(best)
    radii[:] = best
    if np.any(need_circ):
        _, rr, _, ok = circumspheres_batch(stacks[need_circ])
        # Degenerate (collinear) triples are covered by an edge ball above.
        rr = np.where(ok, rr, 0.0)
        radii[need_circ] = rr
    return radii


def _min_ball_radius_4(stacks: np.ndarray) -> np.ndarray:
    """Miniball radius of 4-point tuples.

    Welzl's characterization: the miniball is the smallest ball whose
    boundary subset (a pair's diametral ball, a triple's circumball, or
    the 4-point circumball) contains all four points.
    """
    import itertools as _it

    m, _, d = stacks.shape
    best = np.full(m, np.inf)
    for i, j in _it.combinations(range(4), 2):
        mid = 0.5 * (stacks[:, i] + stacks[:, j])
        rad = 0.5 * np.linalg.norm(stacks[:, i] - stacks[:, j], axis=1)
        ok = _contains_all(stacks, mid, rad)
        best = np.where(ok, np.minimum(best, rad), best)
    subsets = list(_it.combinations(range(4), 3)) + ([tuple(range(4))] if d >= 3 else [])
    for combo in subsets:
        centers, radii, _, ok = circumspheres_batch(stacks[:, combo, :])
        ok &= _contains_all(stacks, centers, radii)
        best = np.where(ok, np.minimum(best, radii), best)
    # degenerate leftovers (exactly collinear/coplanar rows): fall back
    bad = ~np.isfinite(best)
    if np.any(bad):
        best[bad] = [min_enclosing_ball(row).radius for row in stacks[bad]]
    return best


def _contains_all(stacks, centers, radii):
    dist = np.linalg.norm(stacks - centers[:, None, :], axis=2)
    return np.all(dist <= radii[:, None] + TAU_GEOM, axis=1)


# -- volumes ----------------------------------------------------------------

def spherical_cap_volume(radius: float, height: float, d: int) -> float:
    """Volume of a hyperspherical cap of the given height in R^d.

    Uses the regularized incomplete beta function I_x((d+1)/2, 1/2);
    heights beyond the half-ball are handled by complementation.
    """
    if radius <= 0.0 or height <= 0.0:
        return 0.0
    h = min(height, 2.0 * radius)
    full = ball_volume(radius, d)
    if h > radius:
        return full - spherical_cap_volume(radius, 2.0 * radius - h, d)
    x = (2.0 * radius * h - h * h) / (radius * radius)
    x = min(max(x, 0.0), 1.0)
    return 0.5 * full * float(betainc(0.5 * (d + 1), 0.5, x))


def two_ball_union_volume(b1: Ball, b2: Ball, d: int | None = None) -> float:
    """vol(B1 u B2) = vol(B1) + vol(B2) - vol(lens).

    The lens is the sum of two hyperspherical caps cut by the radical
    hyperplane.  Exactly additive when the balls are disjoint.
    """
    c1 = np.asarray(b1.center, dtype=float)
    c2 = np.asarray(b2.center, dtype=float)
    if d is None:
        d = len(c1)
    r1, r2 = float(b1.radius), float(b2.radius)
    dist = float(np.linalg.norm(c2 - c1))
    v1, v2 = ball_volume(r1, d), ball_volume(r2, d)
    if dist >= r1 + r2:
        return v1 + v2
    if dist + min(r1, r2) <= max(r1, r2):
        return max(v1, v2)
    # signed distance from center 1 to the radical hyperplane
    x1 = (dist * dist - r2 * r2 + r1 * r1) / (2.0 * dist)
    lens = spherical_cap_volume(r1, r1 - x1, d) + spherical_cap_volume(
        r2, r2 - (dist - x1), d
    )
    return v1 + v2 - lens


def two_ball_union_volumes_batch(
    centers1: np.ndarray,
    radii1: np.ndarray,
    centers2: np.ndarray,
    radii2: np.ndarray,
    d: int,
) -> np.ndarray:
    """Vectorized union volume of ball pairs (same cap construction)."""
    c1 = np.asarray(centers1, dtype=float)
    c2 = np.asarray(centers2, dtype=float)
    r1 = np.asarray(radii1, dtype=float)
    r2 = np.asarray(radii2, dtype=float)
    omega = unit_ball_volume(d)
    v1 = omega * r1**d
    v2 = omega * r2**d
    dist = np.linalg.norm(c2 - c1, axis=-1)
    out = v1 + v2
    overlap = dist < r1 + r2
    contained = dist + np.minimum(r1, r2) <= np.maximum(r1, r2)
    out = np.where(overlap & contained, np.maximum(v1, v2), out)
    sel = overlap & ~contained
    if np.any(sel):
        ds, a1, a2 = dist[sel], r1[sel], r2[sel]
        x1 = (ds * ds - a2 * a2 + a1 * a1) / (2.0 * ds)
        lens = _caps_batch(a1, a1 - x1, d) + _caps_batch(a2, a2 - (ds - x1), d)
        out[sel] = v1[sel] + v2[sel] - lens
    return out


def _caps_batch(radius: np.ndarray, height: np.ndarray, d: int) -> np.ndarray:
    omega = unit_ball_volume(d)
    full = omega * radius**d
    h = np.clip(height, 0.0, 2.0 * radius)
    # caps taller than a hemisphere are the complement of the opposite cap
    hh = np.where(h > radius, 2.0 * radius - h, h)
    x = np.zeros_like(radius)
    pos = radius > 0
    x[pos] = (2.0 * radius[pos] * hh[pos] - hh[pos] ** 2) / radius[pos] ** 2
    cap = 0.5 * full * betainc(0.5 * (d + 1), 0.5, np.clip(x, 0.0, 1.0))
    return np.where(h > radius, full - cap, np.where(h <= 0, 0.0, cap))
