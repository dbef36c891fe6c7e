"""Geometric predicates and measures for critical-point enumeration.

Everything here is a pure function of its arguments: circumspheres of
point tuples, open-convex-hull membership of the circumcenter, smallest
enclosing balls, and volumes of unions of two balls.  These are the
building blocks for deciding whether a subset of a point cloud generates
a critical point of the distance function, and for testing membership of
a simplex in a Cech complex.

This module alone decides what counts as degenerate, on a sphere or
within a radius, each time relative to a scale: distances to the
cloud's scale from ``local_frame``, in which callers evaluate every
predicate, and singular values, ties and ball containment to the tuple.
So the answers do not change when a cloud is scaled or translated.

Every circumsphere and miniball goes through one affine solve,
``_affine_solve``, whose one job is the circumcenters of a stack of m
tuples of k+1 points, in barycentric coordinates.
It builds the k x k Gram matrices of the offsets with one ``np.einsum``
and factors them all at once in ``_gram_solve``: an LDL^T factorisation
unrolled over the k columns, each step one NumPy operation over the m
rows.  No LAPACK or BLAS call is made per matrix, so a batch costs a few
dozen whole-array operations and runs in parallel on threads, which
stacked ``np.linalg.solve``/``det`` and matmul of tiny matrices do not.
Rows whose Gram matrix fails the determinant test fall back to an SVD.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import betainc, gammaln

TAU_GEOM = 1e-9  # relative slack of every comparison, rank cutoff and hull test


class DegenerateConfiguration(ValueError):
    """Raised where a predicate needs affinely independent or distinct points."""


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return float(np.exp(0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1.0)))


def ball_volume(radius: float, d: int) -> float:
    return unit_ball_volume(d) * radius**d


# -- comparisons and the local frame ------------------------------------------

def widen(limit, scale):
    """The largest value ``at_most(x, limit, scale)`` accepts."""
    return limit + TAU_GEOM * scale


def at_most(x, limit, scale):
    """x <= limit up to the slack TAU_GEOM * scale."""
    return x <= widen(limit, scale)


def at_least(x, limit, scale):
    """x >= limit up to the slack TAU_GEOM * scale."""
    return x >= limit - TAU_GEOM * scale


def same_sphere(c1, r1, c2, r2) -> bool:
    """Radii and centers agree within TAU_GEOM times the larger radius."""
    tol = TAU_GEOM * max(r1, r2)
    return abs(r1 - r2) <= tol and np.linalg.norm(c1 - c2) <= tol


def sphere_groups(centers, radii) -> list:
    """Spheres grouped by ``same_sphere``, greedily: in input order, each
    joins the first group whose first member it matches, else opens a
    new group.  Lists of input positions, in order of creation.

    Only the pairs of centers a k-d tree finds within twice the largest
    tolerance are compared, so near-equal radii of many distinct spheres
    (a lattice) cost no quadratic number of comparisons.
    """
    reach = 2.0 * TAU_GEOM * float(np.max(radii, initial=0.0))
    earlier = [[] for _ in radii]
    tree = cKDTree(centers, balanced_tree=False)
    for i, j in tree.query_pairs(reach, output_type="ndarray").tolist():
        earlier[max(i, j)].append(min(i, j))
    groups, led = [], {}  # led: first member -> its group
    for i, near in enumerate(earlier):
        for j in sorted(near):
            if j in led and same_sphere(centers[i], radii[i], centers[j], radii[j]):
                led[j].append(i)
                break
        else:
            led[i] = [i]
            groups.append(led[i])
    return groups


def hull_membership(bary):
    """(strict, weak): all barycentric coordinates > 0, and all > -TAU_GEOM."""
    return np.all(bary > 0.0, axis=-1), np.all(bary > -TAU_GEOM, axis=-1)


def local_frame(points):
    """The points minus their centroid, the centroid, and the cloud's
    scale: the side of the smallest cube about the centroid holding it."""
    origin = np.einsum("ij->j", points) / len(points)  # 4x faster than mean(axis=0)
    local = points - origin
    return local, origin, 2.0 * float(np.abs(local).max())


def require_distinct(pairs, lengths, scale) -> None:
    """Raise ``DegenerateConfiguration`` if two points coincide within
    TAU_GEOM * scale.  ``pairs`` must hold every pair that close, in any
    order, and ``lengths`` their distances.  The error names the close
    pair first in label order."""
    close = pairs[at_most(lengths, 0.0, scale)].tolist()
    if close:
        i, j = min(sorted(pair) for pair in close)
        raise DegenerateConfiguration(f"points {i} and {j} coincide (relative cutoff {TAU_GEOM:g})")


def affine_rank(points: np.ndarray) -> int:
    """Dimension of the affine hull of the given points: singular values
    of the difference matrix above TAU_GEOM times the largest."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        points = points.reshape(len(points), -1)
    if len(points) <= 1:
        return 0
    s = np.linalg.svd(points[1:] - points[0], compute_uv=False)
    return int(np.sum(s > TAU_GEOM * s[0]))


def _offsets(stacks):
    """Offsets v_i = p_i - p_0 and the Gram right-hand side |v_i|^2 / 2."""
    v = stacks[:, 1:] - stacks[:, :1]
    return v, 0.5 * np.einsum("mij,mij->mi", v, v)


def _gram_solve(gram, rhs):
    """Solve G w = rhs for m symmetric k x k Gram matrices (m, k, k) by an
    LDL^T factorisation unrolled over the k columns and vectorised over
    the m rows, so no LAPACK or BLAS call is made per matrix.

    Returns w (m, k) and ``ok`` (m,): every pivot > 0 and their product,
    det G, > TAU_GEOM trace(G)^k.  A pivot at most TAU_GEOM trace(G)
    already fails that test (no pivot exceeds the trace), so it is taken
    as infinite: its column drops out and the rows that fail stay finite.
    """
    m, k = rhs.shape
    tr = np.einsum("mii->m", gram)
    cut = TAU_GEOM * tr
    ok = np.ones(m, dtype=bool)
    det = np.ones(m)
    piv, low = [], [[None] * k for _ in range(k)]  # D_j; L[i][j] for i > j
    raw = [[None] * k for _ in range(k)]  # raw[i][j] = L[i][j] D_j, needed until column i
    for j in range(k):
        dj = gram[:, j, j] - sum((low[j][l] * raw[j][l] for l in range(j)), 0.0)
        det *= dj
        live = dj > cut
        ok &= live
        dj[~live] = np.inf
        piv.append(dj)
        for i in range(j + 1, k):
            raw[i][j] = gram[:, i, j] - sum((low[i][l] * raw[j][l] for l in range(j)), 0.0)
            low[i][j] = raw[i][j] / dj
        raw[j] = None
    w = np.empty_like(rhs)  # forward substitution L z = rhs, then L^T w = z / D, in place
    for i in range(k):
        w[:, i] = rhs[:, i] - sum((low[i][l] * w[:, l] for l in range(i)), 0.0)
    for i in reversed(range(k)):
        w[:, i] = w[:, i] / piv[i] - sum((low[l][i] * w[:, l] for l in range(i + 1, k)), 0.0)
    return w, ok & (det > TAU_GEOM * tr**k)


def _affine_solve(stacks):
    """Barycentric coordinates (m, k+1) of each tuple's circumcenter,
    ``ok`` (m,): the offsets' smallest singular value exceeds TAU_GEOM
    times the largest, and the offsets v_i = p_i - p_0 (m, k, d).

    The Gram matrices G = v v^T come from one ``np.einsum``, and
    ``_gram_solve`` solves G w = rhs for all rows at once.  Rows with
    det(G) > TAU_GEOM trace(G)^k (Gram eigenvalue ratio above TAU_GEOM)
    keep that solution; the rest are solved through the SVD (least-norm
    if rank-deficient), pivoted at the vertex whose offsets make the
    smallest largest dot product (for a triangle, the one opposite the
    longest edge): a frame at an end of that edge rounds away |v_i|^2's thin part.
    """
    _, kp1, d = stacks.shape
    v, rhs = _offsets(stacks)
    w, ok = _gram_solve(np.einsum("mid,mjd->mij", v, v), rhs)
    bary = np.concatenate([1.0 - w.sum(axis=1, keepdims=True), w], axis=1)
    low = np.nonzero(~ok)[0]
    if len(low) and kp1 <= d + 1:
        sub = stacks[low]
        off = sub[:, None] - sub[:, :, None]  # off[r, i, j] = p_j - p_i
        dots = np.einsum("rijx,rilx->rijl", off, off)
        pivot = np.where(np.eye(kp1, dtype=bool), -np.inf, dots).max(axis=(2, 3)).argmin(axis=1)
        perm = (pivot[:, None] + np.arange(kp1)) % kp1
        pv, prhs = _offsets(sub[np.arange(len(low))[:, None], perm])
        u, s, _ = np.linalg.svd(pv, full_matrices=False)
        kept = s > TAU_GEOM * s[:, :1]
        ok[low] = kept[:, -1]
        inv = np.where(kept, 1.0 / np.where(kept, s, 1.0) ** 2, 0.0)
        pw = np.einsum("mij,mj->mi", u, inv * np.einsum("mji,mj->mi", u, prhs))
        bary[low[:, None], perm] = np.concatenate([1.0 - pw.sum(axis=1, keepdims=True), pw], axis=1)
    return bary, ok, v


def circumspheres_batch(stacks: np.ndarray):
    """Circumcenters/radii/barycentric coordinates for m point tuples.

    Parameters
    ----------
    stacks : (m, k+1, d) array of point tuples.

    Returns
    -------
    centers : (m, d); radii : (m,); bary : (m, k+1); ok : (m,) bool
        ``ok`` is False where the smallest singular value of the offsets
        is at most ``TAU_GEOM`` times the largest; the other outputs are
        undefined there.
    """
    stacks = np.asarray(stacks, dtype=float)
    bary, ok, v = _affine_solve(stacks)
    offsets = np.einsum("mi,mij->mj", bary[:, 1:], v)
    return stacks[:, 0] + offsets, np.linalg.norm(offsets, axis=1), bary, ok


def in_relative_interior(c, points) -> bool:
    """True iff c, assumed in the affine hull of the points, lies in the
    relative interior of their hull: max t subject to lam_i >= t, sum
    lam_i = 1 and sum lam_i (p_i - c) = 0 (on the offsets' left singular
    vectors above the cutoff, so thin hulls stay well posed) > TAU_GEOM."""
    from scipy.optimize import linprog

    q = np.asarray(points, dtype=float) - np.asarray(c, dtype=float)
    m = len(q)
    u, s, _ = np.linalg.svd(q, full_matrices=False)
    a_eq = np.vstack([u[:, s > TAU_GEOM * s[0]].T, np.ones(m)])
    b_eq = np.r_[np.zeros(len(a_eq) - 1), 1.0]
    # Least-norm weights that meet the constraints and all clear sqrt(TAU_GEOM)
    # already prove t > TAU_GEOM (the center of a regular polygon); the LP decides the rest.
    lam = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    if lam.min() > TAU_GEOM**0.5 and np.abs(a_eq @ lam - b_eq).max() <= TAU_GEOM:
        return True
    res = linprog(np.r_[np.zeros(m), -1.0], A_ub=np.c_[-np.eye(m), np.ones(m)], b_ub=np.zeros(m),
                  A_eq=np.c_[a_eq, np.zeros(len(a_eq))], b_eq=b_eq, method="highs-ds")
    return res.status == 0 and -res.fun > TAU_GEOM


# -- smallest enclosing ball -------------------------------------------------

def _welzl(pts: np.ndarray, idx: tuple, boundary: tuple, d: int):
    if not idx or len(boundary) == d + 1:
        if not boundary:
            return pts[0], -1.0  # the empty ball, which holds no point
        centers, radii, _, _ = circumspheres_batch(pts[list(boundary)][None])
        return centers[0], float(radii[0])
    p = idx[0]
    c, r = _welzl(pts, idx[1:], boundary, d)
    if at_most(np.linalg.norm(pts[p] - c), r, r):
        return c, r
    return _welzl(pts, idx[1:], boundary + (p,), d)


def min_enclosing_ball(points) -> Ball:
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
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(pts) + 100))
    try:
        c, r = _welzl(pts, tuple(order), (), d)
    finally:
        sys.setrecursionlimit(old)
    return Ball(np.asarray(c, dtype=float), float(r))


def min_enclosing_radii_batch(stacks: np.ndarray) -> np.ndarray:
    """Smallest-enclosing-ball radius for each (k+1)-tuple in a stack.

    A support whose circumball holds the tuple, with its circumcenter in
    the support's hull, is the miniball: no smaller ball holds the
    support.  Supports are tried by size, 2 to k+1 (of the pairs only a
    longest edge), each pass on the rows not resolved yet; a row's radius
    is the smallest circumball seen that holds it.  Tuples of more than
    d+1 points take the maximum over their (d+1)-subsets.
    """
    stacks = np.asarray(stacks, dtype=float)
    m, kp1, d = stacks.shape
    if kp1 > d + 1:
        combos = list(itertools.combinations(range(kp1), d + 1))
        radii = min_enclosing_radii_batch(stacks[:, combos].reshape(-1, d + 1, d))
        return radii.reshape(m, len(combos)).max(axis=1)
    best = np.full(m, np.inf if kp1 > 1 else 0.0)
    rows = np.arange(m)
    for size in range(2, kp1 + 1):
        tuples = stacks[rows]
        supports = np.array(list(itertools.combinations(range(kp1), size)))
        if size == 2:
            edge = tuples[:, supports[:, 0]] - tuples[:, supports[:, 1]]
            ends = supports[np.einsum("rei,rei->re", edge, edge).argmax(axis=1)]
            sub = tuples[np.arange(len(rows))[:, None], ends][:, None]
        else:
            sub = tuples[:, supports]
        centers, radii, bary, ok = circumspheres_batch(sub.reshape(-1, size, d))
        shape = sub.shape[:2]
        gap = tuples[:, None] - centers.reshape(*shape, 1, d)
        radii = radii.reshape(*shape, 1)
        holds = np.all(at_most(np.linalg.norm(gap, axis=3), radii, radii), axis=2)
        best[rows] = np.minimum(best[rows], np.where(holds, radii[..., 0], np.inf).min(axis=1))
        inside = (ok & hull_membership(bary)[1]).reshape(shape)
        rows = rows[~np.any(holds & inside, axis=1)]
    return best


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
