"""Reference results computed without randcech.

The benchmark checks the program's outputs against these.  They use only
numpy and scipy (Qhull's Delaunay triangulation and k-d trees) and follow
the package's documented conventions: a subset generates a critical
point iff its circumcenter lies strictly inside its convex hull and no
cloud point lies inside its circumball, with an absolute slack TAU on
radius and emptiness comparisons.

* ``delaunay_critical``: every critical simplex of a cloud in general
  position is a Delaunay face, so the index-k critical points with value
  <= r are the Delaunay k-faces whose circumcenter is interior, whose
  circumradius is <= r, and (below top dimension) whose circumball is
  empty.  In d = 2 that gives N_1 = Gabriel edges of half-length <= r and
  N_2 = Delaunay triangles that contain their circumcenter, with
  circumradius <= r.
* ``alpha_euler_2d``: Euler characteristic of the alpha complex at
  radius r.  By the nerve theorem it equals that of the Cech complex.
* ``close_pairs``: number of point pairs within distance 2r, the edge
  count of the Cech complex.
* ``gamma2_uniform_square``: gamma_2(1) for the uniform density on the
  unit square, by a closed-form 2-D circumcenter.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import Delaunay, cKDTree

TAU = 1e-9


def circumcenters(stacks: np.ndarray):
    """Centers, radii and barycentric coordinates of the circumspheres of
    (m, k+1, d) point tuples, taken in each tuple's affine hull."""
    base = stacks[:, 0, :]
    v = stacks[:, 1:, :] - base[:, None, :]
    gram = np.einsum("mid,mjd->mij", v, v)
    rhs = 0.5 * np.einsum("mid,mid->mi", v, v)
    w = np.linalg.solve(gram, rhs[..., None])[..., 0]
    offset = np.einsum("mi,mid->md", w, v)
    bary = np.concatenate([1.0 - w.sum(axis=1, keepdims=True), w], axis=1)
    return base + offset, np.linalg.norm(offset, axis=1), bary


def _faces(points: np.ndarray, cells: np.ndarray, size: int, r: float) -> np.ndarray:
    """Distinct faces with `size` vertices whose edges are all <= 2r
    (a face of circumradius <= r has no longer edge)."""
    if size == cells.shape[1]:
        return cells
    combos = itertools.combinations(range(cells.shape[1]), size)
    faces = np.concatenate([cells[:, list(c)] for c in combos])
    p = points[faces]
    edges = np.linalg.norm(p[:, :, None, :] - p[:, None, :, :], axis=-1)
    faces = faces[edges.max(axis=(1, 2)) <= 2.0 * (r + TAU)]
    n = len(points)
    key = np.zeros(len(faces), dtype=np.int64)
    for col in range(size):
        key = key * n + faces[:, col]
    _, first = np.unique(key, return_index=True)
    return faces[first]


def delaunay_critical(points: np.ndarray, r: float, k_max: int | None = None) -> dict:
    """Critical simplices of index 1..k_max with value <= r.

    Returns ``{k: (generators, centers, values)}`` with generators as an
    (m, k+1) array of sorted point indices.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    k_max = d if k_max is None else k_max
    cells = np.sort(Delaunay(points).simplices, axis=1)
    tree = cKDTree(points)
    out = {}
    for k in range(1, k_max + 1):
        faces = _faces(points, cells, k + 1, r)
        centers, radii, bary = circumcenters(points[faces])
        keep = (radii <= r + TAU) & np.all(bary > 0.0, axis=1)
        if k < d:
            # faces of a Delaunay cell need their own emptiness test
            dist, _ = tree.query(centers[keep])
            keep[keep] = dist >= radii[keep] - TAU
        out[k] = (faces[keep], centers[keep], radii[keep])
    return out


def alpha_euler_2d(points: np.ndarray, r: float) -> int:
    """Euler characteristic of the 2-D alpha complex at radius r.

    A Delaunay triangle enters at its circumradius.  An edge enters at
    half its length if its diametral disk is empty (Gabriel), else at the
    smallest circumradius of its incident triangles, where its dual
    Voronoi edge first meets the balls.
    """
    points = np.asarray(points, dtype=float)
    tris = np.sort(Delaunay(points).simplices, axis=1)
    _, tri_r, _ = circumcenters(points[tris])
    edges = tris[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
    edges, inverse = np.unique(edges, axis=0, return_inverse=True)
    attached = np.full(len(edges), np.inf)
    np.minimum.at(attached, inverse.ravel(), np.repeat(tri_r, 3))
    a, b = points[edges[:, 0]], points[edges[:, 1]]
    half = 0.5 * np.linalg.norm(b - a, axis=1)
    dist, _ = cKDTree(points).query(0.5 * (a + b))
    edge_r = np.where(dist >= half - TAU, half, attached)
    n_edges = int(np.sum(edge_r <= r + TAU))
    n_tris = int(np.sum(tri_r <= r + TAU))
    return len(points) - n_edges + n_tris


def close_pairs(points: np.ndarray, r: float) -> int:
    """Number of unordered pairs at distance <= 2r."""
    return len(cKDTree(points).query_pairs(2.0 * r, output_type="ndarray"))


def gamma2_uniform_square(samples: int, rng: np.random.Generator):
    """gamma_2(1) for the uniform density on the unit square, d = 2.

    gamma_2(1) = (1/3!) int h_1(0, y1, y2) exp(-pi R^2) dy1 dy2, with y1,
    y2 uniform in B(0, 2) (R <= 1 forces |y| <= 2) and h_1 the indicator
    of an acute triangle (0, y1, y2) with circumradius R <= 1.  Returns
    (value, standard error).
    """
    radius = 2.0 * np.sqrt(rng.random((samples, 2)))
    angle = 2.0 * np.pi * rng.random((samples, 2))
    ax, ay = radius[:, 0] * np.cos(angle[:, 0]), radius[:, 0] * np.sin(angle[:, 0])
    bx, by = radius[:, 1] * np.cos(angle[:, 1]), radius[:, 1] * np.sin(angle[:, 1])
    aa, bb = ax * ax + ay * ay, bx * bx + by * by
    det = 2.0 * (ax * by - ay * bx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (by * aa - ay * bb) / det
        uy = (ax * bb - bx * aa) / det
    r2 = ux * ux + uy * uy
    acute = (
        (ax * bx + ay * by > 0)
        & (ax * (ax - bx) + ay * (ay - by) > 0)
        & (bx * (bx - ax) + by * (by - ay) > 0)
    )
    vals = np.where(acute & (r2 <= 1.0), np.exp(-np.pi * r2), 0.0) * (4.0 * np.pi) ** 2 / 6.0
    return float(vals.mean()), float(vals.std() / math.sqrt(samples))
