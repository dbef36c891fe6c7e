"""Enumeration of critical points of the distance function of a cloud.

A subset Y of k+1 points (1 <= k <= d) generates an index-k critical
point iff its circumcenter lies strictly inside the open convex hull of
Y (CP1) and no cloud point lies strictly inside the open circumball
(CP2).  Radius-restricted enumeration additionally requires the
circumradius to be at most epsilon (CP3).  Minima (index 0) are the
cloud points themselves.

Three enumeration paths produce identical results:

* ``enumerate_brute``   -- exhaustive over all (k+1)-subsets; the oracle.
* ``enumerate_grid``    -- any subset with circumradius <= eps has
  diameter <= 2 eps, so candidates are the cliques of the 2 eps
  proximity graph: pairs from a k-d tree (``close_pairs``), larger
  cliques from the lower-neighbor expander ``expand_cliques``, which
  ``cech`` shares.
* Delaunay pruning      -- any subset whose open circumball is empty is
  a face of the Delaunay complex, so for large clouds candidates can be
  drawn from Delaunay faces instead (d <= 3, via scipy/Qhull).

CP2 is verified against the full cloud in every path, so the pruning
strategy only affects speed, never the result.  Candidates stay arrays
until the tie rule builds ``CriticalPoint`` objects for those emitted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .geometry import TAU_GEOM, TAU_HULL, affine_rank, circumspheres_batch
from .pointproc import PointCloud

GLOBAL = math.inf

BRUTE_CAP_RESTRICTED = 300
BRUTE_CAP_GLOBAL = 25
GLOBAL_CAP = 200_000
CLIQUE_CHUNK = 1 << 18  # candidate rows built at a time by expand_cliques


class OracleCapExceeded(ValueError):
    pass


class GlobalCapExceeded(ValueError):
    pass


class CliqueBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CriticalPoint:
    index: int
    center: np.ndarray
    value: float
    generators: tuple


@dataclass
class CriticalCounts:
    by_index: np.ndarray
    radius: float  # eps, or math.inf for global counts
    n: int

    def alternating_sum(self) -> int:
        signs = (-1) ** np.arange(len(self.by_index))
        return int(np.sum(signs * self.by_index))


# ---------------------------------------------------------------------------
# candidate generation: close pairs and their cliques


def close_pairs(tree: cKDTree, r: float) -> np.ndarray:
    """Index pairs (i, j), i < j, at distance <= r, in lexicographic order."""
    n = tree.n
    pairs = tree.query_pairs(r, output_type="ndarray").astype(np.int64)
    keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    return np.stack(np.divmod(keys, n), axis=1)


def expand_cliques(level: np.ndarray, edges: np.ndarray, n: int,
                   max_new: int | None = None):
    """Extend the cliques of a graph by one vertex.

    ``edges`` holds the graph's edges (i, j), i < j, in lexicographic
    order; ``level`` holds sorted cliques, one per row.  Each clique is
    extended by every higher neighbor w of its last vertex that is
    adjacent to all its other vertices (lower-neighbor expansion), so a
    lexicographically sorted level gives a sorted next level.  Returns
    the next level and, per row, the row of ``level`` it extends.

    Candidates are built ``CLIQUE_CHUNK`` rows at a time, and ``max_new``
    aborts a combinatorial blow-up once more rows than that are kept.
    """
    m, size = level.shape
    if m == 0 or len(edges) == 0:
        return np.empty((0, size + 1), dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = edges[:, 0] * n + edges[:, 1]
    indptr = np.searchsorted(edges[:, 0], np.arange(n + 1))
    last = level[:, -1]
    first = indptr[last]
    degree = indptr[last + 1] - first
    ends = np.cumsum(degree)
    rows, parents, kept = [], [], 0
    lo = 0
    while lo < m:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + CLIQUE_CHUNK, side="right")), lo + 1)
        deg = degree[lo:hi]
        parent = np.repeat(np.arange(lo, hi), deg)
        offset = np.arange(len(parent)) - np.repeat(ends[lo:hi] - deg - done, deg)
        w = edges[first[parent] + offset, 1]
        for col in range(size - 1):
            key = level[parent, col] * n + w
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            adjacent = keys[pos] == key
            parent, w = parent[adjacent], w[adjacent]
        kept += len(parent)
        if max_new is not None and kept > max_new:
            raise CliqueBudgetExceeded(
                f"clique expansion produced more than {max_new} simplices"
            )
        rows.append(np.column_stack([level[parent], w]))
        parents.append(parent)
        lo = hi
    return np.concatenate(rows), np.concatenate(parents)


def delaunay_subsets(points: np.ndarray, k_max: int) -> dict:
    """Candidate (k+1)-subsets from the faces of the Delaunay complex."""
    tri = Delaunay(points, qhull_options="QJ Pp")
    cells = np.sort(tri.simplices, axis=1)
    out = {}
    for k in range(1, k_max + 1):
        size = k + 1
        if size > cells.shape[1]:
            out[size] = np.empty((0, size), dtype=np.int64)
            continue
        faces = []
        for combo in itertools.combinations(range(cells.shape[1]), size):
            faces.append(cells[:, combo])
        allf = np.sort(np.concatenate(faces, axis=0), axis=1)
        out[size] = np.unique(allf, axis=0).astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# candidate evaluation


def _evaluate_batch(points, subsets, eps, tree, keep_weak=True):
    """Apply CP1-CP3 to an (m, k+1) array of candidate subsets.

    Returns the passing candidates (CP2, CP3 and at least the relaxed
    hull test) as arrays ``(subsets, centers, radii, strict)``;
    ``strict`` marks genuine CP1 passes, relaxed-only passes are
    retained for the cospherical tie rule.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    centers, radii, bary, ok = circumspheres_batch(points[subsets])
    strict = ok & np.all(bary > TAU_HULL, axis=1)
    weak = ok & np.all(bary > -TAU_GEOM, axis=1)
    mask = weak if keep_weak else strict
    if eps is not None and np.isfinite(eps):
        mask = mask & (radii <= eps + TAU_GEOM)
    idx = np.nonzero(mask)[0]
    if len(idx):
        # CP2: the nearest cloud point to the center must be no closer
        # than R - tau (the generators themselves lie at distance exactly R).
        dmin, _ = tree.query(centers[idx], k=1)
        idx = idx[dmin >= radii[idx] - TAU_GEOM]
    return subsets[idx], centers[idx], radii[idx], strict[idx]


def _resolve_ties(points: np.ndarray, batches: list) -> list:
    """Collapse cospherical degeneracies and build the critical points.

    ``batches`` are outputs of ``_evaluate_batch``.  Two candidates tie
    when their values and centers both agree within ``TAU_GEOM`` times
    the value.  A group of tied candidates emits a single critical
    point iff some member passes the strict open-hull test; a group of
    several generating subsets sharing one center emits one point whose
    index is the affine dimension of the union of the generators.
    Candidates are sorted by value once; only runs of near-equal values
    are grouped, in Python.
    """
    batches = [b for b in batches if len(b[0])]
    if not batches:
        return []
    # One row per candidate: its generators, padded with -1.
    width = max(b[0].shape[1] for b in batches)
    gens = np.concatenate([np.pad(b[0], ((0, 0), (0, width - b[0].shape[1])),
                                  constant_values=-1) for b in batches])
    centers = np.concatenate([b[1] for b in batches])
    values = np.concatenate([b[2] for b in batches])
    strict = np.concatenate([b[3] for b in batches])

    order = np.argsort(values, kind="stable")
    v = values[order]
    near = np.diff(v) <= TAU_GEOM * v[1:]
    tied = np.zeros(len(v), dtype=bool)
    tied[:-1] |= near
    tied[1:] |= near
    single = order[~tied & strict[order]]
    out = []
    for row, c, r in zip(gens[single].tolist(), centers[single], values[single].tolist()):
        g = tuple(x for x in row if x >= 0)
        out.append(CriticalPoint(len(g) - 1, c, r, g))
    run_id = np.cumsum(np.concatenate([[True], ~near]))[tied]
    for run in np.split(order[tied], np.nonzero(np.diff(run_id))[0] + 1):
        groups: list = []
        for i in run.tolist():
            tol = TAU_GEOM * values[i]
            for group in groups:
                j = group[0]
                if (abs(values[i] - values[j]) <= tol
                        and np.linalg.norm(centers[i] - centers[j]) <= tol):
                    group.append(i)
                    break
            else:
                groups.append([i])
        for group in groups:
            strict_members = [i for i in group if strict[i]]
            if not strict_members:
                continue
            rep = min(strict_members)
            union = tuple(sorted(set(gens[group].ravel().tolist()) - {-1}))
            index = len(union) - 1 if len(group) == 1 else affine_rank(points[list(union)])
            out.append(CriticalPoint(index, centers[rep].copy(), float(values[rep]), union))
    out.sort(key=lambda c: (c.index, c.value, c.generators))
    return out


def _minima(points: np.ndarray) -> list:
    return [
        CriticalPoint(0, points[i].copy(), 0.0, (i,)) for i in range(len(points))
    ]


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return np.asarray(cloud, dtype=float)


def is_generating(generators, cloud, eps=GLOBAL) -> bool:
    """CP1 + CP2 (+ CP3 unless eps is GLOBAL) for one subset of indices."""
    points = _as_points(cloud)
    subset = np.asarray(sorted(int(i) for i in generators), dtype=np.int64)
    if len(set(subset)) != len(subset):
        raise ValueError("generator indices must be distinct")
    tree = cKDTree(points)
    e = None if eps is None or math.isinf(eps) else float(eps)
    found, _, _, _ = _evaluate_batch(points, subset[None, :], e, tree, keep_weak=False)
    return len(found) == 1


# ---------------------------------------------------------------------------
# enumeration paths


def enumerate_brute(cloud, eps=GLOBAL, k_max=None, cap=None):
    """Exhaustive oracle over all (k+1)-subsets, 1 <= k <= k_max."""
    points = _as_points(cloud)
    n, d = points.shape if points.size else (len(points), 0)
    if n == 0:
        return []
    d = points.shape[1]
    k_max = d if k_max is None else min(k_max, d)
    is_global = eps is None or math.isinf(eps)
    limit = cap if cap is not None else (
        BRUTE_CAP_GLOBAL if is_global else BRUTE_CAP_RESTRICTED
    )
    if n > limit:
        raise OracleCapExceeded(f"n={n} exceeds brute-force cap {limit}")
    e = None if is_global else float(eps)
    tree = cKDTree(points)
    batches = []
    for k in range(1, k_max + 1):
        combos = itertools.combinations(range(n), k + 1)
        while True:
            chunk = np.array(list(itertools.islice(combos, 100_000)), dtype=np.int64)
            if chunk.size == 0:
                break
            batches.append(_evaluate_batch(points, chunk, e, tree))
    return _minima(points) + _resolve_ties(points, batches)


def enumerate_grid(cloud, eps, k_max=None, candidates="auto"):
    """Radius-restricted enumeration, identical in output to the oracle.

    ``candidates`` picks the pruning strategy: "grid" (cliques of the
    2 eps proximity graph, i.e. subsets of diameter <= 2 eps),
    "delaunay" (faces of the Delaunay complex, d <= 3), or "auto".
    """
    points = _as_points(cloud)
    if len(points) == 0:
        return []
    if eps is not None and math.isinf(eps):
        eps = None
    if eps is not None and eps <= 0:
        raise ValueError("eps must be > 0")
    d = points.shape[1]
    k_max = d if k_max is None else min(k_max, d)
    strategy = _pick_strategy(points, eps, candidates)
    tree = cKDTree(points)
    if strategy == "delaunay":
        subsets = list(delaunay_subsets(points, k_max).values())
    else:
        e = eps if eps is not None else _global_radius_bound(points, tree)
        pairs = close_pairs(tree, 2.0 * e + 2.0 * TAU_GEOM)
        subsets = [pairs]
        while len(subsets) < k_max and len(subsets[-1]):
            subsets.append(expand_cliques(subsets[-1], pairs, len(points))[0])
    batches = [_evaluate_batch(points, arr, eps, tree) for arr in subsets[:k_max] if len(arr)]
    return _minima(points) + _resolve_ties(points, batches)


def _pick_strategy(points, eps, candidates) -> str:
    if candidates in ("grid", "delaunay"):
        return candidates
    n, d = points.shape
    if d > 3 or n <= d + 2:
        return "grid"
    if eps is None:
        return "delaunay" if n > 40 else "grid"
    # rough expected pair count under a uniform-ish spread
    span = points.max(axis=0) - points.min(axis=0)
    vol = float(np.prod(np.maximum(span, 1e-12)))
    from .geometry import unit_ball_volume

    est_pairs = 0.5 * n * n * unit_ball_volume(d) * (2 * eps) ** d / vol
    return "delaunay" if est_pairs > 20.0 * n and n > 200 else "grid"


def _global_radius_bound(points, tree) -> float:
    """Upper bound on any critical value: the bounding-box diameter."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(span)) + TAU_GEOM


def enumerate_global(cloud, k_max=None, cap=GLOBAL_CAP, candidates="auto"):
    """All critical points, no radius restriction."""
    points = _as_points(cloud)
    if len(points) > cap:
        raise GlobalCapExceeded(f"n={len(points)} exceeds global cap {cap}")
    return enumerate_grid(cloud, None, k_max=k_max, candidates=candidates)


def counts(critical_points, n: int, eps: float, d: int | None = None) -> CriticalCounts:
    """Tally critical points by index; index 0 is always the n minima."""
    if d is None:
        d = max((c.index for c in critical_points), default=1)
    by_index = np.zeros(d + 1, dtype=np.int64)
    by_index[0] = n
    for c in critical_points:
        if c.index >= 1:
            by_index[c.index] += 1
    return CriticalCounts(by_index, eps, n)


def verify_critical_point(cloud, cp: CriticalPoint, tol: float = 1e-6) -> bool:
    """Independent post-hoc audit of one emitted critical point."""
    from .geometry import circumsphere, general_position, in_open_convex_hull

    points = _as_points(cloud)
    gen = np.asarray(cp.generators, dtype=np.int64)
    if cp.index == 0:
        return len(gen) == 1 and cp.value == 0.0
    pts = points[gen]
    if len(gen) != cp.index + 1:
        # degenerate merged point: only check center/value consistency
        dists = np.linalg.norm(pts - cp.center, axis=1)
        return bool(np.all(np.abs(dists - cp.value) < tol))
    if not general_position(pts):
        return False
    sph = circumsphere(pts)
    if np.linalg.norm(sph.center - cp.center) > tol or abs(sph.radius - cp.value) > tol:
        return False
    if not in_open_convex_hull(sph.center, pts):
        return False
    others = np.delete(points, gen, axis=0)
    if len(others):
        dmin = np.min(np.linalg.norm(others - sph.center, axis=1))
        if dmin < sph.radius - TAU_GEOM:
            return False
    return True


# ---------------------------------------------------------------------------
# fast counting paths for experiments


def count_index1(points: np.ndarray, eps: float, tree: cKDTree | None = None) -> int:
    """Number of index-1 critical points with value <= eps.

    For k = 1 the circumcenter is the midpoint (CP1 always holds), so
    the whole check vectorizes: pairs at distance <= 2 eps whose
    midpoint has no cloud point strictly inside the diametral ball.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return 0
    if tree is None:
        tree = cKDTree(points)
    pairs = tree.query_pairs(2.0 * eps + 2.0 * TAU_GEOM, output_type="ndarray")
    if len(pairs) == 0:
        return 0
    a = points[pairs[:, 0]]
    b = points[pairs[:, 1]]
    radii = 0.5 * np.linalg.norm(a - b, axis=1)
    keep = radii <= eps + TAU_GEOM
    if not np.any(keep):
        return 0
    mids = 0.5 * (a[keep] + b[keep])
    dmin, _ = tree.query(mids, k=1, workers=-1)
    return int(np.sum(dmin >= radii[keep] - TAU_GEOM))


def critical_values_by_index(points: np.ndarray, k_max: int | None = None,
                             candidates: str = "auto") -> dict:
    """Sorted critical values per index from a global enumeration.

    One enumeration serves every radius: N_k(eps) is the number of
    values <= eps and the global count is the array length.
    """
    cps = enumerate_global(points, k_max=k_max, candidates=candidates)
    points = _as_points(points)
    d = points.shape[1]
    k_max = d if k_max is None else min(k_max, d)
    out = {k: [] for k in range(1, k_max + 1)}
    for c in cps:
        if 1 <= c.index <= k_max:
            out[c.index].append(c.value)
    return {k: np.sort(np.asarray(v)) for k, v in out.items()}


# -- serialization ------------------------------------------------------------

def save_critical_csv(critical_points, path) -> None:
    """CSV: index k, value R, center coords..., generators joined by '|'."""
    with open(path, "w") as fh:
        for c in critical_points:
            coords = ",".join(repr(float(v)) for v in np.atleast_1d(c.center))
            gens = "|".join(str(g) for g in c.generators)
            fh.write(f"{c.index},{c.value!r},{coords},{gens}\n")


def load_critical_csv(path) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            k = int(fields[0])
            value = float(fields[1])
            gens = tuple(int(g) for g in fields[-1].split("|"))
            center = np.asarray([float(v) for v in fields[2:-1]])
            out.append(CriticalPoint(k, center, value, gens))
    return out
