"""Enumeration of critical points of the distance function of a cloud.

A subset Y of k+1 points (1 <= k <= d) generates an index-k critical
point iff its circumcenter lies strictly inside the open convex hull of
Y (CP1) and no cloud point lies strictly inside the open circumball
(CP2).  Radius-restricted enumeration additionally requires the
circumradius to be at most epsilon (CP3).  Minima (index 0) are the
cloud points themselves.

Two enumeration paths produce identical counts and values:

* ``enumerate_brute``   -- exhaustive over all (k+1)-subsets; the oracle.
* ``enumerate_grid``    -- a generator set has an empty open circumball
  (CP2), so it is a Delaunay face, and diameter <= 2 eps (CP3), so it is
  a clique of the 2 eps proximity graph.  ``_pick_strategy`` draws the
  candidates from Delaunay faces (scipy/Qhull) when 2 <= d <= 3 and the
  graph has more than 2^d n edges, and otherwise from its cliques:
  pairs from the frame's k-d tree, larger cliques from the sibling join
  ``expand_cliques``, which ``cech`` shares.

CP2 is verified against the full cloud on both sources, so the choice
only affects speed, never the counts.  Both paths, ``is_generating``
and ``count_index1`` read eps by one rule (``_eps_rule``: None or inf
is global, NaN or eps <= 0 raises) and work in one ``_frame``: the
centred cloud, its k-d tree and scale, and the call's one pair query,
at radius 2 eps, whose pairs also show coincident points.  The tree,
like those of ``cech`` and ``sphere_groups``, splits at sliding
midpoints (``balanced_tree=False``), which builds in about two thirds
of the time of median splits and answers the same exact queries; every
caller sorts or counts the pairs it returns.  Every CP2 check, of the
paths and of ``count_index1``, is one nearest-point query of that tree
(``_empty_balls``), on one thread per
``ROWS_PER_THREAD`` rows, at least one and at most one per CPU of the
affinity mask: a thread costs more to start than a short query takes.

At finite eps a cloud of n >= 2 ``TILE_POINTS`` points is triangulated
in tiles (``_slabs``): slabs of equal point counts along the widest
axis, each padded by 2 eps on both sides.  The tiles run on a thread
pool, at most one thread per CPU in the affinity mask, and each tile's
CP2 queries run on its own thread.  Each tile keeps
its faces with a vertex in its core and evaluates them against the whole
cloud.  A face with every vertex in one core is found by that tile only;
the survivors that cross a cut are pooled and deduplicated.  This gives
exactly the result of one triangulation, also where tiles cut cospherical
sets differently.  The tile count depends only on the input.

Candidates stay arrays through the tie rule, which does not depend on
the order of its rows: it sorts them by value once, and puts each run
of tied values in (value, size, generators) order before grouping it.
Every path returns one ``CriticalPoints`` result: index, generators
(padded with -1), centers and values of the critical points of index
>= 1, in (index, value, generators) order.  The n minima stay implicit
(N_0 = n).  Counting and thresholding read the arrays; ``CriticalPoint``
objects are built only when a caller iterates the result.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .geometry import (affine_rank, at_least, at_most, circumspheres_batch, hull_membership,
                       in_relative_interior, local_frame, require_distinct, sphere_groups, widen)
from .pointproc import PointCloud

log = logging.getLogger(__name__)

GLOBAL = math.inf

BRUTE_CAP_RESTRICTED = 300
BRUTE_CAP_GLOBAL = 25
GLOBAL_CAP = 200_000
CLIQUE_CHUNK = 1 << 18  # candidate rows built at a time by expand_cliques
TILE_POINTS = 6_000  # points per core of a Delaunay tile
ROWS_PER_THREAD = 1_024  # CP2 query rows per thread it starts
VERIFY_TOL = 1e-6  # verify_critical_point's tolerance, relative to the cloud's scale


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


@dataclass(frozen=True)
class CriticalPoints:
    """The critical points of a cloud as arrays, minima implicit.

    Row r of ``index``, ``generators`` (padded with -1), ``centers`` and
    ``values`` is one critical point of index >= 1; rows are in
    (index, value, generators) order.  Point i of ``points`` is the
    minimum (i,).  Iterating yields the n minima, then one
    ``CriticalPoint`` per row.
    """

    points: np.ndarray
    index: np.ndarray
    generators: np.ndarray
    centers: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n + len(self.index)

    def __iter__(self):
        for i, p in enumerate(self.points):
            yield CriticalPoint(0, p.copy(), 0.0, (i,))
        rows = zip(self.index.tolist(), self.centers, self.values.tolist(),
                   self.generators.tolist())
        for k, center, value, gens in rows:
            yield CriticalPoint(k, center, value, tuple(g for g in gens if g >= 0))


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


def _lexicographic(pairs: np.ndarray, n: int) -> np.ndarray:
    """The index pairs of n points as rows (i, j), i < j, in lexicographic order."""
    pairs = pairs.astype(np.int64)
    keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    return np.stack(np.divmod(keys, n), axis=1)


def expand_cliques(level: np.ndarray, edges: np.ndarray, n: int,
                   max_new: int | None = None):
    """Extend the sets of one level of a downward-closed family by one
    vertex, by joining sibling rows.

    ``edges`` holds the graph's edges (i, j), i < j, in lexicographic
    order; ``level`` holds sorted sets of one size, one per row, in
    lexicographic order.  So the rows that share a prefix P are
    contiguous, and each pair of siblings (P, v), (P, w), v < w, gives
    the candidate (P, v, w), kept iff (v, w) is an edge: one key lookup
    per candidate.  The children are exactly the sets X = (x_0, ..., x_s)
    whose faces X - x_s and X - x_{s-1} are rows and whose last two
    vertices are adjacent.  On the cliques of a graph these are all the
    cliques of the next size; on a level of Cech simplices they hold
    every simplex of the next level.  The next level is lexicographic
    again.  Returns it and, per row, the row of ``level`` it extends.

    Candidates are built ``CLIQUE_CHUNK`` at a time, and ``max_new``
    aborts a combinatorial blow-up once more rows than that are kept.
    """
    m, size = level.shape
    if m == 0 or len(edges) == 0:
        return np.empty((0, size + 1), dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = edges[:, 0] * n + edges[:, 1]
    last = level[:, -1]
    head = np.zeros(m, dtype=bool)  # the first row of each prefix group
    head[0] = True
    for col in range(size - 1):
        head[1:] |= level[1:, col] != level[:-1, col]
    # per row, the number of siblings after it: rows to the end of its group
    starts = np.flatnonzero(head)
    stops = np.r_[starts[1:], m]
    younger = np.repeat(stops, stops - starts) - np.arange(1, m + 1)
    ends = np.cumsum(younger)
    rows, parents, kept = [], [], 0
    lo = 0
    while lo < m:
        done = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, done + CLIQUE_CHUNK, side="right")), lo + 1)
        deg = younger[lo:hi]
        parent = np.repeat(np.arange(lo, hi), deg)
        sibling = parent + 1 + np.arange(len(parent)) - np.repeat(ends[lo:hi] - deg - done, deg)
        w = last[sibling]
        key = last[parent] * n + w
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
    """Candidate (k+1)-subsets from the faces of the Delaunay complex,
    each once as a sorted row: proper faces in lexicographic order, the
    cells in Qhull's.

    Qhull sees the centred cloud scaled to unit size.  Proper faces are
    deduplicated by base-n integer keys, which fit in int64 while
    n^d <= 2^63; the cells are distinct already.
    """
    n, d = points.shape
    if n ** min(k_max + 1, d) > 2**63:
        raise ValueError(f"n = {n} points overflow the int64 keys of Delaunay faces in d = {d}")
    local, _, scale = local_frame(points)
    tri = Delaunay(local / (scale or 1.0), qhull_options="QJ Pp")
    cells = np.sort(tri.simplices, axis=1).astype(np.int64)
    width = cells.shape[1]
    out = {}
    for k in range(1, k_max + 1):
        size = k + 1
        if size > width:
            out[size] = np.empty((0, size), dtype=np.int64)
        elif size == width:
            out[size] = cells
        else:
            faces = []
            for combo in itertools.combinations(range(width), size):
                key = cells[:, combo[0]]
                for col in combo[1:]:
                    key = key * n + cells[:, col]
                faces.append(key)
            keys = np.unique(np.concatenate(faces))
            face = np.empty((len(keys), size), dtype=np.int64)
            for col in range(size - 1, -1, -1):
                keys, face[:, col] = np.divmod(keys, n)
            out[size] = face
    return out


# ---------------------------------------------------------------------------
# candidate evaluation


def _evaluate_batch(frame, subsets, workers=None):
    """Apply CP1-CP3 (CP3 at the frame's eps) to (m, k+1) candidate subsets.

    Returns the passing candidates (CP2, CP3 and at least the relaxed
    hull test) as arrays ``(subsets, centers, radii, strict)``;
    ``strict`` marks genuine CP1 passes, relaxed-only passes are
    retained for the cospherical tie rule.  ``workers`` threads run the
    CP2 query (None: as ``_empty_balls`` picks by row count).
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    centers, radii, bary, ok = circumspheres_batch(frame.local[subsets])
    strict, weak = hull_membership(bary)
    mask = weak & ok
    if frame.eps is not None:
        mask = mask & at_most(radii, frame.eps, frame.scale)
    idx = np.nonzero(mask)[0]
    if len(idx):
        idx = idx[_empty_balls(frame, centers[idx], radii[idx], workers)]
    return subsets[idx], centers[idx], radii[idx], strict[idx]


def _empty_balls(frame, centers, radii, workers=None) -> np.ndarray:
    """CP2: the mask of the balls (in the frame) with no cloud point
    strictly inside, from one nearest-point query of the frame's tree.

    The generators lie at distance exactly R, so the nearest point must
    be no closer than R.  At finite eps only a point closer than
    R <= widen(eps) can reject, so the search stops there; finding none
    gives inf, which passes.  The query runs on ``workers`` threads; by
    default one per ``ROWS_PER_THREAD`` rows, at least one and at most
    one per CPU of the affinity mask, since starting a thread costs more
    than a short query saves.
    """
    if workers is None:
        workers = min(len(os.sched_getaffinity(0)), max(1, len(centers) // ROWS_PER_THREAD))
    bound = math.inf if frame.eps is None else widen(frame.eps, frame.scale)
    dmin, _ = frame.tree.query(centers, k=1, workers=workers, distance_upper_bound=bound)
    return at_least(dmin, radii, frame.scale)


def _resolve_ties(points: np.ndarray, frame, batches: list) -> CriticalPoints:
    """Collapse cospherical degeneracies into the critical points.

    ``batches`` are outputs of ``_evaluate_batch`` in the ``_frame`` of
    ``points``, in any order and with their rows in any order; centers go
    back to the cloud's frame.  Two candidates tie when their
    circumspheres agree.  A group of tied candidates emits a single
    critical point iff some member passes the strict open-hull test and,
    for several members, their center lies in the relative interior of
    the hull of the union of their generators (not so the hypotenuse
    midpoint of a right triangle, where an edge and a triangle enter
    together); its index is the affine dimension of that union, its
    center and value those of its strict member first in (size,
    generators).

    Candidates are sorted by value once.  Untied values are distinct, so
    a stable partition by size puts the untied rows in (index, value)
    order.  Only runs of near-equal values are grouped, by the greedy
    ``sphere_groups``, each run first put in canonical (value, size,
    generators) order; the few merged points are sorted among themselves
    and inserted where their (index, value) falls.
    """
    batches = [b for b in batches if len(b[0])]
    if not batches:
        return CriticalPoints(points, np.empty(0, dtype=np.int64),
                              np.empty((0, 1), dtype=np.int64),
                              np.empty((0, points.shape[1])), np.empty(0))
    local = frame.local
    # One row per candidate: its generators, padded with -1, and its size.
    width = max(b[0].shape[1] for b in batches)
    gens = np.concatenate([np.pad(b[0], ((0, 0), (0, width - b[0].shape[1])),
                                  constant_values=-1) for b in batches])
    size = np.repeat([b[0].shape[1] for b in batches], [len(b[0]) for b in batches])
    centers = np.concatenate([b[1] for b in batches])
    values = np.concatenate([b[2] for b in batches])
    strict = np.concatenate([b[3] for b in batches])

    order = np.argsort(values)
    v = values[order]
    near = at_least(v[:-1], v[1:], v[1:])
    tied = np.zeros(len(v), dtype=bool)
    tied[:-1] |= near
    tied[1:] |= near
    untied = order[~tied & strict[order]]
    rows = np.concatenate([untied[size[untied] == s] for s in range(2, width + 1)])
    merged = []  # (index, generators, representative row) per tie group
    # the tied rows, each run in (value, size, generators) order
    run_id = np.cumsum(np.concatenate([[True], ~near]))[tied]
    tie = order[tied]
    canon = np.lexsort([*gens[tie].T[::-1], size[tie], values[tie], run_id])
    tie, run_id = tie[canon], run_id[canon]
    bounds = np.flatnonzero(np.diff(np.r_[0, run_id, 0]))
    key, is_strict = list(zip(size[tie].tolist(), gens[tie].tolist())), strict[tie].tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        for group in sphere_groups(centers[tie[a:b]], values[tie[a:b]]):
            group = [a + i for i in group]
            strict_members = [i for i in group if is_strict[i]]
            if not strict_members:
                continue
            union = sorted({g for i in group for g in key[i][1]} - {-1})
            if len(group) > 1 and not in_relative_interior(centers[tie[group[0]]], local[union]):
                continue
            k = len(union) - 1 if len(group) == 1 else affine_rank(local[union])
            merged.append((k, union, tie[min(strict_members, key=key.__getitem__)]))
    index = size[rows] - 1
    out_gens = gens[rows]
    if merged:
        wide = max(width, max(len(u) for _, u, _ in merged))
        out_gens = np.pad(out_gens, ((0, 0), (0, wide - width)), constant_values=-1)
        extra = np.full((len(merged), wide), -1, dtype=np.int64)
        for r, (_, union, _) in enumerate(merged):
            extra[r, :len(union)] = union
        extra_index = np.array([k for k, _, _ in merged], dtype=np.int64)
        extra_rows = np.array([rep for _, _, rep in merged], dtype=np.int64)
        perm = np.lexsort([*extra.T[::-1], values[extra_rows], extra_index])
        extra, extra_index, extra_rows = extra[perm], extra_index[perm], extra_rows[perm]
        # each goes after the untied rows of lower index, or of its index and a lower value
        at = np.empty(len(extra), dtype=np.int64)
        for k in np.unique(extra_index):
            lo, hi = np.searchsorted(index, [k, k + 1])
            mine = extra_index == k
            at[mine] = lo + np.searchsorted(values[rows[lo:hi]], values[extra_rows[mine]])
        out_gens = np.insert(out_gens, at, extra, axis=0)
        index = np.insert(index, at, extra_index)
        rows = np.insert(rows, at, extra_rows)
    return CriticalPoints(points, index, out_gens, centers[rows] + frame.origin, values[rows])


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    points = np.asarray(cloud, dtype=float)
    return points.reshape(0, 0) if points.ndim == 1 and len(points) == 0 else points


def _eps_rule(eps) -> float | None:
    """eps as a radius > 0, or None (global) for None or inf; NaN and eps <= 0 raise."""
    if eps is None or eps == math.inf:
        return None
    if not eps > 0:
        raise ValueError("eps must be > 0")
    return float(eps)


# the cloud minus its centroid, the centroid, the k-d tree over the
# former, the cloud's scale, and eps (None: global)
_Frame = namedtuple("_Frame", "local origin tree scale eps")


def _frame(points, eps):
    """The frame of the points at eps (as ``_eps_rule`` gives it) and the
    pairs within 2 eps (widened; None when global) from the call's one
    pair query.  Coincident points raise."""
    local, origin, scale = local_frame(points)
    tree = cKDTree(local, balanced_tree=False)
    pairs = tree.query_pairs(2.0 * widen(eps or 0.0, scale), output_type="ndarray")
    # a pair within the slack is, rounding aside, that close in every coordinate
    near = pairs[at_most(np.abs(local[pairs[:, 0], 0] - local[pairs[:, 1], 0]), 0.0, 2 * scale)]
    require_distinct(near, np.linalg.norm(local[near[:, 0]] - local[near[:, 1]], axis=1), scale)
    return _Frame(local, origin, tree, scale, eps), None if eps is None else pairs


def is_generating(generators, cloud, eps=GLOBAL) -> bool:
    """CP1 + CP2 (+ CP3 unless eps is GLOBAL) for one nonempty subset of distinct
    integer indices in 0..n-1; a float, bool or string entry raises ``ValueError``."""
    eps = _eps_rule(eps)
    points = _as_points(cloud)
    generators = list(generators)
    for i in generators:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"generator index {i!r} is not an integer")
        if not 0 <= i < len(points):
            raise ValueError(f"generator index {i} is out of range for {len(points)} points")
    if not generators or len(set(generators)) != len(generators):
        raise ValueError("need one or more distinct generator indices")
    found, _, _, strict = _evaluate_batch(_frame(points, eps)[0], np.sort(generators)[None])
    return len(found) == 1 and bool(strict[0])


# ---------------------------------------------------------------------------
# enumeration paths


def enumerate_brute(cloud, eps=GLOBAL, k_max=None):
    """Exhaustive oracle over all (k+1)-subsets: the points of index 1..k_max."""
    eps = _eps_rule(eps)
    points = _as_points(cloud)
    n, d = points.shape
    if n == 0:
        return _resolve_ties(points, None, [])
    k_max = d if k_max is None else min(k_max, d)
    limit = BRUTE_CAP_GLOBAL if eps is None else BRUTE_CAP_RESTRICTED
    if n > limit:
        raise OracleCapExceeded(f"n={n} exceeds brute-force cap {limit}")
    frame = _frame(points, eps)[0]
    batches = []
    top = min(k_max + 1, d) if k_max >= 1 else 0  # one size up: see _up_to
    for k in range(1, top + 1):
        combos = itertools.combinations(range(n), k + 1)
        while True:
            chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, 100_000)),
                                np.int64).reshape(-1, k + 1)
            if chunk.size == 0:
                break
            batches.append(_evaluate_batch(frame, chunk))
    return _up_to(_resolve_ties(points, frame, batches), k_max)


def _up_to(cps: CriticalPoints, k_max: int) -> CriticalPoints:
    """The rows of index <= k_max, cut to k_max + 1 columns or their widest row.
    Candidates are evaluated one size up: a tie can merge a smaller one into a higher index."""
    m = int(np.searchsorted(cps.index, k_max, side="right"))  # rows are in index order
    wide = np.any(cps.generators[:m, k_max + 1:] >= 0, axis=0)  # the -1 padding is on the right
    gens = cps.generators[:m, :k_max + 1 + int(np.sum(wide))]
    return CriticalPoints(cps.points, cps.index[:m], gens, cps.centers[:m], cps.values[:m])


def enumerate_grid(cloud, eps, k_max=None):
    """Critical points of index 1..k_max (d when None; none when k_max
    < 1) with value <= eps (all of them for eps None or inf), identical
    in output to the oracle.  A global call refuses n > ``GLOBAL_CAP``.

    Candidates are Delaunay faces when 2 <= d <= 3 and the 2 eps graph
    has more than 2^d n edges (n(n-1)/2 when global), else its cliques;
    the choice is logged at DEBUG.  Large clouds are triangulated in
    tiles on a thread pool (``_slabs``), with the same result.
    """
    eps = _eps_rule(eps)
    points = _as_points(cloud)
    if eps is None and len(points) > GLOBAL_CAP:
        raise GlobalCapExceeded(f"n={len(points)} exceeds global cap {GLOBAL_CAP}")
    if len(points) == 0:
        return _resolve_ties(points, None, [])
    n, d = points.shape
    k_max = d if k_max is None else min(k_max, d)
    frame, pairs = _frame(points, eps)
    if k_max < 1:
        return _resolve_ties(points, frame, [])
    top = min(k_max + 1, d)  # one size up: see _up_to
    edges = n * (n - 1) // 2 if pairs is None else len(pairs)
    strategy = _pick_strategy(n, d, edges)
    log.debug("%s candidates: n = %d, %d edges in the 2 eps graph", strategy, n, edges)
    if strategy == "delaunay":
        del pairs  # only their count was needed
        return _up_to(_resolve_ties(points, frame, _delaunay_batches(frame, top)), k_max)
    pairs = np.column_stack(np.triu_indices(n, 1)) if pairs is None else _lexicographic(pairs, n)
    subsets = [pairs]
    while len(subsets) < top and len(subsets[-1]):
        subsets.append(expand_cliques(subsets[-1], pairs, n)[0])
    return _up_to(_resolve_ties(points, frame, [_evaluate_batch(frame, a) for a in subsets]), k_max)


def _delaunay_batches(frame, k_max) -> list:
    """Evaluated Delaunay-face candidates, in batches by size.

    With more than one ``_slabs`` tile, each tile's faces with a vertex in
    its core are evaluated against the whole cloud on a thread pool (one
    thread per CPU of the affinity mask at most).  A face with every
    vertex in one tile's core appears in no other tile, so those batches
    are kept as they are; only the faces that cross a cut are pooled and
    deduplicated.
    """
    tiles = _slabs(frame)
    if len(tiles) == 1:
        return [_evaluate_batch(frame, arr) for arr in delaunay_subsets(frame.local, k_max).values()]
    workers = min(len(tiles), len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(lambda tile: _tile_batches(frame, *tile, k_max), tiles))
    batches = []
    for by_tile in zip(*parts):
        inner, crossing = zip(*by_tile)
        batches.extend(inner)
        subsets, centers, radii, strict = (np.concatenate(col) for col in zip(*crossing))
        order = np.lexsort(subsets.T[::-1])
        first = np.ones(len(order), dtype=bool)
        first[1:] = np.any(np.diff(subsets[order], axis=0) != 0, axis=1)
        keep = order[first]
        batches.append((subsets[keep], centers[keep], radii[keep], strict[keep]))
    return batches


def _slabs(frame) -> list:
    """Tiles of a cloud as (members, core) pairs: sorted point indices and
    the mask of those in the tile's core.

    At finite eps a cloud of n >= 2 TILE_POINTS points is cut at equal
    point counts along its widest axis into n // TILE_POINTS cores, and
    each core is padded by 2 eps (widened) on both sides.  A critical
    point of value <= eps has its generators within 2 eps of each other
    and an empty ball in the whole cloud, so it is a Delaunay face of
    every tile that holds one of them in its core.  One tile (the whole
    cloud) otherwise, and where the padding would more than double the
    points triangulated.
    """
    local = frame.local
    n = len(local)
    whole = [(np.arange(n), np.ones(n, dtype=bool))]
    count = 0 if frame.eps is None else n // TILE_POINTS
    if count < 2:
        return whole
    axis = int(np.argmax(np.ptp(local, axis=0)))
    order = np.argsort(local[:, axis], kind="stable")
    x = local[order, axis]
    cuts = np.arange(count + 1) * n // count
    pad = 2.0 * widen(frame.eps, frame.scale)
    lo = np.searchsorted(x, x[cuts[:-1]] - pad, side="left")
    hi = np.searchsorted(x, x[cuts[1:] - 1] + pad, side="right")
    if np.sum(hi - lo) > 2 * n:
        return whole
    tiles = []
    for a, b, first, last in zip(lo, hi, cuts[:-1], cuts[1:]):
        members = order[a:b]
        by_label = np.argsort(members)
        core = (np.arange(a, b) >= first) & (np.arange(a, b) < last)
        tiles.append((members[by_label], core[by_label]))
    return tiles


def _tile_batches(frame, members, core, k_max) -> list:
    """Evaluated candidates of one tile, in the cloud's labels: per size,
    a batch of its Delaunay faces with every vertex in its core and a
    batch of those with some but not every vertex in it."""
    out = []
    for faces in delaunay_subsets(frame.local[members], k_max).values():
        in_core = core[faces]
        inner = np.all(in_core, axis=1)
        crossing = np.any(in_core, axis=1) & ~inner
        out.append([_evaluate_batch(frame, members[faces[mask]], workers=1)
                    for mask in (inner, crossing)])
    return out


def _pick_strategy(n: int, d: int, edges: int) -> str:
    """Delaunay faces once the 2 eps graph is denser than 2^d edges per
    point; Qhull triangulates only 2 <= d <= 3."""
    return "delaunay" if 2 <= d <= 3 and edges > 2**d * n else "grid"


def counts(critical_points, n: int, eps: float, d: int | None = None) -> CriticalCounts:
    """Tally critical points by index; index 0 is always the n minima.

    ``critical_points`` is a ``CriticalPoints`` result, which gives d
    when it is not passed, or an iterable of ``CriticalPoint`` (d then
    from the length of their centers).
    """
    if isinstance(critical_points, CriticalPoints):
        index = critical_points.index
        d = critical_points.d if d is None else d
    else:
        cps = list(critical_points)
        index = np.array([c.index for c in cps], dtype=np.int64)
        if d is None:
            d = np.size(cps[0].center) if cps else 1
    by_index = np.bincount(index, minlength=d + 1)
    by_index[0] = n
    return CriticalCounts(by_index, eps, n)


def verify_critical_point(cloud, cp: CriticalPoint) -> bool:
    """Independent post-hoc audit of one emitted critical point.

    ``VERIFY_TOL`` bounds the center's shift and the value's error
    relative to the cloud's scale from ``local_frame``, so the answer does
    not change when the cloud is scaled."""
    points = _as_points(cloud)
    gen = np.asarray(cp.generators, dtype=np.int64)
    if cp.index == 0:
        return len(gen) == 1 and cp.value == 0.0
    scale = local_frame(points)[2]
    tol = VERIFY_TOL * scale
    pts = points[gen]
    if len(gen) != cp.index + 1:
        # degenerate merged point: only check center/value consistency
        dists = np.linalg.norm(pts - cp.center, axis=1)
        return bool(np.all(np.abs(dists - cp.value) < tol))
    centers, radii, bary, ok = circumspheres_batch(pts[None])
    if not (ok[0] and hull_membership(bary[0])[0]):
        return False
    if np.linalg.norm(centers[0] - cp.center) > tol or abs(radii[0] - cp.value) > tol:
        return False
    others = np.linalg.norm(np.delete(points, gen, axis=0) - centers[0], axis=1)
    return not len(others) or bool(at_least(others.min(), radii[0], scale))


# ---------------------------------------------------------------------------
# fast counting paths for experiments


def count_index1(cloud, eps: float) -> int:
    """Number of Gabriel edges of half-length <= eps: N_1(eps) in general position.

    For k = 1 the circumcenter is the midpoint (CP1 always holds), so
    the whole check vectorizes: pairs at distance <= 2 eps whose
    midpoint has no cloud point strictly inside the diametral ball.  No
    tie rule runs: on cospherical input it over-counts (square: 6, N_1 = 4).
    """
    eps = _eps_rule(eps)
    points = _as_points(cloud)
    if len(points) < 2:
        return 0
    frame, pairs = _frame(points, eps)
    if pairs is None:
        pairs = np.column_stack(np.triu_indices(len(points), 1))
    a, b = frame.local[pairs[:, 0]], frame.local[pairs[:, 1]]
    radii = 0.5 * np.linalg.norm(a - b, axis=1)
    if eps is not None:
        keep = at_most(radii, eps, frame.scale)
        a, b, radii = a[keep], b[keep], radii[keep]
    return int(np.sum(_empty_balls(frame, 0.5 * (a + b), radii)))


def critical_values_by_index(points: np.ndarray, k_max: int | None = None) -> dict:
    """Sorted critical values per index from a global enumeration.

    One enumeration serves every radius: N_k(eps) is the number of
    values <= eps and the global count is the array length.
    """
    cps = enumerate_grid(points, GLOBAL, k_max=k_max)
    k_max = cps.d if k_max is None else min(k_max, cps.d)
    return {k: np.sort(cps.values[cps.index == k]) for k in range(1, k_max + 1)}


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
