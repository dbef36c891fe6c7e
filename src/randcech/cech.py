"""Cech complexes and their topology.

A simplex on vertices Y belongs to the Cech complex at radius eps iff
the smallest enclosing ball of Y has radius at most eps (equivalently,
the eps-balls around Y have a common point).  The complex is built
level by level with the sibling join that enumeration uses
(``expand_cliques``, on the k-d tree pairs of the 2*eps proximity
graph): two simplices (P, v) and (P, w) of a level give the candidate
(P, v, w) iff (v, w) is an edge.  Up to level d each candidate's
miniball radius is checked exactly.  Above it Helly's theorem decides:
a set of more than d+1 points is a simplex iff all its (d+1)-subsets
are, so membership is d sorted integer-key lookups in the levels
below, and no larger miniball is computed.

Betti numbers are computed over GF(2) by Gaussian elimination on
boundary matrices (columns stored as bitmasks); beta_0 is cross-checked
against a union-find pass over the edges.  The Euler characteristic is
the alternating sum of simplex counts, which matches the alternating
sum of critical-point counts of the distance function at the same
radius (Morse counting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import at_most, local_frame, min_enclosing_radii_batch, widen
from .enumeration import CliqueBudgetExceeded, _as_points, _eps_rule, _lexicographic, expand_cliques

MAX_SIMPLICES = 2_000_000
BETTI_BUDGET = 200_000_000  # bit-operations budget for GF(2) elimination


class ComplexTooLarge(ValueError):
    pass


class TruncatedComplex(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


@dataclass
class CechComplex:
    """Simplices by dimension; ``simplices[j]`` is an (m, j+1) array."""

    dim: int
    eps: float
    n_vertices: int
    simplices: dict = field(default_factory=dict)
    truncated: bool = False
    dim_cap: int | None = None

    def counts(self) -> np.ndarray:
        top = max(self.simplices, default=0)
        out = np.zeros(top + 1, dtype=np.int64)
        for j, arr in self.simplices.items():
            out[j] = len(arr)
        return out

    @property
    def size(self) -> int:
        return int(sum(len(a) for a in self.simplices.values()))


def build_cech(cloud, eps: float, dim_cap: int | None = None,
               max_simplices: int = MAX_SIMPLICES) -> CechComplex:
    """Cech complex at radius eps, optionally capped at dimension
    dim_cap >= 1.  eps follows the enumeration rule: None or inf gives
    the whole complex, NaN and eps <= 0 raise.

    If the cap removes simplices that would otherwise be present the
    result is flagged ``truncated`` and refuses Euler-characteristic
    queries.
    """
    eps = _eps_rule(eps) or np.inf  # global: every pair is an edge
    if dim_cap is not None and dim_cap < 1:
        raise ValueError(f"dim_cap must be >= 1, got {dim_cap}")
    points = _as_points(cloud)
    n, d = points.shape if points.size else (len(points), 0)
    cx = CechComplex(dim=points.shape[1] if points.size else 0, eps=float(eps),
                     n_vertices=n, dim_cap=dim_cap)
    cx.simplices[0] = np.arange(n, dtype=np.int64)[:, None]
    if n < 2:
        return cx
    points, _, scale = local_frame(points)
    tree = cKDTree(points, balanced_tree=False)
    pairs = _lexicographic(tree.query_pairs(2.0 * widen(eps, scale), output_type="ndarray"), n)
    # edge certificate: miniball radius = half the edge length
    radii = 0.5 * np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    edges = pairs[at_most(radii, eps, scale)]
    if len(edges) == 0:
        return cx
    cx.simplices[1] = edges
    # keys[k - 1] holds level k's rows as sorted integer keys: the row of
    # the prefix in level k-1 times n plus the last vertex (no overflow)
    keys = [edges[:, 0] * n + edges[:, 1]]
    level = edges
    j = 1
    while len(level) > 0:
        if cx.size > max_simplices:
            raise ComplexTooLarge(
                f"complex exceeds {max_simplices} simplices at radius {eps}"
            )
        at_cap = dim_cap is not None and j >= dim_cap
        try:
            nxt, parents = expand_cliques(level, edges, n, max_simplices)
        except CliqueBudgetExceeded as exc:
            if at_cap:
                # probing past the cap only decides the truncation flag;
                # a blown expansion certainly means simplices were cut
                cx.truncated = True
                break
            raise ComplexTooLarge(str(exc)) from exc
        if len(nxt):
            if j < d:
                keep = at_most(min_enclosing_radii_batch(points[nxt]), eps, scale)
            else:
                keep = _helly_members(level, nxt, parents, keys, d, n)
            nxt, parents = nxt[keep], parents[keep]
        if len(nxt) == 0:
            break
        if at_cap:
            cx.truncated = True
            break
        j += 1
        cx.simplices[j] = nxt
        keys.append(parents * n + nxt[:, -1])
        level = nxt
    return cx


def _row_of(keys, key):
    """Row of each key in the sorted ``keys``, or -1 where it is absent."""
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return np.where(keys[pos] == key, pos, -1)


def _helly_members(level, children, parents, keys, d, n):
    """Rows of the children of ``level`` (above level d) that are simplices.

    By Helly's theorem a set of more than d+1 points is a simplex iff
    all its (d+1)-subsets are.  ``expand_cliques`` joins the siblings
    (P, v) and (P, w) of ``level`` into the child X = (P, v, w), so the
    subsets that miss v or w are simplices already.  Each other subset
    misses one of the last d-1 vertices x of P, and so lies in the facet
    X - x, or else it is the set of the last d+1 vertices of X.  So X is
    a simplex iff those d-1 facets are rows of ``level`` and that set is
    a row of level d: d lookups per child.  A facet's prefix is found
    once per parent: the parent's key holds the row of its own prefix,
    which gives the rows before x, and chained key lookups add the
    vertices after x.  A missing set gets row -1, whose keys match
    nothing.
    """
    w = children[:, -1]
    alive = np.arange(len(children))
    first = np.r_[True, parents[1:] != parents[:-1]]
    heads, owner = parents[first], np.cumsum(first) - 1
    rows = level[heads]
    size = rows.shape[1]
    # each check looks up the parent's columns [0, a) and [b, size), then w
    checks = [(x, x + 1) for x in range(size - d, size - 1)]
    if d > 1:  # for d = 1 the last two vertices are the joined edge
        checks.append((0, size - d))
    for a, b in checks:
        if a:
            row = heads
            for k in range(size - 1, a - 1, -1):
                row = keys[k - 1][row] // n  # the row of columns [0, k)
        else:
            row, b = rows[:, b], b + 1
        have = max(a, 1)  # vertices in the set that ``row`` indexes
        for col in range(b, size):
            row = _row_of(keys[have - 1], row * n + rows[:, col])
            have += 1
        alive = alive[_row_of(keys[have - 1], row[owner[alive]] * n + w[alive]) >= 0]
    return alive


def euler_characteristic(cx: CechComplex) -> int:
    """Alternating sum of simplex counts.  Exact, so the complex must be
    complete: a truncated complex raises."""
    if cx.truncated:
        raise TruncatedComplex(
            "Euler characteristic needs the full complex; rebuild without dim_cap"
        )
    c = cx.counts()
    return int(np.sum((-1) ** np.arange(len(c)) * c))


# ---------------------------------------------------------------------------
# homology over GF(2)


def _rank_gf2(columns: list) -> int:
    """Rank of a GF(2) matrix given as bitmask columns."""
    pivots: dict = {}
    rank = 0
    for col in columns:
        while col:
            pivot = col.bit_length() - 1
            other = pivots.get(pivot)
            if other is None:
                pivots[pivot] = col
                rank += 1
                break
            col ^= other
    return rank


def _boundary_columns(faces: np.ndarray, cells: np.ndarray) -> list:
    """Columns of the boundary map cells -> faces as row bitmasks."""
    order = {tuple(f): i for i, f in enumerate(faces)}
    cols = []
    kp1 = cells.shape[1]
    for cell in cells:
        mask = 0
        for drop in range(kp1):
            face = tuple(np.delete(cell, drop))
            mask |= 1 << order[face]
        cols.append(mask)
    return cols


def _beta0_union_find(n: int, edges: np.ndarray) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
            comps -= 1
    return comps


def betti_numbers(cx: CechComplex, max_dim: int | None = None,
                  budget: int = BETTI_BUDGET) -> np.ndarray:
    """Betti numbers over GF(2) up to max_dim (default: top dimension).

    beta_j = dim ker boundary_j - dim im boundary_{j+1}; beta_0 is
    additionally cross-checked by union-find on the edge graph.
    """
    top = max(cx.simplices, default=0)
    if max_dim is None:
        max_dim = top
    if cx.truncated and max_dim >= (top if cx.dim_cap is None else cx.dim_cap):
        raise TruncatedComplex(
            "requested Betti dimension reaches the truncation cap"
        )
    counts = cx.counts()
    # per column: at most rank xor-reductions of a counts[j-1]-bit mask
    work = sum(
        int(counts[j]) * int(counts[j - 1]) * min(int(counts[j]), int(counts[j - 1])) // 64
        for j in range(1, min(max_dim + 1, len(counts) - 1) + 1)
        if j < len(counts)
    )
    if work > budget:
        raise BudgetExceeded(f"estimated elimination work {work} exceeds {budget}")
    ranks = {}
    for j in range(1, min(max_dim + 1, top) + 1):
        cells = cx.simplices.get(j)
        if cells is None or len(cells) == 0:
            ranks[j] = 0
            continue
        faces = cx.simplices[j - 1]
        ranks[j] = _rank_gf2(_boundary_columns(faces, cells))
    betti = np.zeros(max_dim + 1, dtype=np.int64)
    for j in range(max_dim + 1):
        nj = int(counts[j]) if j < len(counts) else 0
        betti[j] = nj - ranks.get(j, 0) - ranks.get(j + 1, 0)
    edges = cx.simplices.get(1, np.empty((0, 2), dtype=np.int64))
    b0 = _beta0_union_find(cx.n_vertices, edges)
    if b0 != betti[0]:
        raise AssertionError(
            f"beta_0 mismatch: elimination {betti[0]}, union-find {b0}"
        )
    return betti


# -- serialization ------------------------------------------------------------

def save_complex(cx: CechComplex, path) -> None:
    """One simplex per line: ``dim,v0,v1,...``."""
    with open(path, "w") as fh:
        fh.write(f"# eps={cx.eps!r} n={cx.n_vertices} ambient={cx.dim}\n")
        for j in sorted(cx.simplices):
            for row in cx.simplices[j]:
                fh.write(f"{j}," + ",".join(str(int(v)) for v in row) + "\n")


def load_complex(path) -> CechComplex:
    eps, n, ambient = 0.0, 0, 0
    by_dim: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                meta = dict(tok.split("=") for tok in line[1:].split())
                eps = float(meta.get("eps", 0.0))
                n = int(meta.get("n", 0))
                ambient = int(meta.get("ambient", 0))
                continue
            vals = [int(v) for v in line.split(",")]
            by_dim.setdefault(vals[0], []).append(vals[1:])
    cx = CechComplex(dim=ambient, eps=eps, n_vertices=n)
    for j, rows in by_dim.items():
        cx.simplices[j] = np.asarray(rows, dtype=np.int64)
    return cx
