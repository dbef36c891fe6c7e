"""Cech complexes and their topology.

A simplex on vertices Y belongs to the Cech complex at radius eps iff
the smallest enclosing ball of Y has radius at most eps (equivalently,
the eps-balls around Y have a common point).  The complex is built by
expanding cliques of the 2*eps proximity graph level by level with the
lower-neighbor expander that enumeration uses (``expand_cliques``, on
k-d tree pairs), filtering each level by the miniball radius, so every
simplex certificate is checked exactly.

Betti numbers are computed over GF(2) by Gaussian elimination on
boundary matrices (columns stored as bitmasks); beta_0 is cross-checked
against a union-find pass over the edges.  The Euler characteristic is
the alternating sum of simplex counts, which matches the alternating
sum of critical-point counts of the distance function at the same
radius (Morse counting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import at_most, local_frame, min_enclosing_radii_batch, widen
from .enumeration import CliqueBudgetExceeded, _as_points, close_pairs, expand_cliques

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
    """Cech complex at radius eps, optionally capped at dimension dim_cap.

    If the cap removes simplices that would otherwise be present the
    result is flagged ``truncated`` and refuses Euler-characteristic
    queries.
    """
    points = _as_points(cloud)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    n, d = points.shape if points.size else (len(points), 0)
    cx = CechComplex(dim=points.shape[1] if points.size else 0, eps=float(eps),
                     n_vertices=n, dim_cap=dim_cap)
    cx.simplices[0] = np.arange(n, dtype=np.int64)[:, None]
    if n < 2:
        return cx
    points, _, scale = local_frame(points)
    tree = cKDTree(points)
    pairs = close_pairs(tree, 2.0 * widen(eps, scale))
    # edge certificate: miniball radius = half the edge length
    radii = 0.5 * np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    keep = at_most(radii, eps, scale)
    edges, radii = pairs[keep], radii[keep]
    if len(edges) == 0:
        return cx
    cx.simplices[1] = edges
    level, level_radii = edges, radii
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
            nxt_radii = _incremental_miniball_radii(
                points, nxt, level_radii[parents]
            )
            keep = at_most(nxt_radii, eps, scale)
            nxt, nxt_radii = nxt[keep], nxt_radii[keep]
        if len(nxt) == 0:
            break
        if at_cap:
            cx.truncated = True
            break
        j += 1
        cx.simplices[j] = nxt
        level, level_radii = nxt, nxt_radii
    return cx


def _incremental_miniball_radii(points, simplices, parent_radii,
                                chunk: int = 20_000) -> np.ndarray:
    """Miniball radii of child simplices given exact parent radii.

    The miniball radius of a set equals the maximum of miniball radii
    over its subsets of at most d+1 points (the support set realizes the
    maximum).  Every such subset of the child either lies in the parent
    (covered by parent_radii) or contains the new last vertex, so only
    the subsets through the new vertex need evaluating.
    """
    m, size = simplices.shape
    d = points.shape[1]
    if size <= d + 1:
        return min_enclosing_radii_batch(points[simplices])
    combos = np.asarray(list(itertools.combinations(range(size - 1), d)), dtype=np.int64)
    out = np.empty(m)
    for lo in range(0, m, chunk):
        batch = simplices[lo : lo + chunk]
        b = len(batch)
        new = np.broadcast_to(batch[:, -1, None, None], (b, len(combos), 1))
        subsets = np.concatenate([batch[:, combos], new], axis=2).reshape(-1, d + 1)
        # evaluate each subset once: fold columns into ranks, no overflow
        key = subsets[:, 0]
        for col in subsets[:, 1:].T:
            key = np.unique(key, return_inverse=True)[1] * len(points) + col
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        radii = min_enclosing_radii_batch(points[subsets[first]])[inverse]
        out[lo : lo + chunk] = radii.reshape(b, len(combos)).max(axis=1)
    return np.maximum(out, parent_radii)


def euler_characteristic(cx: CechComplex) -> int:
    """Alternating sum of simplex counts.  Exact, so the complex must be
    complete: a truncated complex raises."""
    if cx.truncated:
        raise TruncatedComplex(
            "Euler characteristic needs the full complex; rebuild without dim_cap"
        )
    c = cx.counts()
    return int(np.sum((-1) ** np.arange(len(c)) * c))


def euler_from_critical(critical_counts) -> int:
    """Euler characteristic by Morse counting: n - N_1 + N_2 - ..."""
    return critical_counts.alternating_sum()


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
    if cx.truncated and max_dim >= (cx.dim_cap or top):
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
