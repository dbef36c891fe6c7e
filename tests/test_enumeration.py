"""Critical-point enumeration: hand examples, oracle equivalence across the
brute / grid / Delaunay candidate paths, the shared clique expander, caps,
tie rule, degenerate input, serialization."""

import itertools
import math

import numpy as np
import pytest

from randcech.enumeration import (
    GLOBAL,
    CliqueBudgetExceeded,
    GlobalCapExceeded,
    OracleCapExceeded,
    close_pairs,
    count_index1,
    counts,
    critical_values_by_index,
    enumerate_brute,
    enumerate_global,
    enumerate_grid,
    expand_cliques,
    is_generating,
    load_critical_csv,
    save_critical_csv,
    verify_critical_point,
)
from randcech.cech import build_cech, euler_characteristic
from randcech.pointproc import PointCloud, sample_iid, substream, uniform_box
from scipy.spatial import cKDTree


def cloud_of(points):
    pts = np.asarray(points, dtype=float)
    return PointCloud(dim=pts.shape[1], points=pts)


def _multiset(cps):
    return sorted((cp.index, round(cp.value, 9)) for cp in cps)


# --------------------------------------------------------------- hand examples

def test_two_point_saddle():
    c = cloud_of([(0, 0), (2, 0)])
    assert is_generating((0, 1), c, eps=1.5)
    assert not is_generating((0, 1), c, eps=0.5)  # radius 1 > 0.5


def test_interloper_blocks_generation():
    # a point strictly inside the circumball violates the empty-ball rule
    c = cloud_of([(0, 0), (2, 0), (1, 0.5)])
    assert not is_generating((0, 1), c, eps=GLOBAL)


def test_acute_triangle_global_counts():
    pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    cps = enumerate_global(cloud_of(pts))
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 3, 1]
    assert cc.alternating_sum() == 1


def test_collinear_points_global_counts():
    cps = enumerate_global(cloud_of([(0, 0), (1, 0), (2, 0)]))
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 2, 0]
    assert cc.alternating_sum() == 1


def test_square_tie_rule():
    """Four cocircular corners: the tie rule keeps one merged maximum."""
    cps = enumerate_global(cloud_of([(0, 0), (1, 0), (0, 1), (1, 1)]))
    cc = counts(cps, 4, GLOBAL, 2)
    assert list(cc.by_index) == [4, 4, 1]
    assert cc.alternating_sum() == 1


def test_near_right_triangle_keeps_gabriel_edge():
    """The circumcenter lies 1e-8 above the midpoint of the Gabriel base
    edge: the edge and the triangle are two critical points, not a tie."""
    cps = enumerate_global(cloud_of([(0, 0), (1, 0), (0.5, 0.5 + 1e-8)]))
    assert list(counts(cps, 3, GLOBAL, 2).by_index) == [3, 3, 1]


def test_thin_acute_triangle_global_counts():
    """Aspect ratio 1e-6 is thin, not degenerate: all three edges are
    Gabriel and the circumcenter lies inside the triangle."""
    cps = enumerate_global(cloud_of([(0, 0), (1, 1e-6), (1, -1e-6)]))
    assert list(counts(cps, 3, GLOBAL, 2).by_index) == [3, 3, 1]


def test_tie_rule_keeps_near_coincident_critical_points():
    """A cloud on which a Gabriel edge and a nearly right triangle have
    centers within 1e-7 of each other: N_1 matches the fast path and the
    Morse count matches the Cech complex."""
    n = 5000
    r = n ** -0.5
    cloud = sample_iid(uniform_box(2), n, substream(5, 0))
    cc = counts(enumerate_grid(cloud, r), n, r, 2)
    assert cc.by_index[1] == count_index1(cloud.points, r) == 9493
    assert cc.alternating_sum() == euler_characteristic(build_cech(cloud.points, r)) == -441


def test_collinear_four_points_global_counts():
    cps = enumerate_global(cloud_of([(0, 0), (1, 0), (2, 0), (3, 0)]))
    assert list(counts(cps, 4, GLOBAL, 2).by_index) == [4, 3, 0]


def test_integer_lattice_global_counts():
    """4x4 lattice: 24 unit edges, and one merged maximum per unit square
    from its two diagonals and four right triangles."""
    pts = [(x, y) for x in range(4) for y in range(4)]
    cc = counts(enumerate_global(cloud_of(pts)), 16, GLOBAL, 2)
    assert list(cc.by_index) == [16, 24, 9]
    assert cc.alternating_sum() == 1


def test_obtuse_triangle_has_no_maximum():
    cps = enumerate_global(cloud_of([(0, 0), (1, 0), (0.5, 0.1)]))
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 2, 0]


def test_empty_and_singleton_clouds():
    assert enumerate_grid(cloud_of(np.empty((0, 2))), 0.5) == []
    cps = enumerate_grid(cloud_of([(0.3, 0.7)]), 0.5)
    assert len(cps) == 1 and cps[0].index == 0


def test_pair_index1_threshold():
    delta = 0.35
    c = cloud_of([(0, 0), (2 * delta, 0)])
    for eps, expect in [(delta - 1e-6, 0), (delta, 1), (2 * delta, 1)]:
        cps = enumerate_grid(c, eps)
        n1 = sum(1 for cp in cps if cp.index == 1)
        assert n1 == expect, eps


# ---------------------------------------------------------- oracle equivalence

@pytest.mark.parametrize("d", [2, 3])
def test_grid_equals_brute_random_clouds(d):
    f = uniform_box(d)
    for trial in range(20):
        rng = substream(100, d, trial)
        n = int(rng.integers(5, 60))
        cloud = sample_iid(f, n, rng)
        eps = float(rng.uniform(0.05, 0.5))
        brute = enumerate_brute(cloud, eps)
        grid = enumerate_grid(cloud, eps, candidates="grid")
        assert _multiset(brute) == _multiset(grid)


@pytest.mark.parametrize("d", [2, 3])
def test_delaunay_path_equals_brute(d):
    f = uniform_box(d)
    for trial in range(10):
        rng = substream(101, d, trial)
        cloud = sample_iid(f, 40, rng)
        eps = float(rng.uniform(0.1, 0.4))
        brute = enumerate_brute(cloud, eps)
        dela = enumerate_grid(cloud, eps, candidates="delaunay")
        assert _multiset(brute) == _multiset(dela)


def test_global_alternating_sum_random():
    for trial in range(20):
        rng = substream(102, trial)
        d = 2 + trial % 2
        cloud = sample_iid(uniform_box(d), int(rng.integers(2, 20)), rng)
        cc = counts(enumerate_global(cloud), cloud.n, GLOBAL, d)
        assert cc.alternating_sum() == 1


def test_counts_monotone_in_eps():
    rng = substream(103, 0)
    cloud = sample_iid(uniform_box(2), 80, rng)
    prev = None
    for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
        by_index = counts(enumerate_grid(cloud, eps), cloud.n, eps, 2).by_index
        if prev is not None:
            assert np.all(by_index >= prev)
        prev = by_index


def test_radius_at_diameter_equals_global():
    rng = substream(104, 0)
    cloud = sample_iid(uniform_box(2), 30, rng)
    diam = float(
        max(np.linalg.norm(p - q) for p in cloud.points for q in cloud.points)
    )
    at_diam = enumerate_grid(cloud, diam)
    global_ = enumerate_global(cloud)
    assert _multiset(at_diam) == _multiset(global_)


def test_count_index1_fast_path():
    for trial in range(10):
        rng = substream(105, trial)
        cloud = sample_iid(uniform_box(2), 200, rng)
        eps = float(rng.uniform(0.02, 0.1))
        full = sum(1 for cp in enumerate_grid(cloud, eps) if cp.index == 1)
        assert count_index1(cloud.points, eps) == full


# ----------------------------------------------------- shared clique expander

def _random_graph(rng, n, p):
    return np.array([(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < p], dtype=np.int64).reshape(-1, 2)


def test_expand_cliques_equals_brute_force_listing():
    for trial in range(20):
        rng = substream(110, trial)
        n = int(rng.integers(2, 16))
        edges = _random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
        adjacent = {tuple(e) for e in edges.tolist()}
        level = edges
        for size in range(3, n + 2):
            nxt, parents = expand_cliques(level, edges, n)
            want = [c for c in itertools.combinations(range(n), size)
                    if all(p in adjacent for p in itertools.combinations(c, 2))]
            assert nxt.tolist() == [list(c) for c in want]
            assert np.array_equal(nxt[:, :-1], level[parents])
            level = nxt


def test_expand_cliques_budget():
    """A complete graph whose triangle candidates span two chunks."""
    n = 120
    edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    with pytest.raises(CliqueBudgetExceeded):
        expand_cliques(edges, edges, n, max_new=1000)
    nxt, parents = expand_cliques(edges, edges, n, max_new=math.comb(n, 3))
    assert nxt.tolist() == [list(c) for c in itertools.combinations(range(n), 3)]
    assert np.array_equal(nxt[:, :-1], edges[parents])


def test_close_pairs_sorted_and_complete():
    cloud = sample_iid(uniform_box(2), 300, substream(111, 0))
    pairs = close_pairs(cKDTree(cloud.points), 0.1)
    dist = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
    i, j = np.nonzero(np.triu(dist <= 0.1, k=1))
    assert np.array_equal(pairs, np.stack([i, j], axis=1))


# ---------------------------------------------------------------- invariants

def test_emitted_points_verify_independently():
    rng = substream(106, 0)
    cloud = sample_iid(uniform_box(3), 60, rng)
    cps = enumerate_grid(cloud, 0.3)
    assert cps, "expected at least one critical point"
    for cp in cps:
        assert verify_critical_point(cloud, cp)


def test_counts_injects_minima():
    cc = counts([], 5, 0.25, 2)
    assert list(cc.by_index) == [5, 0, 0]


def test_critical_values_by_index_thresholding():
    rng = substream(107, 0)
    cloud = sample_iid(uniform_box(2), 50, rng)
    values = critical_values_by_index(cloud.points)
    for eps in (0.1, 0.3):
        cc = counts(enumerate_grid(cloud.points, eps), cloud.n, eps, 2)
        for k in (1, 2):
            assert int(np.sum(values.get(k, np.empty(0)) <= eps)) == cc.by_index[k]


# --------------------------------------------------------------------- caps

def test_brute_cap():
    cloud = sample_iid(uniform_box(2), 301, substream(108, 0))
    with pytest.raises(OracleCapExceeded):
        enumerate_brute(cloud, 0.05)


def test_global_brute_cap():
    cloud = sample_iid(uniform_box(2), 26, substream(108, 1))
    with pytest.raises(OracleCapExceeded):
        enumerate_brute(cloud, GLOBAL)


def test_global_cap():
    cloud = sample_iid(uniform_box(2), 50, substream(108, 2))
    with pytest.raises(GlobalCapExceeded):
        enumerate_global(cloud, cap=10)


# ------------------------------------------------------------- serialization

def test_critical_csv_roundtrip(tmp_path):
    cloud = sample_iid(uniform_box(2), 40, substream(109, 0))
    cps = enumerate_grid(cloud, 0.3)
    path = tmp_path / "critical.csv"
    save_critical_csv(cps, path)
    back = load_critical_csv(path)
    assert len(back) == len(cps)
    for a, b in zip(cps, back):
        assert a.index == b.index
        assert a.generators == b.generators
        assert b.value == pytest.approx(a.value, abs=1e-12)
        assert np.allclose(a.center, b.center)
