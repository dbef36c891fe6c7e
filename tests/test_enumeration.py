"""Critical-point enumeration: hand examples, oracle equivalence of both
candidate sources (cliques and Delaunay faces), the choice between them,
the shared clique expander, caps, tie rule, degenerate input, the array
result and its object view, serialization."""

import itertools
import logging
import math

import numpy as np
import pytest

import randcech.enumeration as enumeration
from randcech.enumeration import (
    GLOBAL,
    CliqueBudgetExceeded,
    CriticalPoint,
    GlobalCapExceeded,
    OracleCapExceeded,
    count_index1,
    counts,
    critical_values_by_index,
    delaunay_subsets,
    enumerate_brute,
    enumerate_grid,
    expand_cliques,
    is_generating,
    load_critical_csv,
    save_critical_csv,
    verify_critical_point,
)
from randcech.cech import build_cech, euler_characteristic
from randcech.geometry import DegenerateConfiguration
from randcech.pointproc import PointCloud, sample_iid, substream, uniform_box
from scipy.spatial import cKDTree

from conftest import random_rotation


def cloud_of(points):
    pts = np.asarray(points, dtype=float)
    return PointCloud(dim=pts.shape[1], points=pts)


def _multiset(cps):
    return sorted((cp.index, round(cp.value, 9)) for cp in cps)


def _exact(cps):
    return [(cp.index, cp.generators, cp.value) for cp in cps]


# --------------------------------------------------------------- hand examples

def test_two_point_saddle():
    c = cloud_of([(0, 0), (2, 0)])
    assert is_generating((0, 1), c, eps=1.5)
    assert not is_generating((0, 1), c, eps=0.5)  # radius 1 > 0.5


def test_interloper_blocks_generation():
    # a point strictly inside the circumball violates the empty-ball rule
    c = cloud_of([(0, 0), (2, 0), (1, 0.5)])
    assert not is_generating((0, 1), c, eps=GLOBAL)


def test_is_generating_refuses_out_of_range_indices():
    """A negative index would wrap to the end of the cloud, and one past
    it would escape as a bare IndexError: both are named."""
    c = cloud_of([(0, 0), (2, 0), (1, 1.5)])
    for generators, bad in (((-1, 0), -1), ((0, 3), 3), ((1, 2, 7), 7)):
        with pytest.raises(ValueError, match=f"generator index {bad} is out of range for 3 points"):
            is_generating(generators, c)


def test_is_generating_refuses_entries_that_are_not_indices():
    """A float, a string, a bool or an empty subset is refused by name,
    not truncated, converted or left to numpy."""
    c = cloud_of([(0, 0), (2, 0), (1, 1.5)])
    cases = (([0, 1.7], "1.7"), (["1", 2], "'1'"), ([True, 2], "True"),
             ([0, 1, 2, 0.5], "0.5"))
    for generators, bad in cases:
        with pytest.raises(ValueError, match=f"generator index {bad} is not an integer"):
            is_generating(generators, c)
    with pytest.raises(ValueError, match="need one or more distinct generator indices"):
        is_generating([], c)
    assert is_generating(np.array([0, 1]), c) == is_generating((0, 1), c)


def test_k_max_gives_the_lower_rows_of_the_full_enumeration():
    """On cospherical clouds both sources give, for k_max < d, exactly the
    full enumeration's rows of index <= k_max: the hypotenuse of a right
    triangle ties with the triangle and is no saddle, and no merged row of
    higher index leaks through."""
    def grid(n):
        return np.array(list(itertools.product(*[range(s) for s in n])), dtype=float)

    triangle = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
    assert list(counts(enumerate_grid(triangle, GLOBAL, k_max=1), 3, GLOBAL).by_index) == [3, 2, 0]
    clouds = [(triangle, GLOBAL), (grid((2, 2)), GLOBAL), (grid((2, 2, 2)), 0.75),
              (grid((3, 3, 3)), 1.1)]
    for pts, eps in clouds:
        for call in (enumerate_grid, enumerate_brute):
            full = _exact(call(pts, eps))
            for k_max in range(1, pts.shape[1]):
                assert _exact(call(pts, eps, k_max=k_max)) == [r for r in full if r[0] <= k_max]


@pytest.mark.parametrize("k_max", [0, -1])
def test_k_max_below_one_gives_no_row_on_any_source(k_max, monkeypatch):
    """k_max < 1 asks for no index >= 1: the clique source at eps = 0.08
    and the Delaunay source at eps = 0.3 return no row, as the oracle
    does, and no candidate is evaluated."""
    pts = sample_iid(uniform_box(2), 60, substream(127, 0)).points
    radii = (0.08, 0.3)
    edges = [len(cKDTree(pts).query_pairs(2 * eps)) for eps in radii]
    assert [enumeration._pick_strategy(60, 2, m) for m in edges] == ["grid", "delaunay"]
    evaluated, evaluate = [], enumeration._evaluate_batch

    def counting(frame, subsets, workers=None):
        evaluated.append(len(subsets))
        return evaluate(frame, subsets, workers)

    monkeypatch.setattr(enumeration, "_evaluate_batch", counting)
    for eps in radii:
        for call in (enumerate_grid, enumerate_brute):
            cps = call(pts, eps, k_max=k_max)
            assert len(cps.index) == 0 and len(cps) == 60
    assert evaluated == []


def test_acute_triangle_global_counts():
    pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    cps = enumerate_grid(cloud_of(pts), GLOBAL)
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 3, 1]
    assert cc.alternating_sum() == 1


def test_collinear_points_global_counts():
    cps = enumerate_grid(cloud_of([(0, 0), (1, 0), (2, 0)]), GLOBAL)
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 2, 0]
    assert cc.alternating_sum() == 1


def test_square_tie_rule():
    """Four cocircular corners: the tie rule keeps one merged maximum."""
    cps = enumerate_grid(cloud_of([(0, 0), (1, 0), (0, 1), (1, 1)]), GLOBAL)
    cc = counts(cps, 4, GLOBAL, 2)
    assert list(cc.by_index) == [4, 4, 1]
    assert cc.alternating_sum() == 1


def test_near_right_triangle_keeps_gabriel_edge():
    """The circumcenter lies 1e-8 above the midpoint of the Gabriel base
    edge: the edge and the triangle are two critical points, not a tie."""
    cps = enumerate_grid(cloud_of([(0, 0), (1, 0), (0.5, 0.5 + 1e-8)]), GLOBAL)
    assert list(counts(cps, 3, GLOBAL, 2).by_index) == [3, 3, 1]


def test_thin_acute_triangle_global_counts():
    """Aspect ratio 1e-6 is thin, not degenerate: all three edges are
    Gabriel and the circumcenter lies inside the triangle."""
    cps = enumerate_grid(cloud_of([(0, 0), (1, 1e-6), (1, -1e-6)]), GLOBAL)
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


def _rings(m):
    t = 2 * np.pi * np.arange(m) / m
    inner = np.stack([np.cos(t), np.sin(t)], axis=1)
    return np.vstack([inner, 2 * inner])


@pytest.mark.parametrize("points, expected", [
    ([(0, 0), (1, 0), (0, 1)], [3, 2, 0]),
    ([(0, 0), (1, 0), (1, 1e-8)], [3, 2, 0]),
    ([(0, 0), (1, 0), (0, 1), (1, 1)], [4, 4, 1]),
    (_rings(5), [10, 10, 1]),
    (_rings(8), [16, 24, 9]),
    (_rings(12), [24, 36, 13]),
], ids=["right", "thin-right", "square", "rings-5", "rings-8", "rings-12"])
def test_tie_rule_needs_center_in_relative_interior(points, expected):
    """A tie group is one critical point only when its center lies in the
    relative interior of the hull of its generators: a right triangle's
    hypotenuse midpoint is where the edge and the triangle enter together,
    so it counts for neither.  The oracle agrees."""
    pts = np.asarray(points, dtype=float)
    for result in (enumerate_grid(pts, GLOBAL), enumerate_brute(pts, GLOBAL)):
        cc = counts(result, len(pts), GLOBAL, 2)
        assert list(cc.by_index) == expected
        assert cc.alternating_sum() == 1


def test_merged_point_takes_its_first_strict_member():
    """The oracle's center maximum of a regular hexagon merges its three
    diameters and the triangles whose closed hull holds the center; the
    diameters and some triangles hold it strictly, and their computed
    centers and values differ in the last bits.  The point takes the
    center and value of the first strict member in (size, generators),
    the diameter (0, 3), not of the one of least value."""
    t = 2 * np.pi * np.arange(6) / 6
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    frame = enumeration._frame(pts, GLOBAL)[0]
    _, center, value, strict = enumeration._evaluate_batch(frame, np.array([[0, 3]]))
    result = enumerate_brute(pts)
    top = result.index == 2
    assert strict[0] and result.generators[top].tolist() == [[0, 1, 2, 3, 4, 5]]
    assert result.centers[top].tobytes() == (center + frame.origin).tobytes()
    assert result.values[top].tobytes() == value.tobytes()


def test_counts_and_morse_euler_identity_are_similarity_invariant():
    """Scaling, translating, rotating or relabelling a cloud (with eps
    scaled alike) keeps the counts, also those of the index-1 fast path,
    and the Morse count equals chi(Cech) in every case."""
    pts = sample_iid(uniform_box(2), 300, substream(9, 0)).points
    rot = random_rotation(2, substream(9, 1))
    perm = substream(9, 2).permutation(len(pts))
    cases = [(pts * s, 0.06 * s) for s in (1e-6, 1e-3, 1.0, 1e3, 1e6)]
    cases += [(pts + 1e6, 0.06), (pts @ rot.T, 0.06), (pts[perm], 0.06)]
    for p, eps in cases:
        cc = counts(enumerate_grid(p, eps), len(p), eps, 2)
        assert list(cc.by_index) == [300, 557, 237]
        assert count_index1(p, eps) == 557
        assert cc.alternating_sum() == euler_characteristic(build_cech(p, eps)) == -20


def test_coincident_points_raise_a_named_error():
    """Every enumeration path refuses coincident points before Qhull;
    the Cech complex takes them."""
    pts = np.zeros((12, 2)) + 0.3
    for eps in (0.05, 0.6, 1.5, GLOBAL):
        with pytest.raises(DegenerateConfiguration, match="coincide"):
            enumerate_grid(pts, eps)
        with pytest.raises(DegenerateConfiguration, match="coincide"):
            enumerate_brute(pts, eps)
    with pytest.raises(DegenerateConfiguration):
        enumerate_grid(np.vstack([pts[:2], [(1.0, 1.0)]]), GLOBAL)
    assert euler_characteristic(build_cech(pts, 0.6)) == 1


def test_count_index1_refuses_coincident_points_and_nonpositive_eps():
    """Three copies of one point plus another: no pair of copies is an
    index-1 critical point, so the count raises as enumeration does."""
    pts = np.array([(0.3, 0.3)] * 3 + [(0.9, 0.9)])
    for eps in (0.1, 1.0):
        with pytest.raises(DegenerateConfiguration, match="coincide"):
            enumerate_grid(pts, eps)
        with pytest.raises(DegenerateConfiguration, match="coincide"):
            count_index1(pts, eps)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps must be > 0"):
            count_index1(pts[2:], eps)


def test_coincident_error_names_the_lowest_pair():
    """With two coincident pairs, the error names the pair first in label
    order, whatever the labels and whichever path meets it."""
    base = sample_iid(uniform_box(2), 40, substream(126, 0)).points
    base[7], base[31] = base[3], base[22]
    for t in range(6):
        perm = substream(126, 1 + t).permutation(40)
        pts = base[perm]
        label = np.argsort(perm)  # the new label of each old point
        i, j = min(sorted(label[list(pair)].tolist()) for pair in [(3, 7), (22, 31)])
        for call in (lambda: enumerate_grid(pts, 0.1), lambda: count_index1(pts, GLOBAL)):
            with pytest.raises(DegenerateConfiguration, match=f"points {i} and {j} coincide"):
                call()


# One eps rule for every path: the global answer for None and inf (20
# points, so the oracle's global cap admits them; 6 for the full complex)
EPS_PATHS = {
    "enumerate_brute": (lambda p, eps: list(counts(enumerate_brute(p[:20], eps), 20, eps, 2).by_index),
                        [20, 35, 16]),
    "enumerate_grid": (lambda p, eps: list(counts(enumerate_grid(p[:20], eps), 20, eps, 2).by_index),
                       [20, 35, 16]),
    "is_generating": (lambda p, eps: is_generating((0, 10, 15), p[:20], eps), True),
    "count_index1": (lambda p, eps: count_index1(p[:20], eps), 35),
    "build_cech": (lambda p, eps: list(build_cech(p[:6], eps).counts()), [6, 15, 20, 15, 6, 1]),
}


@pytest.mark.parametrize("path", list(EPS_PATHS))
def test_one_eps_rule_for_every_path(path):
    """eps = 0, -0.1 or NaN raises the same error on every path, before
    the cloud is looked at; None and inf both give the global answer."""
    call, global_answer = EPS_PATHS[path]
    pts = sample_iid(uniform_box(2), 30, substream(600, 0)).points
    for eps in (0.0, -0.1, math.nan):
        for cloud in (pts, np.empty((0, 2))):
            with pytest.raises(ValueError, match="eps must be > 0"):
                call(cloud, eps)
    assert call(pts, math.inf) == call(pts, None) == global_answer


def test_each_path_makes_one_pair_query(monkeypatch, caplog):
    """The frame's query is the only pair search of a call, on every
    candidate source, globally too, and in tiled clouds."""
    calls = []

    class CountingTree(cKDTree):
        def query_pairs(self, *args, **kwargs):
            calls.append(self.n)
            return super().query_pairs(*args, **kwargs)

    monkeypatch.setattr(enumeration, "cKDTree", CountingTree)
    caplog.set_level(logging.DEBUG, logger="randcech.enumeration")
    pts = sample_iid(uniform_box(2), 200, substream(600, 1)).points
    big = sample_iid(uniform_box(2), 2 * enumeration.TILE_POINTS, substream(600, 2)).points
    paths = [  # (points in the cloud, call)
        (200, lambda: enumerate_grid(pts, 0.03)),  # cliques
        (200, lambda: enumerate_grid(pts, 0.15)),  # Delaunay faces
        (8, lambda: enumerate_grid(pts[:8], GLOBAL)),  # cliques of all pairs
        (len(big), lambda: enumerate_grid(big, len(big) ** -0.5)),  # Delaunay tiles
        (60, lambda: enumerate_brute(pts[:60], 0.1)),
        (20, lambda: enumerate_brute(pts[:20], GLOBAL)),
        (200, lambda: is_generating((0, 1), pts, 0.1)),
        (200, lambda: count_index1(pts, 0.1)),
        (200, lambda: count_index1(pts, GLOBAL)),
    ]
    for n, call in paths:
        calls.clear()
        call()
        assert calls == [n]
    sources = [r.getMessage().split()[0] for r in caplog.records]
    assert sources[:4] == ["grid", "delaunay", "grid", "delaunay"]


def test_collinear_four_points_global_counts():
    cps = enumerate_grid(cloud_of([(0, 0), (1, 0), (2, 0), (3, 0)]), GLOBAL)
    assert list(counts(cps, 4, GLOBAL, 2).by_index) == [4, 3, 0]


def test_integer_lattice_global_counts():
    """4x4 lattice: 24 unit edges, and one merged maximum per unit square
    from its two diagonals and four right triangles."""
    pts = [(x, y) for x in range(4) for y in range(4)]
    cc = counts(enumerate_grid(cloud_of(pts), GLOBAL), 16, GLOBAL, 2)
    assert list(cc.by_index) == [16, 24, 9]
    assert cc.alternating_sum() == 1


def test_obtuse_triangle_has_no_maximum():
    cps = enumerate_grid(cloud_of([(0, 0), (1, 0), (0.5, 0.1)]), GLOBAL)
    cc = counts(cps, 3, GLOBAL, 2)
    assert list(cc.by_index) == [3, 2, 0]


def test_empty_and_singleton_clouds():
    empty = enumerate_grid(cloud_of(np.empty((0, 2))), 0.5)
    assert len(empty) == 0 and list(empty) == []
    cps = enumerate_grid(cloud_of([(0.3, 0.7)]), 0.5)
    assert len(cps) == 1 and [cp.index for cp in cps] == [0]


def test_pair_index1_threshold():
    delta = 0.35
    c = cloud_of([(0, 0), (2 * delta, 0)])
    for eps, expect in [(delta - 1e-6, 0), (delta, 1), (2 * delta, 1)]:
        cps = enumerate_grid(c, eps)
        n1 = sum(1 for cp in cps if cp.index == 1)
        assert n1 == expect, eps


# ---------------------------------------------------------- oracle equivalence

def _paths(caplog):
    """Candidate sources that enumerate_grid logged, in call order."""
    return [r.args[0] for r in caplog.records if r.name == "randcech.enumeration"]


@pytest.mark.parametrize("d", [2, 3])
def test_grid_equals_brute_random_clouds(d, caplog):
    """enumerate_grid equals the oracle on 30 clouds per dimension, in
    (index, generators, exact value) and in counts, and both candidate
    sources run among them."""
    f = uniform_box(d)
    inputs = []
    for trial in range(20):
        rng = substream(100, d, trial)
        n = int(rng.integers(5, 60))
        inputs.append((sample_iid(f, n, rng), float(rng.uniform(0.05, 0.5))))
    for trial in range(10):
        rng = substream(101, d, trial)
        inputs.append((sample_iid(f, 40, rng), float(rng.uniform(0.1, 0.4))))
    with caplog.at_level(logging.DEBUG, logger="randcech.enumeration"):
        for cloud, eps in inputs:
            brute, grid = enumerate_brute(cloud, eps), enumerate_grid(cloud, eps)
            assert _multiset(brute) == _multiset(grid)
            assert _exact(brute) == _exact(grid)
            for result in (brute, grid):
                assert (counts(result, cloud.n, eps).by_index.tolist()
                        == counts(list(result), cloud.n, eps).by_index.tolist())
    assert set(_paths(caplog)) == {"grid", "delaunay"}


@pytest.mark.parametrize("d", [2, 3])
def test_delaunay_path_equals_brute(d, caplog, monkeypatch):
    """Delaunay-face candidates equal the oracle on every cloud, also where
    the density rule would pick clique candidates."""
    import randcech.enumeration as enumeration

    monkeypatch.setattr(enumeration, "_pick_strategy", lambda n, d, edges: "delaunay")
    f = uniform_box(d)
    with caplog.at_level(logging.DEBUG, logger="randcech.enumeration"):
        for trial in range(10):
            rng = substream(101, d, trial)
            cloud = sample_iid(f, 40, rng)
            eps = float(rng.uniform(0.1, 0.4))
            assert _multiset(enumerate_brute(cloud, eps)) == _multiset(enumerate_grid(cloud, eps))
    assert _paths(caplog) == ["delaunay"] * 10


def test_path_and_counts_invariant_under_placement(caplog):
    """A cloud past the Delaunay threshold (lambda = 4) keeps its candidate
    source and its counts when rotated, scaled, relabelled or given one
    far point."""
    n = 2000
    r = (4.0 / n) ** 0.5
    pts = sample_iid(uniform_box(2), n, substream(112, 0)).points
    c = s = math.sqrt(0.5)
    variants = [
        (pts, r),
        (pts @ np.array([[c, -s], [s, c]]), r),
        (pts * 1e3, r * 1e3),
        (pts[substream(112, 1).permutation(n)], r),
        (np.vstack([pts, [(100.0, 100.0)]]), r),
    ]
    with caplog.at_level(logging.DEBUG, logger="randcech.enumeration"):
        by_index = [counts(enumerate_grid(p, e), len(p), e, 2).by_index[1:].tolist()
                    for p, e in variants]
    assert _paths(caplog) == ["delaunay"] * len(variants)
    assert by_index == [by_index[0]] * len(variants)


# ------------------------------------------------------- Delaunay tiles

def _fields(cps):
    return [cps.index, cps.generators, cps.centers, cps.values]


def _same(a, b):
    """Byte-identical CriticalPoints arrays."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(_fields(a), _fields(b)))


def _tile_counts(monkeypatch):
    """The list the tile count of each Delaunay enumeration is appended to."""
    seen, slabs = [], enumeration._slabs

    def spy(*args):
        tiles = slabs(*args)
        seen.append(len(tiles))
        return tiles

    monkeypatch.setattr(enumeration, "_slabs", spy)
    return seen


@pytest.mark.parametrize("d, n, tile_points, tiles", [(2, 200, 60, 3), (3, 80, 40, 2)])
def test_tiles_equal_one_tile_and_the_oracle(d, n, tile_points, tiles, monkeypatch):
    """Random clouds at the critical radius cut into slabs give the
    single-tile result byte for byte, and the oracle's counts."""
    r = n ** (-1.0 / d)
    seen = _tile_counts(monkeypatch)
    for trial in range(3):
        cloud = sample_iid(uniform_box(d), n, substream(120, d, trial))
        monkeypatch.setattr(enumeration, "TILE_POINTS", tile_points)
        tiled = enumerate_grid(cloud, r)
        monkeypatch.setattr(enumeration, "TILE_POINTS", 10**9)
        single = enumerate_grid(cloud, r)
        assert seen[-2:] == [tiles, 1]
        assert _same(tiled, single)
        assert (counts(tiled, n, r).by_index.tolist()
                == counts(enumerate_brute(cloud, r), n, r).by_index.tolist())
    assert tiled.index.size


@pytest.mark.parametrize("relabel", [False, True])
def test_tiled_lattice_keeps_every_maximum(relabel, monkeypatch):
    """Neighbouring tiles of an exact lattice cut its cocircular squares
    along different diagonals; pooling their faces still gives each
    square its maximum (N_2 = 121), as one tile does.  Keeping each face
    only in the tile of its lowest label gives 117 on the relabelled
    lattice."""
    lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij"),
                       axis=-1).reshape(-1, 2)
    if relabel:
        lattice = lattice[substream(122, 1).permutation(144)]
    seen = _tile_counts(monkeypatch)
    monkeypatch.setattr(enumeration, "TILE_POINTS", 40)
    tiled = enumerate_grid(lattice, 1.1)
    monkeypatch.setattr(enumeration, "TILE_POINTS", 10**9)
    single = enumerate_grid(lattice, 1.1)
    assert seen == [3, 1]
    assert list(counts(tiled, 144, 1.1).by_index) == [144, 264, 121]
    assert _same(tiled, single)


def test_tiles_do_not_depend_on_cpus_or_labels(monkeypatch):
    """One CPU in the affinity mask gives the same result; relabelling
    the cloud gives the same counts."""
    import os

    n = 2000
    r = n ** -0.5
    pts = sample_iid(uniform_box(2), n, substream(121, 0)).points
    seen = _tile_counts(monkeypatch)
    monkeypatch.setattr(enumeration, "TILE_POINTS", 500)
    tiled = enumerate_grid(pts, r)
    relabelled = enumerate_grid(pts[substream(121, 1).permutation(n)], r)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _same(enumerate_grid(pts, r), tiled)
    assert seen == [4, 4, 4]
    assert counts(relabelled, n, r).by_index.tolist() == counts(tiled, n, r).by_index.tolist()


def test_wide_padding_keeps_one_triangulation(monkeypatch):
    """Where the 2 eps padding would more than double the points
    triangulated, the cloud is one tile."""
    pts = sample_iid(uniform_box(2), 2000, substream(121, 0)).points
    seen = _tile_counts(monkeypatch)
    monkeypatch.setattr(enumeration, "TILE_POINTS", 500)
    enumerate_grid(pts, 0.05)
    enumerate_grid(pts, 0.2)
    assert seen == [4, 1]


@pytest.mark.parametrize("case", ["lattice", "rings-5", "rings-8", "rings-12", "random"])
def test_tie_resolution_does_not_depend_on_row_order(case, monkeypatch):
    """Shuffling the candidate rows within each batch, and the batches,
    before the tie rule leaves the result byte for byte as it was: on a
    tiled lattice, on cospherical rings (globally; the oracle's groups
    hold strict members whose centers differ in the last bits) and on a
    random cloud."""
    if case == "lattice":
        lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij"),
                           axis=-1).reshape(-1, 2)
        pts = lattice[substream(122, 1).permutation(144)]
        monkeypatch.setattr(enumeration, "TILE_POINTS", 40)
        runs = [lambda: enumerate_grid(pts, 1.1)]
    elif case == "random":
        pts = sample_iid(uniform_box(2), 500, substream(124, 0)).points
        runs = [lambda: enumerate_grid(pts, 500 ** -0.5)]
    else:
        pts = _rings(int(case.split("-")[1]))
        runs = [lambda: enumerate_grid(pts, GLOBAL), lambda: enumerate_brute(pts)]
    plain = [run() for run in runs]
    resolve, rng = enumeration._resolve_ties, substream(124, 1)

    def shuffled(points, frame, batches):
        batches = [tuple(col[perm] for col in b)
                   for b in batches for perm in [rng.permutation(len(b[0]))]]
        return resolve(points, frame, [batches[i] for i in rng.permutation(len(batches))])

    monkeypatch.setattr(enumeration, "_resolve_ties", shuffled)
    for run, result in zip(runs, plain):
        assert result.index.size
        for _ in range(3):
            assert _same(run(), result)


def test_tiles_sort_no_whole_candidate_set(monkeypatch):
    """Tiles are merged by deduplicating only the faces that cross a cut,
    and the result is ordered from its one value sort: no lexsort sees
    more than a tenth of the candidate rows."""
    sorted_rows, candidates = [], []
    lexsort, resolve = np.lexsort, enumeration._resolve_ties

    def lexsort_spy(keys, *args, **kwargs):
        order = lexsort(keys, *args, **kwargs)
        sorted_rows.append(len(order))
        return order

    def resolve_spy(points, frame, batches):
        candidates.append(sum(len(b[0]) for b in batches))
        return resolve(points, frame, batches)

    monkeypatch.setattr(np, "lexsort", lexsort_spy)
    monkeypatch.setattr(enumeration, "_resolve_ties", resolve_spy)
    seen = _tile_counts(monkeypatch)
    monkeypatch.setattr(enumeration, "TILE_POINTS", 500)
    pts = sample_iid(uniform_box(2), 2000, substream(121, 0)).points
    enumerate_grid(pts, 2000 ** -0.5)
    assert seen == [4] and sorted_rows
    assert max(sorted_rows) <= 0.1 * candidates[0]


@pytest.mark.parametrize("height, expected", [(1 - 1e-6, [3, 2, 0]), (1 + 1e-6, [3, 3, 1])],
                         ids=["inside", "outside"])
def test_cp2_is_exact_at_the_query_bound(height, expected):
    """An edge of half-length exactly eps, with an interloper just inside
    or just outside its diametral ball: the CP2 query bounded by eps finds
    the one and not the other, on every path."""
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, height)])
    for result in (enumerate_grid(pts, 1.0), enumerate_brute(pts, 1.0)):
        assert list(counts(result, 3, 1.0, 2).by_index) == expected
    assert count_index1(pts, 1.0) == expected[1]


def test_one_dimensional_cloud():
    """d = 1 uses clique candidates; Qhull triangulates only d >= 2."""
    cloud = sample_iid(uniform_box(1), 1000, substream(3, 0))
    cc = counts(enumerate_grid(cloud, 0.05), 1000, 0.05, 1)
    assert list(cc.by_index) == [1000, 999]
    assert cc.by_index[1] == count_index1(cloud.points, 0.05)
    cc = counts(enumerate_grid(cloud.points[:50], GLOBAL), 50, GLOBAL, 1)
    assert list(cc.by_index) == [50, 49]


def test_global_alternating_sum_random():
    for trial in range(20):
        rng = substream(102, trial)
        d = 2 + trial % 2
        cloud = sample_iid(uniform_box(d), int(rng.integers(2, 20)), rng)
        cc = counts(enumerate_grid(cloud, GLOBAL), cloud.n, GLOBAL, d)
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
    global_ = enumerate_grid(cloud, GLOBAL)
    assert _multiset(at_diam) == _multiset(global_)


def test_count_index1_fast_path():
    """N_1 of enumeration, from a PointCloud or its points."""
    for trial in range(10):
        rng = substream(105, trial)
        cloud = sample_iid(uniform_box(2), 200, rng)
        eps = float(rng.uniform(0.02, 0.1))
        full = sum(1 for cp in enumerate_grid(cloud, eps) if cp.index == 1)
        assert count_index1(cloud, eps) == count_index1(cloud.points, eps) == full


def test_tree_layout_changes_no_output(monkeypatch):
    """Sliding-midpoint and median-split trees give byte-identical
    enumerations, counts and Cech levels: on a random cloud at three
    radii (tiled at one), in d = 3, on a relabelled lattice and on the
    8-gon rings."""
    from randcech import cech, geometry

    class Balanced(cKDTree):  # median splits, the scipy default
        def __init__(self, data, **kwargs):
            super().__init__(data, **{**kwargs, "balanced_tree": True})

    n = 2000
    r = n ** -0.5
    pts = sample_iid(uniform_box(2), n, substream(127, 0)).points
    pts3 = sample_iid(uniform_box(3), 400, substream(127, 1)).points
    lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij"),
                       axis=-1).reshape(-1, 2)[substream(127, 2).permutation(144)]
    rings = _rings(8)

    def tiled(eps):
        with monkeypatch.context() as m:
            m.setattr(enumeration, "TILE_POINTS", 500)
            return enumerate_grid(pts, eps)

    cases = [  # (cloud, enumeration, eps of count_index1, eps of build_cech)
        (pts, lambda: enumerate_grid(pts, 0.3 * r), 0.3 * r, 0.3 * r),
        (pts, lambda: enumerate_grid(pts, 1.5 * r), 1.5 * r, 0.5 * r),
        (pts, lambda: tiled(r), r, 0.7 * r),
        (pts3, lambda: enumerate_grid(pts3, 0.12), 0.12, 0.08),
        (lattice, lambda: enumerate_grid(lattice, 1.1), 1.1, 0.75),
        (rings, lambda: enumerate_grid(rings, GLOBAL), GLOBAL, 1.5),
    ]

    def outputs():
        out = []
        for cloud, enum, eps, cech_eps in cases:
            cps, cx = enum(), build_cech(cloud, cech_eps)
            out.append([*_fields(cps), np.array(count_index1(cloud, eps)),
                        *(cx.simplices[j] for j in sorted(cx.simplices))])
        return out

    sliding = outputs()
    for module in (enumeration, cech, geometry):
        monkeypatch.setattr(module, "cKDTree", Balanced)
    for got, want in zip(outputs(), sliding):
        assert len(got) == len(want)
        assert all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                   for x, y in zip(got, want))


def test_cp2_threads_follow_rows(monkeypatch):
    """A CP2 query of m rows runs on min(CPUs, max(1, m // ROWS_PER_THREAD))
    threads: one for a sparse count, one per query on the tile threads, and
    two for a batch of two to three times ROWS_PER_THREAD rows."""
    import os

    queries = []  # (rows, workers) per query

    class Spy(cKDTree):
        def query(self, x, *args, **kwargs):
            queries.append((len(x), kwargs.get("workers", 1)))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(enumeration, "cKDTree", Spy)
    cpus, per = len(os.sched_getaffinity(0)), enumeration.ROWS_PER_THREAD

    n = 10_000
    count_index1(sample_iid(uniform_box(2), n, substream(128, 0)), 1 / n)
    assert queries and all(w == 1 for _, w in queries)

    queries.clear()
    big = sample_iid(uniform_box(2), 2 * enumeration.TILE_POINTS, substream(128, 1))
    enumerate_grid(big, len(big.points) ** -0.5)
    assert max(m for m, _ in queries) >= 2 * per
    assert all(w == 1 for _, w in queries)

    m = next(m for m in itertools.count(2) if m * (m - 1) // 2 >= 2 * per)
    assert m * (m - 1) // 2 < 3 * per
    queries.clear()
    count_index1(sample_iid(uniform_box(2), m, substream(128, 2)), GLOBAL)
    assert queries == [(m * (m - 1) // 2, min(2, cpus))]

    queries.clear()
    enumerate_grid(sample_iid(uniform_box(2), 3000, substream(128, 3)), 3000 ** -0.5)
    assert max(m for m, _ in queries) >= 2 * per
    assert all(w == min(cpus, max(1, m // per)) for m, w in queries)


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
    assert math.comb(n, 3) > enumeration.CLIQUE_CHUNK
    edges = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    with pytest.raises(CliqueBudgetExceeded):
        expand_cliques(edges, edges, n, max_new=1000)
    nxt, parents = expand_cliques(edges, edges, n, max_new=math.comb(n, 3))
    assert nxt.tolist() == [list(c) for c in itertools.combinations(range(n), 3)]
    assert np.array_equal(nxt[:, :-1], edges[parents])


@pytest.mark.parametrize("d", [2, 3])
def test_expand_cliques_joins_siblings_of_any_downward_closed_level(d):
    """On the Cech levels of small clouds, which are downward closed but
    not the clique levels of their graph, the children are exactly the
    sets X = (x_0, ..., x_s) whose faces X - x_s and X - x_{s-1} are rows
    and whose last two vertices are adjacent, in lexicographic order."""
    partial = 0
    for trial in range(12):
        rng = substream(112, d, trial)
        n = int(rng.integers(6, 15))
        points = sample_iid(uniform_box(d), n, rng).points
        cx = build_cech(points, float(rng.uniform(0.15, 0.45)))
        if 1 not in cx.simplices:
            continue
        edges = cx.simplices[1]
        adjacent = {tuple(e) for e in edges.tolist()}
        for j in range(1, max(cx.simplices) + 1):
            level = cx.simplices[j]
            rows = {tuple(r) for r in level.tolist()}
            nxt, parents = expand_cliques(level, edges, n)
            want = [x for x in itertools.combinations(range(n), j + 2)
                    if x[:-1] in rows and x[:-2] + x[-1:] in rows and x[-2:] in adjacent]
            assert nxt.tolist() == [list(x) for x in want]
            assert np.array_equal(nxt[:, :-1], level[parents])
            partial += len(nxt) > len(cx.simplices.get(j + 1, ()))
    assert partial > 0  # some level's children were not all simplices


@pytest.mark.parametrize("chunk", [1, 7])
def test_expand_cliques_chunks_end_inside_sibling_groups(monkeypatch, chunk):
    """Chunks of 1 or 7 candidates cut sibling groups apart; the rows and
    parents are those of the default chunking."""
    n = 40
    edges = _random_graph(substream(113, 0), n, 0.5)
    levels, default = [edges], []
    while len(levels[-1]):
        default.append(expand_cliques(levels[-1], edges, n))
        levels.append(default[-1][0])
    assert len(levels) > 4
    monkeypatch.setattr(enumeration, "CLIQUE_CHUNK", chunk)
    for level, (nxt, parents) in zip(levels, default):
        chunked, chunked_parents = expand_cliques(level, edges, n)
        assert np.array_equal(chunked, nxt) and chunked.shape == nxt.shape
        assert np.array_equal(chunked_parents, parents)


def test_close_pairs_sorted_and_complete():
    cloud = sample_iid(uniform_box(2), 300, substream(111, 0))
    tree = cKDTree(cloud.points)
    pairs = enumeration._lexicographic(tree.query_pairs(0.1, output_type="ndarray"), tree.n)
    dist = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
    i, j = np.nonzero(np.triu(dist <= 0.1, k=1))
    assert np.array_equal(pairs, np.stack([i, j], axis=1))


def test_delaunay_face_keys_refuse_to_overflow():
    """Triangle keys i n^2 + j n + k wrap int64 beyond n = 2^21 points."""
    with pytest.raises(ValueError, match="overflow"):
        delaunay_subsets(np.zeros((2**21 + 1, 3)), 2)


# ---------------------------------------------------------------- invariants

def test_emitted_points_verify_independently():
    rng = substream(106, 0)
    cloud = sample_iid(uniform_box(3), 60, rng)
    cps = enumerate_grid(cloud, 0.3)
    assert cps, "expected at least one critical point"
    for cp in cps:
        assert verify_critical_point(cloud, cp)


def test_verify_critical_point_tolerance_is_relative_to_the_cloud():
    """At every scale 1e-9 ... 1e9 every emitted point passes, and a
    saddle whose center is moved by 1 % of its value fails."""
    cloud = sample_iid(uniform_box(2), 300, substream(107, 0))
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        points = scale * cloud.points
        cps = enumerate_grid(points, 0.1 * scale)
        assert all(verify_critical_point(points, cp) for cp in cps)
        saddle = next(cp for cp in cps if cp.index == 1)
        moved = CriticalPoint(1, saddle.center + [0.01 * saddle.value, 0.0], saddle.value,
                              saddle.generators)
        assert not verify_critical_point(points, moved)


def test_counts_injects_minima():
    cc = counts([], 5, 0.25, 2)
    assert list(cc.by_index) == [5, 0, 0]


def test_counts_take_d_from_the_cloud():
    """Without d, counts have d + 1 entries even when no index-d point
    lies below eps, for the result and for its object view."""
    cloud = sample_iid(uniform_box(3), 200, substream(1, 0))
    cps = enumerate_grid(cloud, 0.02)
    assert (cps.n, cps.d) == (200, 3)
    assert list(counts(cps, 200, 0.02).by_index) == [200, 5, 0, 0]
    assert list(counts(list(cps), 200, 0.02).by_index) == [200, 5, 0, 0]


def test_counting_builds_no_objects(monkeypatch, caplog):
    """Counts, sorted values, experiment trials and Euler phases read the
    arrays: no CriticalPoint is built on either candidate source."""
    import randcech.enumeration as enumeration
    from randcech.experiments import ExperimentConfig, _trial_counts, euler_phase

    def refuse(*args, **kwargs):
        raise AssertionError("a CriticalPoint was built")

    monkeypatch.setattr(enumeration, "CriticalPoint", refuse)
    dense = sample_iid(uniform_box(2), 2000, substream(113, 0))
    sparse = sample_iid(uniform_box(2), 2000, substream(113, 1))
    with caplog.at_level(logging.DEBUG, logger="randcech.enumeration"):
        for cloud, eps in ((dense, (4.0 / 2000) ** 0.5), (sparse, 0.01)):
            result = enumerate_grid(cloud, eps)
            assert counts(result, cloud.n, eps).by_index[0] == 2000
            assert set(_trial_counts(cloud.points, eps, 2, (1, 2))) == {0, 1, 2}
    assert _paths(caplog) == ["delaunay"] * 2 + ["grid"] * 2
    values = critical_values_by_index(dense.points[:300])
    assert len(values[1]) > len(values[2]) > 0
    res = euler_phase(ExperimentConfig(mode="euler_phase", d=2, k_targets=(1, 2),
                                       n_schedule=(500,), trials=1, seed=113))
    assert res["audited"] == 1
    with pytest.raises(AssertionError, match="CriticalPoint"):
        list(result)


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


def test_global_cap(monkeypatch):
    """Both global spellings refuse a cloud above the cap read at call
    time; a finite eps does not."""
    cloud = sample_iid(uniform_box(2), 50, substream(108, 2))
    monkeypatch.setattr(enumeration, "GLOBAL_CAP", 10)
    for eps in (None, GLOBAL):
        with pytest.raises(GlobalCapExceeded, match="n=50 exceeds global cap 10"):
            enumerate_grid(cloud, eps)
    assert len(enumerate_grid(cloud, 0.1)) > 50


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
