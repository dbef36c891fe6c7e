"""Geometric predicates and measures: circumspheres, hull tests, miniballs,
cap and two-ball union volumes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcech.geometry import (
    Ball,
    DegenerateConfiguration,
    TAU_GEOM,
    affine_rank,
    ball_volume,
    barycentric_coordinates,
    circumsphere,
    circumspheres_batch,
    general_position,
    in_open_convex_hull,
    in_relative_interior,
    min_enclosing_ball,
    min_enclosing_radii_batch,
    same_sphere,
    sphere_groups,
    spherical_cap_volume,
    two_ball_union_volume,
    two_ball_union_volumes_batch,
    unit_ball_volume,
)
from randcech.pointproc import substream

from conftest import random_rotation


# ---------------------------------------------------------------- volumes

def test_unit_ball_volume_low_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_unit_ball_volume_rejects_zero():
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_ball_volume_scaling():
    assert ball_volume(2.0, 3) == pytest.approx(8.0 * unit_ball_volume(3))


# ---------------------------------------------------------- general position

def test_general_position_examples():
    assert general_position([(0, 0), (1, 0)])
    assert not general_position([(0, 0), (1, 0), (2, 0)])
    # near-degenerate below the tolerance counts as degenerate
    assert not general_position([(0, 0), (1, 0), (0.5, 1e-14)])
    assert general_position([(0, 0), (1, 0), (0.5, 1e-3)])


def test_general_position_never_crashes_on_duplicates():
    assert not general_position([(1.0, 1.0), (1.0, 1.0)])


def test_affine_rank_simplex():
    assert affine_rank(np.eye(3)) == 2
    assert affine_rank(np.vstack([np.zeros(3), np.eye(3)])) == 3


# ---------------------------------------------------------------- circumsphere

def test_circumsphere_segment():
    cs = circumsphere([(0, 0), (2, 0)])
    assert cs.center == pytest.approx((1.0, 0.0))
    assert cs.radius == pytest.approx(1.0)
    assert cs.affine_dim == 1


def test_circumsphere_equilateral():
    cs = circumsphere([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert cs.center == pytest.approx((0.5, math.sqrt(3) / 6))
    assert cs.radius == pytest.approx(1 / math.sqrt(3))


def test_circumsphere_right_triangle():
    cs = circumsphere([(0, 0), (2, 0), (1, 1)])
    assert cs.center == pytest.approx((1.0, 0.0))
    assert cs.radius == pytest.approx(1.0)


def test_circumsphere_degenerate_raises():
    with pytest.raises(DegenerateConfiguration):
        circumsphere([(0, 0), (1, 0), (2, 0)])


def test_circumsphere_equidistance_property():
    """Center is equidistant from all generators, across sizes and dims."""
    rng = substream(7, 1)
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, d + 1))
        pts = rng.standard_normal((k + 1, d))
        if not general_position(pts):
            continue
        cs = circumsphere(pts)
        dist = np.linalg.norm(pts - cs.center, axis=1)
        assert np.max(np.abs(dist - cs.radius)) < 1e-7


def test_circumspheres_batch_matches_scalar(rng):
    for size, d in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
        stacks = rng.standard_normal((50, size, d))
        centers, radii, bary, ok = circumspheres_batch(stacks)
        for i in range(len(stacks)):
            if not ok[i]:
                assert not general_position(stacks[i])
                continue
            cs = circumsphere(stacks[i])
            assert np.allclose(centers[i], cs.center, atol=1e-8)
            assert radii[i] == pytest.approx(cs.radius, abs=1e-8)


def test_circumspheres_batch_cutoff_is_relative():
    """Collinear triples are rejected at any scale; a regular and a thin
    (aspect 1e-6) triangle are accepted at any scale."""
    collinear = np.array([[[0, 0], [1, 0], [2, 0]], [[0, 0], [1, 0], [3, 0]]], float)
    equilateral = np.array([[[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]])
    thin = np.array([[[0, 0], [1, 1e-6], [1, -1e-6]]])
    for scale in (1e-10, 1.0, 1e6):
        _, _, _, ok = circumspheres_batch(collinear * scale)
        assert not ok.any()
        _, radii, _, ok = circumspheres_batch(equilateral * scale)
        assert ok.all() and radii[0] == pytest.approx(scale / math.sqrt(3), rel=1e-9)
        _, radii, _, ok = circumspheres_batch(thin * scale)
        assert ok.all() and radii[0] == pytest.approx(scale / 2, rel=1e-9)


def test_circumspheres_batch_thin_right_triangle():
    """The right angle of (0,0), (1,0), (1,1e-8) sits at (1,0): the
    circumcenter is the hypotenuse midpoint, whose share h^2 of |v|^2 / 2
    a frame at (0,0) rounds away."""
    centers, radii, bary, ok = circumspheres_batch(np.array([[[0, 0], [1, 0], [1, 1e-8]]]))
    assert ok[0]
    assert np.allclose(bary[0], (0.5, 0.0, 0.5), rtol=0, atol=1e-12)
    assert np.allclose(centers[0], (0.5, 0.5e-8), rtol=0, atol=1e-12)
    assert radii[0] == pytest.approx(0.5, rel=1e-12)


# ------------------------------------------------------------- hull membership

def test_open_hull_equilateral_center():
    pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    assert in_open_convex_hull(circumsphere(pts).center, pts)


def test_open_hull_boundary_excluded():
    # circumcenter of this right triangle sits on the hypotenuse midpoint
    pts = [(0, 0), (2, 0), (1, 1)]
    assert not in_open_convex_hull((1.0, 0.0), pts)


def test_open_hull_obtuse_center_outside():
    pts = [(0, 0), (1, 0), (0.5, 0.1)]
    assert not in_open_convex_hull(circumsphere(pts).center, pts)


def test_midpoint_always_interior_for_pairs(rng):
    for _ in range(100):
        pts = rng.standard_normal((2, 3))
        cs = circumsphere(pts)
        assert in_open_convex_hull(cs.center, pts)


def test_barycentric_coordinates_sum_to_one(rng):
    pts = rng.standard_normal((4, 3))
    lam = barycentric_coordinates(pts.mean(axis=0), pts)
    assert lam.sum() == pytest.approx(1.0)
    assert np.allclose(lam, 0.25)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_open_hull_invariant_under_relabeling_and_rigid_motion(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, d + 1))
    pts = rng.standard_normal((k + 1, d))
    if not general_position(pts):
        return
    c = circumsphere(pts).center
    base = in_open_convex_hull(c, pts)
    perm = rng.permutation(k + 1)
    assert in_open_convex_hull(c, pts[perm]) == base
    rot, shift = random_rotation(d, rng), rng.standard_normal(d)
    assert in_open_convex_hull(c @ rot.T + shift, pts @ rot.T + shift) == base


# ------------------------------------------------------------------ miniballs

def test_min_enclosing_ball_singleton():
    b = min_enclosing_ball([(0.0, 0.0)])
    assert b.radius == 0.0 and tuple(b.center) == (0.0, 0.0)


def test_min_enclosing_ball_pair():
    b = min_enclosing_ball([(0, 0), (2, 0)])
    assert b.center == pytest.approx((1.0, 0.0))
    assert b.radius == pytest.approx(1.0)


def test_min_enclosing_ball_obtuse_triangle():
    # obtuse: the long edge's diametral ball already covers the third point
    b = min_enclosing_ball([(0, 0), (1, 0), (0.5, 0.1)])
    assert b.radius == pytest.approx(0.5)
    assert b.center == pytest.approx((0.5, 0.0))


def _brute_miniball_radius(pts: np.ndarray) -> float:
    """Smallest radius over all support subsets of size <= d+1 whose
    circumball contains every point."""
    n, d = pts.shape
    best = math.inf
    for size in range(1, min(n, d + 1) + 1):
        for idx in itertools.combinations(range(n), size):
            sub = pts[list(idx)]
            if size == 1:
                c, r = sub[0], 0.0
            else:
                if not general_position(sub):
                    continue
                cs = circumsphere(sub)
                c, r = cs.center, cs.radius
            if np.all(np.linalg.norm(pts - c, axis=1) <= r + 1e-9):
                best = min(best, r)
    return best


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_min_enclosing_ball_matches_subset_oracle(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 7))
    pts = rng.random((n, d))
    b = min_enclosing_ball(pts)
    assert b.radius == pytest.approx(_brute_miniball_radius(pts), abs=1e-7)
    assert np.all(np.linalg.norm(pts - b.center, axis=1) <= b.radius + 1e-9)


def test_min_enclosing_radii_batch_matches_scalar(rng):
    for size in range(2, 7):
        for d in (2, 3):
            stacks = rng.random((40, size, d))
            radii = min_enclosing_radii_batch(stacks)
            for row, r in zip(stacks, radii):
                assert r == pytest.approx(min_enclosing_ball(row).radius, abs=1e-9)


def test_min_enclosing_radius_of_thin_acute_triangle():
    """A thin acute triangle (aspect 1e-6) is not degenerate: no edge
    ball holds the third point, and its circumball is the miniball."""
    stacks = np.array([[[0.0, 0.0], [1000.0, 1e-3], [1000.0, -1e-3]]])
    assert min_enclosing_radii_batch(stacks)[0] == pytest.approx(500.0, rel=1e-9)


# ------------------------------------------------------------- union volumes

def test_cap_volume_extremes():
    for d in (2, 3, 4):
        w = unit_ball_volume(d)
        assert spherical_cap_volume(1.0, 0.0, d) == pytest.approx(0.0, abs=1e-12)
        assert spherical_cap_volume(1.0, 1.0, d) == pytest.approx(w / 2)
        assert spherical_cap_volume(1.0, 2.0, d) == pytest.approx(w)


def test_union_volume_identical_and_disjoint():
    b = Ball(np.zeros(2), 1.0)
    assert two_ball_union_volume(b, b) == pytest.approx(math.pi)
    far = Ball(np.array([3.0, 0.0]), 1.0)
    assert two_ball_union_volume(b, far) == pytest.approx(2 * math.pi)


def test_union_volume_d2_closed_form():
    # unit disks with centers 1 apart: lens = 2 acos(1/2) - (1/2) sqrt(3)
    lens = 2 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    got = two_ball_union_volume(Ball(np.zeros(2), 1.0), Ball(np.array([1.0, 0.0]), 1.0))
    assert got == pytest.approx(2 * math.pi - lens, rel=1e-10)


def test_union_volume_contained_ball():
    big = Ball(np.zeros(3), 2.0)
    small = Ball(np.array([0.5, 0, 0]), 1.0)
    assert two_ball_union_volume(big, small) == pytest.approx(ball_volume(2.0, 3))


def test_union_volume_against_mc_rejection(rng):
    """Rejection-sampling oracle over the bounding box, 3 sigma, d in 2..4."""
    m = 40_000
    for _ in range(100):
        d = int(rng.integers(2, 5))
        c1 = rng.standard_normal(d)
        c2 = c1 + rng.standard_normal(d) * 0.8
        r1, r2 = rng.uniform(0.3, 1.5, size=2)
        lo = np.minimum(c1 - r1, c2 - r2)
        hi = np.maximum(c1 + r1, c2 + r2)
        box = np.prod(hi - lo)
        u = lo + rng.random((m, d)) * (hi - lo)
        inside = (np.linalg.norm(u - c1, axis=1) <= r1) | (
            np.linalg.norm(u - c2, axis=1) <= r2
        )
        p = inside.mean()
        mc = box * p
        se = box * math.sqrt(p * (1 - p) / m)
        exact = two_ball_union_volume(Ball(c1, r1), Ball(c2, r2))
        assert abs(exact - mc) < 3.5 * se + 1e-9


def test_union_volumes_batch_matches_scalar(rng):
    m = 50
    for d in (2, 3):
        c1 = rng.standard_normal((m, d))
        c2 = c1 + rng.standard_normal((m, d)) * 0.7
        r1 = rng.uniform(0.2, 1.4, m)
        r2 = rng.uniform(0.2, 1.4, m)
        batch = two_ball_union_volumes_batch(c1, r1, c2, r2, d)
        for i in range(m):
            assert batch[i] == pytest.approx(
                two_ball_union_volume(Ball(c1[i], r1[i]), Ball(c2[i], r2[i])),
                rel=1e-9,
            )


def _first_match_groups(centers, radii):
    """The rule ``sphere_groups`` keeps, by comparing every pair: each
    sphere joins the first group whose first member it matches."""
    groups = []
    for i in range(len(radii)):
        for group in groups:
            if same_sphere(centers[i], radii[i], centers[group[0]], radii[group[0]]):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_groups_equal_the_pairwise_rule(d, rng):
    """Spheres scattered within a few tolerances of a few lattice
    spheres, so that the first-match rule splits some clusters: the
    k-d tree search gives exactly its groups."""
    m = 400
    lattice = rng.integers(0, 4, (12, d)).astype(float)
    pick = rng.integers(0, len(lattice), m)
    step = rng.standard_normal((m, d))
    step *= (rng.uniform(0.0, 1.5, m) * TAU_GEOM / np.linalg.norm(step, axis=1))[:, None]
    centers = lattice[pick] + step
    radii = 1.0 + TAU_GEOM * rng.uniform(-0.5, 0.5, m)
    groups = sphere_groups(centers, radii)
    assert groups == _first_match_groups(centers, radii)
    assert len(set(pick)) < len(groups) < m
    assert sphere_groups(np.empty((0, d)), np.empty(0)) == []


def _relative_interior_by_lp(c, points):
    """in_relative_interior decided by its linear program alone."""
    from scipy.optimize import linprog

    q = np.asarray(points, dtype=float) - np.asarray(c, dtype=float)
    m = len(q)
    u, s, _ = np.linalg.svd(q, full_matrices=False)
    a_eq = np.vstack([u[:, s > TAU_GEOM * s[0]].T, np.ones(m)])
    res = linprog(np.r_[np.zeros(m), -1.0], A_ub=np.c_[-np.eye(m), np.ones(m)], b_ub=np.zeros(m),
                  A_eq=np.c_[a_eq, np.zeros(len(a_eq))], b_eq=np.r_[np.zeros(len(a_eq) - 1), 1.0],
                  method="highs-ds")
    return res.status == 0 and -res.fun > TAU_GEOM


def test_relative_interior_shortcut_agrees_with_the_lp(rng):
    """The least-norm shortcut never changes the LP's answer: regular
    polygons about their center, an edge midpoint and a vertex; random
    cospherical sets about their center; a right triangle's hypotenuse."""
    cases = []
    for k in range(3, 9):
        t = 2 * np.pi * np.arange(k) / k
        polygon = np.stack([np.cos(t), np.sin(t)], axis=1)
        cases += [(np.zeros(2), polygon), (0.5 * (polygon[0] + polygon[1]), polygon),
                  (polygon[0], polygon)]
    for d in (2, 3):
        for m in range(d + 1, d + 5):
            u = rng.standard_normal((m, d))
            cases.append((np.zeros(d), u / np.linalg.norm(u, axis=1, keepdims=True)))
    cases.append((np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    answers = [in_relative_interior(c, pts) for c, pts in cases]
    assert answers == [_relative_interior_by_lp(c, pts) for c, pts in cases]
    assert True in answers and False in answers
