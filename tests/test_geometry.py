"""Geometric predicates and measures: circumspheres, hull tests, miniballs,
cap and two-ball union volumes."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcech.geometry import (
    Ball,
    TAU_GEOM,
    affine_rank,
    ball_volume,
    circumspheres_batch,
    hull_membership,
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
from randcech.geometry import _affine_solve, _gram_solve
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

def _general_position(points) -> bool:
    """k+1 points span a k-dimensional affine space."""
    return affine_rank(points) == len(points) - 1


def _circumsphere(points):
    """Center, radius and ``ok`` flag of one tuple's circumsphere."""
    centers, radii, _, ok = circumspheres_batch(np.asarray(points, dtype=float)[None])
    return centers[0], radii[0], bool(ok[0])


def _in_open_hull(points) -> bool:
    """CP1 for one tuple: its circumcenter lies in its open hull."""
    _, _, bary, ok = circumspheres_batch(np.asarray(points, dtype=float)[None])
    return bool(ok[0] and hull_membership(bary)[0][0])


def test_general_position_examples():
    assert _general_position([(0, 0), (1, 0)])
    assert not _general_position([(0, 0), (1, 0), (2, 0)])
    # near-degenerate below the tolerance counts as degenerate
    assert not _general_position([(0, 0), (1, 0), (0.5, 1e-14)])
    assert _general_position([(0, 0), (1, 0), (0.5, 1e-3)])


def test_general_position_never_crashes_on_duplicates():
    assert not _general_position([(1.0, 1.0), (1.0, 1.0)])
    assert not _circumsphere([(1.0, 1.0), (1.0, 1.0)])[2]


def test_affine_rank_simplex():
    assert affine_rank(np.eye(3)) == 2
    assert affine_rank(np.vstack([np.zeros(3), np.eye(3)])) == 3


# ---------------------------------------------------------------- circumsphere

def test_circumsphere_segment():
    center, radius, ok = _circumsphere([(0, 0), (2, 0)])
    assert ok
    assert center == pytest.approx((1.0, 0.0))
    assert radius == pytest.approx(1.0)


def test_circumsphere_equilateral():
    center, radius, ok = _circumsphere([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert ok
    assert center == pytest.approx((0.5, math.sqrt(3) / 6))
    assert radius == pytest.approx(1 / math.sqrt(3))


def test_circumsphere_right_triangle():
    center, radius, ok = _circumsphere([(0, 0), (2, 0), (1, 1)])
    assert ok
    assert center == pytest.approx((1.0, 0.0))
    assert radius == pytest.approx(1.0)


def test_circumsphere_degenerate_is_not_ok():
    assert not _circumsphere([(0, 0), (1, 0), (2, 0)])[2]


def test_circumsphere_equidistance_property():
    """Center is equidistant from all generators, across sizes and dims;
    the batch flags exactly the tuples out of general position."""
    rng = substream(7, 1)
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, d + 1))
        pts = rng.standard_normal((k + 1, d))
        center, radius, ok = _circumsphere(pts)
        assert ok == _general_position(pts)
        if not ok:
            continue
        dist = np.linalg.norm(pts - center, axis=1)
        assert np.max(np.abs(dist - radius)) < 1e-7


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


# ------------------------------------------------------- the affine solve kernel

def _well_conditioned(stacks):
    v = stacks[:, 1:] - stacks[:, :1]
    return np.linalg.cond(v @ np.swapaxes(v, 1, 2)) < 1e3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_affine_solve_agrees_with_a_per_row_reference(k, rng):
    """Circumcenters against np.linalg.solve of each row's Gram system:
    barycentric coordinates within 1e-12 of the row's largest."""
    for d in range(k, 6):
        stacks = rng.standard_normal((100, k + 1, d))
        stacks = stacks[_well_conditioned(stacks)]
        assert len(stacks) >= 20
        bary, ok, v = _affine_solve(stacks)
        assert ok.all()
        assert np.array_equal(v, stacks[:, 1:] - stacks[:, :1])
        for row, p in enumerate(stacks):
            off = p[1:] - p[0]
            w = np.linalg.solve(off @ off.T, 0.5 * np.sum(off * off, axis=1))
            ref = np.r_[1.0 - w.sum(), w]
            assert np.abs(bary[row] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gram_solve_ok_is_the_determinant_test(k, rng):
    """Simplices flattened along one axis by 10^-8 ... 1, so that
    det G / trace(G)^k sweeps across TAU_GEOM: outside a 1e-6 band about
    the cutoff, ``ok`` is the determinant test by np.linalg.det.  All-zero
    rows are not ok."""
    m = 4000
    stacks = rng.standard_normal((m, k + 1, k))
    stacks[:, :, -1] *= 10.0 ** rng.uniform(-8.0, 0.0, (m, 1))
    stacks[:20] = 0.0
    v = stacks[:, 1:] - stacks[:, :1]
    gram = np.einsum("mid,mjd->mij", v, v)
    _, ok = _gram_solve(gram, 0.5 * np.einsum("mii->mi", gram))
    assert not ok[:20].any()
    ratio = np.linalg.det(gram[20:]) / (TAU_GEOM * np.trace(gram[20:], axis1=1, axis2=2) ** k)
    far = np.abs(ratio - 1.0) > 1e-6
    assert np.array_equal(ok[20:][far], ratio[far] > 1.0)
    if k > 1:  # the sweep crosses the cutoff
        assert np.sum((ratio > 0.1) & (ratio < 10.0)) >= 100


def test_degenerate_rows_are_quiet(rng):
    """More than d+1 points, coincident points, collinear points and
    all-zero rows, at scales 1e-9 to 1e9: never ok, finite, and no
    RuntimeWarning."""
    cases = [
        rng.standard_normal((5, 4, 2)),
        rng.standard_normal((5, 6, 3)),
        np.array([[[0, 0], [1, 2], [1, 2]], [[3, 3], [3, 3], [3, 3]]], float),
        np.array([[[0, 0, 0], [1, 2, 3], [1, 2, 3], [4, 4, 0]]], float),
        np.array([[[0, 0], [1, 1], [2, 2]], [[0, 0], [1, 0], [3, 0]]], float),
        np.array([[[0, 0, 0], [1, 2, 3], [3, 6, 9]]], float),
        np.zeros((3, 2, 2)),
        np.zeros((3, 3, 2)),
        np.zeros((3, 4, 3)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stacks in cases:
            for scale in (1e-9, 1.0, 1e9):
                centers, radii, bary, ok = circumspheres_batch(scale * stacks)
                assert not ok.any()
                assert np.isfinite(centers).all() and np.isfinite(radii).all()
                assert np.isfinite(bary).all()


def test_circumspheres_make_no_per_matrix_lapack_call(monkeypatch, rng):
    """np.linalg.solve and np.linalg.det are not called on generic rows."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-matrix LAPACK call")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    for k, d in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (4, 5)):
        stacks = rng.standard_normal((200, k + 1, d))
        centers, radii, bary, ok = circumspheres_batch(stacks)
        assert ok.all()
        dist = np.linalg.norm(stacks - centers[:, None], axis=2)
        assert np.allclose(dist, radii[:, None], rtol=1e-8)


# ------------------------------------------------------------- hull membership

def test_open_hull_equilateral_center():
    assert _in_open_hull([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def test_open_hull_boundary_excluded():
    # circumcenter of this right triangle sits on the hypotenuse midpoint:
    # excluded from the open hull, kept by the relaxed test
    _, _, bary, _ = circumspheres_batch(np.array([[[0, 0], [2, 0], [1, 1]]], float))
    strict, weak = hull_membership(bary)
    assert not strict[0] and weak[0]


def test_open_hull_obtuse_center_outside():
    assert not _in_open_hull([(0, 0), (1, 0), (0.5, 0.1)])


def test_midpoint_always_interior_for_pairs(rng):
    for _ in range(100):
        assert _in_open_hull(rng.standard_normal((2, 3)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_open_hull_invariant_under_relabeling_and_rigid_motion(seed):
    """CP1 and the circumcenter follow the tuple under relabelling and
    rigid motion."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, d + 1))
    pts = rng.standard_normal((k + 1, d))
    if not _general_position(pts):
        return
    c, r, _ = _circumsphere(pts)
    base = _in_open_hull(pts)
    perm = rng.permutation(k + 1)
    assert _in_open_hull(pts[perm]) == base
    rot, shift = random_rotation(d, rng), rng.standard_normal(d)
    moved = pts @ rot.T + shift
    assert _in_open_hull(moved) == base
    assert np.linalg.norm(_circumsphere(moved)[0] - (c @ rot.T + shift)) <= 1e-6 * (1.0 + r)


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
                c, r, ok = _circumsphere(sub)
                if not ok:
                    continue
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
