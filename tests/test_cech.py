"""Cech complexes: membership certificates, Euler characteristic, Betti
numbers, the Morse counting identity, truncation flags and budgets."""

import math

import numpy as np
import pytest

from randcech.cech import (
    BudgetExceeded,
    ComplexTooLarge,
    TruncatedComplex,
    betti_numbers,
    build_cech,
    euler_characteristic,
    euler_from_critical,
    load_complex,
    save_complex,
)
from randcech.enumeration import counts, enumerate_grid
from randcech.geometry import min_enclosing_ball
from randcech.pointproc import sample_iid, substream, uniform_box


# ------------------------------------------------------------- construction

def test_dust_limit():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    cx = build_cech(pts, 0.01)
    assert list(cx.counts()) == [3]
    assert euler_characteristic(cx) == 3


def test_triangle_full_at_circumradius():
    pts = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], dtype=float)
    circum = 1 / math.sqrt(3)
    full = build_cech(pts, circum + 1e-9)
    assert list(full.counts()) == [3, 3, 1]
    hollow = build_cech(pts, 0.51)  # edges present, miniball radius > eps
    assert list(hollow.counts()) == [3, 3]


def test_cech_is_not_flag_complex():
    """Equilateral triple with side 1 at eps = 0.55: every edge is present
    (half-length 0.5 <= eps) yet the miniball radius 1/sqrt(3) > eps, so
    the triangle must be absent -- the complex is not the flag complex."""
    pts = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], dtype=float)
    eps = 0.55
    cx = build_cech(pts, eps)
    assert list(cx.counts()) == [3, 3]
    assert min_enclosing_ball(pts).radius > eps


def test_six_point_complex_with_one_face_and_one_hole():
    """Six vertices, seven edges, one filled triangle: a filled triangle
    sharing a vertex with a hollow diamond cycle.  chi = 6 - 7 + 1 = 0 and
    beta = (1, 1)."""
    t, s, eps = 0.5, 0.55, 0.3
    a, b, c = (-t / 2, 0.0), (t / 2, 0.0), (0.0, t * math.sqrt(3) / 2)
    u = s * math.sqrt(2) / 2
    d_ = (c[0] - u, c[1] + u)
    e = (c[0], c[1] + 2 * u)
    f = (c[0] + u, c[1] + u)
    pts = np.array([a, b, c, d_, e, f])
    cx = build_cech(pts, eps)
    assert list(cx.counts()) == [6, 7, 1]
    assert euler_characteristic(cx) == 0
    assert list(betti_numbers(cx)) == [1, 1, 0]


def test_octahedron_sphere_betti():
    pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    # edges at sqrt(2): miniball radius sqrt(2)/2; faces radius sqrt(2/3)
    cx = build_cech(pts, math.sqrt(2.0 / 3.0) + 1e-9)
    assert list(cx.counts()) == [6, 12, 8]
    assert euler_characteristic(cx) == 2
    assert list(betti_numbers(cx)) == [1, 0, 1]


def test_triangle_boundary_and_disk_betti():
    pts = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], dtype=float)
    hollow = build_cech(pts, 0.51)
    assert list(betti_numbers(hollow)) == [1, 1]
    full = build_cech(pts, 1 / math.sqrt(3) + 1e-9)
    assert list(betti_numbers(full, max_dim=1)) == [1, 0]


def test_downward_closure_audit():
    rng = substream(300, 0)
    cloud = sample_iid(uniform_box(2), 35, rng)
    cx = build_cech(cloud.points, 0.2)
    for j in sorted(cx.simplices):
        if j == 0:
            continue
        lower = {tuple(s) for s in cx.simplices[j - 1]}
        for simplex in cx.simplices[j]:
            for drop in range(j + 1):
                assert tuple(np.delete(simplex, drop)) in lower


def test_simplex_counts_monotone_in_eps():
    rng = substream(300, 1)
    cloud = sample_iid(uniform_box(2), 35, rng)
    prev = None
    for eps in (0.05, 0.1, 0.15, 0.2):
        c = build_cech(cloud.points, eps).counts()
        if prev is not None:
            width = max(len(c), len(prev))
            a = np.pad(c, (0, width - len(c)))
            b = np.pad(prev, (0, width - len(prev)))
            assert np.all(a >= b)
        prev = c


# --------------------------------------------------------- Morse counting

def test_morse_euler_identity_random():
    for trial in range(15):
        rng = substream(301, trial)
        d = 2 + trial % 2
        cloud = sample_iid(uniform_box(d), int(rng.integers(5, 30)), rng)
        for eps in (0.08, 0.18, 0.28):
            cx = build_cech(cloud.points, eps)
            cc = counts(enumerate_grid(cloud, eps), cloud.n, eps, d)
            assert euler_characteristic(cx) == euler_from_critical(cc)


def test_betti_alternating_sum_equals_chi():
    rng = substream(302, 0)
    cloud = sample_iid(uniform_box(2), 35, rng)
    for eps in (0.1, 0.15, 0.2):
        cx = build_cech(cloud.points, eps)
        betti = betti_numbers(cx)
        chi = int(np.sum((-1) ** np.arange(len(betti)) * betti))
        assert chi == euler_characteristic(cx)


def test_beta0_matches_union_find_components():
    rng = substream(302, 1)
    cloud = sample_iid(uniform_box(2), 70, rng)
    cx = build_cech(cloud.points, 0.06)
    assert betti_numbers(cx, max_dim=0)[0] >= 1  # union-find cross-check inside


# ------------------------------------------------------- truncation, budgets

def test_truncated_complex_refuses_euler():
    pts = np.array([[0, 0], [0.1, 0], [0, 0.1], [0.1, 0.1], [0.05, 0.05]])
    cx = build_cech(pts, 1.0, dim_cap=1)
    assert cx.truncated
    with pytest.raises(TruncatedComplex):
        euler_characteristic(cx)


def test_dim_cap_without_truncation_is_clean():
    pts = np.array([[0.0, 0.0], [5.0, 0.0]])
    cx = build_cech(pts, 0.1, dim_cap=1)
    assert not cx.truncated
    assert euler_characteristic(cx) == 2


def test_complex_too_large():
    rng = substream(303, 0)
    cloud = sample_iid(uniform_box(2), 60, rng)
    with pytest.raises(ComplexTooLarge):
        build_cech(cloud.points, 2.0, max_simplices=500)


def test_complex_too_large_when_all_points_are_close():
    """200 points within eps of each other: every subset is a simplex, and
    the budget stops the build at once."""
    cloud = sample_iid(uniform_box(2), 200, substream(303, 2))
    for max_simplices in (10_000, 50_000):
        with pytest.raises(ComplexTooLarge):
            build_cech(cloud.points * 0.1, 1.0, max_simplices=max_simplices)


def test_betti_budget_exceeded():
    rng = substream(303, 1)
    cloud = sample_iid(uniform_box(2), 35, rng)
    cx = build_cech(cloud.points, 0.15)
    with pytest.raises(BudgetExceeded):
        betti_numbers(cx, budget=1)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        build_cech(np.zeros((3, 2)), 0.0)


# ------------------------------------------------------------- serialization

def test_complex_roundtrip(tmp_path):
    rng = substream(304, 0)
    cloud = sample_iid(uniform_box(2), 30, rng)
    cx = build_cech(cloud.points, 0.3)
    path = tmp_path / "complex.txt"
    save_complex(cx, path)
    back = load_complex(path)
    assert back.eps == cx.eps and back.n_vertices == cx.n_vertices
    for j in cx.simplices:
        assert np.array_equal(back.simplices[j], cx.simplices[j])
    assert euler_characteristic(back) == euler_characteristic(cx)
