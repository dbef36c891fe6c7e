"""Cech complexes: membership certificates, Euler characteristic, Betti
numbers, the Morse counting identity, truncation flags and budgets."""

import math

import numpy as np
import pytest

from randcech import cech
from randcech.cech import (
    BudgetExceeded,
    CechComplex,
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


def _cliques(adjacent, max_size):
    """Every clique of at most max_size vertices, as sorted tuples."""
    out = []

    def grow(clique, candidates):
        out.append(clique)
        if len(clique) < max_size:
            for i, v in enumerate(candidates):
                grow(clique + (v,), [u for u in candidates[i + 1:] if u in adjacent[v]])

    for v in range(len(adjacent)):
        grow((v,), sorted(u for u in adjacent[v] if u > v))
    return out


@pytest.mark.parametrize("d, eps", [(2, 0.2), (3, 0.3), (1, 0.05), (4, 0.4)])
def test_membership_above_level_d_is_exact(d, eps):
    """Every clique of the 2 eps graph with up to 7 vertices is a simplex
    iff its miniball radius is at most eps, also above level d, where
    Helly's theorem decides membership."""
    points = sample_iid(uniform_box(d), 35, substream(305, d)).points
    cx = build_cech(points, eps)
    assert max(cx.simplices) >= d + 2
    dist = np.linalg.norm(points[:, None] - points[None], axis=2)
    adjacent = [set(np.flatnonzero(row <= 2 * eps).tolist()) - {v} for v, row in enumerate(dist)]
    built = {tuple(s) for j, a in cx.simplices.items() if j < 7 for s in a.tolist()}
    cliques = _cliques(adjacent, 7)
    assert built <= set(cliques)
    for clique in cliques:
        inside = min_enclosing_ball(points[list(clique)]).radius <= eps
        assert (clique in built) == inside, clique


@pytest.mark.parametrize("d", [2, 3])
def test_no_miniball_above_level_d(monkeypatch, d):
    """One miniball batch per level 2..d, none on more than d+1 points."""
    sizes = []
    batch = cech.min_enclosing_radii_batch

    def guarded(stacks):
        assert stacks.shape[1] <= d + 1, f"miniball of {stacks.shape[1]} points in d = {d}"
        sizes.append(stacks.shape[1])
        return batch(stacks)

    monkeypatch.setattr(cech, "min_enclosing_radii_batch", guarded)
    points = 0.01 * sample_iid(uniform_box(d), d + 5, substream(305, 10 + d)).points
    cx = build_cech(points, 0.1)
    assert max(cx.simplices) == d + 4
    assert list(cx.counts()) == [math.comb(d + 5, j + 1) for j in range(d + 5)]
    assert sizes == list(range(3, d + 2))


@pytest.mark.parametrize("labels", [range(6993, 7000), (100, 3000, 3900, 5000, 6000, 6500, 6999)])
def test_level_keys_do_not_overflow(labels):
    """7 000 points in d = 4, so base-n keys of 5 columns (n^5 > 2^63)
    would wrap.  The 7 points of one tight cluster, with the given
    labels, span a full 6-simplex; with the second labels the base-n key
    of (3900, 5000, 6000, 6500, 6999) would wrap below all the others."""
    labels = list(labels)
    lattice = np.stack(np.meshgrid(*[np.arange(10.0)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    points = np.empty((7000, 4))
    rest = np.setdiff1d(np.arange(7000), labels)
    points[rest] = lattice[: len(rest)]
    points[labels] = 20.0 + substream(305, 20).uniform(-0.005, 0.005, size=(7, 4))
    assert len(points) ** 5 > 2**63
    cx = build_cech(points, 0.1)
    assert list(cx.counts()) == [7000, 21, 35, 35, 21, 7, 1]
    assert cx.simplices[6].tolist() == [labels]


def test_known_d2_complex_is_pinned():
    """The n = 5 000 cloud on which the tie-rule fault was first seen, at
    r = n^-1/2: 500 k simplices over 14 levels, chi equal to the Morse
    count, and the same counts after a seeded relabelling."""
    n = 5000
    r = n ** -0.5
    points = sample_iid(uniform_box(2), n, substream(5, 0)).points
    want = [5000, 30683, 71877, 101111, 101418, 79055, 50637, 28073, 14017,
            6270, 2373, 698, 144, 18, 1]
    cx = build_cech(points, r)
    assert cx.counts().tolist() == want
    assert euler_characteristic(cx) == -441
    cc = counts(enumerate_grid(points, r), n, r, 2)
    assert list(cc.by_index) == [5000, 9493, 4052]
    assert euler_from_critical(cc) == -441
    relabelled = points[substream(5, 1).permutation(n)]
    assert build_cech(relabelled, r).counts().tolist() == want


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


def test_dim_cap_below_one_is_refused():
    """A cap at dimension 0 kept the edges of the triangle and flagged
    nothing when only two points were close; it is refused."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [10.0, 10.0]])
    for cap in (0, -1):
        with pytest.raises(ValueError, match="dim_cap"):
            build_cech(pts, 0.6, dim_cap=cap)


def test_betti_reads_a_cap_of_zero_as_a_cap():
    cx = CechComplex(dim=2, eps=0.6, n_vertices=2, truncated=True, dim_cap=0,
                     simplices={0: np.arange(2)[:, None], 1: np.array([[0, 1]])})
    with pytest.raises(TruncatedComplex):
        betti_numbers(cx, max_dim=0)


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
