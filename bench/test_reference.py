"""Tests of the benchmark's reference counters.

    PYTHONPATH=src python -m pytest bench -q

The counters must agree with the brute-force oracle and with build_cech
on small general-position clouds, and give the hand results for single
triangles.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from randcech.cech import build_cech, euler_characteristic  # noqa: E402
from randcech.enumeration import counts, enumerate_brute  # noqa: E402
from randcech.pointproc import sample_iid, substream, uniform_box  # noqa: E402


def reference_counts(points, r):
    found = ref.delaunay_critical(points, r)
    return [len(points)] + [len(found[k][0]) for k in sorted(found)]


@pytest.mark.parametrize("i", range(12))
def test_counts_agree_with_oracle_and_complex(i):
    d = 3 if i % 3 == 0 else 2
    rng = substream(4242, i)
    n = int(rng.integers(20, 60)) if d == 2 else int(rng.integers(12, 25))
    points = sample_iid(uniform_box(d), n, rng).points
    for r in ((0.05, 0.1, 0.16) if d == 2 else (0.1, 0.18, 0.25)):
        oracle = counts(enumerate_brute(points, r), n, r, d).by_index.tolist()
        assert reference_counts(points, r) == oracle
        cx = build_cech(points, r)
        assert ref.close_pairs(points, r) == len(cx.simplices.get(1, ()))
        if d == 2:
            assert ref.alpha_euler_2d(points, r) == euler_characteristic(cx)


@pytest.mark.parametrize("points, want", [
    ([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]], [3, 3, 1]),  # equilateral
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.2]], [3, 2, 0]),  # obtuse
])
def test_single_triangles(points, want):
    points = np.array(points)
    assert reference_counts(points, 10.0) == want
    assert ref.alpha_euler_2d(points, 10.0) == 1


def test_gamma2_agrees_with_program():
    from randcech.theory import gamma_k_estimate

    value, se = ref.gamma2_uniform_square(200_000, np.random.default_rng(7))
    est = gamma_k_estimate(2, 2, uniform_box(2), 1.0, 200_000, substream(7, 0))
    assert abs(value - est.value) < 5.0 * math.hypot(se, est.std_err)
