"""Random cloud generation: densities, samplers, substreams, serialization."""

import math

import numpy as np
import pytest
from scipy import stats

from randcech.geometry import unit_ball_volume
from randcech.pointproc import (
    PointCloud,
    builtin_densities,
    isotropic_gaussian,
    load_cloud_binary,
    load_cloud_csv,
    make_density,
    sample_iid,
    sample_poisson,
    save_cloud_binary,
    save_cloud_csv,
    substream,
    uniform_annulus,
    uniform_ball,
    uniform_box,
)


# ----------------------------------------------------------------- substreams

def test_substream_determinism():
    a = substream(42, 3, 7).random(5)
    b = substream(42, 3, 7).random(5)
    assert np.array_equal(a, b)


def test_substream_distinct_indices_distinct_streams():
    a = substream(42, 3, 7).random(5)
    b = substream(42, 3, 8).random(5)
    c = substream(42, 4, 7).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, indices", [(-1, ()), (-2, (0,)), (3, (0, -1)),
                                           (2**64, ()), (0, (2**64,))])
def test_substream_refuses_out_of_range_seed_or_index(seed, indices):
    with pytest.raises(ValueError, match=r"substream: seed .* must lie in \[0, 2\^64\)"):
        substream(seed, *indices)


# ------------------------------------------------------------------ densities

def test_uniform_box_metadata():
    f = uniform_box(2)
    assert f.pdf(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)
    assert f.pdf(np.array([[1.5, 0.5]]))[0] == 0.0
    assert f.f_max == pytest.approx(1.0)
    assert f.f_min == pytest.approx(1.0)
    assert f.lower_bounded and f.support_convex
    assert f.support_volume == pytest.approx(1.0)


def test_uniform_ball_metadata():
    f = uniform_ball(3, 1.0)
    assert f.f_max == pytest.approx(3.0 / (4.0 * math.pi))
    assert f.support_convex


def test_uniform_annulus_metadata():
    f = uniform_annulus(2, 1.0, 2.0)
    assert not f.support_convex
    assert f.support_volume == pytest.approx(3.0 * math.pi)
    assert f.f_min == pytest.approx(1.0 / (3.0 * math.pi))


def test_gaussian_not_lower_bounded():
    f = isotropic_gaussian(2, 1.0)
    assert not f.lower_bounded
    assert f.support_volume is None
    assert f.f_max == pytest.approx(1.0 / (2.0 * math.pi))


def test_lower_bounded_follows_f_min():
    """lower_bounded is read from f_min, so the two cannot disagree."""
    f = uniform_box(2)
    assert f.lower_bounded
    f.f_min = 0.0
    assert not f.lower_bounded
    with pytest.raises(AttributeError):
        f.lower_bounded = True


@pytest.mark.parametrize("factory, param", [
    (uniform_box, "side"), (uniform_ball, "radius"), (isotropic_gaussian, "sigma"),
])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_density_refuses_nonpositive_size(factory, param, value):
    with pytest.raises(ValueError, match=f"{param} must be > 0"):
        factory(2, **{param: value})


@pytest.mark.parametrize("name, params", [
    ("uniform_box", {}), ("uniform_ball", {}), ("uniform_annulus", {"r_in": 1.0, "r_out": 2.0}),
    ("isotropic_gaussian", {}),
])
@pytest.mark.parametrize("d", [0, -1, 2.0])
def test_density_refuses_dimension_below_one(name, params, d):
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        make_density(name, d, **params)


def test_builtin_densities_catalog():
    cat = builtin_densities()
    for name in ("uniform_box", "uniform_ball", "uniform_annulus", "isotropic_gaussian"):
        assert name in cat


def test_make_density_with_params():
    f = make_density("uniform_annulus", 2, r_in=1.0, r_out=2.0)
    assert f.dim == 2 and f.name == "uniform_annulus"


def test_densities_integrate_to_one():
    """Midpoint-rule quadrature over a bounding box, 1% tolerance."""
    cases = [
        (uniform_box(2), np.zeros(2), np.ones(2)),
        (uniform_ball(2, 1.5), -1.5 * np.ones(2), 1.5 * np.ones(2)),
        (uniform_annulus(2, 1.0, 2.0), -2 * np.ones(2), 2 * np.ones(2)),
        (isotropic_gaussian(2, 0.7), -6 * np.ones(2), 6 * np.ones(2)),
    ]
    m = 800
    for f, lo, hi in cases:
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(m) + 0.5) / m for i in range(2)]
        gx, gy = np.meshgrid(*axes, indexing="ij")
        u = np.column_stack([gx.ravel(), gy.ravel()])
        integral = f.pdf(u).mean() * np.prod(hi - lo)
        assert integral == pytest.approx(1.0, rel=0.01), f.name


def test_integral_f_power_closed_forms():
    assert uniform_box(2).integral_f_power(2) == pytest.approx(1.0)
    f = uniform_ball(2, 2.0)  # vol 4 pi, integral f^k = vol^(1-k)
    assert f.integral_f_power(2) == pytest.approx(1.0 / (4 * math.pi))
    g = uniform_annulus(2, 1.0, 2.0)
    assert g.integral_f_power(3) == pytest.approx((3 * math.pi) ** -2)


# ------------------------------------------------------------------- samplers

def test_sample_iid_empty():
    cloud = sample_iid(uniform_box(2), 0, substream(1, 0))
    assert cloud.n == 0 and cloud.points.shape == (0, 2)


def test_sample_iid_law_of_large_numbers():
    cloud = sample_iid(uniform_box(2), 100_000, substream(1, 1))
    # per-coordinate mean within 3 sigma / sqrt(n) of 1/2
    bound = 3 * math.sqrt(1 / 12) / math.sqrt(cloud.n)
    assert np.all(np.abs(cloud.points.mean(axis=0) - 0.5) < bound + 0.002)


def test_sample_annulus_respects_support():
    cloud = sample_iid(uniform_annulus(2, 1.0, 2.0), 10_000, substream(1, 2))
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.all(r >= 1.0) and np.all(r <= 2.0)


def test_sample_poisson_count_moments():
    rng = substream(1, 3)
    counts = np.array(
        [sample_poisson(uniform_box(2), 50, rng).n for _ in range(10_000)]
    )
    assert abs(counts.mean() - 50) < 3 * math.sqrt(50 / 10_000)
    assert counts.var() == pytest.approx(50, rel=0.1)


def test_poisson_conditional_law_matches_iid():
    rng = substream(1, 4)
    a = sample_poisson(uniform_box(2), 4000, rng).points[:, 0]
    b = sample_iid(uniform_box(2), 4000, rng).points[:, 0]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_poisson_thinning_chi2():
    """Counts in the left half-box are Poisson(n/2); chi-square GOF."""
    rng = substream(1, 5)
    n = 20.0
    trials = 10_000
    counts = np.empty(trials, dtype=int)
    for t in range(trials):
        cloud = sample_poisson(uniform_box(2), n, rng)
        counts[t] = int(np.sum(cloud.points[:, 0] < 0.5))
    mu = n / 2
    kmax = int(stats.poisson.ppf(0.999, mu)) + 1
    obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), mu)
    probs = np.append(pmf, 1.0 - pmf.sum())
    res = stats.chisquare(obs, trials * probs)
    assert res.pvalue > 0.001


def test_cloud_determinism_bit_for_bit():
    a = sample_iid(uniform_box(3), 100, substream(9, 0))
    b = sample_iid(uniform_box(3), 100, substream(9, 0))
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------- serialization

def test_csv_roundtrip(tmp_path):
    cloud = sample_iid(uniform_ball(3, 1.0), 57, substream(2, 0))
    path = tmp_path / "cloud.csv"
    save_cloud_csv(cloud, path)
    back = load_cloud_csv(path)
    assert back.dim == 3
    assert np.allclose(back.points, cloud.points)


def test_binary_roundtrip_exact(tmp_path):
    cloud = sample_iid(uniform_box(2), 123, substream(2, 1))
    path = tmp_path / "cloud.bin"
    save_cloud_binary(cloud, path)
    back = load_cloud_binary(path)
    assert back.dim == 2
    assert np.array_equal(back.points, cloud.points)  # exact f64 roundtrip
    with open(path, "rb") as fh:
        assert fh.read(4) == b"MCPC"


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(ValueError):
        load_cloud_binary(path)
