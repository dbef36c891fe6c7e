"""Random point cloud generation: i.i.d. samples and Poisson processes.

Densities are plain data: a pdf evaluator, a vectorized sampler, and the
metadata the limit theory needs (sup/inf of the density, support volume,
convexity).  The Poisson process with intensity n*f is realized as a
mixed binomial process: N ~ Poisson(n) followed by N i.i.d. draws from
f, which has the same law.

Reproducibility: all sampling goes through numpy's counter-based Philox
generator.  ``substream(master_seed, *indices)`` derives independent
streams keyed by (master_seed, mixed index), so per-trial substreams are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import unit_ball_volume


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent Philox stream for (master_seed, indices).

    The index tuple is folded into the second 64-bit Philox key word
    with a splitmix-style mixer, so distinct tuples give distinct keys.
    The seed and every index must be integers in [0, 2^64).
    """
    if not all(0 <= v < 2**64 for v in (master_seed, *indices)):
        raise ValueError(f"substream: seed {master_seed} and indices {indices} "
                         "must lie in [0, 2^64)")
    mix = np.uint64(0x9E3779B97F4A7C15)
    acc = np.uint64(0)
    with np.errstate(over="ignore"):
        for ix in indices:
            acc = np.uint64(acc + np.uint64(ix) + mix)
            z = acc
            z = np.uint64((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9))
            z = np.uint64((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB))
            acc = np.uint64(z ^ (z >> np.uint64(31)))
    key = np.array([np.uint64(master_seed), acc], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Density:
    """A sampleable probability density on R^d with declared metadata."""

    dim: int
    pdf: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    f_max: float
    f_min: float = 0.0
    support_volume: float | None = None
    support_convex: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)

    @property
    def lower_bounded(self) -> bool:
        """f is bounded below by a positive constant on its support."""
        return self.f_min > 0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        pts = self.sampler(rng, size)
        return np.asarray(pts, dtype=float).reshape(size, self.dim)

    def integral_f_power(self, p: float) -> float | None:
        """Closed form for int f^p where available, else None.

        Uniform on a set of volume V gives V^(1-p); an isotropic
        Gaussian gives (2 pi sigma^2)^(-d(p-1)/2) * p^(-d/2).
        """
        if self.name in ("uniform_box", "uniform_ball", "uniform_annulus"):
            return float(self.support_volume ** (1.0 - p))
        if self.name == "isotropic_gaussian":
            sigma = self.params["sigma"]
            d = self.dim
            return float(
                (2.0 * np.pi * sigma**2) ** (-0.5 * d * (p - 1.0)) * p ** (-0.5 * d)
            )
        return None


@dataclass
class PointCloud:
    dim: int
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, self.dim)

    @property
    def n(self) -> int:
        return len(self.points)


def sample_iid(f: Density, n: int, rng: np.random.Generator) -> PointCloud:
    """n independent draws from f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PointCloud(f.dim, f.sample(rng, n))


def sample_poisson(f: Density, n: float, rng: np.random.Generator) -> PointCloud:
    """Poisson process with intensity n*f, as a mixed binomial process."""
    if n <= 0:
        raise ValueError("intensity scale must be > 0")
    count = int(rng.poisson(n))
    return PointCloud(f.dim, f.sample(rng, count))


# -- builtin densities -------------------------------------------------------

def _require_dimension(d) -> None:
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")


def uniform_box(d: int, side: float = 1.0) -> Density:
    _require_dimension(d)
    if not side > 0:
        raise ValueError(f"side must be > 0, got {side}")
    vol = side**d
    f = 1.0 / vol

    def pdf(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        inside = np.all((x >= 0.0) & (x <= side), axis=-1)
        return np.where(inside, f, 0.0)

    return Density(
        dim=d,
        pdf=pdf,
        sampler=lambda rng, m: rng.random((m, d)) * side,
        f_max=f,
        f_min=f,
        support_volume=vol,
        support_convex=True,
        name="uniform_box",
        params={"side": side},
    )


def _sample_shell(rng, m, d, r_in, r_out):
    """Uniform points in the shell r_in <= |x| <= r_out."""
    u = rng.normal(size=(m, d))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    dirs = u / np.where(norms > 0, norms, 1.0)
    radii = (r_in**d + rng.random(m) * (r_out**d - r_in**d)) ** (1.0 / d)
    return dirs * radii[:, None]


def uniform_ball(d: int, radius: float = 1.0) -> Density:
    _require_dimension(d)
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    vol = unit_ball_volume(d) * radius**d
    f = 1.0 / vol

    def pdf(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        inside = np.linalg.norm(x, axis=-1) <= radius
        return np.where(inside, f, 0.0)

    return Density(
        dim=d,
        pdf=pdf,
        sampler=lambda rng, m: _sample_shell(rng, m, d, 0.0, radius),
        f_max=f,
        f_min=f,
        support_volume=vol,
        support_convex=True,
        name="uniform_ball",
        params={"radius": radius},
    )


def uniform_annulus(d: int, r_in: float, r_out: float) -> Density:
    _require_dimension(d)
    if not 0.0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    vol = unit_ball_volume(d) * (r_out**d - r_in**d)
    f = 1.0 / vol

    def pdf(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=-1)
        return np.where((r >= r_in) & (r <= r_out), f, 0.0)

    return Density(
        dim=d,
        pdf=pdf,
        sampler=lambda rng, m: _sample_shell(rng, m, d, r_in, r_out),
        f_max=f,
        f_min=f,
        support_volume=vol,
        support_convex=False,
        name="uniform_annulus",
        params={"r_in": r_in, "r_out": r_out},
    )


def isotropic_gaussian(d: int, sigma: float = 1.0) -> Density:
    _require_dimension(d)
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    norm = (2.0 * np.pi * sigma**2) ** (-0.5 * d)

    def pdf(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq = np.sum(x * x, axis=-1)
        return norm * np.exp(-0.5 * sq / sigma**2)

    return Density(
        dim=d,
        pdf=pdf,
        sampler=lambda rng, m: rng.normal(scale=sigma, size=(m, d)),
        f_max=norm,
        f_min=0.0,
        support_volume=None,
        support_convex=True,
        name="isotropic_gaussian",
        params={"sigma": sigma},
    )


def builtin_densities() -> dict:
    """Catalog of density factories keyed by name."""
    return {
        "uniform_box": uniform_box,
        "uniform_ball": uniform_ball,
        "uniform_annulus": uniform_annulus,
        "isotropic_gaussian": isotropic_gaussian,
    }


def make_density(name: str, d: int, **params) -> Density:
    catalog = builtin_densities()
    if name not in catalog:
        raise KeyError(f"unknown density {name!r}; options: {sorted(catalog)}")
    return catalog[name](d, **params)


# -- serialization ------------------------------------------------------------

MAGIC = b"MCPC"
BINARY_VERSION = 1


def save_cloud_csv(cloud: PointCloud, path) -> None:
    """CSV with header ``dim,<d>`` then one point per row."""
    with open(path, "w") as fh:
        fh.write(f"dim,{cloud.dim}\n")
        for row in cloud.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_cloud_csv(path) -> PointCloud:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 2 or header[0] != "dim":
            raise ValueError(f"bad cloud CSV header in {path}")
        d = int(header[1])
        rows = [
            [float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    pts = np.asarray(rows, dtype=float).reshape(-1, d)
    return PointCloud(d, pts)


def save_cloud_binary(cloud: PointCloud, path) -> None:
    """Compact binary: magic 'MCPC', version u8, d u16, count u64, LE f64."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BHQ", BINARY_VERSION, cloud.dim, cloud.n))
        fh.write(cloud.points.astype("<f8").tobytes())


def load_cloud_binary(path) -> PointCloud:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        version, d, count = struct.unpack("<BHQ", fh.read(11))
        if version != BINARY_VERSION:
            raise ValueError(f"unsupported version {version}")
        data = np.frombuffer(fh.read(8 * d * count), dtype="<f8")
    return PointCloud(d, data.reshape(count, d).copy())
