"""Critical points of distance functions of random point clouds.

The package enumerates critical points (with Morse index) of the
distance function of a finite point set in R^d, builds the matching
Cech complexes, evaluates the limit constants of the associated point
process asymptotics, and runs seeded Monte Carlo experiments that
compare empirical counts against those limits.
"""

from .geometry import (
    Ball,
    DegenerateConfiguration,
    min_enclosing_ball,
    unit_ball_volume,
)
from .pointproc import (
    Density,
    PointCloud,
    make_density,
    sample_iid,
    sample_poisson,
    substream,
    uniform_box,
)
from .enumeration import (
    GLOBAL,
    CriticalCounts,
    CriticalPoint,
    CriticalPoints,
    counts,
    enumerate_brute,
    enumerate_global,
    enumerate_grid,
    is_generating,
)

__version__ = "0.1.0"
