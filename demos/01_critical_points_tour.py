"""Tour of critical-point enumeration on a single random cloud.

Samples a uniform cloud in the unit square, enumerates the critical
points of its distance function at a fixed radius, then runs the global
(radius-free) enumeration and checks the two structural identities that
hold for every cloud in general position:

* the alternating sum of global counts equals 1 (the Euler
  characteristic of a convex union of balls at large radius), and
* at any radius, the Morse alternating sum of restricted counts equals
  the Euler characteristic of the Cech complex at the same radius.

Run:  python3 demos/01_critical_points_tour.py
"""

from randcech.cech import build_cech, euler_characteristic
from randcech.enumeration import GLOBAL, counts, enumerate_grid, verify_critical_point
from randcech.pointproc import sample_iid, substream, uniform_box

SEED = 20240817

def main() -> None:
    rng = substream(SEED, 0)
    cloud = sample_iid(uniform_box(2), 40, rng)
    n, d = cloud.points.shape
    print(f"cloud: n={n}, d={d}, uniform on the unit square, seed {SEED}")

    eps = 0.15
    cps = enumerate_grid(cloud, eps)
    local = counts(cps, n, eps, d)
    print(f"\nrestricted enumeration at eps={eps}:")
    print(f"  counts by index: {local.by_index}")
    print("  first few non-minimum critical points (index, value, generators):")
    saddles = [cp for cp in cps if cp.index >= 1]
    for cp in sorted(saddles, key=lambda c: c.value)[:5]:
        gens = ", ".join(str(g) for g in cp.generators)
        print(f"    k={cp.index}  value={cp.value:.6f}  generators=({gens})")

    bad = sum(not verify_critical_point(cloud, cp) for cp in cps)
    print(f"  independent audit of every reported point: {bad} failures")

    cx = build_cech(cloud, eps)
    chi = euler_characteristic(cx)
    morse = sum((-1) ** k * c for k, c in enumerate(local.by_index))
    print(f"\nCech complex at the same radius: simplex counts {cx.counts()}")
    print(f"  Euler characteristic {chi} vs Morse alternating sum {morse}"
          f"  ->  {'match' if chi == morse else 'MISMATCH'}")

    gl = enumerate_grid(cloud, GLOBAL)
    gcounts = counts(gl, n, GLOBAL, d)
    alt = sum((-1) ** k * c for k, c in enumerate(gcounts.by_index))
    print(f"\nglobal enumeration (all radii): counts {gcounts.by_index}")
    print(f"  alternating sum {alt} (must be 1 for every cloud)")


if __name__ == "__main__":
    main()
