"""The four benchmark workloads.

A workload builds its inputs from the seed (``setup``), lists the
operations of one round (``ops``), checks the outputs of the first round
against results computed without the program (each ``Op.check`` and
``finish``), and in a traced run adds what the per-layer metrics need
beyond the spans (``probe``).  Every round repeats the same operations on the same
inputs, so a run of any length attempts whole rounds and fails the same
share of them.

Seeded streams are ``substream(seed, workload_id, ...)``, so one seed
gives the same inputs on every run and different workloads never share
a stream.  The clouds handed to ``enumerate_grid`` have a fixed geometry,
``substream(GEOMETRY_SEED, workload_id, ...)``, and the seed relabels
their points.  Their counts are compared strictly, so a trial hit by the
tie rule's false merge fails in every run whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# closed forms for the uniform density on the unit square, d = 2, lambda = 1
GAMMA_1_SQUARE = 2.0 * (1.0 - math.exp(-math.pi))
ETA_1_SQUARE = 2.0 * (1.0 - math.exp(-math.pi) * (1.0 + math.pi))
N_SIGMA = 5.0  # Monte Carlo checks: a 3-sigma band fails one run in 370 by chance

GEOMETRY_SEED = 0  # master seed of the fixed enumeration geometries
# The input on which the tie rule's false merge was first seen:
# enumerate_grid drops the Gabriel edge (1530, 2970) into the triangle
# (1530, 2635, 2970).
KNOWN_FAULT_CLOUD = dict(n=5000, master_seed=5, index=0)


@dataclass
class Op:
    """One operation: ``call(api)`` is timed, the rest is not.

    ``summarise`` turns the raw output into a small record.  ``check``
    returns the problems found in a record (empty when correct);
    ``simplices`` and ``samples`` read the work counts from it.
    """

    key: str
    points: int
    call: Callable
    summarise: Callable
    check: Callable
    simplices: Callable = lambda s: 0
    samples: Callable = lambda s: 0


def _nothing_to_check(summary):
    return []


# ---------------------------------------------------------------------------
# enumeration outputs


def enum_summary(cps, cc) -> dict:
    """Counts and the critical points of index >= 1 as arrays."""
    pts = [c for c in cps if c.index >= 1]
    return {
        "by_index": [int(v) for v in cc.by_index],
        "index": np.array([c.index for c in pts], dtype=np.int64),
        "generators": [tuple(int(g) for g in c.generators) for c in pts],
        "centers": np.array([c.center for c in pts]).reshape(len(pts), -1),
        "values": np.array([c.value for c in pts]),
    }


def compare_critical(summary, reference) -> list:
    """Problems where the program's N_k differ from the reference counts."""
    return [f"N_{k} = {summary['by_index'][k]}, reference {len(gens)}"
            for k, (gens, _, _) in sorted(reference.items())
            if summary["by_index"][k] != len(gens)]


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    wid = 0

    def __init__(self, api, seed: int, out_dir: Path):
        self.api = api
        self.seed = seed
        self.out_dir = out_dir
        self.current: dict = {}  # op key -> summary, for the round under way

    def stream(self, *idx):
        return self.api.substream(self.seed, self.wid, *idx)

    def relabel(self, points, *idx):
        """The points in an order drawn from the seed."""
        return points[self.stream(0, *idx).permutation(len(points))]

    def fixed_cloud(self, f, n, *idx):
        """A cloud of fixed geometry, relabelled by the seed."""
        stream = self.api.substream(GEOMETRY_SEED, self.wid, *idx)
        return self.relabel(self.api.sample_iid(f, n, stream).points, *idx)

    def setup(self):
        """Inputs for the run; timed for setup_s."""
        return None

    def ops(self, inputs) -> list:
        raise NotImplementedError

    def finish(self, summaries: dict) -> list:
        """Checks over the whole round; returns problems."""
        return []

    def probe(self, inputs, op, raw, summary, counters):
        """Traced runs only: counts and calls for the per-layer metrics
        that the spans around the program's stages do not give."""


class CriticalEnum(Workload):
    """d = 2, n = 48 000, r = n^-1/2: the critical trial of criterion 11,
    on three clouds."""

    name, wid = "critical_enum", 1
    n, clouds = 48_000, 3

    def setup(self):
        f = self.api.uniform_box(2)
        return {f"enum/{i}": self.fixed_cloud(f, self.n, 0, i) for i in range(self.clouds)}

    def ops(self, clouds):
        r = self.n ** -0.5

        def op(key, points):
            def call(api):
                cps = api.enumerate_grid(points, r, k_max=2)
                return cps, api.counts(cps, len(points), r, 2)

            def check(s):
                return compare_critical(s, ref.delaunay_critical(points, r))

            return Op(key, len(points), call, lambda raw: enum_summary(*raw), check,
                      simplices=lambda s: sum(s["by_index"][1:]), samples=lambda s: 1)

        return [op(key, points) for key, points in clouds.items()]

    def probe(self, inputs, op, raw, summary, counters):
        # auto picks grid today; Delaunay candidates on the same cloud
        # size a change of strategy
        if self.api.delaunay_subsets is not None:
            self.api.delaunay_subsets(inputs[op.key], 2)
        counters["enumeration.critical_points"] += sum(summary["by_index"][1:])


class SparseCounts(Workload):
    """Short trials: count_index1 at n = 10^4 (criteria 04, 06, 09) and
    the subcritical enumerate_grid trial of criterion 11 (n = 32 000)."""

    name, wid = "sparse_counts", 2
    n_count, n_enum = 10_000, 32_000
    # trials of each radius per block; with 8 at r = n^-5/8 the 90th
    # percentile of operation time falls in the middle of those trials
    blocks, per_block = 8, {"half": 1, "five_eighths": 8, "inverse": 50}
    radii = {"half": 0.5, "five_eighths": 0.625, "inverse": 1.0}

    def setup(self):
        f = self.api.uniform_box(2)
        return f, [self.fixed_cloud(f, self.n_enum, 2, b) for b in range(self.blocks)]

    def ops(self, inputs):
        f, enum_clouds = inputs
        ops = []

        def count_op(name, slot, keep_points):
            r = self.n_count ** -self.radii[name]
            radius_id = list(self.radii).index(name)

            def call(api):
                cloud = api.sample_iid(f, self.n_count, self.stream(1, radius_id, slot))
                return cloud.points, api.count_index1(cloud.points, r)

            def summarise(raw):
                return {"count": raw[1], "points": raw[0] if keep_points else None}

            def check(s):
                if s["points"] is None:
                    return []
                want = len(ref.delaunay_critical(s["points"], r, 1)[1][0])
                return [] if s["count"] == want else [f"N_1 = {s['count']}, reference {want}"]

            return Op(f"{name}/{slot}", self.n_count, call, summarise, check,
                      simplices=lambda s: s["count"], samples=lambda s: 1)

        def enum_op(slot):
            r = self.n_enum ** -0.75
            points = enum_clouds[slot]

            def call(api):
                cps = api.enumerate_grid(points, r, k_max=2)
                return cps, api.counts(cps, self.n_enum, r, 2)

            def check(s):
                return compare_critical(s, ref.delaunay_critical(points, r))

            return Op(f"enum/{slot}", self.n_enum, call, lambda raw: enum_summary(*raw), check,
                      simplices=lambda s: sum(s["by_index"][1:]), samples=lambda s: 1)

        for b in range(self.blocks):
            for name, m in self.per_block.items():
                # the first trial of each radius in a block is checked
                ops += [count_op(name, b * m + j, j == 0) for j in range(m)]
            ops.append(enum_op(b))
        ops.append(Op("aggregate", 0, self._aggregate, lambda raw: raw, self._check_aggregate))
        return ops

    def _rows(self):
        """Raw experiment rows (n, trial, k, count) of this round, one
        group per radius, as ``experiments.run`` writes them."""
        groups: dict = {name: [] for name in (*self.radii, "enum")}
        for key, s in self.current.items():
            name, _, slot = key.partition("/")
            if name in self.radii:
                groups[name].append((self.n_count, int(slot), 1, s["count"]))
            elif name == "enum":
                groups[name] += [(self.n_enum, int(slot), k, s["by_index"][k]) for k in (1, 2)]
        return groups

    def _aggregate(self, api):
        out = {}
        for name, rows in self._rows().items():
            path = self.out_dir / f"{self.name}-{self.seed}-{name}.csv"
            out[name] = (rows, api.aggregate_from_raw(rows), str(path))
            api.save_raw_csv(rows, path)
        return out

    def _check_aggregate(self, summary):
        problems = []
        for name, (rows, aggregates, path) in summary.items():
            if self.api.load_raw_csv(path) != rows:
                problems.append(f"{name}: raw CSV does not read back")
            for (n, k), agg in aggregates.items():
                vals = np.array([c for nn, _, kk, c in rows if (nn, kk) == (n, k)], float)
                if agg["trials"] != len(vals) or not math.isclose(agg["mean"], vals.mean()):
                    problems.append(f"{name}: aggregate of (n={n}, k={k}) is wrong")
        return problems

    def finish(self, summaries):
        problems = []
        half = [s["count"] for k, s in summaries.items() if k.startswith("half/")]
        mean = np.mean(half) / self.n_count
        if abs(mean - GAMMA_1_SQUARE) > 0.03 * GAMMA_1_SQUARE:
            problems.append(f"mean N_1/n at r = n^-1/2 is {mean:.4f}, "
                            f"not within 3% of {GAMMA_1_SQUARE:.4f}")
        inv = [s["count"] for k, s in summaries.items() if k.startswith("inverse/")]
        mean = float(np.mean(inv))
        if abs(mean - 2.0 * math.pi) > 0.1 * 2.0 * math.pi:
            problems.append(f"mean N_1 at r = 1/n is {mean:.3f}, not within 10% of 2 pi")
        return problems


class VarianceMC(Workload):
    """The Monte Carlo constants of criteria 07, 09 and 11."""

    name, wid = "variance_mc", 3
    # sizes that make every operation take about 0.5 s, so that op_p50_s is
    # a median over all of them rather than over one estimator
    samples = {"variance": 100_000, "gamma_2": 400_000, "gamma_inf_1": 1_000_000,
               "gamma_inf_2": 400_000, "gamma_inf_3": 250_000}

    def setup(self):
        return self.api.uniform_box(2)

    def ops(self, f):
        api = self.api
        s = self.samples
        closed = {"gamma": GAMMA_1_SQUARE, "eta": ETA_1_SQUARE}

        def est(e):
            return {"value": e.value, "std_err": e.std_err, "samples": e.samples}

        def variance_summary(vc):
            parts = [vc.gamma_k, vc.gamma_k_j[1], vc.gamma_k_j[0], vc.eta_k]
            return {"gamma": est(vc.gamma_k), "eta": est(vc.eta_k),
                    "samples": [p.samples for p in parts]}

        def variance_check(v):
            problems = []
            programs = {"gamma": api.gamma_1_closed_uniform(2, 1.0, 1.0),
                        "eta": api.eta_1_closed_uniform(2, 1.0, 1.0)}
            for name, e in ((n, v[n]) for n in ("gamma", "eta")):
                if not math.isclose(programs[name], closed[name], rel_tol=1e-12):
                    problems.append(f"{name}_1 closed form {programs[name]}, expected {closed[name]}")
                if abs(e["value"] - closed[name]) > N_SIGMA * e["std_err"]:
                    problems.append(f"{name}_1(1) = {e['value']:.5f} +- {e['std_err']:.5f}, "
                                    f"closed form {closed[name]:.5f}")
            if v["samples"] != [s["variance"]] * 4:
                problems.append(f"sample counts {v['samples']}")
            return problems

        def gamma2_check(e):
            value, se = ref.gamma2_uniform_square(s["gamma_2"], np.random.default_rng([self.seed, 3]))
            band = N_SIGMA * math.hypot(se, e["std_err"])
            if not 0.0 < e["value"] < 1.0 or abs(e["value"] - value) > band:
                return [f"gamma_2(1) = {e['value']:.5f} +- {e['std_err']:.5f}, "
                        f"reference {value:.5f} +- {se:.5f}, gamma_2(inf) = 1"]
            return []

        def gamma_inf1_check(e):
            if abs(e["value"] - 4.0) > N_SIGMA * e["std_err"] + 1e-9:
                return [f"gamma_1(inf) = {e['value']} in d = 3, not 4"]
            return []

        ops = [
            Op("variance", 11 * s["variance"],
               lambda api: api.variance_constants_estimate(1, 2, f, 1.0, s["variance"], self.stream(0)),
               variance_summary, variance_check,
               simplices=lambda v: 6 * s["variance"], samples=lambda v: sum(v["samples"])),
            Op("gamma_2", 3 * s["gamma_2"],
               lambda api: api.gamma_k_estimate(2, 2, f, 1.0, s["gamma_2"], self.stream(1)),
               est, gamma2_check,
               simplices=lambda e: e["samples"], samples=lambda e: e["samples"]),
        ]
        for k in (1, 2, 3):
            n = s[f"gamma_inf_{k}"]
            ops.append(Op(
                f"gamma_inf_{k}", k * n,
                lambda api, k=k, n=n: api.gamma_k_inf_estimate(k, 3, n, self.stream(1 + k)),
                est, gamma_inf1_check if k == 1 else _nothing_to_check,
                simplices=lambda e: e["samples"], samples=lambda e: e["samples"]))
        return ops

    def finish(self, summaries):
        g = [summaries[f"gamma_inf_{k}"] for k in (1, 2, 3)]
        total = 1.0 - g[0]["value"] + g[1]["value"] - g[2]["value"]
        se = math.sqrt(sum(e["std_err"] ** 2 for e in g))
        if abs(total) > N_SIGMA * se:
            return [f"1 - gamma_1 + gamma_2 - gamma_3 = {total:+.4f}, se {se:.4f} (d = 3, lambda = inf)"]
        return []

    def probe(self, inputs, op, raw, summary, counters):
        if op.key != "variance":
            return
        api, n = self.api, self.samples["variance"]
        api.gamma_k_estimate(1, 2, inputs, 1.0, n, self.stream(10))
        api.gamma_k_j_estimate(1, 1, 2, inputs, 1.0, n, self.stream(11))
        api.gamma_k_0_estimate(1, 2, inputs, 1.0, n, self.stream(12))
        api.eta_k_estimate(1, 2, inputs, 1.0, n, self.stream(13))


class CechAudit(Workload):
    """build_cech, its Euler characteristic and Morse counting at one radius,
    on one d = 2 and two d = 3 clouds.  With two short d = 3 operations
    per round, op_p50_s is a d = 3 time and op_p90_s a d = 2 time rather
    than a mean of the two."""

    name, wid = "cech_audit", 4
    n3, lam3 = 4000, 0.2

    def setup(self):
        api = self.api
        known = KNOWN_FAULT_CLOUD
        fault = api.sample_iid(api.uniform_box(2), known["n"],
                               api.substream(known["master_seed"], known["index"]))
        r3 = (self.lam3 / self.n3) ** (1.0 / 3.0)
        clouds = {"known_d2": (self.relabel(fault.points, 1), known["n"] ** -0.5)}
        for i in range(2):
            clouds[f"d3/{i}"] = (self.fixed_cloud(api.uniform_box(3), self.n3, 0, i), r3)
        return clouds

    def ops(self, clouds):
        return [self._op(key, points, r) for key, (points, r) in clouds.items()]

    def _op(self, key, points, r):
        n, d = points.shape

        def call(api):
            cx = api.build_cech(points, r)
            chi = api.euler_characteristic(cx)
            cps = api.enumerate_grid(points, r)
            return cx, chi, cps, api.counts(cps, n, r, d)

        def summarise(raw):
            cx, chi, cps, cc = raw
            s = enum_summary(cps, cc)
            s.update(chi=chi, cech_counts=[int(v) for v in cx.counts()])
            return s

        def check(s):
            problems = compare_critical(s, ref.delaunay_critical(points, r))
            alternating = sum((-1) ** k * v for k, v in enumerate(s["by_index"]))
            if s["chi"] != alternating:
                problems.append(f"chi(Cech) = {s['chi']}, Morse count {alternating}")
            if s["cech_counts"][1] != ref.close_pairs(points, r):
                problems.append(f"{s['cech_counts'][1]} edges, {ref.close_pairs(points, r)} pairs within 2r")
            if d == 2 and s["chi"] != ref.alpha_euler_2d(points, r):
                problems.append(f"chi(Cech) = {s['chi']}, alpha complex {ref.alpha_euler_2d(points, r)}")
            return problems

        return Op(key, n, call, summarise, check,
                  simplices=lambda s: sum(s["cech_counts"]) + sum(s["by_index"][1:]),
                  samples=lambda s: 1)

    def probe(self, inputs, op, raw, summary, counters):
        counters["cech.simplices"] += raw[0].size


WORKLOADS = {w.name: w for w in (CriticalEnum, SparseCounts, VarianceMC, CechAudit)}
