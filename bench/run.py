"""randcech benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs come from the seed; its operations run
in whole rounds until S seconds of operation time have passed; then the
outputs of the first round are checked against results computed
without the program.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Each run also writes a record (environment,
operations, problems) to ``bench/out/``, and a traced run its spans.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3

# Public functions the workloads call, by module.  A traced run wraps
# each in a span named "<module>.<function>".
PUBLIC = {
    "pointproc": ["sample_iid"],
    "enumeration": ["enumerate_grid", "counts", "count_index1", "delaunay_subsets"],
    "cech": ["build_cech", "euler_characteristic"],
    "experiments": ["aggregate_from_raw", "save_raw_csv"],
    "theory": ["variance_constants_estimate", "gamma_k_estimate", "gamma_k_j_estimate",
               "gamma_k_0_estimate", "eta_k_estimate", "gamma_k_inf_estimate"],
}
HELPERS = {
    "pointproc": ["uniform_box", "substream"],
    "experiments": ["load_raw_csv"],
    "theory": ["gamma_1_closed_uniform", "eta_1_closed_uniform"],
}
# Stages inside the program: module globals that its own calls go
# through, with the rows each call handles.  A traced run replaces them
# with wrappers that open a span named after the defining module.
STAGES = {
    "enumeration": {
        "grid_pairs": lambda args, out: len(out),
        "clique_subsets": lambda args, out: sum(len(a) for a in out.values()),
        "circumspheres_batch": lambda args, out: len(args[0]),
    },
    "cech": {"min_enclosing_radii_batch": lambda args, out: len(args[0])},
}
# k-d tree methods timed the same way, through a subclass of the tree
# the module builds
TREE_STAGES = {"enumeration": ("query", "enumeration.cp2_query"),
               "cech": ("query_pairs", "cech.pairs")}

# per-layer metric -> spans whose time it sums; divided by operations
SPAN_METRICS = {
    "pointproc.sample_s": ["pointproc.sample_iid"],
    "enumeration.pairs_s": ["enumeration.grid_pairs"],
    "enumeration.cliques_s": ["enumeration.clique_subsets"],
    "enumeration.delaunay_s": ["enumeration.delaunay_subsets"],
    "geometry.circumsphere_s": ["geometry.circumspheres_batch"],
    "enumeration.cp2_query_s": ["enumeration.cp2_query"],
    "enumeration.count_index1_s": ["enumeration.count_index1"],
    "experiments.aggregate_s": ["experiments.aggregate_from_raw", "experiments.save_raw_csv"],
    "theory.gamma_s": ["theory.gamma_k_estimate"],
    "theory.gamma_j_s": ["theory.gamma_k_j_estimate"],
    "theory.gamma_0_s": ["theory.gamma_k_0_estimate"],
    "theory.eta_s": ["theory.eta_k_estimate"],
    "theory.gamma_inf_s": ["theory.gamma_k_inf_estimate"],
    "cech.build_s": ["cech.build_cech"],
    "cech.pairs_s": ["cech.pairs"],
    "geometry.miniball_s": ["geometry.min_enclosing_radii_batch"],
}
# per-layer metric -> spans whose rows it sums; divided by operations
ROW_METRICS = {
    "enumeration.pairs": "enumeration.grid_pairs",
    "enumeration.candidates": "enumeration.clique_subsets",
    "geometry.circumsphere_rows": "geometry.circumspheres_batch",
    "geometry.miniball_rows": "geometry.min_enclosing_radii_batch",
}
# per-layer counts the workloads' probes add up, per operation
COUNT_METRICS = ["enumeration.critical_points", "theory.samples", "cech.simplices"]
# what is left of a call after the stages timed inside it
REMAINDERS = {
    "enumeration.objects_ties_s": ("critical_enum", ["enumeration.enumerate_grid"],
                                   ["enumeration.grid_pairs", "enumeration.clique_subsets",
                                    "geometry.circumspheres_batch", "enumeration.cp2_query"]),
    "enumeration.sparse_enum_s": ("sparse_counts",
                                  ["enumeration.enumerate_grid", "enumeration.counts"], []),
    "cech.morse_enum_s": ("cech_audit", ["enumeration.enumerate_grid", "enumeration.counts"], []),
    "cech.expand_s": ("cech_audit", ["cech.build_cech"],
                      ["cech.pairs", "geometry.min_enclosing_radii_batch"]),
}


class Tracer:
    """Spans kept in memory: name, id, parent id, operation id, rows,
    start, end.  Spans open only while an operation is traced (``op`` is
    set), so set-up and the plain calls of a traced run record none."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, rows=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if rows is not None:
                rec["rows"] = rows(args, out)
            return out
        return traced

    def total(self, names) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def rows(self, name) -> int:
        return sum(s.get("rows", 0) for s in self.spans if s["name"] == name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = {"name": self.name, "id": len(t.spans),
                    "parent": t.stack[-1] if t.stack else None, "op": t.op,
                    "start": time.perf_counter(), "end": None}
        t.spans.append(self.rec)
        t.stack.append(self.rec["id"])
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer.stack.pop()


def make_api(tracer=None) -> SimpleNamespace:
    """The program's functions the workloads use; traced when a tracer is
    given.  A function the program no longer has is None (absent)."""
    api = {}
    for module in sorted(set(PUBLIC) | set(HELPERS)):
        mod = importlib.import_module(f"randcech.{module}")
        for name in PUBLIC.get(module, []) + HELPERS.get(module, []):
            fn = getattr(mod, name, None)
            if fn is not None and tracer is not None and name in PUBLIC.get(module, []):
                fn = tracer.wrap(f"{module}.{name}", fn)
            api[name] = fn
    return SimpleNamespace(**api)


def trace_stages(tracer) -> list:
    """Wrap the program's internal stages; returns those it lacks."""
    absent = []
    for module, stages in STAGES.items():
        mod = importlib.import_module(f"randcech.{module}")
        for name, rows in stages.items():
            fn = getattr(mod, name, None)
            if fn is None:
                absent.append(f"{module}.{name}")
                continue
            origin = fn.__module__.rsplit(".", 1)[-1]
            setattr(mod, name, tracer.wrap(f"{origin}.{name}", fn, rows))
    for module, (method, span) in TREE_STAGES.items():
        mod = importlib.import_module(f"randcech.{module}")
        base = getattr(mod, "cKDTree", None)
        if base is None:
            absent.append(f"{module}.cKDTree")
            continue
        setattr(mod, "cKDTree", type(base.__name__, (base,), {
            method: tracer.wrap(span, getattr(base, method))}))
    return absent


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import randcech, randcech.cech, randcech.experiments, randcech.theory; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def environment() -> dict:
    import numpy
    import scipy
    import randcech

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref_line = head.read_text().strip()
        sha = ref_line
        if ref_line.startswith("ref: "):
            ref_file = ROOT / ".git" / ref_line[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref_line
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "randcech": randcech.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.platform(), "git_sha": sha}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    OUT.mkdir(exist_ok=True)
    setup_import = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if trace else None
    plain_api = make_api()
    api = make_api(tracer) if trace else plain_api
    absent = sorted(f"{m}.{n}" for m, names in PUBLIC.items() for n in names
                    if getattr(plain_api, n) is None)
    if trace:
        absent += trace_stages(tracer)
    wl = workloads.WORKLOADS[workload_name](api, seed, OUT)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = wl.ops(inputs)

    first: dict = {}      # op key -> summary of the first round
    errors: dict = {}     # op key -> exception text
    problems: list = []   # run-level problems
    times, traced_times = [], []
    points = simplices = samples = 0
    counters = collections.Counter()
    op_times = collections.defaultdict(list)
    rounds = 0
    elapsed = 0.0  # operation time; wall time in a traced run
    start = time.perf_counter()
    while rounds == 0 or elapsed < seconds:
        wl.current = {}
        for op in ops:
            summary = dt = None
            # a traced run makes each call plain and traced, alternating
            # which goes first so that neither always pays the warm-up
            calls = [False, True] if trace else [False]
            if len(times) % 2:
                calls.reverse()
            try:
                for traced in calls:
                    if trace:
                        tracer.op = f"{rounds}/{op.key}" if traced else None
                    t0 = time.perf_counter()
                    raw = op.call(api if traced else plain_api)
                    took = time.perf_counter() - t0
                    if traced:
                        traced_times.append(took)
                        traced_raw, traced_summary = raw, op.summarise(raw)
                    else:
                        dt, summary = took, op.summarise(raw)
                    del raw
                if trace:
                    if _digest(traced_summary) != _digest(summary):
                        problems.append(f"{op.key}: traced call gave another output")
                    tracer.op = f"{rounds}/{op.key}"
                    wl.probe(inputs, op, traced_raw, traced_summary, counters)
                    tracer.op = None
                    del traced_raw
            except Exception:  # an operation that raises counts as failed
                dt = dt if dt is not None else time.perf_counter() - t0
                summary = None
                errors.setdefault(op.key, traceback.format_exc(limit=3).strip().splitlines()[-1])
            times.append(dt)
            op_times[op.key].append(dt)
            elapsed = time.perf_counter() - start if trace else elapsed + dt
            if summary is None:
                continue
            wl.current[op.key] = summary
            points += op.points
            simplices += op.simplices(summary)
            samples += op.samples(summary)
            if rounds == 0:
                first[op.key] = summary
            elif _digest(summary) != _digest(first[op.key]):
                problems.append(f"{op.key}: round {rounds} differs from round 0")
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_seconds = sum(times)

    failed_keys = dict(errors)
    for op in ops:
        if op.key in first:
            found = op.check(first[op.key])
            if found:
                failed_keys[op.key] = "; ".join(found)
    if len(first) == len(ops):
        problems += wl.finish(first)
    attempted = len(ops) * rounds
    failed = len(failed_keys) * rounds

    if trace:
        metrics = layer_metrics(workload_name, tracer, counters, len(times), samples,
                                sum(traced_times) / op_seconds - 1.0)
    else:
        metrics = {
            "setup_s": (setup_import + statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8]
                         if len(times) > 1 else times[0], "s"),
            "points_per_s": (points / op_seconds, "points/s"),
            "simplices_per_s": (simplices / op_seconds, "simplices/s"),
            "mc_samples_per_s": (samples / op_seconds, "samples/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "rounds": rounds, "ops_per_round": len(ops),
        "op_seconds": op_seconds, "op_times": op_times,
        "setup_import_s": setup_import, "setup_inputs_s": setup_times,
        "failed_ops": failed_keys, "problems": problems, "absent": absent, **result,
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.spans))
    for key, why in failed_keys.items():
        print(f"failed {key}: {why}")
    for p in problems:
        print(f"problem: {p}")
    for name in absent:
        print(f"absent: {name}")
    print(f"{workload_name}: {rounds} rounds of {len(ops)} operations, "
          f"{op_seconds:.2f} s of operations")
    return result


def layer_metrics(workload_name, tracer, counters, n_ops, samples, overhead) -> dict:
    """Per-layer metrics of a traced run, per operation.  Layers the
    workload does not reach read 0."""
    metrics = {name: (tracer.total(spans) / n_ops, "s") for name, spans in SPAN_METRICS.items()}
    for name, (owner, whole, parts) in REMAINDERS.items():
        value = (tracer.total(whole) - tracer.total(parts)) / n_ops if owner == workload_name else 0.0
        metrics[name] = (value, "s")
    counters["theory.samples"] = samples if workload_name == "variance_mc" else 0
    for name, span in ROW_METRICS.items():
        counters[name] = tracer.rows(span)
    for name in (*ROW_METRICS, *COUNT_METRICS):
        metrics[name] = (counters[name] / n_ops, "count")
    candidates = counters["enumeration.candidates"]
    metrics["enumeration.yield"] = (
        counters["enumeration.critical_points"] / candidates if candidates else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def _digest(obj):
    """A comparable fingerprint of a summary."""
    if isinstance(obj, dict):
        return tuple((str(k), _digest(v)) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
    if isinstance(obj, (list, tuple)):
        return tuple(_digest(v) for v in obj)
    if hasattr(obj, "tobytes"):
        return hash(obj.tobytes())
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["critical_enum", "sparse_counts", "variance_mc", "cech_audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "randcech" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'randcech'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
