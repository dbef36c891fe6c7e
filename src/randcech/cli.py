"""Command-line interface.

Subcommands: enumerate (critical points of a cloud), cech (complex,
Euler characteristic, Betti numbers), constants (limit-constant
estimates), experiment (prints the ``experiments.report`` of a JSON
config, whichever its mode), audit (Morse/complex Euler-characteristic
consistency sweep; reports the cases skipped as too large).

Exit codes: 0 success, 2 configuration error, 3 budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cech, enumeration, experiments, pointproc, theory

EXIT_CONFIG = 2
EXIT_BUDGET = 3

_CAP_ERRORS = (
    enumeration.OracleCapExceeded,
    enumeration.GlobalCapExceeded,
    enumeration.CliqueBudgetExceeded,
    cech.ComplexTooLarge,
    cech.BudgetExceeded,
)


def _load_or_sample_cloud(args) -> pointproc.PointCloud:
    if args.cloud:
        if args.cloud.endswith(".bin"):
            return pointproc.load_cloud_binary(args.cloud)
        return pointproc.load_cloud_csv(args.cloud)
    if not args.density or args.n is None:
        raise ValueError("need --cloud FILE or --density NAME with --n")
    f = pointproc.make_density(args.density, args.d, **json.loads(args.density_params))
    rng = pointproc.substream(args.seed, 0)
    return pointproc.sample_iid(f, args.n, rng)


def _cmd_enumerate(args) -> int:
    cloud = _load_or_sample_cloud(args)
    eps = math.inf if args.use_global else args.eps
    if eps is None:
        raise ValueError("need --eps X or --global")
    cps = enumeration.enumerate_grid(cloud, eps)
    cc = enumeration.counts(cps, cloud.n, eps, cloud.dim)
    print(f"n={cloud.n} d={cloud.dim} eps={eps}")
    print("counts by index:", " ".join(str(int(v)) for v in cc.by_index))
    print("alternating sum:", cc.alternating_sum())
    if args.out:
        enumeration.save_critical_csv(cps, args.out)
        print("written:", args.out)
    return 0


def _cmd_cech(args) -> int:
    cloud = _load_or_sample_cloud(args)
    cx = cech.build_cech(cloud.points, args.eps, dim_cap=args.max_dim)
    print(f"n={cloud.n} eps={args.eps} simplices={cx.size} truncated={cx.truncated}")
    print("simplex counts:", " ".join(str(int(v)) for v in cx.counts()))
    if not cx.truncated:
        print("euler characteristic:", cech.euler_characteristic(cx))
    if args.betti:
        b = cech.betti_numbers(cx, max_dim=args.max_dim)
        print("betti numbers:", " ".join(str(int(v)) for v in b))
    if args.out:
        cech.save_complex(cx, args.out)
        print("written:", args.out)
    return 0


def _cmd_constants(args) -> int:
    lam = math.inf if args.inf else args.lam
    if lam is None:
        raise ValueError("need --lambda X or --inf")
    f = None
    if not math.isinf(lam):
        f = pointproc.make_density(args.density, args.d, **json.loads(args.density_params))
    rng = pointproc.substream(args.seed, 0)
    entries = []
    for k in args.k:
        if not math.isinf(lam):
            entries.append(("mu_k", k, None, 0.0,
                            theory.mu_k_estimate(k, args.d, f, args.samples, rng)))
        if not args.variance:
            g = theory.gamma_k_estimate(k, args.d, f, lam, args.samples, rng)
            entries.append(("gamma_k", k, None, lam, g))
        else:
            vc = theory.variance_constants_estimate(
                k, args.d, f, lam, args.samples, rng
            )
            entries.append(("gamma_k", k, None, lam, vc.gamma_k))
            for j, est in sorted(vc.gamma_k_j.items()):
                entries.append(("gamma_k_j", k, j, lam, est))
            entries.append(("eta_k", k, None, lam, vc.eta_k))
            entries.append(("alpha_k", k, None, lam, vc.alpha_k))
            entries.append(("sigma2_hat_k", k, None, lam, vc.sigma2_hat))
            entries.append(("sigma2_k", k, None, lam, vc.sigma2))
            if vc.negative_variance:
                print(f"warning: sigma2_{k} estimate is negative (MC noise)")
    table = theory.constants_table(entries, seed=args.seed)
    print(json.dumps(table, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
    return 0


def _cmd_experiment(args) -> int:
    cfg = experiments.ExperimentConfig.from_json(args.config)
    print(json.dumps(experiments.report(cfg, args.out_dir), indent=2, sort_keys=True))
    return 0


def _cmd_audit(args) -> int:
    """Morse/complex Euler-characteristic consistency sweep."""
    for flag, value, least in (("--clouds", args.clouds, 1), ("--n", args.n, 5),
                               ("--radii", args.radii, 1)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    rng_master = args.seed
    cap = 500_000
    failures = total = skipped = 0
    for c in range(args.clouds):
        for d in (2, 3):
            rng = pointproc.substream(rng_master, c, d)
            n = int(rng.integers(5, args.n + 1))
            pts = rng.random((n, d))
            for i in range(args.radii):
                eps = 0.02 + 0.4 * i / max(args.radii - 1, 1)
                try:
                    cx = cech.build_cech(pts, eps, max_simplices=cap)
                except cech.ComplexTooLarge:
                    skipped += 1
                    continue
                chi_complex = cech.euler_characteristic(cx)
                cps = enumeration.enumerate_grid(pts, eps)
                chi_morse = enumeration.counts(cps, n, eps, d).alternating_sum()
                total += 1
                if chi_complex != chi_morse:
                    failures += 1
                    print(f"MISMATCH cloud={c} d={d} n={n} eps={eps:.3f}: "
                          f"complex {chi_complex} vs critical points {chi_morse}")
    print(f"audited {total} (cloud, radius) cases: {failures} mismatches; "
          f"skipped {skipped} with more than {cap} simplices")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="randcech", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_cloud_args(sp):
        sp.add_argument("--cloud", help="cloud file (.csv or .bin)")
        sp.add_argument("--density", help="builtin density name")
        sp.add_argument("--density-params", dest="density_params", default="{}",
                        help="density parameters as JSON")
        sp.add_argument("--n", type=int)
        sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("enumerate", help="enumerate critical points")
    add_cloud_args(sp)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--global", dest="use_global", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("cech", help="build a Cech complex")
    add_cloud_args(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--max-dim", dest="max_dim", type=int)
    sp.add_argument("--betti", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_cech)

    sp = sub.add_parser("constants", help="limit-constant estimates")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--k", type=int, nargs="+", default=[1])
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--inf", action="store_true")
    sp.add_argument("--samples", type=int, default=theory.DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--density", default="uniform_box")
    sp.add_argument("--density-params", dest="density_params", default="{}")
    sp.add_argument("--variance", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_constants)

    sp = sub.add_parser("experiment", help="run a seeded experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", dest="out_dir")
    sp.set_defaults(fn=_cmd_experiment)

    sp = sub.add_parser("audit", help="Morse/complex Euler consistency sweep")
    sp.add_argument("--clouds", type=int, default=20)
    sp.add_argument("--n", type=int, default=40)
    sp.add_argument("--radii", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_audit)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CAP_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (experiments.ConfigError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
