"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``cluster`` (projection-scan
clustering of a dataset file), ``bounds`` (bound calculators), and
``experiment`` (CSV-emitting harness).  Exit codes: 0 success, 2 cluster
budget exhausted, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict

from . import bounds as bnd
from . import datagen, experiments, model
from .clusterer import (
    SCAN_LEARNER,
    ClusterConfig,
    classify,
    cluster_gmm,
    clustering_error,
    projections_budget_default,
)
from .errors import ProjclustError
from .learner1d import LEARNERS
from .mathkit import RngStream

EXIT_OK = 0
EXIT_USAGE_OR_IO = 1
EXIT_BUDGET_EXHAUSTED = 2


class UsageError(Exception):
    """Usage error carrying the message; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="projclust")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic mixture dataset")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--c", type=float, required=True)
    gen.add_argument("--sigma", type=float, default=None, help="default: 1")
    gen.add_argument("--w", type=float, default=None, help="default: 0.5")
    gen.add_argument("--zeta", type=float, default=None,
                     help="rank-controlled covariances populating this fraction")
    gen.add_argument("--shape", default="gaussian",
                     choices=datagen.SHAPES)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True,
                     help="base path; writes <out>.bin and <out>.json")
    gen.add_argument("--csv", default=None, help="also export CSV here")

    cluster = sub.add_parser("cluster", help="cluster a dataset file")
    cluster.add_argument("--in", dest="input", required=True,
                         help="dataset base path (as written by gen)")
    cluster.add_argument("--error", type=float, required=True)
    cluster.add_argument("--budget", type=int, default=None,
                         help="default: 3*ceil(ln p)")
    cluster.add_argument("--learner", default=SCAN_LEARNER, choices=LEARNERS)
    cluster.add_argument("--seed", type=int, default=0)

    bounds_p = sub.add_parser("bounds", help="bound calculators")
    bsub = bounds_p.add_subparsers(dest="bound", required=True)

    b = bsub.add_parser("hd-error", help="optimal-error bound in R^p")
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=int, required=True)

    b = bsub.add_parser("direction-prob",
                        help="P(one direction keeps gamma-separation)")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--tau", type=float, default=None,
                   help="default: optimised on the standard grid")

    b = bsub.add_parser("projections", help="expected projections to reach gamma")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=int, default=None)
    b.add_argument("--asymptotic", action="store_true")

    b = bsub.add_parser("kgmm", help="k-component pairwise failure bound")
    b.add_argument("--gamma-min", type=float, required=True)
    b.add_argument("--c-min", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--p", type=int, required=True)

    b = bsub.add_parser("kgmm-projections", help="k-component count bound")
    b.add_argument("--c-min", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--alpha", type=float, required=True)

    b = bsub.add_parser("rank", help="rank-controlled direction bound")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--zeta", type=float, required=True)
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--tau", type=float, default=0.1)
    b.add_argument("--tau1", type=float, default=0.2)
    b.add_argument("--tau2", type=float, default=0.5)
    b.add_argument("--seed", type=int, default=0)

    b = bsub.add_parser("sample-size", help="sample complexity")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--gamma-min", type=float, required=True)

    b = bsub.add_parser("error-gap", help="plug-in vs optimal error gap")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--gamma-max", type=float, required=True)
    b.add_argument("--w-min", type=float, required=True)
    b.add_argument("--eps", type=float, required=True)

    exp = sub.add_parser("experiment", help="run a named experiment, emit CSV")
    exp.add_argument("name", choices=sorted(experiments.EXPERIMENTS))
    exp.add_argument("--out", required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--repeats", type=int, default=None)
    exp.add_argument("--p", type=int, default=None)
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--c", type=float, action="append", default=None,
                     help="repeatable where the experiment sweeps c")
    exp.add_argument("--zeta", type=float, action="append", default=None)
    exp.add_argument("--error", type=float, default=None)
    exp.add_argument("--budget", type=int, default=None)
    exp.add_argument("--directions", type=int, default=None)
    exp.add_argument("--learner", default=None)
    exp.epilog = (
        "CSV columns per experiment: "
        + "; ".join(
            f"{name}: {', '.join(fields)}"
            for name, (_, fields) in sorted(experiments.EXPERIMENTS.items())
        )
    )
    return parser


def _cmd_gen(args) -> int:
    sigma = 1.0 if args.sigma is None else args.sigma
    w = 0.5 if args.w is None else args.w
    if args.zeta is not None:
        # The rank spec has unit variances and equal weights of its own.
        for flag in ("sigma", "w"):
            if getattr(args, flag) is not None:
                raise UsageError(f"gen --zeta takes no --{flag}")
        spec, rank = datagen.make_rank_spec(
            args.p, args.c, args.zeta, RngStream(args.seed, datagen.RANK_SPEC_STREAM)
        )
    else:
        spec, rank = datagen.make_spherical_spec(args.p, args.c, sigma, w), None
    data = datagen.sample_dataset(spec, args.n, RngStream(args.seed, 0), args.shape)
    bin_path, json_path = datagen.write_dataset(
        data, args.out, k=spec.k, r=rank, zeta=args.zeta
    )
    if args.csv:
        datagen.export_csv(data, args.csv)
    echo = {
        "bin": bin_path, "json": json_path, "n": args.n, "p": args.p,
        "c": args.c, "sigma": sigma, "w": w, "zeta": args.zeta,
        "shape": args.shape, "seed": args.seed,
    }
    if rank is not None:
        echo["r"] = rank
    print(model.to_json(echo))
    return EXIT_OK


def _cmd_cluster(args) -> int:
    data = datagen.read_dataset(args.input)
    budget = args.budget
    if budget is None:
        budget = projections_budget_default(data.p, False, args.error)
    cfg = ClusterConfig(
        target_error=args.error, budget=budget, learner=args.learner,
        seed=args.seed,
    )
    outcome = cluster_gmm(data, cfg)
    payload = asdict(outcome)
    if data.labels is not None:
        predicted = classify(data, outcome.boundary)
        payload["clustering_error"] = clustering_error(predicted, data.labels)
    print(model.to_json(payload))
    return EXIT_OK if outcome.achieved else EXIT_BUDGET_EXHAUSTED


def _cmd_bounds(args) -> int:
    if args.bound == "hd-error":
        report = bnd.hd_bayes_error_bound(args.c, args.p)
    elif args.bound == "direction-prob":
        if args.tau is None:
            _, report = bnd.optimize_tau(
                lambda t: bnd.spherical_direction_prob(args.gamma, args.c, args.p, t)
            )
        else:
            report = bnd.spherical_direction_prob(args.gamma, args.c, args.p, args.tau)
    elif args.bound == "projections":
        p = None if args.asymptotic else args.p
        if p is None and not args.asymptotic:
            raise UsageError("projections requires --p or --asymptotic")
        report = bnd.expected_projections_spherical(args.gamma, args.c, p)
    elif args.bound == "kgmm":
        report = bnd.kgmm_failure_bound(args.gamma_min, args.c_min, args.k, args.p)
    elif args.bound == "kgmm-projections":
        report = bnd.kgmm_projection_bound(args.c_min, args.k, args.alpha)
    elif args.bound == "rank":
        spec, _rank = datagen.make_rank_spec(
            args.p, args.c, args.zeta, RngStream(args.seed, datagen.RANK_SPEC_STREAM)
        )
        report = bnd.nonspherical_direction_prob(
            spec, args.gamma, args.tau, mode="rank",
            tau1=args.tau1, tau2=args.tau2,
        )
    elif args.bound == "sample-size":
        n = bnd.sample_size_required(args.eps, args.delta, args.gamma_min)
        print(model.to_json({
            "value": n, "kind": "count_upper",
            "inputs": {"epsilon": args.eps, "delta": args.delta,
                       "gamma_min": args.gamma_min},
            "citation": "sample-size",
        }))
        return EXIT_OK
    elif args.bound == "error-gap":
        report = bnd.error_gap_bound(args.gamma, args.gamma_max, args.w_min, args.eps)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown bound {args.bound!r}")
    print(model.to_json(report))
    return EXIT_OK


# experiment flag -> the runner parameters it may fill, first match wins
_EXPERIMENT_PARAMS = {
    "repeats": ("repeats",), "p": ("p", "p_list"), "n": ("n",),
    "c": ("c", "c_list"), "zeta": ("zeta_list",), "error": ("target_error",),
    "budget": ("budget", "max_budget"), "directions": ("directions",),
    "learner": ("learner",),
}


def _cmd_experiment(args) -> int:
    runner, fields = experiments.EXPERIMENTS[args.name]
    params = inspect.signature(runner).parameters
    kwargs = {"seed": args.seed}
    for flag, names in _EXPERIMENT_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        name = next((name for name in names if name in params), None)
        if name is None:
            raise UsageError(f"experiment {args.name} takes no --{flag}")
        if name.endswith("_list"):
            value = tuple(value) if isinstance(value, list) else (value,)
        elif isinstance(value, list):
            if len(value) > 1:
                raise UsageError(f"experiment {args.name} takes one --{flag}")
            value = value[0]
        kwargs[name] = value
    rows = runner(**kwargs)
    experiments.write_csv(args.out, fields, rows)
    print(json.dumps({"csv": args.out, "rows": len(rows)}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_OR_IO
    except (ProjclustError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_OR_IO


if __name__ == "__main__":
    sys.exit(main())
