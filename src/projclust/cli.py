"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``cluster`` (projection-scan
clustering of a dataset file), ``bounds`` (bound calculators), and
``experiment`` (CSV-emitting harness).  Exit codes: 0 success, 2 cluster
budget exhausted, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import inspect
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
    gen.set_defaults(run=_cmd_gen)

    cluster = sub.add_parser("cluster", help="cluster a dataset file")
    cluster.add_argument("--in", dest="input", required=True,
                         help="dataset base path (as written by gen)")
    cluster.add_argument("--error", type=float, required=True)
    cluster.add_argument("--budget", type=int, default=None,
                         help="default: 3*ceil(ln p)")
    cluster.add_argument("--learner", default=SCAN_LEARNER, choices=LEARNERS)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.set_defaults(run=_cmd_cluster)

    bounds_p = sub.add_parser("bounds", help="bound calculators")
    bsub = bounds_p.add_subparsers(dest="bound", required=True)

    b = bsub.add_parser("hd-error", help="optimal-error bound in R^p")
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=int, required=True)
    _bound(b, lambda a: bnd.hd_bayes_error_bound(a.c, a.p))

    b = bsub.add_parser("direction-prob",
                        help="P(one direction keeps gamma-separation)")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--tau", type=float, default=None,
                   help="default: optimised on the standard grid")
    _bound(b, lambda a: bnd.spherical_direction_prob(a.gamma, a.c, a.p, a.tau))

    b = bsub.add_parser("projections", help="expected projections to reach gamma")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--c", type=float, required=True)
    dimension = b.add_mutually_exclusive_group(required=True)
    dimension.add_argument("--p", type=int)
    dimension.add_argument("--asymptotic", action="store_true")
    _bound(b, lambda a: bnd.expected_projections_spherical(a.gamma, a.c, a.p))

    b = bsub.add_parser("kgmm", help="k-component pairwise failure bound")
    b.add_argument("--gamma-min", type=float, required=True)
    b.add_argument("--c-min", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--p", type=int, required=True)
    _bound(b, lambda a: bnd.kgmm_failure_bound(a.gamma_min, a.c_min, a.k, a.p))

    b = bsub.add_parser("kgmm-projections", help="k-component count bound")
    b.add_argument("--c-min", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--alpha", type=float, required=True)
    _bound(b, lambda a: bnd.kgmm_projection_bound(a.c_min, a.k, a.alpha))

    b = bsub.add_parser("rank", help="rank-controlled direction bound")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--zeta", type=float, required=True)
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--tau", type=float, default=None,
                   help="default: optimised on the standard grid")
    b.add_argument("--tau1", type=float, default=bnd.RANK_TAU1)
    b.add_argument("--tau2", type=float, default=bnd.RANK_TAU2)
    b.add_argument("--seed", type=int, default=0)
    _bound(b, _rank_bound)

    b = bsub.add_parser("sample-size", help="sample complexity")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--gamma-min", type=float, required=True)
    _bound(b, lambda a: bnd.sample_size_required(a.eps, a.delta, a.gamma_min))

    b = bsub.add_parser("error-gap", help="plug-in vs optimal error gap")
    b.add_argument("--gamma", type=float, required=True)
    b.add_argument("--gamma-max", type=float, required=True)
    b.add_argument("--w-min", type=float, required=True)
    b.add_argument("--eps", type=float, required=True)
    _bound(b, lambda a: bnd.error_gap_bound(a.gamma, a.gamma_max, a.w_min, a.eps))

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
    exp.set_defaults(run=_cmd_experiment)
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
    rank_notes = {} if rank is None else {"r": rank, "zeta": args.zeta}
    data = datagen.sample_dataset(spec, args.n, RngStream(args.seed, 0), args.shape)
    bin_path, json_path = datagen.write_dataset(
        data, args.out, k=spec.k, seed=args.seed,
        generator=f"{args.shape}:stream=0", **rank_notes)
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


def _bound(parser, report) -> None:
    """Make ``parser``'s command print the report that ``report(args)`` returns."""
    def run(args) -> int:
        print(model.to_json(report(args)))
        return EXIT_OK
    parser.set_defaults(run=run)


def _rank_bound(args) -> bnd.BoundReport:
    spec, _rank = datagen.make_rank_spec(
        args.p, args.c, args.zeta, RngStream(args.seed, datagen.RANK_SPEC_STREAM)
    )
    return bnd.nonspherical_direction_prob(
        spec, args.gamma, args.tau, mode="rank", tau1=args.tau1, tau2=args.tau2)


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
    print(model.to_json({"csv": args.out, "rows": len(rows)}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (UsageError, ProjclustError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_OR_IO


if __name__ == "__main__":
    sys.exit(main())
