"""Command-line surface: one subcommand per core operation.

Exit codes separate mathematics from plumbing: 0 on success, 1 when the
input is well-formed but mathematically rejected (not a tail dependence
matrix of any model, invalid coefficient matrix, pattern mismatch), 2 on
malformed input or infeasible requests.  The subcommands that compare
numbers (``recover``, ``enumerate`` and ``check``) take ``--tol``,
a positive finite number that defaults to ``DEFAULT_TOL``; every randomized
subcommand demands an explicit ``--seed``.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .errors import (
    FormatError,
    IllConditionedError,
    NotRealizableError,
    PatternMismatchError,
    ValidationError,
)
from .graph import CausalOrdering, dag_from_reachability, transitive_reduction
from .identify import (
    enumerate_all,
    enumerate_all_rmwm,
    recover_from_ordering,
    recover_from_reachability,
    recover_rmwm_from_initials,
)
from .io import (
    dumps_matrix,
    dumps_model,
    model_to_dot,
    read_matrix,
    read_model,
    write_matrix,
)
from .generate import random_weighted_model
from .mlcm import _analysis, is_mlcm, mlcm_from_weights, standardize
from .simulate import NoiseSpec, empirical_tdm, sample
from .taildep import check_rmwm_tdm, tdm_from_std_mlcm
from .tolerance import DEFAULT_TOL

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_MALFORMED = 2


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_node_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"expected a comma-separated node list, got {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_matrix(matrix: np.ndarray, out: str | None) -> None:
    if out:
        write_matrix(matrix, out)
    else:
        sys.stdout.write(dumps_matrix(matrix))


def cmd_tdm(args: argparse.Namespace) -> int:
    model = read_model(args.model)
    bbar = standardize(mlcm_from_weights(model), model.alpha)
    _emit_matrix(tdm_from_std_mlcm(bbar), args.out)
    return EXIT_OK


def cmd_standardize(args: argparse.Namespace) -> int:
    matrix = read_matrix(args.matrix)
    _emit_matrix(standardize(matrix, args.alpha), args.out)
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    chi = read_matrix(args.chi)
    if args.reachability:
        bbar = recover_from_reachability(chi, read_matrix(args.reachability), args.tol)
    elif args.ordering:
        ordering = CausalOrdering.from_node_order(_parse_node_list(args.ordering))
        bbar = recover_from_ordering(chi, ordering, args.tol)
    else:
        bbar = recover_rmwm_from_initials(chi, _parse_node_list(args.initials), args.tol)
    _emit_matrix(bbar, args.out)
    return EXIT_OK


def _format_models(models) -> str:
    lines: list[str] = []
    for index, model in enumerate(models, start=1):
        lines.append(f"model {index}")
        lines.append("initial_nodes: " + ",".join(map(str, model.initial_nodes)))
        lines.append(f"max_weighted: {str(model.max_weighted).lower()}")
        lines.append("ordering: " + ",".join(map(str, model.ordering_used.node_order)))
        lines.append(
            "min_ml_dag: "
            + " ".join(f"{k}->{i}" for k, i in sorted(model.min_ml_dag.edges))
        )
        lines.append("std_mlcm:")
        lines.append(dumps_matrix(model.std_mlcm).rstrip("\n"))
        lines.append("")
    return "\n".join(lines)


def cmd_enumerate(args: argparse.Namespace) -> int:
    chi = read_matrix(args.chi)
    if args.rmwm:
        models = enumerate_all_rmwm(chi, args.tol)
        kind = "max-weighted model"
    else:
        models = enumerate_all(chi, args.tol, max_d=args.max_d)
        kind = "recursive max-linear model"
    if not models:
        print(f"rejected: not the tail dependence matrix of any {kind}", file=sys.stderr)
        return EXIT_REJECTED
    _emit(_format_models(models), args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.mlcm:
        verdict = is_mlcm(read_matrix(args.mlcm), args.tol)
        if verdict:
            print(f"valid coefficient matrix (residual {verdict.residual:.3g})")
            return EXIT_OK
        print(f"invalid: {verdict.reason} (residual {verdict.residual:.3g})")
        return EXIT_REJECTED
    if args.rmwm:
        analysis = _analysis(read_matrix(args.rmwm))
        if not analysis.is_mlcm(args.tol):
            print("invalid: not a coefficient matrix of any model")
            return EXIT_REJECTED
        verdict = analysis.is_rmwm(args.tol)
        if verdict:
            print(f"valid max-weighted coefficient matrix (residual {verdict.residual:.3g})")
            return EXIT_OK
        print(f"invalid: max-weighted identities fail (residual {verdict.residual:.3g})")
        return EXIT_REJECTED
    # --tdm-on-dag
    chi = read_matrix(args.chi)
    if args.model:
        dag = read_model(args.model).dag
    else:
        reach = read_matrix(args.reachability)
        dag = transitive_reduction(dag_from_reachability(reach))
    result = check_rmwm_tdm(dag, chi, args.tol)
    if result.ok:
        diag = ",".join(f"{v:.12g}" for v in result.diag)
        print(f"valid tail dependence matrix on this DAG (diagonal {diag})")
        return EXIT_OK
    for failure in result.failures:
        print(f"invalid: {failure}")
    return EXIT_REJECTED


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.out is None and args.u is None:
        raise ValidationError(
            "nothing to do: pass --out for samples and/or --u for an empirical "
            "tail dependence matrix"
        )
    model = read_model(args.model)
    noise = NoiseSpec(args.noise, model.alpha)
    block = sample(model, noise, args.n, args.seed)
    if args.out:
        write_matrix(block.values, args.out)
    if args.u is not None:
        _emit_matrix(empirical_tdm(block, args.u), args.chi_out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        lo, hi = (float(p) for p in args.weight_range.split(","))
    except ValueError as exc:
        raise FormatError(f"--weight-range expects LO,HI, got {args.weight_range!r}") from exc
    model = random_weighted_model(
        args.d,
        density=args.density,
        weight_range=(lo, hi),
        alpha=args.alpha,
        seed_or_rng=args.seed,
        polytree=args.polytree,
        homogeneous=args.homogeneous,
    )
    _emit(dumps_model(model), args.out)
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    _emit(model_to_dot(read_model(args.model)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlindag",
        description="Recursive max-linear models on DAGs: tail dependence and identifiability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="numerical tolerance")

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("tdm", help="tail dependence matrix of a model file")
    p.add_argument("--model", required=True)
    add_out(p)
    p.set_defaults(func=cmd_tdm)

    p = sub.add_parser("standardize", help="standardize a coefficient matrix")
    p.add_argument("matrix", help="CSV coefficient matrix")
    p.add_argument("--alpha", type=float, required=True, help="tail index")
    add_out(p)
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("recover", help="recover the standardized coefficient matrix from chi")
    p.add_argument("--chi", required=True, help="CSV tail dependence matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--reachability", help="CSV 0/1 reachability matrix")
    group.add_argument("--ordering", help="nodes in causal order, e.g. 1,2,3")
    group.add_argument("--initials", help="initial nodes, e.g. 1,2 (max-weighted recovery)")
    add_tol(p)
    add_out(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("enumerate", help="all standardized coefficient matrices with this chi")
    p.add_argument("--chi", required=True, help="CSV tail dependence matrix")
    p.add_argument("--rmwm", action="store_true", help="enumerate max-weighted models only")
    p.add_argument("--max-d", type=int, default=10, help="refusal cap for the general search")
    add_tol(p)
    add_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="validity checks for matrices")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mlcm", help="CSV matrix: is it a coefficient matrix of a model?")
    group.add_argument("--rmwm", help="CSV matrix: is it a coefficient matrix of a max-weighted model?")
    group.add_argument("--tdm-on-dag", action="store_true",
                       help="is --chi the tail dependence matrix of a max-weighted model "
                            "on the DAG given by --reachability or --model?")
    p.add_argument("--chi", help="CSV tail dependence matrix (with --tdm-on-dag)")
    p.add_argument("--reachability", help="CSV 0/1 reachability matrix (with --tdm-on-dag)")
    p.add_argument("--model", help="model file providing the DAG (with --tdm-on-dag)")
    add_tol(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="draw samples and estimate the tail dependence matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--noise", choices=["pareto", "frechet"], default="frechet")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, required=True, help="random seed (mandatory)")
    p.add_argument("--u", type=float, default=None, help="quantile level for the estimate")
    p.add_argument("--chi-out", default=None, help="write the estimate to this file")
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("d", type=int, help="number of nodes")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--weight-range", default="0.5,2.0")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True, help="random seed (mandatory)")
    p.add_argument("--polytree", action="store_true", help="draw a random polytree")
    p.add_argument("--homogeneous", action="store_true",
                   help="use ancestor-count weights (max-weighted on any DAG)")
    add_out(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="DOT export of a model's DAG with weight labels")
    p.add_argument("--model", required=True)
    add_out(p)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code else EXIT_OK
    if args.command == "check" and args.tdm_on_dag:
        if not args.chi or not (args.reachability or args.model):
            parser.print_usage(sys.stderr)
            print(
                "error: --tdm-on-dag requires --chi and one of --reachability/--model",
                file=sys.stderr,
            )
            return EXIT_MALFORMED
    try:
        return args.func(args)
    except (FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (PatternMismatchError, NotRealizableError, IllConditionedError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
