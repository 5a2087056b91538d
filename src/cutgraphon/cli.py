"""Command-line front end.

Subcommands
-----------
sample      draw a graph from a step-graphon model
estimate    fit a probability matrix to an observed adjacency matrix
cutnorm     cut norm of a matrix record (exact, heuristic, or sandwich)
distance    rearrangement distance between two step graphons
regularity  greedy weak-regularity decomposition of a step graphon
packing     build a well-separated family and write it to a directory
risk        Monte Carlo risk experiment from a key=value config file
slope       log-log rate slope fitted to a risk CSV

Exit codes: 0 success, 2 invalid input, 3 exhausted compute budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    format_matrix,
    load_matrix,
    load_stepgraphon,
    save_matrix,
)
from .cutnorm import (
    cut_norm_sandwich_check,
    matrix_cut_norm_exact,
    matrix_cut_norm_heuristic,
)
from .distance import METRICS as DISTANCE_METRICS
from .distance import delta_exact_tiny, delta_upper
from .errors import BudgetError, ValidationError
from .estimate import (
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    fit_to_prob_matrix,
)
from .experiments import (
    ESTIMATORS,
    TRANSFORMS,
    default_model,
    emit,
    fit_rate_slope,
    parse_config,
    parse_csv,
    run_risk_experiment,
)
from .packing import graphon_packing, matrix_packing, save_packing_family
from .regularity import weak_regularity_approx
from .sampling import AdjacencyMatrix, ModelSpec, sample_graph


class _Given(argparse.Action):
    """Store the value and record the option in ``args.given``.

    For options that one branch of a handler reads and another ignores:
    the handler rejects them on the branch that would ignore them.
    """

    def __call__(self, parser, namespace, values, option_string):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.option_strings[0]}


def _reject_given(args, branch: str, ignored=None) -> None:
    """Reject the given options (those in `ignored` only, when it is set)
    as read only on `branch`."""
    given = set(getattr(args, "given", ()))
    given = sorted(given if ignored is None else given & ignored)
    if given:
        raise ValidationError(f"options used only with {branch}: {', '.join(given)}")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_model(args) -> ModelSpec:
    if args.graphon:
        _reject_given(args, "the built-in model (no --graphon)")
        return ModelSpec(load_stepgraphon(args.graphon), args.rho)
    return default_model(args.k, args.rho)


def _cmd_sample(args) -> int:
    spec = _load_model(args)
    _, theta, A = sample_graph(spec, args.n, seed=args.seed, clip=args.clip)
    if args.theta:
        save_matrix(theta, args.theta)
    _write_or_print(format_matrix(A), args.out)
    if args.out:
        print(f"sampled n={args.n} rho={args.rho} edges={int(A.values.sum() // 2)} -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    if args.estimator != "rls":
        _reject_given(args, "--estimator rls")
    A = AdjacencyMatrix(load_matrix(args.input))
    if args.estimator == "adjacency":
        phat = estimate_adjacency(A)
        note = "adjacency"
    elif args.estimator == "mean":
        phat = estimate_mean(A)
        note = f"mean value={phat.values.max():.6g}"
    elif args.estimator == "svt":
        est = estimate_svt(A)
        phat = est.prob
        note = f"svt kept={est.kept} threshold={est.threshold:.4g}"
    else:
        fit = estimate_restricted_ls(A, args.k, rho=args.rho,
                                     restarts=args.restarts, seed=args.seed)
        phat = fit_to_prob_matrix(fit)
        note = f"rls k={fit.k} objective={fit.objective:.6g}"
    _write_or_print(format_matrix(phat), args.out)
    if args.out:
        print(f"estimated {note} -> {args.out}")
    return 0


def _cmd_cutnorm(args) -> int:
    B = load_matrix(args.input)
    if args.mode == "exact":
        _reject_given(args, "--mode heuristic or sandwich")
        res = matrix_cut_norm_exact(B)
    elif args.mode == "heuristic":
        res = matrix_cut_norm_heuristic(B, restarts=args.restarts, seed=args.seed)
    else:
        s = cut_norm_sandwich_check(B, seed=args.seed, restarts=args.restarts)
        print(f"cut={s.cut.value!r} inf1={s.inf1.value!r} satisfied={s.satisfied}")
        return 0
    print(f"value={res.value!r} method={res.method} "
          f"witness_sizes={len(res.witness_s)},{len(res.witness_t)}")
    return 0


def _cmd_distance(args) -> int:
    W1 = load_stepgraphon(args.a)
    W2 = load_stepgraphon(args.b)
    if args.exact:
        _reject_given(args, "the alignment search (no --exact)")
        est = delta_exact_tiny(W1, W2, metric=args.metric)
    else:
        est = delta_upper(W1, W2, metric=args.metric, m=args.m,
                          restarts=args.restarts, seed=args.seed)
    print(f"upper={est.upper!r} metric={est.metric} m={est.m} method={est.method}")
    return 0


def _cmd_regularity(args) -> int:
    W = load_stepgraphon(args.input)
    approx, decomp = weak_regularity_approx(W, args.q0)
    for i, t in enumerate(decomp.terms):
        print(f"term {i}: coefficient={t.coefficient:+.6g} "
              f"rect={len(t.rows)}x{len(t.cols)} cut_before={t.residual_cut:.6g} "
              f"energy {t.energy_before:.6g} -> {t.energy_after:.6g}")
    print(f"terms={len(decomp.terms)} target={decomp.target:.6g} "
          f"final_cut={decomp.final_cut:.6g} stopped_early={decomp.stopped_early}")
    if args.out:
        save_matrix(approx.values, args.out)
        print(f"approximant values -> {args.out}")
    return 0


def _cmd_packing(args) -> int:
    if args.kind == "matrix":
        _reject_given(args, "--kind graphon", {"--k"})
        fam = matrix_packing(args.n, args.rho, seed=args.seed)
    else:
        _reject_given(args, "--kind matrix", {"--rho"})
        fam = graphon_packing(args.k, args.n, seed=args.seed)
    print(f"kind={fam.kind} count={len(fam.elements)} epsilon={fam.epsilon!r} "
          f"klBudget={fam.kl_budget!r} separationLower={fam.separation_lower!r} "
          f"fanoReady={fam.fano_ready}")
    if args.out:
        save_packing_family(fam, args.out)
        print(f"family -> {args.out}")
    return 0


def _cmd_risk(args) -> int:
    if not args.config:
        print("risk requires --config", file=sys.stderr)
        return 2
    cfg = parse_config(Path(args.config).read_text())
    report = run_risk_experiment(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    emit(report, "csv", outdir / "risk.csv")
    emit(report, "svg", outdir / "risk.svg")
    for msg in report.failures:
        print(f"cell failed: {msg}", file=sys.stderr)
    print(f"rows={len(report.rows)} failures={len(report.failures)} -> "
          f"{outdir / 'risk.csv'} {outdir / 'risk.svg'}")
    return 0


def _cmd_slope(args) -> int:
    report = parse_csv(Path(args.input).read_text())
    slope, r2 = fit_rate_slope(report, args.varying,
                               transform=TRANSFORMS[args.transform],
                               estimator=args.estimator, metric=args.metric)
    print(f"slope={slope!r} r2={r2!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cutgraphon", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw a graph from a step-graphon model")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="adjacency record; stdout if omitted")
    s.add_argument("--graphon", help="step-graphon record to sample from")
    s.add_argument("--k", type=int, default=2, action=_Given,
                   help="built-in banded model size")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--rho", type=float, default=1.0)
    s.add_argument("--clip", action="store_true",
                   help="clip scaled probabilities into [0,1]")
    s.add_argument("--theta", help="also save the edge-probability matrix here")
    s.set_defaults(func=_cmd_sample)

    s = sub.add_parser("estimate", help="fit a probability matrix to an adjacency record")
    s.add_argument("--seed", type=int, default=0, action=_Given)
    s.add_argument("--out", help="probability-matrix record; stdout if omitted")
    s.add_argument("--input", required=True, help="adjacency matrix record")
    s.add_argument("--estimator", choices=ESTIMATORS, default="svt")
    s.add_argument("--k", type=int, default=2, action=_Given, help="block count for rls")
    s.add_argument("--rho", type=float, default=1.0, action=_Given)
    s.add_argument("--restarts", type=int, default=4, action=_Given)
    s.set_defaults(func=_cmd_estimate)

    s = sub.add_parser("cutnorm", help="cut norm of a matrix record")
    s.add_argument("--seed", type=int, default=0, action=_Given)
    s.add_argument("--input", required=True)
    s.add_argument("--mode", choices=("exact", "heuristic", "sandwich"),
                   default="heuristic")
    s.add_argument("--restarts", type=int, default=32, action=_Given)
    s.set_defaults(func=_cmd_cutnorm)

    s = sub.add_parser("distance", help="rearrangement distance between two step graphons")
    s.add_argument("--seed", type=int, default=0, action=_Given)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--metric", choices=DISTANCE_METRICS, default="cut")
    s.add_argument("--m", type=int, default=None, action=_Given, help="common blow-up size")
    s.add_argument("--restarts", type=int, default=32, action=_Given)
    s.add_argument("--exact", action="store_true",
                   help="enumerate all alignments (tiny inputs only)")
    s.set_defaults(func=_cmd_distance)

    s = sub.add_parser("regularity", help="greedy weak-regularity decomposition")
    s.add_argument("--out", help="also save the approximant's values here")
    s.add_argument("--input", required=True)
    s.add_argument("--q0", type=int, required=True,
                   help="target class count; allows floor(log2 q0) terms")
    s.set_defaults(func=_cmd_regularity)

    s = sub.add_parser("packing", help="well-separated family with KL certificates")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="directory to save the family in")
    s.add_argument("--kind", choices=("matrix", "graphon"), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, default=64, action=_Given,
                   help="block count (graphon kind)")
    s.add_argument("--rho", type=float, default=1.0, action=_Given,
                   help="density scale (matrix kind)")
    s.set_defaults(func=_cmd_packing)

    s = sub.add_parser("risk", help="Monte Carlo risk experiment from a config file")
    s.add_argument("--config", help="key=value config file (required)")
    s.add_argument("--out", default=".", help="output directory (default: the current one)")
    s.set_defaults(func=_cmd_risk)

    s = sub.add_parser("slope", help="log-log rate slope from a risk CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--varying", choices=("n", "k", "rho"), required=True)
    s.add_argument("--transform", choices=sorted(TRANSFORMS), default="identity")
    s.add_argument("--estimator", default=None)
    s.add_argument("--metric", default=None)
    s.set_defaults(func=_cmd_slope)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnicodeDecodeError) as exc:   # an undecodable input file too
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
