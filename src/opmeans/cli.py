"""Command-line surface.

Subcommands: gen, mean, verify, sweep, minimize, lemma-ah. Exit codes:
0 success, 1 usage or input-format error or an output file that cannot be
opened or is named twice (checked before any work), 2 numerical error, 3
a `CounterexampleToTheorem` verdict from verify or sweep. It occurs on
valid pairs: near a commuting pair whose eigenvalue ratios tie, the mean
gap is second order in the commutator gap, so small perturbations of n = 2
pairs get it (ROADMAP item 1). A
command line that names its subcommand first and asks for no help builds
that subcommand's parser alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from . import linalg
from .linalg import DEFAULT_CONFIG, NumericalError, ToleranceConfig
from .matio import load_matrix, matrix_payload, save_json, save_matrix, write_csv
from .means import HpdPair, geometric_mean, heron_mean, wasserstein_mean
from .randgen import FAMILIES, GenSpec, near_commuting_pair, random_commuting_pair, random_hpd
from .sweep import SweepRow, SweepSpec, run_sweep
from .verify import Verdict, ando_hayashi_witness, classify_gaps, minimize_gap, proof_chain_report

__all__ = ["cli_main", "main"]

_MEAN_KINDS = {
    "heron": heron_mean,
    "wasserstein": wasserstein_mean,
    "geometric": geometric_mean,
}

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _config(args) -> ToleranceConfig:
    return DEFAULT_CONFIG if args.tol is None else ToleranceConfig(identity_tol=args.tol)


def _check_outputs(*paths) -> None:
    """Before any work, raise the error `open` would raise on an output
    that is a directory or lies in a missing one, and a usage error on two
    outputs that name one file, creating nothing."""
    named = [path for path in paths if path]
    for path in named:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if len({os.path.realpath(path) for path in named}) < len(named):
        raise _UsageError(f"outputs {' and '.join(named)} name one file")


def _report_payload(report, verdict: Verdict, cfg: ToleranceConfig, seed) -> dict:
    residuals = dict(report.residuals)
    if report.polar_singular:  # r5 is inf, which JSON has no literal for
        residuals["r5"] = None
    return {
        "mean_gap": report.mean_gap,
        "commutator_gap": report.commutator_gap,
        "residuals": residuals,
        "trace_gap": report.trace_gap,
        "polar_singular": report.polar_singular,
        "verdict": verdict.value,
        "tolerances": {"identity_tol": cfg.identity_tol, "positivity_floor": linalg.POSITIVITY_FLOOR,
                       "eig_off_diag_tol": linalg.EIG_OFF_DIAG_TOL, "max_jacobi_sweeps": linalg.MAX_JACOBI_SWEEPS},
        "seed": seed,
    }


def _cmd_gen(args) -> int:
    family = args.family.replace("-", "_")
    spec = GenSpec(dim=args.n, seed=args.seed, cond_target=args.cond, family=family,
                   epsilon=args.epsilon if family == "near_commuting" else 0.0)
    generic = family == "generic"
    outs, needs = (([args.out], "--out") if generic
                   else ([args.out_a, args.out_b], "--out-a and --out-b"))
    if None in outs:
        raise _UsageError(f"gen --family {args.family} needs {needs}")
    _check_outputs(*outs)
    _config(args)  # refuses a bad --tol, though no draw reads it
    if generic:
        mats = [random_hpd(spec)]
    else:
        pair = (random_commuting_pair(spec) if family == "commuting"
                else near_commuting_pair(spec))
        mats = [pair.a, pair.b]
    for path, m in zip(outs, mats):
        save_matrix(path, m)
    return 0


def _cmd_mean(args) -> int:
    _check_outputs(args.out)
    cfg = _config(args)
    pair = HpdPair.validated(load_matrix(args.a), load_matrix(args.b), cfg)
    result = _MEAN_KINDS[args.kind](pair)
    save_matrix(args.out, result)
    return 0


def _cmd_verify(args) -> int:
    _check_outputs(args.out)
    cfg = _config(args)
    pair = HpdPair.validated(load_matrix(args.a), load_matrix(args.b), cfg)
    report = proof_chain_report(pair)
    verdict = classify_gaps(report.mean_gap, report.commutator_gap, cfg)
    text = save_json(args.out, _report_payload(report, verdict, cfg, args.seed))
    if args.out is None:
        sys.stdout.write(text)
    return 3 if verdict is Verdict.COUNTEREXAMPLE_TO_THEOREM else 0


def _cmd_sweep(args) -> int:
    _check_outputs(args.out)
    cfg = _config(args)
    try:
        epsilons = tuple(float(tok) for tok in args.epsilons.split(","))
    except ValueError as exc:
        raise _UsageError(f"--epsilons must be a comma-separated list of numbers: {exc}") from exc
    base = GenSpec(dim=args.n, seed=args.seed, cond_target=args.cond, family="near_commuting")
    spec = SweepSpec(base=base, epsilons=epsilons, trials_per_epsilon=args.trials)
    rows = run_sweep(spec, cfg)
    header = [f.name for f in dataclasses.fields(SweepRow)]
    write_csv(args.out, header, [dataclasses.astuple(r) for r in rows])
    counterexamples = sum(r.verdict == Verdict.COUNTEREXAMPLE_TO_THEOREM.value for r in rows)
    return 3 if counterexamples else 0


def _cmd_minimize(args) -> int:
    _check_outputs(args.out, args.out_b)
    cfg = _config(args)
    a = load_matrix(args.a)
    b0 = load_matrix(args.b0)
    trace = minimize_gap(a, b0, cfg, budget=args.budget)
    write_csv(
        args.out,
        ["step", "mean_gap", "commutator_gap", "objective"],
        trace.iterates,
    )
    if args.out_b is not None:
        save_matrix(args.out_b, trace.final_b)
    if trace.no_descent:
        print("warning: line search stalled before the budget was used", file=sys.stderr)
    return 0


def _cmd_lemma_ah(args) -> int:
    _check_outputs(args.out)
    cfg = _config(args)
    report = ando_hayashi_witness(load_matrix(args.x), load_matrix(args.y), cfg)
    payload = {
        "triangle_residual": report.triangle_residual,
        "factor_residual_x": report.factor_residuals[0],
        "factor_residual_y": report.factor_residuals[1],
        "witness": matrix_payload(report.witness),
    }
    text = save_json(args.out, payload)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, or, given a subcommand's name, one that knows only
    that subcommand and parses its command lines as the full one does."""
    parser = _Parser(prog="opmeans", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)
    built = []

    def add(name, handler, help):  # None for a subcommand not built
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        built.append(p)
        return p

    if p := add("gen", _cmd_gen, "generate matrices from a seeded spec"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cond", type=float, default=10.0,
                       help="target ratio of largest to smallest eigenvalue")
        p.add_argument("--family", choices=sorted(f.replace("_", "-") for f in FAMILIES), default="generic")
        p.add_argument("--epsilon", type=float, default=0.0,
                       help="perturbation size for --family near-commuting")
        p.add_argument("--out", default=None, help="output file (generic family)")
        p.add_argument("--out-a", dest="out_a", default=None, help="output for A (pair families)")
        p.add_argument("--out-b", dest="out_b", default=None, help="output for B (pair families)")

    if p := add("mean", _cmd_mean, "compute a mean of two matrices"):
        p.add_argument("--kind", choices=sorted(_MEAN_KINDS), required=True)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--out", required=True)

    if p := add("verify", _cmd_verify, "full gap report and verdict for a pair"):
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--out", default=None, help="report file (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed recorded in the report")

    if p := add("sweep", _cmd_sweep, "near-commuting sweep over epsilon, CSV output"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cond", type=float, default=10.0)
        p.add_argument("--epsilons", required=True, help="comma-separated, strictly increasing")
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--out", required=True)

    if p := add("minimize", _cmd_minimize, "descend the squared mean gap over B"):
        p.add_argument("--a", required=True)
        p.add_argument("--b0", required=True)
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--out", required=True, help="trajectory CSV")
        p.add_argument("--out-b", dest="out_b", default=None, help="final B matrix file")

    if p := add("lemma-ah", _cmd_lemma_ah, "common polar factor from a triangle equality"):
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        p.add_argument("--out", default=None, help="report file (default: stdout)")

    if not built:  # not a subcommand's name
        return build_parser()
    for p in built:  # every subcommand's last option
        p.add_argument("--tol", type=float, default=None,
                       help="override the identity tolerance (default 1e-10)")
    return parser


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # help (-h, or a prefix of --help) is always printed by the full parser
    asks_help = any(arg.startswith(("-h", "--h")) for arg in argv)
    parser = build_parser(None if asks_help or not argv else argv[0])
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be opened; inputs raise ValueError
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
