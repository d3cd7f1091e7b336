"""Command-line workbench tying the library together.

Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 numerical or
generation failure. Every command prints a one-line summary and optionally
writes its full report to --out.
"""
from __future__ import annotations

import argparse
import sys

from . import fileio
from .characterization import verify_characterization
from .errors import (
    CharacterizationError,
    InvalidParameterError,
    LiftLabError,
)
from .expansion import cheeger_check, eml_check
from .experiments import (
    FAMILIES,
    default_threads,
    exhaustive_signing_search,
    greedy_lift_growth,
    lemma_inequality_spot_check,
    run_lift_trials,
)
from .graphs import adjacency_matrix, disjoint_copies
from .lifts import (
    ShiftAssignment,
    build_lift,
    random_k_lift,
    random_shift_lift,
    shift_to_assignment,
    signing_to_assignment,
    random_signing,
)
from .spectra import eig_symmetric, lambda_nontrivial

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="graph lifts, their spectra, and lift experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a base graph and write its edge list")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--m", type=int, help="part/clique size for complete families")
    p.add_argument("--n", type=int, help="vertex count for cycle/random_regular")
    p.add_argument("--d", type=int, help="degree for random_regular")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lift", help="build a lift of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--assignment", help="existing assignment file")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["two_lift", "shift_lift", "k_lift"],
                   default="shift_lift")
    p.add_argument("--out", required=True)
    p.add_argument("--save-assignment", dest="save_assignment")

    p = sub.add_parser("spec", help="write the adjacency spectrum of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify-shift", help="check the shift-lift spectral identity")
    p.add_argument("--graph", required=True)
    p.add_argument("--shifts", help="comma-separated shifts in base-edge order")
    p.add_argument("--k", type=int)
    p.add_argument("--assignment", help="assignment file with shift lines")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")

    p = sub.add_parser("eml", help="mixing-bound check over subset pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bipartite", action="store_true",
                   help="exclude -d from lambda (bound may then fail)")
    p.add_argument("--out")

    p = sub.add_parser("cheeger", help="two-sided expansion bound check")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("mc", help="run a Monte-Carlo lift campaign from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--base", help="override the base-graph spec string")
    p.add_argument("--copies", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["two_lift", "shift_lift"])
    p.add_argument("--constants", help="comma-separated bound constants")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--threads", type=int)

    p = sub.add_parser("search-signing", help="exhaustive minimum signing radius")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("grow", help="greedy iterated lift growth")
    p.add_argument("--graph", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("lemma-check", help="sign-sum inequality spot check")
    p.add_argument("--graph", required=True)
    p.add_argument("--which", choices=["lemma3", "lemma4"], required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def _gen(args) -> int:
    make, params = FAMILIES[args.family]
    values = [getattr(args, p) for p in params]
    missing = [f"--{p}" for p, value in zip(params, values) if value is None]
    if missing:
        raise InvalidParameterError(f"{args.family} needs {' and '.join(missing)}")
    g = make(*values)
    if args.copies > 1:
        g = disjoint_copies(g, args.copies)
    fileio.write_graph(g, args.out)
    print(f"wrote {args.family} graph n={g.n} d={g.d} edges={g.num_edges} to {args.out}")
    return EXIT_OK


def _lift(args) -> int:
    g = fileio.read_graph(args.graph)
    if args.assignment:
        a = fileio.read_assignment(args.assignment)
        if isinstance(a, ShiftAssignment):
            a = shift_to_assignment(a)
    elif args.mode == "two_lift":
        a = signing_to_assignment(random_signing(g, args.seed))
    elif args.mode == "shift_lift":
        a = shift_to_assignment(random_shift_lift(g, args.k, args.seed))
    else:
        a = random_k_lift(g, args.k, args.seed)
    lifted = build_lift(g, a)
    fileio.write_graph(lifted.graph, args.out)
    if args.save_assignment:
        fileio.write_assignment(a, args.save_assignment)
    print(f"wrote k={a.k} lift n={lifted.graph.n} d={lifted.graph.d} to {args.out}")
    return EXIT_OK


def _spec(args) -> int:
    g = fileio.read_graph(args.graph)
    spec = eig_symmetric(adjacency_matrix(g))
    text = fileio.spectrum_to_text(spec)
    if args.out:
        fileio.write_text(text, args.out)
    else:
        sys.stdout.write(text)
    lam = lambda_nontrivial(spec, g.d)
    print(f"n={g.n} d={g.d} lambda1={spec.values[0]:.12g} lambda={lam:.12g}")
    return EXIT_OK


def _verify_shift(args) -> int:
    g = fileio.read_graph(args.graph)
    if args.assignment:
        sa = fileio.read_assignment(args.assignment)
        if not isinstance(sa, ShiftAssignment):
            raise InvalidParameterError("verify-shift needs a shift assignment")
    else:
        if args.shifts is None or args.k is None:
            raise InvalidParameterError("need --shifts and --k (or --assignment)")
        shifts = tuple(int(tok) for tok in args.shifts.split(","))
        sa = ShiftAssignment(args.k, shifts)
    try:
        report = verify_characterization(g, sa, tol=args.tol)
    except CharacterizationError as exc:
        print(f"characterization FAILED: {exc}")
        return EXIT_CHECK_FAILED
    if args.out:
        fileio.write_text(fileio.characterization_report_text(report), args.out)
    print(
        "characterization holds: "
        f"mismatch={report.max_multiset_mismatch:.3e} "
        f"residual={report.max_eigenvector_residual:.3e} "
        f"cross_inner={report.max_cross_root_inner:.3e}"
    )
    return EXIT_OK


def _eml(args) -> int:
    g = fileio.read_graph(args.graph)
    spec = eig_symmetric(adjacency_matrix(g))
    lam = lambda_nontrivial(spec, g.d, bipartite=args.bipartite)
    report = eml_check(g, lam, method=args.method, samples=args.samples, seed=args.seed)
    if args.out:
        fileio.write_text(fileio.mixing_report_text(report), args.out)
    status = "ok" if report.passed else "VIOLATED"
    print(f"mixing check {status}: max_ratio={report.max_ratio:.12g} lambda={lam:.12g}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cheeger(args) -> int:
    g = fileio.read_graph(args.graph)
    report = cheeger_check(g)
    if args.out:
        fileio.write_text(fileio.cheeger_report_text(report), args.out)
    status = "ok" if report.passed else "VIOLATED"
    print(
        f"cheeger check {status}: {report.lower:.12g} <= h={report.h:.12g} "
        f"<= {report.upper:.12g}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _mc(args) -> int:
    overrides = {"base": args.base, "copies": args.copies, "trials": args.trials,
                 "seed": args.seed, "k": args.k, "mode": args.mode,
                 "constants": args.constants}
    cfg = fileio.read_config(args.config, overrides)
    threads = args.threads if args.threads else default_threads()
    report = run_lift_trials(cfg, threads=threads)
    if args.out:
        fileio.write_text(fileio.experiment_report_text(report), args.out)
    if args.csv:
        fileio.write_text(fileio.experiment_report_csv(report), args.csv)
    done = cfg.trials - report.failed
    print(
        f"{cfg.mode} campaign: {done}/{cfg.trials} trials ok, lambda={report.lam:.6g}, "
        f"median lambda_new={dict(report.quantiles)['median']:.6g}"
    )
    if report.failed:
        return EXIT_NUMERICAL
    return EXIT_OK


def _search_signing(args) -> int:
    g = fileio.read_graph(args.graph)
    result = exhaustive_signing_search(g)
    if args.out:
        fileio.write_text(fileio.signing_search_report_text(result), args.out)
    print(
        f"min ||A_s|| = {result.min_radius:.12g} over {result.num_signings} signings "
        f"({result.num_classes} switching classes); "
        f"2*sqrt(d-1) = {result.ramanujan_bound:.12g}; "
        f"within: {'yes' if result.within_bound else 'no'}"
    )
    return EXIT_OK


def _grow(args) -> int:
    g = fileio.read_graph(args.graph)
    traj = greedy_lift_growth(g, args.levels, args.samples, args.k, args.seed)
    if args.out:
        fileio.write_text(fileio.growth_report_text(traj), args.out)
    last = traj.records[-1]
    note = " (truncated)" if traj.truncated else ""
    print(
        f"grew to n={last.n} lambda={last.lam:.6g} after "
        f"{len(traj.records) - 1} levels{note}"
    )
    return EXIT_OK


def _lemma_check(args) -> int:
    g = fileio.read_graph(args.graph)
    report = lemma_inequality_spot_check(g, args.trials, args.seed, args.which)
    if args.out:
        fileio.write_text(fileio.spot_check_report_text(report), args.out)
    if report.not_applicable:
        print(f"{args.which}: no admissible vectors for n={g.n} d={g.d}")
        return EXIT_OK
    print(
        f"{args.which}: {report.violations}/{report.trials} violations, "
        f"max lhs/rhs = {report.max_ratio:.6g}"
    )
    return EXIT_OK if report.violations == 0 else EXIT_CHECK_FAILED


_HANDLERS = {
    "gen": _gen,
    "lift": _lift,
    "spec": _spec,
    "verify-shift": _verify_shift,
    "eml": _eml,
    "cheeger": _cheeger,
    "mc": _mc,
    "search-signing": _search_signing,
    "grow": _grow,
    "lemma-check": _lemma_check,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CharacterizationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LiftLabError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
