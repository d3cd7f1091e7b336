"""Command-line workbench tying the library together.

Every command runs the same way: dispatch checks that each output path given
names a file in an existing directory, reads the edge list at --graph if it
takes one, the handler returns its exit code, outputs and summary line, and
dispatch writes each output whose option was given, then prints the summary
(`spec` without --out writes the spectrum to stdout). Exit codes: 0 success,
1 check failure, 2 usage or input error, 3 numerical or generation failure.
"""
from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time

from . import fileio
from .characterization import lambda_nontrivial_sparse, verify_characterization
from .errors import CharacterizationError, InvalidParameterError, LiftLabError
from .expansion import cheeger_check, eml_check
from .experiments import (FAMILIES, exhaustive_signing_search, greedy_lift_growth,
                          lemma_inequality_spot_check, run_lift_trials)
from .graphs import RegularGraph, adjacency_matrix, disjoint_copies
from .lifts import (LiftAssignment, ShiftAssignment, build_lift, check_lift_order,
                    random_k_lift, random_shift_lift, random_signing, shift_to_assignment,
                    signing_to_assignment)
from .spectra import eig_symmetric, lambda_nontrivial

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
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
    p.add_argument("--copies", type=_positive_int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lift", help="build a lift of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--assignment", help="existing assignment file")
    p.add_argument("--k", type=int, help="default: the assignment's k, else 2")
    p.add_argument("--seed", type=int, help="default: 0; not with --assignment")
    p.add_argument("--mode", choices=["two_lift", "shift_lift", "k_lift"],
                   help="default: shift_lift; not with --assignment")
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
    p.add_argument("--samples", type=int, help="sampled only")
    p.add_argument("--seed", type=int, help="sampled only; default: 0")
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
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="processes that run trials, this one included (default: 1)")

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
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def _gen(args, _):
    make, params = FAMILIES[args.family]
    values = [getattr(args, p) for p in params]
    missing = [f"--{p}" for p, value in zip(params, values) if value is None]
    if missing:
        raise InvalidParameterError(f"{args.family} needs {' and '.join(missing)}")
    extra = [f"--{p}" for p in ("m", "n", "d") if p not in params and getattr(args, p) is not None]
    if extra:
        raise InvalidParameterError(f"{args.family} does not take {', '.join(extra)}")
    g = make(*values)
    if args.copies > 1:
        g = disjoint_copies(g, args.copies)
    return EXIT_OK, {"out": g}, (
        f"wrote {args.family} graph n={g.n} d={g.d} edges={g.num_edges} to {args.out}")


def _read_assignment(args):
    """The --assignment file, whose k an explicit --k must equal."""
    a = fileio.read_assignment(args.assignment)
    if args.k not in (None, a.k):
        raise InvalidParameterError(f"--k {args.k} conflicts with the assignment's k={a.k}")
    return a


def _lift(args, g):
    k = 2 if args.k is None else args.k
    seed = 0 if args.seed is None else args.seed
    if args.assignment:
        for option in ("mode", "seed"):
            if getattr(args, option) is not None:
                raise InvalidParameterError(f"--{option} conflicts with --assignment")
        a = _read_assignment(args)
        check_lift_order(g.n, a.k)  # before a shift file's (m, k) permutations
        if isinstance(a, ShiftAssignment):
            a = shift_to_assignment(a)
    elif args.mode == "two_lift":
        if k != 2:
            raise InvalidParameterError(f"--k {k} conflicts with --mode two_lift (k=2)")
        a = signing_to_assignment(random_signing(g, seed))
    else:
        check_lift_order(g.n, k)  # before any (m, k) array
        if args.mode == "k_lift":
            a = random_k_lift(g, k, seed)
        else:  # shift_lift, the default
            a = shift_to_assignment(random_shift_lift(g, k, seed))
    h = build_lift(g, a).graph
    return EXIT_OK, {"out": h, "save_assignment": a}, (
        f"wrote k={a.k} lift n={h.n} d={h.d} to {args.out}")


def _spec(args, g):
    spec = eig_symmetric(adjacency_matrix(g))
    text = fileio.spectrum_to_text(spec)
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK, {"out": text}, (f"n={g.n} d={g.d} lambda1={spec.values[0]:.12g} "
                                    f"lambda={lambda_nontrivial(spec, g.d):.12g}")


def _mc(args, _):
    overrides = {"base": args.base, "copies": args.copies, "trials": args.trials,
                 "seed": args.seed, "k": args.k, "mode": args.mode,
                 "constants": args.constants}
    cfg = fileio.read_config(args.config, overrides)
    started = time.perf_counter()
    report = run_lift_trials(cfg, threads=args.threads)
    wall = time.perf_counter() - started
    outputs = {"out": fileio.experiment_report_text(report),
               "csv": fileio.experiment_report_csv(report)}
    done = cfg.trials - report.failed
    return EXIT_NUMERICAL if report.failed else EXIT_OK, outputs, (
        f"{cfg.mode} campaign: {done}/{cfg.trials} trials ok, lambda={report.lam:.6g}, "
        f"median lambda_new={dict(report.quantiles)['median']:.6g}, "
        f"{report.workers} worker{'s' if report.workers > 1 else ''}, "
        f"{cfg.trials / wall:.3g} trials/s"
    )


def _verify_shift(args, g):
    if args.assignment:
        if args.shifts is not None:
            raise InvalidParameterError("--shifts conflicts with --assignment")
        sa = _read_assignment(args)
        if not isinstance(sa, ShiftAssignment):
            raise InvalidParameterError("verify-shift needs a shift assignment")
    else:
        if args.shifts is None or args.k is None:
            raise InvalidParameterError("need --shifts and --k (or --assignment)")
        try:
            shifts = tuple(int(tok) for tok in args.shifts.split(","))
        except ValueError as exc:  # int() names the token: "... base 10: 'x'"
            raise InvalidParameterError(f"--shifts: {exc}") from None
        sa = ShiftAssignment(args.k, shifts)
    try:
        r = verify_characterization(g, sa, tol=args.tol)
    except CharacterizationError as exc:
        return EXIT_CHECK_FAILED, {}, f"characterization FAILED: {exc}"
    return EXIT_OK, {"out": fileio.characterization_report_text(r)}, (
        f"characterization holds: mismatch={r.max_multiset_mismatch:.3e} "
        f"residual={r.max_eigenvector_residual:.3e} cross_inner={r.max_cross_root_inner:.3e}"
    )


def _eml(args, g):
    lam = lambda_nontrivial_sparse(g, bipartite=args.bipartite)
    seed = 0 if args.seed is None and args.method == "sampled" else args.seed
    r = eml_check(g, lam, method=args.method, samples=args.samples, seed=seed)
    code, status = (EXIT_OK, "ok") if r.passed else (EXIT_CHECK_FAILED, "VIOLATED")
    return code, {"out": fileio.mixing_report_text(r)}, (
        f"mixing check {status}: max_ratio={r.max_ratio:.12g} lambda={lam:.12g}")


def _cheeger(args, g):
    r = cheeger_check(g)
    code, status = (EXIT_OK, "ok") if r.passed else (EXIT_CHECK_FAILED, "VIOLATED")
    return code, {"out": fileio.cheeger_report_text(r)}, (
        f"cheeger check {status}: {r.lower:.12g} <= h={r.h:.12g} <= {r.upper:.12g}")


def _search_signing(args, g):
    r = exhaustive_signing_search(g)
    return EXIT_OK, {"out": fileio.signing_search_report_text(r)}, (
        f"min ||A_s|| = {r.min_radius:.12g} over {r.num_signings} signings "
        f"({r.num_classes} switching classes); 2*sqrt(d-1) = {r.ramanujan_bound:.12g}; "
        f"within: {'yes' if r.within_bound else 'no'}"
    )


def _grow(args, g):
    traj = greedy_lift_growth(g, args.levels, args.samples, args.k, args.seed)
    last, note = traj.records[-1], " (truncated)" if traj.truncated else ""
    return EXIT_OK, {"out": fileio.growth_report_text(traj)}, (
        f"grew to n={last.n} lambda={last.lam:.6g} after {len(traj.records) - 1} levels{note}"
    )


def _lemma_check(args, g):
    r = lemma_inequality_spot_check(g, args.trials, args.seed, args.which)
    code = EXIT_OK if r.violations == 0 else EXIT_CHECK_FAILED
    summary = (f"no admissible vectors for n={g.n} d={g.d}" if r.not_applicable else
               f"{r.violations}/{r.trials} violations, max lhs/rhs = {r.max_ratio:.6g}")
    return code, {"out": fileio.spot_check_report_text(r)}, f"{args.which}: {summary}"


# command -> handler, which returns (exit code, outputs, summary line); outputs
# maps an output option's dest to the graph, assignment or text to write there
_COMMANDS = {
    "gen": _gen,
    "lift": _lift,
    "spec": _spec,
    "mc": _mc,
    "verify-shift": _verify_shift,
    "eml": _eml,
    "cheeger": _cheeger,
    "search-signing": _search_signing,
    "grow": _grow,
    "lemma-check": _lemma_check,
}

_WRITERS = {RegularGraph: fileio.write_graph, LiftAssignment: fileio.write_assignment,
            str: fileio.write_text}


def dispatch(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        for dest in ("out", "csv", "save_assignment"):  # before any input is read
            path = getattr(args, dest, None)
            if path is not None and not (path and os.path.isdir(os.path.dirname(path) or ".")):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        g = fileio.read_graph(args.graph) if "graph" in args else None
        code, outputs, summary = _COMMANDS[args.command](args, g)
        for dest, value in outputs.items():
            if getattr(args, dest) is not None:  # in order, before the summary
                _WRITERS[type(value)](value, getattr(args, dest))
        print(summary)
        return code
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CharacterizationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LiftLabError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
