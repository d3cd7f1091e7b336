"""Text formats: edge lists, assignments, spectra, configs, and reports.

Everything is line-oriented ASCII. Writers always emit LF; readers accept
CRLF. Floats in reports use repr (shortest round-trip), so identical runs
produce byte-identical artifacts; spectrum files use 15 significant digits.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .characterization import CharacterizationReport
from .errors import FormatError, InvalidParameterError
from .expansion import CheegerReport, ConverseMixingReport, MixingReport
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    GrowthTrajectory,
    SigningSearchResult,
    SpotCheckReport,
)
from .graphs import RegularGraph
from .lifts import LiftAssignment, ShiftAssignment
from .spectra import Spectrum


def _lines(text: str) -> list[str]:
    return [ln.rstrip("\r") for ln in text.split("\n")]


# --------------------------------------------------------------------------
# Edge lists
# --------------------------------------------------------------------------


def graph_to_text(g: RegularGraph) -> str:
    out = [f"{g.n} {g.d}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def graph_from_text(text: str) -> RegularGraph:
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("missing header 'n d'", line=1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"expected 'n d', got {lines[0]!r}", line=1)
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}", line=1) from None
    edges = []
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {ln!r}", line=no)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer edge {ln!r}", line=no) from None
    return RegularGraph(n, d, tuple(edges))


def write_graph(g: RegularGraph, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(graph_to_text(g))


def read_graph(path: str) -> RegularGraph:
    with open(path, "r", newline="") as fh:
        return graph_from_text(fh.read())


# --------------------------------------------------------------------------
# Lift assignments
# --------------------------------------------------------------------------


def assignment_to_text(a: ShiftAssignment | LiftAssignment) -> str:
    if isinstance(a, ShiftAssignment):
        body = [f"shift {s}" for s in a.shifts]
        m = len(a.shifts)
    elif isinstance(a, LiftAssignment):
        body = ["perm " + " ".join(str(i) for i in p) for p in a.perms]
        m = len(a.perms)
    else:
        raise InvalidParameterError(f"not an assignment: {type(a).__name__}")
    return "\n".join([f"{a.k} {m}"] + body) + "\n"


def assignment_from_text(text: str):
    """Parse an assignment; all-shift files load as ShiftAssignment,
    anything containing a perm line loads as LiftAssignment."""
    lines = _lines(text)
    if not lines or not lines[0].strip():
        raise FormatError("missing header 'k m'", line=1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"expected 'k m', got {lines[0]!r}", line=1)
    try:
        k, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}", line=1) from None
    shifts: list[int] = []
    perms: list[tuple[int, ...]] = []
    saw_perm = False
    count = 0
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        count += 1
        if parts[0] == "shift" and len(parts) == 2:
            try:
                s = int(parts[1])
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
            shifts.append(s)
            perms.append(tuple((i + s) % k for i in range(k)))
        elif parts[0] == "perm" and len(parts) == k + 1:
            saw_perm = True
            try:
                perms.append(tuple(int(x) for x in parts[1:]))
            except ValueError:
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
        else:
            raise FormatError(f"expected 'shift s' or 'perm i0..i{k-1}'", line=no)
    if count != m:
        raise FormatError(f"header promised {m} lines, found {count}", line=1)
    if saw_perm:
        return LiftAssignment(k, tuple(perms))
    return ShiftAssignment(k, tuple(shifts))


def write_assignment(a, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(assignment_to_text(a))


def read_assignment(path: str):
    with open(path, "r", newline="") as fh:
        return assignment_from_text(fh.read())


# --------------------------------------------------------------------------
# Spectra
# --------------------------------------------------------------------------


def spectrum_to_text(s: Spectrum) -> str:
    return "".join(f"{v:.15g}\n" for v in s.values)


def write_spectrum(s: Spectrum, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(spectrum_to_text(s))


def read_spectrum(path: str) -> Spectrum:
    with open(path, "r", newline="") as fh:
        vals = [float(ln) for ln in _lines(fh.read()) if ln.strip()]
    return Spectrum(np.asarray(vals))


# --------------------------------------------------------------------------
# Flat key=value configs
# --------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "mode": "two_lift",
    "k": "2",
    "copies": "1",
    "constants": "1,2,3",
}


def parse_config_text(text: str) -> dict:
    out: dict[str, str] = {}
    for no, ln in enumerate(_lines(text), start=1):
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"expected 'key = value', got {ln!r}", line=no)
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(raw: dict) -> ExperimentConfig:
    data = dict(_CONFIG_DEFAULTS)
    data.update(raw)
    for key in ("base", "trials", "seed"):
        if key not in data:
            raise InvalidParameterError(f"config is missing required key {key!r}")
    try:
        constants = tuple(
            float(tok) for tok in data["constants"].split(",") if tok.strip()
        )
        return ExperimentConfig(
            base=data["base"],
            k=int(data["k"]),
            trials=int(data["trials"]),
            base_seed=int(data["seed"]),
            constants=constants,
            mode=data["mode"],
            copies=int(data["copies"]),
        )
    except ValueError as exc:
        raise InvalidParameterError(f"bad config value: {exc}") from exc


def read_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, "r", newline="") as fh:
        raw = parse_config_text(fh.read())
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    return config_from_mapping(raw)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "none"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _values_csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def experiment_report_text(r: ExperimentReport) -> str:
    cfg = r.config
    out = [
        "report = lift_trials",
        f"base = {cfg.base}",
        f"copies = {cfg.copies}",
        f"mode = {cfg.mode}",
        f"k = {cfg.k}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.base_seed}",
        f"constants = {','.join(_fmt(c) for c in cfg.constants)}",
        f"n = {r.n}",
        f"d = {r.d}",
        f"lambda = {_fmt(r.lam)}",
        f"lambda_above_sqrt_d = {_fmt(r.lambda_above_sqrt_d)}",
        f"moderately_expanding = {_fmt(r.moderately_expanding)}",
        f"failed = {r.failed}",
    ]
    for c, frac in r.frac_additive:
        out.append(f"frac lambda_new <= lambda + {_fmt(c)}*sqrt(d) = {_fmt(frac)}")
    for c, frac in r.frac_multiplicative:
        out.append(f"frac lambda_new <= {_fmt(c)}*lambda = {_fmt(frac)}")
    for name, value in r.quantiles:
        out.append(f"quantile {name} = {_fmt(value)}")
    for rec in r.records:
        if rec.error is not None:
            out.append(f"trial {rec.index} seed {rec.seed} failed {rec.error}")
        elif rec.root_radii is not None:
            out.append(
                f"trial {rec.index} seed {rec.seed} lambda_new {_fmt(rec.lambda_new)} "
                f"radii {_values_csv(rec.root_radii)}"
            )
        else:
            out.append(
                f"trial {rec.index} seed {rec.seed} lambda_new {_fmt(rec.lambda_new)}"
            )
    return "\n".join(out) + "\n"


def experiment_report_csv(r: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "seed", "lambda_new"])
    for rec in r.records:
        value = "" if rec.lambda_new is None else repr(float(rec.lambda_new))
        writer.writerow([rec.index, rec.seed, value])
    return buf.getvalue()


def characterization_report_text(r: CharacterizationReport) -> str:
    out = [
        "report = shift_characterization",
        f"k = {r.k}",
        f"n = {len(r.lift_spectrum) // r.k}",
        f"max_multiset_mismatch = {_fmt(r.max_multiset_mismatch)}",
        f"max_eigenvector_residual = {_fmt(r.max_eigenvector_residual)}",
        f"max_cross_root_inner = {_fmt(r.max_cross_root_inner)}",
        f"lift_frobenius_norm = {_fmt(r.lift_frobenius_norm)}",
        f"lift_spectrum = {_values_csv(r.lift_spectrum.values)}",
    ]
    for j, spec in enumerate(r.per_root_spectra):
        out.append(f"root {j} spectrum = {_values_csv(spec.values)}")
    return "\n".join(out) + "\n"


def mixing_report_text(r: MixingReport) -> str:
    out = [
        "report = mixing_check",
        f"method = {r.method}",
        f"lambda = {_fmt(r.lam)}",
        f"max_ratio = {_fmt(r.max_ratio)}",
        f"passed = {_fmt(r.passed)}",
        f"worst_s = {','.join(str(x) for x in sorted(r.worst_s))}",
        f"worst_t = {','.join(str(x) for x in sorted(r.worst_t))}",
    ]
    return "\n".join(out) + "\n"


def cheeger_report_text(r: CheegerReport) -> str:
    out = [
        "report = cheeger_check",
        f"h = {_fmt(r.h)}",
        f"lambda2 = {_fmt(r.lambda2)}",
        f"lower = {_fmt(r.lower)}",
        f"upper = {_fmt(r.upper)}",
        f"passed = {_fmt(r.passed)}",
    ]
    return "\n".join(out) + "\n"


def converse_mixing_report_text(r: ConverseMixingReport) -> str:
    out = [
        "report = converse_mixing",
        f"method = {r.method}",
        f"alpha = {_fmt(r.alpha)}",
        f"lambda = {_fmt(r.lam)}",
        f"alpha_log_shape = {_fmt(r.diagnostic)}",
    ]
    return "\n".join(out) + "\n"


def signing_search_report_text(r: SigningSearchResult) -> str:
    out = [
        "report = signing_search",
        f"num_signings = {r.num_signings}",
        f"num_classes = {r.num_classes}",
        f"min_radius = {_fmt(r.min_radius)}",
        f"ramanujan_bound = {_fmt(r.ramanujan_bound)}",
        f"within_bound = {_fmt(r.within_bound)}",
        f"best_signs = {','.join(str(s) for s in r.best.signs)}",
    ]
    return "\n".join(out) + "\n"


def growth_report_text(t: GrowthTrajectory) -> str:
    out = [
        "report = greedy_growth",
        f"k = {t.k}",
        f"samples_per_level = {t.samples_per_level}",
        f"seed = {t.seed}",
        f"truncated = {_fmt(t.truncated)}",
    ]
    for rec in t.records:
        out.append(
            f"level {rec.level} n {rec.n} lambda {_fmt(rec.lam)} "
            f"lambda_new {_fmt(rec.lambda_new)}"
        )
    return "\n".join(out) + "\n"


def spot_check_report_text(r: SpotCheckReport) -> str:
    out = [
        "report = inequality_spot_check",
        f"which = {r.which}",
        f"trials = {r.trials}",
        f"violations = {r.violations}",
        f"violation_rate = {_fmt(r.violation_rate)}",
        f"max_ratio = {_fmt(r.max_ratio)}",
        f"not_applicable = {_fmt(r.not_applicable)}",
    ]
    return "\n".join(out) + "\n"


def write_text(text: str, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
