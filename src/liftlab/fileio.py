"""Text formats: edge lists, assignments, spectra, configs, and reports.

Everything is line-oriented ASCII. Writers always emit LF; readers accept
CRLF. Floats in reports use repr (shortest round-trip), so identical runs
produce byte-identical artifacts; spectrum files use 15 significant digits.
"""
from __future__ import annotations

import csv
import io
import re

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


def _header(text: str, names: str) -> tuple[int, int, str]:
    """The two integers of the header line, and the body after it."""
    header, _, body = text.partition("\n")
    header = header.rstrip("\r")
    if not header.strip():
        raise FormatError(f"missing header '{names}'", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"expected '{names}', got {header!r}", line=1)
    try:
        return int(parts[0]), int(parts[1]), body
    except ValueError:
        raise FormatError(f"non-integer header {header!r}", line=1) from None


def _table(lines, dtype: np.dtype) -> np.ndarray:
    """All non-blank lines parsed by one numpy call.

    `lines` is a body string or an array of lines. Any whitespace, CR
    included, separates tokens and blank lines are skipped, as in the line
    scan below; a token that is not a decimal int64 or a line whose width
    differs from the others raises ValueError. Rows are 2-d for a plain
    dtype and 1-d records for a structured one; no lines give None.
    """
    if isinstance(lines, str):
        if not lines.strip():
            return None
        lines = io.StringIO(lines.replace("\r", " "))
    elif not len(lines):
        return None
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1 if dtype.names else 2)


_INT64 = re.compile(r"[+-]?[0-9]+")


def _is_int64(token: str) -> bool:
    return _INT64.fullmatch(token) is not None and -(2**63) <= int(token) < 2**63


def _raise_first_bad_line(text: str, check) -> None:
    """Run `check(parts, line, number)` on every non-blank body line, so
    that the first malformed line raises its FormatError."""
    for no, ln in enumerate(_lines(text)[1:], start=2):
        if ln.strip():
            check(ln.split(), ln, no)


# --------------------------------------------------------------------------
# Edge lists
# --------------------------------------------------------------------------


def graph_to_text(g: RegularGraph) -> str:
    body = ("%d %d\n" * g.num_edges) % tuple(g.edge_array.ravel().tolist())
    return f"{g.n} {g.d}\n" + body


def _check_edge_line(parts: list[str], ln: str, no: int) -> None:
    if len(parts) != 2:
        raise FormatError(f"expected 'u v', got {ln!r}", line=no) from None
    if not all(map(_is_int64, parts)):
        raise FormatError(f"non-integer edge {ln!r}", line=no) from None


def graph_from_text(text: str) -> RegularGraph:
    """Parse an edge list. Tokens are decimal int64 integers; the first
    malformed body line raises FormatError with its line number."""
    n, d, body = _header(text, "n d")
    try:
        edges = _table(body, np.dtype(np.int64))
        if edges is None:
            edges = np.empty((0, 2), dtype=np.int64)
        elif edges.shape[1] != 2:
            raise ValueError("a line is not a pair")
    except ValueError:
        _raise_first_bad_line(text, _check_edge_line)
        raise
    return RegularGraph(n, d, edges)


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
        line, values = "shift %d\n", a.shift_array
    elif isinstance(a, LiftAssignment):
        line, values = "perm" + " %d" * a.k + "\n", a.perm_array
    else:
        raise InvalidParameterError(f"not an assignment: {type(a).__name__}")
    m = values.shape[0]
    return f"{a.k} {m}\n" + (line * m) % tuple(values.ravel().tolist())


def _keyword_rows(lines, keyword: str, width: int) -> np.ndarray:
    """The (rows, width) values of lines 'keyword v_1 .. v_width'."""
    table = _table(lines, np.dtype([("word", "U8"), ("values", np.int64, (width,))]))
    if table is None:
        return np.empty((0, width), dtype=np.int64)
    if not np.all(table["word"] == keyword):
        raise ValueError(f"a line does not start with {keyword!r}")
    return table["values"]


def _assignment_rows(body: str, k: int) -> tuple[np.ndarray, bool]:
    """The body's values and whether any line is a perm line: the (m,)
    shifts of an all-shift body, else the (m, k) perms, with each shift
    line s read as the permutation i -> (i + s) mod k."""
    if "perm" not in body:
        return _keyword_rows(body, "shift", 1)[:, 0], False
    if "shift" not in body:
        return _keyword_rows(body, "perm", k), True
    lines = np.array(body.replace("\r", " ").split("\n"))
    words = np.strings.lstrip(lines)
    is_shift = np.strings.startswith(words, "shift")
    is_perm = np.strings.startswith(words, "perm")
    if np.any(~is_shift & ~is_perm & (np.strings.str_len(np.strings.strip(words)) > 0)):
        raise ValueError("a line starts with neither 'shift' nor 'perm'")
    kinds = is_perm[is_shift | is_perm]
    perms = np.empty((kinds.size, k), dtype=np.int64)
    perms[kinds] = _keyword_rows(lines[is_perm], "perm", k)
    shifts = _keyword_rows(lines[is_shift], "shift", 1)
    perms[~kinds] = (shifts + np.arange(k)) % k
    return perms, True


def assignment_from_text(text: str):
    """Parse an assignment; all-shift files load as ShiftAssignment,
    anything containing a perm line loads as LiftAssignment."""
    k, m, body = _header(text, "k m")
    if k < 2:
        raise InvalidParameterError("lift degree k must be >= 2")

    def check_line(parts: list[str], ln: str, no: int) -> None:
        if (parts[0] == "shift" and len(parts) == 2) or (
            parts[0] == "perm" and len(parts) == k + 1
        ):
            if not all(map(_is_int64, parts[1:])):
                raise FormatError(f"non-integer entry in {ln!r}", line=no) from None
        else:
            raise FormatError(f"expected 'shift s' or 'perm i0..i{k-1}'", line=no) from None

    try:
        values, saw_perm = _assignment_rows(body, k)
    except ValueError:
        _raise_first_bad_line(text, check_line)
        raise
    if values.shape[0] != m:
        raise FormatError(f"header promised {m} lines, found {values.shape[0]}", line=1)
    if saw_perm:
        return LiftAssignment(k, values)
    return ShiftAssignment(k, values)


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
