"""Text formats: edge lists, assignments, spectra, configs, and reports.

Everything is line-oriented ASCII. Writers always emit LF; readers decode
UTF-8 and accept CRLF. Floats in reports use repr (shortest round-trip), so
identical runs produce byte-identical artifacts; spectrum files use 15
significant digits.

Edge lists and assignments are streamed by `_write_int_lines` in blocks of
at most 2**17 words, each built with numpy lookups in a digit table rather
than by formatting values in Python; the bytes are those of `%d`. They are
read back by one `numpy.loadtxt` call, and only a file that call rejects is
scanned line by line for the first malformed line.
"""
from __future__ import annotations

import csv
import io
import re

import numpy as np

from .characterization import CharacterizationReport
from .errors import FormatError, InvalidParameterError
from .expansion import CheegerReport, MixingReport
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    GrowthTrajectory,
    SigningSearchResult,
    SpotCheckReport,
)
from .graphs import RegularGraph
from .lifts import LiftAssignment, ShiftAssignment, shift_to_assignment
from .spectra import Spectrum


def _lines(text: str) -> list[str]:
    return [ln.rstrip("\r") for ln in text.split("\n")]


def _read_text(path: str) -> str:
    """The file decoded as UTF-8; a byte that is not UTF-8 raises FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                          line=data.count(b"\n", 0, exc.start) + 1) from None


def _header(text: str, names: str) -> tuple[int, int, str]:
    """The two integers of the header line, and the body after it. Header
    tokens take the body's decimal grammar; their range is left to the
    callers' own checks, such as the lift order cap."""
    header, _, body = text.partition("\n")
    header = header.rstrip("\r")
    if not header.strip():
        raise FormatError(f"missing header '{names}'", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(f"expected '{names}', got {header!r}", line=1)
    if not all(_INT64.fullmatch(part) for part in parts):
        raise FormatError(f"non-integer header {header!r}", line=1)
    return int(parts[0]), int(parts[1]), body


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
        lines = io.StringIO(lines.replace("\r", " ") if "\r" in lines else lines)
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
# Integer lines
# --------------------------------------------------------------------------

_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_BLOCK = 2**17  # words per written block of integer lines


def _digit_words(width: int, lead: bool) -> np.ndarray:
    """The 10**width uint64 words whose bytes 7 - width .. 6 hold the ASCII
    digits of the word's index, padded on the left with '0', or, if `lead`,
    with NUL bytes (0 then keeps one '0'). Byte 7 is NUL."""
    table = np.zeros((10,) * width + (8,), dtype=np.uint8)
    for p in range(width):
        table[..., 7 - width + p] = _DIGITS.reshape([-1 if i == p else 1 for i in range(width)])
    table = table.reshape(-1, 8)
    if lead:
        for i in range(1, width):  # indices below 10**i have no digit before their last i
            table[:10**i, 7 - width:7 - i] = 0
    return table.view(np.uint64).ravel()


def _write_int_lines(fh, header: str, prefix: str, values: np.ndarray) -> None:
    """Write `header`, then the lines `prefix v_1 .. v_c`, one per row of the
    (r, c) array of nonnegative ints `values`, space-separated and
    LF-terminated, as %d writes them.

    A value is cut into groups of `width` digits, each one lookup in a table
    of 8-byte words: the digits right-aligned before a free last byte,
    padded with NUL bytes. One buffer takes blocks of at most _BLOCK words,
    a row being the prefix and then each value's groups from the highest;
    the separator goes into the free byte of a value's lowest group, and
    deleting every NUL byte drops the padding. The tables, built per call,
    have 10**width <= max(10**4, min(values.size, _BLOCK)) words.
    """
    fh.write(header.encode())
    rows, cols = values.shape
    digits = len(str(int(values.max(initial=0))))
    width = min(digits, max(4, len(str(min(values.size, _BLOCK))) - 1), 7)
    chunks = -(-digits // width)
    head = np.frombuffer(prefix.encode().ljust(-(-len(prefix) // 8) * 8, b"\0"), np.uint64)
    step = max(1, min(rows, _BLOCK // (head.size + cols * chunks)))
    buf = bytearray(step * (head.size + cols * chunks) * 8)
    words = np.frombuffer(buf, np.uint64).reshape(step, -1)
    words[:, :head.size] = head
    groups = words[:, head.size:].reshape(step, cols, chunks)
    text = words.view(np.uint8).reshape(step, -1, 8)
    lead = _digit_words(width, lead=True)
    zero = _digit_words(width, lead=False) if chunks > 1 else None
    digit_0 = lead[0]
    for start in range(0, rows, step):
        rest = values[start:start + step]
        n = len(rest)
        words[n:] = 0  # a short last block leaves only NUL bytes behind its rows
        lead[0] = digit_0  # a 0 in a value's lowest group is the digit '0'
        for j in range(chunks - 1, 0, -1):
            rest, low = np.divmod(rest, 10**width)
            groups[:n, :, j] = np.where(rest > 0, zero[low], lead[low])
            lead[0] = 0  # in a higher group with nothing above it, no digit
        groups[:n, :, 0] = lead[rest]
        text[:n, head.size + chunks - 1::chunks, 7] = ord(" ")
        text[:n, -1, 7] = ord("\n")
        fh.write(buf.translate(None, b"\0"))


# --------------------------------------------------------------------------
# Edge lists
# --------------------------------------------------------------------------


def _graph_lines(g: RegularGraph) -> tuple[str, str, np.ndarray]:
    return f"{g.n} {g.d}\n", "", g.edge_array


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
    with open(path, "wb") as fh:
        _write_int_lines(fh, *_graph_lines(g))


def read_graph(path: str) -> RegularGraph:
    return graph_from_text(_read_text(path))


# --------------------------------------------------------------------------
# Lift assignments
# --------------------------------------------------------------------------


def _assignment_lines(a: ShiftAssignment | LiftAssignment) -> tuple[str, str, np.ndarray]:
    if isinstance(a, ShiftAssignment):
        prefix, values = "shift ", a.shift_array[:, None]
    elif isinstance(a, LiftAssignment):
        prefix, values = "perm ", a.perm_array
    else:
        raise InvalidParameterError(f"not an assignment: {type(a).__name__}")
    return f"{a.k} {values.shape[0]}\n", prefix, values


def _keyword_rows(lines, keyword: str, width: int) -> np.ndarray:
    """The (rows, width) values of lines 'keyword v_1 .. v_width'."""
    table = _table(lines, np.dtype([("word", "S8"), ("values", np.int64, (width,))]))
    if table is None:
        return np.empty((0, width), dtype=np.int64)
    if not np.all(table["word"] == keyword.encode()):
        raise ValueError(f"a line does not start with {keyword!r}")
    return table["values"]


def _assignment_rows(body: str, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The body's values and, if any line is a perm line, the indices of its
    shift lines: the (m,) shifts of an all-shift body (indices None), else the
    (m, k) rows, a perm line's permutation or a shift line's shift in column 0."""
    if "\0" in body:  # the "S8" keyword field would drop a keyword's NUL padding
        raise ValueError("a line holds a NUL byte")
    if "perm" not in body:
        return _keyword_rows(body, "shift", 1)[:, 0], None
    if "shift" not in body:
        return _keyword_rows(body, "perm", k), np.empty(0, dtype=np.int64)
    lines = np.array(body.replace("\r", " ").split("\n"))
    words = np.strings.lstrip(lines)
    is_shift = np.strings.startswith(words, "shift")
    is_perm = np.strings.startswith(words, "perm")
    if np.any(~is_shift & ~is_perm & (np.strings.str_len(np.strings.strip(words)) > 0)):
        raise ValueError("a line starts with neither 'shift' nor 'perm'")
    kinds = is_perm[is_shift | is_perm]
    rows = np.zeros((kinds.size, k), dtype=np.int64)
    rows[kinds] = _keyword_rows(lines[is_perm], "perm", k)
    rows[~kinds, :1] = _keyword_rows(lines[is_shift], "shift", 1)
    return rows, np.flatnonzero(~kinds)


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
        values, shift_lines = _assignment_rows(body, k)
    except ValueError:
        _raise_first_bad_line(text, check_line)
        raise
    if values.shape[0] != m:
        raise FormatError(f"header promised {m} lines, found {values.shape[0]}", line=1)
    if shift_lines is None:
        return ShiftAssignment(k, values)
    shifts = ShiftAssignment(k, values[shift_lines, 0])
    values[shift_lines] = shift_to_assignment(shifts).perm_array
    return LiftAssignment(k, values)


def write_assignment(a, path: str) -> None:
    with open(path, "wb") as fh:
        _write_int_lines(fh, *_assignment_lines(a))


def read_assignment(path: str):
    return assignment_from_text(_read_text(path))


# --------------------------------------------------------------------------
# Spectra
# --------------------------------------------------------------------------


def spectrum_to_text(s: Spectrum) -> str:
    # 15 digits would round the largest doubles past the overflow threshold,
    # so those few are written in full and do not read back as inf
    return "".join(f"{v:.15g}\n" if abs(v) < 1.79769313486231e308 else f"{float(v)!r}\n"
                   for v in s.values)


# --------------------------------------------------------------------------
# Flat key=value configs
# --------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "mode": "two_lift",
    "k": "2",
    "copies": "1",
    "constants": "1,2,3",
}
_CONFIG_REQUIRED = ("base", "trials", "seed")
_CONFIG_KEYS = (*_CONFIG_REQUIRED, *_CONFIG_DEFAULTS)


def parse_config_text(text: str) -> dict:
    out: dict[str, str] = {}
    for no, ln in enumerate(_lines(text), start=1):
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"expected 'key = value', got {ln!r}", line=no)
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in out:
            raise FormatError(f"repeated key {key!r}", line=no)
        out[key] = value
    return out


def config_from_mapping(raw: dict) -> ExperimentConfig:
    unknown = [key for key in raw if key not in _CONFIG_KEYS]
    if unknown:
        raise InvalidParameterError(
            f"unknown config key {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(_CONFIG_KEYS)}")
    data = dict(_CONFIG_DEFAULTS)
    data.update(raw)
    for key in _CONFIG_REQUIRED:
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
    raw = parse_config_text(_read_text(path))
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
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64:
        return ",".join(map(repr, x.tolist()))
    if isinstance(x, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in x)
    return str(x)


def _report(kind: str, fields, lines=()) -> str:
    """A report: the line `report = kind`, one `key = value` line per
    (key, value) of `fields` with the value through _fmt, then the
    free-form `lines` as they are."""
    out = [f"report = {kind}", *(f"{key} = {_fmt(value)}" for key, value in fields), *lines]
    return "\n".join(out) + "\n"


def _trial_line(rec) -> str:
    line = f"trial {rec.index} seed {rec.seed} "
    if rec.error is not None:
        return line + f"failed {rec.error}"
    line += f"lambda_new {_fmt(rec.lambda_new)}"
    return line if rec.root_radii is None else line + f" radii {_fmt(rec.root_radii)}"


def experiment_report_text(r: ExperimentReport) -> str:
    cfg = r.config
    return _report("lift_trials", [
        ("base", cfg.base), ("copies", cfg.copies), ("mode", cfg.mode), ("k", cfg.k),
        ("trials", cfg.trials), ("seed", cfg.base_seed), ("constants", cfg.constants),
        ("n", r.n), ("d", r.d), ("lambda", r.lam),
        ("lambda_above_sqrt_d", r.lambda_above_sqrt_d),
        ("moderately_expanding", r.moderately_expanding), ("failed", r.failed),
        *((f"frac lambda_new <= lambda + {_fmt(c)}*sqrt(d)", f) for c, f in r.frac_additive),
        *((f"frac lambda_new <= {_fmt(c)}*lambda", f) for c, f in r.frac_multiplicative),
        *((f"quantile {name}", value) for name, value in r.quantiles),
    ], map(_trial_line, r.records))


def experiment_report_csv(r: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "seed", "lambda_new"])
    for rec in r.records:
        value = "" if rec.lambda_new is None else repr(float(rec.lambda_new))
        writer.writerow([rec.index, rec.seed, value])
    return buf.getvalue()


def characterization_report_text(r: CharacterizationReport) -> str:
    return _report("shift_characterization", [
        ("k", r.k), ("n", len(r.lift_spectrum) // r.k),
        ("max_multiset_mismatch", r.max_multiset_mismatch),
        ("max_eigenvector_residual", r.max_eigenvector_residual),
        ("max_cross_root_inner", r.max_cross_root_inner),
        ("lift_frobenius_norm", r.lift_frobenius_norm),
        ("lift_spectrum", r.lift_spectrum.values),
        *((f"root {j} spectrum", spec.values) for j, spec in enumerate(r.per_root_spectra)),
    ])


def mixing_report_text(r: MixingReport) -> str:
    return _report("mixing_check", [
        ("method", r.method), ("lambda", r.lam), ("max_ratio", r.max_ratio),
        ("passed", r.passed), ("worst_s", sorted(r.worst_s)), ("worst_t", sorted(r.worst_t)),
    ])


def cheeger_report_text(r: CheegerReport) -> str:
    return _report("cheeger_check", [
        ("h", r.h), ("lambda2", r.lambda2), ("lower", r.lower), ("upper", r.upper),
        ("passed", r.passed),
    ])


def signing_search_report_text(r: SigningSearchResult) -> str:
    return _report("signing_search", [
        ("num_signings", r.num_signings), ("num_classes", r.num_classes),
        ("min_radius", r.min_radius), ("ramanujan_bound", r.ramanujan_bound),
        ("within_bound", r.within_bound), ("best_signs", r.best.signs),
    ])


def growth_report_text(t: GrowthTrajectory) -> str:
    return _report("greedy_growth", [
        ("k", t.k), ("samples_per_level", t.samples_per_level), ("seed", t.seed),
        ("truncated", t.truncated),
    ], (f"level {rec.level} n {rec.n} lambda {_fmt(rec.lam)} "
        f"lambda_new {_fmt(rec.lambda_new)}" for rec in t.records))


def spot_check_report_text(r: SpotCheckReport) -> str:
    return _report("inequality_spot_check", [
        ("which", r.which), ("trials", r.trials), ("violations", r.violations),
        ("violation_rate", r.violation_rate), ("max_ratio", r.max_ratio),
        ("not_applicable", r.not_applicable),
    ])


def write_text(text: str, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
