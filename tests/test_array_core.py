"""The array-backed graphs, lifts and text readers against the per-edge
loops they replaced (kept in oracles.py), on random graphs and inputs."""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import liftlab as ll
from liftlab import characterization, fileio
from liftlab.cli import dispatch
from liftlab.graphs import _first_occurrences, edge_matrix

import oracles


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, min(n - 1, 6)))
    assume(n * d % 2 == 0)
    return ll.random_regular(n, d, draw(st.integers(0, 2**64 - 1)))


@st.composite
def assignments(draw, g):
    kind = draw(st.sampled_from(["perm", "shift", "sign"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "sign":
        return ll.signing_to_assignment(ll.random_signing(g, seed))
    k = draw(st.integers(2, 7))
    if kind == "shift":
        return ll.random_shift_lift(g, k, seed)
    return ll.random_k_lift(g, k, seed)


def _outcome(fn, *args):
    """('ok', value) or the exception's type, message and line."""
    try:
        return "ok", fn(*args)
    except ll.InvalidParameterError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


# --------------------------------------------------------------------------
# Generators and vectorized helpers
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n, d, seed", [
    (6, 3, 4), (8, 5, 14), (10, 7, 2),  # 4, 9 and 18 restarts
    (12, 3, 6), (7, 4, 1), (500, 6, 1), (2000, 5, 9), (20000, 6, 1), (20000, 6, 2),
])
def test_random_regular_matches_pair_by_pair_sampler(n, d, seed):
    assert ll.random_regular(n, d, seed).edges == oracles.loop_random_regular_edges(n, d, seed)


def test_a_pair_drawn_twice_in_one_round_becomes_one_edge():
    # the first round of this seed pairs the same two vertices more than
    # once; the first such pair is the edge, the others return to the pool
    n, d, seed = 12, 5, 0
    stubs = np.repeat(np.arange(n), d)
    np.random.default_rng(seed).shuffle(stubs)
    lo = np.minimum(stubs[0::2], stubs[1::2])
    hi = np.maximum(stubs[0::2], stubs[1::2])
    _, counts = np.unique((lo * n + hi)[lo != hi], return_counts=True)
    assert counts.max() > 1
    assert ll.random_regular(n, d, seed).edges == oracles.loop_random_regular_edges(n, d, seed)


def test_first_occurrences_of_keys_near_2_62():
    # keys this large leave no room to pack an index beside them in int64
    rng = np.random.default_rng(5)
    keys = np.concatenate([2**62 - 20 + rng.integers(0, 40, size=3000),
                           2**63 - 1 - rng.integers(0, 3, size=50)])
    rng.shuffle(keys)
    values, first = _first_occurrences(keys)
    want_values, want_first = oracles.first_occurrences(keys.tolist())
    assert values.tolist() == want_values and first.tolist() == want_first


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(1, 12), seed=st.integers(0, 2**64 - 1))
def test_random_regular_property(n, d, seed):
    assume(d < n and n * d % 2 == 0)
    assert ll.random_regular(n, d, seed).edges == oracles.loop_random_regular_edges(n, d, seed)


@settings(max_examples=40, deadline=None)
@given(g=graphs(), k=st.integers(2, 6), seed=st.integers(0, 2**64 - 1))
def test_random_k_lift_matches_one_permutation_call_per_edge(g, k, seed):
    assert ll.random_k_lift(g, k, seed).perms == oracles.loop_random_perms(g.num_edges, k, seed)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=graphs())
def test_matrices_match_edge_loops(data, g):
    np.testing.assert_array_equal(ll.adjacency_matrix(g), oracles.loop_adjacency(g.n, g.edges))
    signing = ll.random_signing(g, data.draw(st.integers(0, 2**32)))
    assert np.array_equal(ll.signed_adjacency(g, signing),
                          oracles.loop_adjacency(g.n, g.edges, signing.signs))
    for got, want in zip(ll.edge_endpoints(g), oracles.loop_edge_endpoints(g.edges)):
        assert np.array_equal(got, want)
    copies = data.draw(st.integers(1, 4))
    assert ll.disjoint_copies(g, copies).edges == oracles.loop_disjoint_copies(g.n, g.edges, copies)
    sa = ll.random_shift_lift(g, data.draw(st.integers(2, 8)), data.draw(st.integers(0, 2**32)))
    roots = characterization._root_values(sa.k)
    for j in range(sa.k):
        # the root matrix of verify_characterization and the dense root
        # stacks, bit-identical to the loop, signed zeros included
        got = edge_matrix(g.n, *ll.edge_endpoints(g), roots[j * sa.shift_array % sa.k])
        t = oracles.RootOfUnity(sa.k, j)
        want = oracles.loop_shift_matrix(g.n, g.edges, sa.shifts, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs())
def test_build_lift_matches_edge_loop(data, g):
    a = data.draw(assignments(g))
    lifted = ll.build_shift_lift(g, a) if isinstance(a, ll.ShiftAssignment) else ll.build_lift(g, a)
    perms = ll.shift_to_assignment(a).perms if isinstance(a, ll.ShiftAssignment) else a.perms
    want = oracles.loop_build_lift(g.edges, a.k, perms)
    assert lifted.graph.edges == want
    assert oracles.check_regular_edges(a.k * g.n, g.d, want) == want
    # build_lift skips validation; the full validator must accept what it built
    assert ll.RegularGraph(a.k * g.n, g.d, lifted.graph.edge_array) == lifted.graph
    assert (lifted.graph.n, lifted.graph.d) == (a.k * g.n, g.d)
    assert lifted.graph.edge_array.dtype == np.int64
    assert not lifted.graph.edge_array.flags.writeable


def test_build_lift_at_240k_edges_matches_the_argsort_construction():
    g = ll.random_regular(20000, 6, 3)
    for a in (ll.shift_to_assignment(ll.random_shift_lift(g, 4, 5)), ll.random_k_lift(g, 4, 6)):
        edges = ll.build_lift(g, a).graph.edge_array
        assert edges.shape == (240000, 2)
        assert np.array_equal(edges, oracles.argsort_build_lift_edges(g, a))


def test_build_lift_refuses_a_lift_order_over_2_31():
    # keys (x << b) | y need 2b <= 62 bits; the check comes before any
    # per-edge array, so a zero-stride stand-in for the perms suffices
    g = ll.complete_graph(4)
    k = 2**29 + 1
    a = ll.LiftAssignment._trusted(k, np.broadcast_to(np.int64(0), (g.num_edges, k)))
    with pytest.raises(ll.SizeLimitError, match=r"^lift order k\*n = 2147483652 exceeds 2\*\*31$"):
        ll.build_lift(g, a)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

_EDGE_FAULTS = ["swap_rows", "duplicate", "reverse", "too_big", "negative", "move", "drop"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(), faults=st.lists(st.sampled_from(_EDGE_FAULTS), max_size=3))
def test_invalid_edge_arrays_raise_the_oracle_message(data, g, faults):
    edges = [list(e) for e in g.edges]
    for fault in faults:
        i = data.draw(st.integers(0, len(edges) - 1))
        j = min(i + 1, len(edges) - 1)
        if fault == "swap_rows":
            edges[i], edges[j] = edges[j], edges[i]
        elif fault == "duplicate":
            edges[j] = list(edges[i])
        elif fault == "reverse":
            edges[i].reverse()
        elif fault == "too_big":
            edges[i][1] = g.n + data.draw(st.integers(0, 3))
        elif fault == "negative":
            edges[i][0] = -1
        elif fault == "move":
            edges[i][data.draw(st.integers(0, 1))] = data.draw(st.integers(0, g.n - 1))
        elif len(edges) > 1:
            del edges[i]
    want = _outcome(oracles.check_regular_edges, g.n, g.d, edges)
    for given_edges in (np.array(edges, dtype=np.int64), edges):
        got = _outcome(ll.RegularGraph, g.n, g.d, given_edges)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].edges == want[1]
        else:
            assert got == want


_PERM_FAULTS = ["negative", "too_big", "extreme", "duplicate", "short", "long"]


@st.composite
def faulty_perms(draw):
    """(k, rows): up to m = 6 permutations of [0, k), with up to three
    faults, each in a drawn row: a value below 0, at or above k, at the
    int64 extremes, a repeat within the row, or a row one short or long."""
    k = draw(st.integers(2, 7))
    rows = [list(draw(st.permutations(range(k)))) for _ in range(draw(st.integers(0, 6)))]
    for fault in draw(st.lists(st.sampled_from(_PERM_FAULTS), max_size=3)) if rows else ():
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        if fault == "negative":
            row[j] = draw(st.integers(-k, -1))
        elif fault == "too_big":
            row[j] = draw(st.integers(k, 2 * k))
        elif fault == "extreme":
            row[j] = draw(st.sampled_from([-2**63, 2**63 - 1]))
        elif fault == "duplicate":
            row[j] = row[(j + 1) % len(row)]
        elif fault == "short":
            del row[j]
        else:
            row.insert(j, draw(st.integers(0, k - 1)))
    return k, rows


@settings(max_examples=300, deadline=None)
@given(case=faulty_perms())
# a repeat in row 1 comes before the out-of-range values of rows 2 and 3
@example(case=(3, [[0, 1, 2], [1, 1, 0], [0, 5, 1], [-1, 0, 1]]))
@example(case=(2, [[0, 1], [1, 1], [-1, 0], [0, 1, 1]]))
@example(case=(2, [[]]))  # one empty row, not zero rows
def test_lift_assignment_validates_like_the_loop(case):
    k, rows = case
    want = _outcome(oracles.check_perms, k, rows)
    inputs = [rows]
    if len({len(row) for row in rows}) == 1:
        inputs.append(np.array(rows, dtype=np.int64))
    for given_rows in inputs:
        assert _outcome(lambda *args: ll.LiftAssignment(*args).perms, k, given_rows) == want


def test_assignment_arrays_validate_like_the_loops():
    with pytest.raises(ll.InvalidParameterError, match=r"^perm 2 is not a bijection on \[0,3\)$"):
        ll.LiftAssignment(3, np.array([[0, 1, 2], [2, 1, 0], [0, 0, 1], [0, 1, 1]]))
    with pytest.raises(ll.InvalidParameterError, match=r"^perm 1 is not a bijection"):
        ll.LiftAssignment(3, [(0, 1, 2), (0, 1), (1, 2, 0)])
    with pytest.raises(ll.InvalidParameterError, match=r"^shifts must lie in \[0,4\)$"):
        ll.ShiftAssignment(4, np.array([0, 3, 4]))
    assert ll.LiftAssignment(2, ()).perms == () and ll.ShiftAssignment(2, []).shifts == ()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-3, 3),
                                 st.sampled_from([1.0, -1.0, 0.5, -1.5, True])),
                       max_size=10))
def test_signing_validates_like_the_loop(values):
    assert _outcome(lambda v: ll.Signing(v).signs, values) == \
        _outcome(oracles.check_signs, values)


@settings(max_examples=60, deadline=None)
@given(g=graphs(), seed=st.integers(0, 2**64 - 1))
def test_signing_conversions_match_the_sign_tuples(g, seed):
    s = ll.random_signing(g, seed)
    rng = np.random.default_rng(seed)
    assert s.signs == tuple(int(x) * 2 - 1 for x in rng.integers(0, 2, size=g.num_edges))
    assert not s.sign_array.flags.writeable
    perms = ll.signing_to_assignment(s).perms
    assert perms == tuple((0, 1) if x == 1 else (1, 0) for x in s.signs)
    shifts = ll.signing_to_shifts(s)
    assert shifts.shifts == tuple(0 if x == 1 else 1 for x in s.signs)
    assert hash(ll.Signing(list(s.signs))) == hash(s)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_unvalidated_conversions_equal_validated_construction(k):
    # shift_to_assignment, signing_to_assignment and random_k_lift skip the
    # bijection check; what they build must be what the validating
    # constructor would store
    g = ll.random_regular(40, 5, k)
    built = [ll.shift_to_assignment(ll.random_shift_lift(g, k, 7)), ll.random_k_lift(g, k, 7)]
    if k == 2:
        built.append(ll.signing_to_assignment(ll.random_signing(g, 7)))
    for a in built:
        checked = ll.LiftAssignment(k, a.perm_array.tolist())
        assert a == checked and hash(a) == hash(checked)
        assert a.perm_array.dtype == checked.perm_array.dtype == np.int64
        assert a.perm_array.shape == (g.num_edges, k)
        assert not a.perm_array.flags.writeable
        assert a.perms == checked.perms


# --------------------------------------------------------------------------
# Text formats
# --------------------------------------------------------------------------


def _graph_value(text):
    g = fileio.graph_from_text(text)
    return g.n, g.d, g.edges


def _assignment_value(text):
    a = fileio.assignment_from_text(text)
    if isinstance(a, ll.ShiftAssignment):
        return "shift", a.k, a.shifts
    return "perm", a.k, a.perms


def _line_text(a) -> str:
    """The text of a graph or an assignment by the line writers of oracles.py."""
    if isinstance(a, ll.RegularGraph):
        return oracles.line_graph_to_text(a.n, a.d, a.edges)
    kind, rows = ("shift", a.shifts) if isinstance(a, ll.ShiftAssignment) else ("perm", a.perms)
    return oracles.line_assignment_to_text(a.k, kind, rows)


def _written(a, path) -> str:
    """The file that write_graph or write_assignment makes of `a`, as text."""
    write = fileio.write_graph if isinstance(a, ll.RegularGraph) else fileio.write_assignment
    write(a, str(path))
    return path.read_bytes().decode()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs())
def test_round_trips_and_writer_bytes(tmp_path_factory, data, g):
    path = tmp_path_factory.getbasetemp() / "round_trip"
    text = _written(g, path)
    assert text == _line_text(g)
    assert fileio.graph_from_text(text) == g
    a = data.draw(assignments(g))
    text = _written(a, path)
    assert text == _line_text(a)
    assert fileio.assignment_from_text(text) == a
    assert _written(fileio.assignment_from_text(text), path) == text


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@example(values=[-1.7976931348623157e308, 1.7976931348623101e308, 0.30000000000000004])
def test_spectrum_file_round_trip(values):
    # 15 significant digits: reading back is not bit-exact, but within
    # 5e-15 relative plus the parse rounding, and writing again is
    spec = ll.Spectrum(np.sort(np.array(values, dtype=float))[::-1])
    text = fileio.spectrum_to_text(spec)
    back = ll.Spectrum(np.array([float(ln) for ln in text.splitlines()]))
    np.testing.assert_allclose(back.values, spec.values, rtol=6e-15, atol=0)
    assert fileio.spectrum_to_text(back) == text


_TEXT_FAULTS = ["missing", "extra", "non_integer", "value", "blank", "crlf", "count", "mixed"]


@st.composite
def mutated(draw, text: str, assignment: bool):
    """`text` with a few of the faults above, each at a random body line."""
    lines = text.split("\n")[:-1]
    for fault in draw(st.lists(st.sampled_from(_TEXT_FAULTS), max_size=3)):
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        parts = lines[i].split()
        if fault == "missing" and parts:
            lines[i] = " ".join(parts[:-1])
        elif fault == "extra":
            lines[i] += " " + draw(st.sampled_from(["7", "0", "x"]))
        elif fault == "non_integer" and parts:
            # int() takes the last four; the file grammar does not
            parts[-1] = draw(st.sampled_from(["x", "1.5", "0x1", "--1", "shift", "1_0",
                                              "\u0661", "\uff11", str(2**63)]))
            lines[i] = " ".join(parts)
        elif fault == "value" and parts:
            parts[-1] = str(draw(st.integers(-2, 8)))
            lines[i] = " ".join(parts)
        elif fault == "blank":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
        elif fault == "crlf":
            lines = [ln + "\r" for ln in lines]
        elif fault == "count" and len(lines) > 1:
            if assignment and draw(st.booleans()):
                k, m = lines[0].split()[:2]
                lines[0] = f"{k} {int(m) + draw(st.sampled_from([-1, 1]))}"
            else:
                del lines[i]
        elif fault == "mixed" and assignment and parts:
            lines[i] = draw(st.sampled_from(["shift 1", "perm 1 0", "shift 0"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_n=8))
def test_malformed_graph_text_matches_line_parser(data, g):
    text = data.draw(mutated(_line_text(g), assignment=False))
    assert _outcome(_graph_value, text) == _outcome(oracles.line_graph_from_text, text)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_n=8))
def test_malformed_assignment_text_matches_line_parser(data, g):
    text = data.draw(mutated(_line_text(data.draw(assignments(g))), assignment=True))
    assert _outcome(_assignment_value, text) == _outcome(oracles.line_assignment_from_text, text)


_NON_GRAMMAR_TOKENS = {"underscore": "0_1", "arabic-indic": "\u0661", "fullwidth": "\uff11",
                       "devanagari": "\u0967", "beyond int64": str(2**63 + 1)}
_TOKEN_BODIES = {
    "edge": (_graph_value, oracles.line_graph_from_text, "4 3\n0 {}\n0 2\n0 3\n1 2\n1 3\n2 3\n"),
    "shift": (_assignment_value, oracles.line_assignment_from_text, "3 2\nshift {}\nshift 2\n"),
    "perm": (_assignment_value, oracles.line_assignment_from_text,
             "3 2\nperm 0 {} 2\nshift 2\n"),
}


@pytest.mark.parametrize("body, token", [(b, t) for b in _TOKEN_BODIES for t in _NON_GRAMMAR_TOKENS],
                         ids=[f"{b} {t}" for b in _TOKEN_BODIES for t in _NON_GRAMMAR_TOKENS])
def test_line_parsers_agree_on_body_tokens_outside_the_grammar(body, token):
    # each token stands for 1, or for a value past int64; the line parsers
    # once read the first four with int() and the last as a vertex or shift
    parse, line_parse, template = _TOKEN_BODIES[body]
    text = template.format(_NON_GRAMMAR_TOKENS[token])
    assert _outcome(parse, text) == _outcome(line_parse, text)
    assert _outcome(parse, text)[:2] == ("FormatError", f"line 2: non-integer "
                                         f"{'edge' if body == 'edge' else 'entry in'} "
                                         f"{text.splitlines()[1]!r}")


@pytest.mark.parametrize("text", [
    "3 3\nshift 1\n\nperm 2 0 1\r\n  shift 2\n",
    "3 2\nperm 0 2 1\nshift 4\n",
    "3 2\nperm 0 2 1\nshift -1\n",
    "3 3\nperm 0 2 1\nshift 4\n",
    "3 2\nperm 0 2 1\nshiftx 1\n",
    "3 2\nshift 1\npermx 0 1 2\n",
    "3 2\nperm 0 2 1\nswap 1\n",
    "3 2\nshift 1\r2\n",
    # keywords that are too long, outside Latin-1, or Latin-1 but not ASCII
    "2 2\nperm 0 1\npermutation 0 1\n",
    "2 2\nperm 1 0\np\u20acrm 0 1\n",
    "2 2\nshift 1\nsh\u00e9ft 0\n",
    "2 4\nshift 1\nperm 1 0\npermutation 0 1\nshift\u20ac 0\n",
    "2 3\nperm 1 0\nshift 1\nshift\u20ac 0\n",
    # keywords padded with NUL bytes
    "2 2\nshift 1\nshift\0\0\0 0\n",
    "2 2\nperm 0 1\nperm\0\0\0\0xyz 1 0\n",
])
def test_mixed_and_odd_assignment_lines_match_line_parser(text):
    assert _outcome(_assignment_value, text) == _outcome(oracles.line_assignment_from_text, text)


def test_tokens_beyond_int64_are_a_format_error():
    # the line parser took any Python int and failed later on the vertex range
    with pytest.raises(ll.FormatError, match="^line 3: non-integer edge '0 99999999999999999999'$"):
        fileio.graph_from_text("2 1\n0 1\n0 99999999999999999999\n")


# The hypothesis property above draws values of at most two digits. These
# cases cross every width from 1 to 19 digits, and values longer than one
# digit-table group: 4 digits for a few values, 5 for the 200002 values of
# cycle 100001.
WIDE_GRAPHS = {
    "cycle 100001": lambda: ll.cycle_graph(100001),
    "cycle 12": lambda: ll.cycle_graph(12),
    "complete 101": lambda: ll.complete_graph(101),
    "random_regular 10001 4": lambda: ll.random_regular(10001, 4, 2),
}


def _first_mismatch(got: str, want: str):
    """None for equal texts, else the first differing line: pytest's own
    diff of two megabyte strings would take minutes."""
    if got == want:
        return None
    for no, (a, b) in enumerate(zip(got.split("\n"), want.split("\n")), start=1):
        if a != b:
            return f"line {no}: {a!r} != {b!r}"
    return f"lengths {len(got)} != {len(want)}"


@pytest.mark.parametrize("name", sorted(WIDE_GRAPHS))
def test_graph_writer_bytes_across_digit_widths(tmp_path, name):
    g = WIDE_GRAPHS[name]()
    assert _first_mismatch(_written(g, tmp_path / "g"), _line_text(g)) is None


WIDE_ASSIGNMENTS = {
    "perm k=10": lambda: ll.random_k_lift(ll.complete_graph(6), 10, 1),
    "perm k=11": lambda: ll.random_k_lift(ll.complete_graph(6), 11, 2),
    "perm k=12": lambda: ll.random_k_lift(ll.random_regular(40, 3, 1), 12, 3),
    "shift k=10**15": lambda: ll.ShiftAssignment(10**15, [0, 9, 10, 10**15 - 1]),
    "shift k=2**63-1": lambda: ll.ShiftAssignment(
        2**63 - 1, [0, 1, 2**63 - 2] + [10**i + j for i in range(1, 19) for j in (-1, 0, 1)]),
    "shift empty": lambda: ll.ShiftAssignment(3, []),
    "perm empty": lambda: ll.LiftAssignment(3, np.empty((0, 3), dtype=np.int64)),
}


@pytest.mark.parametrize("name", sorted(WIDE_ASSIGNMENTS))
def test_assignment_writer_bytes_across_digit_widths(tmp_path, name):
    a = WIDE_ASSIGNMENTS[name]()
    want = _line_text(a)
    assert _first_mismatch(_written(a, tmp_path / "a"), want) is None
    # an empty perm file reads back as an empty shift file, with the same text
    assert _written(fileio.read_assignment(str(tmp_path / "a")), tmp_path / "b") == want


def test_huge_shift_file_writer_memory_follows_the_value_count(tmp_path):
    # a digit table over 0..max would hold 10**15 rows; it is sized by the
    # four values instead
    a = ll.ShiftAssignment(10**15, [0, 9, 10, 10**15 - 1])
    path = str(tmp_path / "a")
    tracemalloc.start()
    try:
        fileio.write_assignment(a, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert fileio.read_assignment(path) == a


def _block_rows(prefix_words: int, words_per_row: int) -> int:
    """Rows in one written block: the writer's buffer holds at most
    fileio._BLOCK words, a row being its prefix words then its values'."""
    return fileio._BLOCK // (prefix_words + words_per_row)


def _assert_writes(a, tmp_path):
    """`a` (a graph or an assignment) as a file, against the line writers of
    oracles.py."""
    assert _first_mismatch(_written(a, tmp_path / "out"), _line_text(a)) is None


# Each maker takes a row count and gives a file with that many body lines,
# and the rows of one block: 1 value after "shift ", 2 per edge line, k = 4
# after "perm " (k + 1 tokens), and 19-digit shifts, each cut into five
# 4-digit groups, as fewer than 10**5 values make the groups 4 digits wide.
BLOCK_EDGE_FILES = {
    "shift": (lambda r: ll.ShiftAssignment(10, np.arange(r) % 10), _block_rows(1, 1)),
    "edge": (ll.cycle_graph, _block_rows(0, 2)),
    "perm": (lambda r: ll.LiftAssignment(4, (np.arange(r)[:, None] + np.arange(4)) % 4),
             _block_rows(1, 4)),
    "shift 19 digits": (lambda r: ll.ShiftAssignment(2**63 - 1, 2**63 - 2 - np.arange(r)),
                        _block_rows(1, 5)),
}


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_FILES))
def test_writer_bytes_at_block_edges(tmp_path, name, delta):
    make, rows = BLOCK_EDGE_FILES[name]
    _assert_writes(make(rows + delta), tmp_path)


def test_a_block_of_one_digit_values_below_a_19_digit_maximum(tmp_path):
    # every group above a value's lowest is empty, in whole blocks and in
    # the short last block, and the widest value still gets all its groups
    rows = _block_rows(1, 5)
    shifts = np.arange(2 * rows + 3) % 10
    shifts[-1] = 2**63 - 2
    _assert_writes(ll.ShiftAssignment(2**63 - 1, shifts), tmp_path)


@pytest.mark.parametrize("pad", [0, 10**5])  # 4-digit groups, then 5-digit groups
def test_a_zero_in_every_digit_group_position(tmp_path, pad):
    top = 2**63 - 2
    shifts = [0, 1, top] + [10**i for i in range(19)] + [10**i + 1 for i in range(1, 19)]
    for width in (4, 5):  # every run of `width` digits of the maximum zeroed
        shifts += [top - top // 10**p % 10**width * 10**p for p in range(19)]
    _assert_writes(ll.ShiftAssignment(2**63 - 1, shifts + [7] * pad), tmp_path)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_follows_the_block_not_the_file(tmp_path):
    # the lift of the lift_io pipeline: 240k edges, a 2.8 MB file
    g = ll.random_regular(20000, 6, 3)
    lift = ll.build_shift_lift(g, ll.random_shift_lift(g, 4, 5)).graph
    edges = lift.edge_array
    path = str(tmp_path / "lift")
    assert _traced_peak(lambda: fileio.write_graph(lift, path)) <= 4.5 * 2**20
    assert np.array_equal(np.loadtxt(path, dtype=np.int64, skiprows=1), edges)
    # a million 19-digit shifts: 20 MB of text
    a = ll.ShiftAssignment(2**62, np.random.default_rng(4).integers(0, 2**62, 10**6))
    path = str(tmp_path / "shifts")
    assert _traced_peak(lambda: fileio.write_assignment(a, path)) <= 4.5 * 2**20
    assert fileio.read_assignment(path) == a


# --------------------------------------------------------------------------
# No tuple views on the gen -> lift -> replay path
# --------------------------------------------------------------------------


def test_lift_pipeline_at_240k_edges_builds_no_tuple_view(tmp_path, monkeypatch):
    # nor does it validate a lift: build_lift trusts its own construction
    touched, orders = [], []
    for cls, name in ((ll.RegularGraph, "edges"), (ll.LiftAssignment, "perms"),
                      (ll.ShiftAssignment, "shifts")):
        monkeypatch.setattr(cls, name, property(lambda self, name=name: touched.append(name)))
    post_init = ll.RegularGraph.__post_init__
    monkeypatch.setattr(ll.RegularGraph, "__post_init__",
                        lambda self: orders.append(self.n) or post_init(self))
    base, assign, lift, replay = (str(tmp_path / f) for f in ("base", "assign", "lift", "replay"))
    argvs = [
        ["gen", "--family", "random_regular", "--n", "20000", "--d", "6", "--seed", "3",
         "--out", base],
        ["lift", "--graph", base, "--k", "4", "--seed", "5", "--mode", "shift_lift",
         "--out", lift, "--save-assignment", assign],
        ["lift", "--graph", base, "--assignment", assign, "--out", replay],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [dispatch(argv) for argv in argvs] == [0, 0, 0]
    assert orders == [20000, 20000, 20000]  # gen, and the base read by each lift
    g = fileio.read_graph(base)
    lifted = ll.build_shift_lift(g, ll.random_shift_lift(g, 4, 5))
    assert lifted.graph.num_edges == 240000
    assert fileio.read_graph(lift) == lifted.graph  # the full validator on the bytes
    assert fileio.read_graph(replay) == lifted.graph
    assert touched == []
    assert "edges" not in vars(lifted.graph) and "edges" not in vars(g)
