"""The array-backed graphs, lifts and text readers against the per-edge
loops they replaced (kept in oracles.py), on random graphs and inputs."""
import contextlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liftlab as ll
from liftlab import fileio
from liftlab.cli import dispatch

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
    k = draw(st.integers(2, 6))
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
    (12, 3, 6), (7, 4, 1), (500, 6, 1), (2000, 5, 9),
])
def test_random_regular_matches_pair_by_pair_sampler(n, d, seed):
    assert ll.random_regular(n, d, seed).edges == oracles.loop_random_regular_edges(n, d, seed)


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
    for t in ll.roots_of_unity(sa.k):
        # bit-identical, signed zeros included
        got = ll.shift_matrix(g, sa, t).data.view(np.int64)
        want = oracles.loop_shift_matrix(g.n, g.edges, sa.shifts, t).view(np.int64)
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs())
def test_build_lift_matches_edge_loop(data, g):
    a = data.draw(assignments(g))
    lifted = ll.build_shift_lift(g, a) if isinstance(a, ll.ShiftAssignment) else ll.build_lift(g, a)
    perms = ll.shift_to_assignment(a).perms if isinstance(a, ll.ShiftAssignment) else a.perms
    want = oracles.loop_build_lift(g.edges, a.k, perms)
    assert lifted.graph.edges == want
    assert oracles.check_regular_edges(a.k * g.n, g.d, want) == want


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


def test_assignment_arrays_validate_like_the_loops():
    with pytest.raises(ll.InvalidParameterError, match=r"^perm 2 is not a bijection on \[0,3\)$"):
        ll.LiftAssignment(3, np.array([[0, 1, 2], [2, 1, 0], [0, 0, 1], [0, 1, 1]]))
    with pytest.raises(ll.InvalidParameterError, match=r"^perm 1 is not a bijection"):
        ll.LiftAssignment(3, [(0, 1, 2), (0, 1), (1, 2, 0)])
    with pytest.raises(ll.InvalidParameterError, match=r"^shifts must lie in \[0,4\)$"):
        ll.ShiftAssignment(4, np.array([0, 3, 4]))
    assert ll.LiftAssignment(2, ()).perms == () and ll.ShiftAssignment(2, []).shifts == ()


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs())
def test_round_trips_and_writer_bytes(data, g):
    text = fileio.graph_to_text(g)
    assert text == oracles.line_graph_to_text(g.n, g.d, g.edges)
    assert fileio.graph_from_text(text) == g
    a = data.draw(assignments(g))
    text = fileio.assignment_to_text(a)
    kind, rows = ("shift", a.shifts) if isinstance(a, ll.ShiftAssignment) else ("perm", a.perms)
    assert text == oracles.line_assignment_to_text(a.k, kind, rows)
    assert fileio.assignment_from_text(text) == a
    assert fileio.assignment_to_text(fileio.assignment_from_text(text)) == text


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
            parts[-1] = draw(st.sampled_from(["x", "1.5", "0x1", "--1", "shift"]))
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
    text = data.draw(mutated(fileio.graph_to_text(g), assignment=False))
    assert _outcome(_graph_value, text) == _outcome(oracles.line_graph_from_text, text)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_n=8))
def test_malformed_assignment_text_matches_line_parser(data, g):
    text = data.draw(mutated(fileio.assignment_to_text(data.draw(assignments(g))), assignment=True))
    assert _outcome(_assignment_value, text) == _outcome(oracles.line_assignment_from_text, text)


@pytest.mark.parametrize("text", [
    "3 3\nshift 1\n\nperm 2 0 1\r\n  shift 2\n",
    "3 2\nperm 0 2 1\nshift 4\n",
    "3 2\nperm 0 2 1\nshiftx 1\n",
    "3 2\nshift 1\npermx 0 1 2\n",
    "3 2\nperm 0 2 1\nswap 1\n",
    "3 2\nshift 1\r2\n",
])
def test_mixed_and_odd_assignment_lines_match_line_parser(text):
    assert _outcome(_assignment_value, text) == _outcome(oracles.line_assignment_from_text, text)


def test_tokens_beyond_int64_are_a_format_error():
    # the line parser took any Python int and failed later on the vertex range
    with pytest.raises(ll.FormatError, match="^line 3: non-integer edge '0 99999999999999999999'$"):
        fileio.graph_from_text("2 1\n0 1\n0 99999999999999999999\n")


# --------------------------------------------------------------------------
# No tuple views on the gen -> lift -> replay path
# --------------------------------------------------------------------------


def test_lift_pipeline_at_240k_edges_builds_no_tuple_view(tmp_path, monkeypatch):
    touched = []
    for cls, name in ((ll.RegularGraph, "edges"), (ll.LiftAssignment, "perms"),
                      (ll.ShiftAssignment, "shifts")):
        monkeypatch.setattr(cls, name, property(lambda self, name=name: touched.append(name)))
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
    g = fileio.read_graph(base)
    lifted = ll.build_shift_lift(g, ll.random_shift_lift(g, 4, 5))
    assert lifted.graph.num_edges == 240000
    assert fileio.read_graph(lift) == lifted.graph
    assert touched == []
    assert "edges" not in vars(lifted.graph) and "edges" not in vars(g)
