"""Campaigns on sparse operators: the Lanczos root radii, the fiber-projected
check and the base lambda against the dense oracles, on the base families
where Lanczos is hardest (+-lambda ties, repeated eigenvalues, K_2 and K_3),
plus the failure, no-dense and determinism guarantees of the campaign.

Root radii come from dense stacks up to base order _STACKED_MAX_N; the tests
of Lanczos corner cases on tiny bases set that limit to 0 (lanczos_roots)."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liftlab as ll
from liftlab import characterization, cli, expansion, experiments, fileio, graphs, lifts, spectra
from liftlab.cli import dispatch

from oracles import (RootOfUnity, arpack_radius, bfs_components, bmat_root_operators,
                     dense_half_root_radii, dense_lambda_nontrivial, dense_root_radii,
                     dense_split_lambda_new, loop_shift_matrix)

SRC = Path(__file__).resolve().parents[1] / "src"
STACKED = characterization._STACKED_MAX_N


@pytest.fixture
def lanczos_roots(monkeypatch):
    """Every root radius solved by Lanczos, at any base order."""
    monkeypatch.setattr(characterization, "_STACKED_MAX_N", 0)


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["random", "bipartite", "even_cycle", "copies", "tiny"]))
    if kind == "random":
        n = draw(st.integers(4, 30))
        d = draw(st.integers(1, min(n - 1, 6)))
        assume(n * d % 2 == 0)
        return ll.random_regular(n, d, draw(st.integers(0, 2**64 - 1)))
    if kind == "bipartite":
        return ll.complete_bipartite(draw(st.integers(2, 6)))
    if kind == "even_cycle":
        return ll.cycle_graph(2 * draw(st.integers(2, 12)))
    if kind == "copies":
        part = draw(st.sampled_from([ll.complete_graph(4), ll.complete_bipartite(3),
                                     ll.cycle_graph(5), ll.complete_graph(2)]))
        return ll.disjoint_copies(part, draw(st.integers(2, 5)))
    return ll.complete_graph(draw(st.sampled_from([2, 3])))


@st.composite
def shift_lifts(draw):
    g = draw(bases())
    k = draw(st.integers(2, 8))
    shifts = draw(st.lists(st.integers(0, k - 1), min_size=g.num_edges,
                           max_size=g.num_edges))
    return g, ll.ShiftAssignment(k, shifts)


class TestRootRadiiOracle:
    @pytest.mark.parametrize("limit", [STACKED, 0], ids=["stacked", "lanczos"])
    @settings(max_examples=150, deadline=None)
    @given(case=shift_lifts())
    def test_sparse_half_roots_match_every_dense_root(self, limit, case):
        # M_{k-j} = conj(M_j): radii of the solved roots j <= k/2 stand for
        # all k-1 roots; every drawn base is stacked at the default limit
        g, sa = case
        with mock.patch.object(characterization, "_STACKED_MAX_N", limit):
            lam, radii = ll.lambda_new_from_roots(g, sa)
        dense = dense_root_radii(g, sa)
        assert len(radii) == sa.k - 1
        assert np.max(np.abs(np.subtract(radii, dense))) <= 1e-12
        assert lam == max(radii)

    @settings(max_examples=100, deadline=None)
    @given(case=shift_lifts())
    def test_fiber_projection_matches_dense_split(self, case):
        g, sa = case
        assert abs(ll.lambda_new_from_fibers(g, sa) - dense_split_lambda_new(g, sa)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(g=bases())
    def test_sparse_base_lambda_matches_the_dense_spectrum(self, g):
        dense = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), g.d)
        assert abs(ll.lambda_nontrivial_sparse(g) - dense) <= 1e-12
        _check_bipartite_lambda(g)

    @settings(max_examples=100, deadline=None)
    @given(case=shift_lifts())
    def test_plain_lanczos_matches_arpack(self, case):
        _check_plain_lanczos_against_arpack(*case)

    @pytest.mark.parametrize("base,k", [("random_regular 500 6 2", 4),
                                        ("random_regular 300 5 4", 6),
                                        ("random_regular 1000 3 1", 16)])
    def test_plain_lanczos_matches_arpack_at_campaign_sizes(self, base, k):
        g = ll.resolve_base_graph(ll.ExperimentConfig(base, k, 1, 0, (1.0,), "shift_lift"))
        _check_plain_lanczos_against_arpack(g, ll.random_shift_lift(g, k, 3))

    @pytest.mark.parametrize("g", [
        *(pytest.param(ll.complete_bipartite(m), id=f"K{m},{m}") for m in range(1, 9)),
        *(pytest.param(ll.disjoint_copies(ll.complete_graph(2), c), id=f"{c}xK2")
          for c in (2, 3, 7)),
        *(pytest.param(ll.disjoint_copies(ll.complete_bipartite(3), c), id=f"{c}xK3,3")
          for c in (2, 4)),
        *(pytest.param(ll.cycle_graph(n), id=f"C{n}") for n in (4, 6, 8, 10, 24)),
    ])
    def test_bipartite_lambda_matches_the_dense_spectrum(self, g):
        # K_{m,m} (2d = n) takes the exact-zero shortcut
        assert _check_bipartite_lambda(g) is not None
        if 2 * g.d == g.n:
            assert ll.lambda_nontrivial_sparse(g, bipartite=True) == 0.0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_smallest_bases(self, m, k, lanczos_roots):
        # K_2's real operators have order 2 and take the dense branch; K_3's
        # have order 3 (real) or 6 (embedded)
        g = ll.complete_graph(m)
        sa = ll.random_shift_lift(g, k, 5 * m + k)
        _, radii = ll.lambda_new_from_roots(g, sa)
        assert np.max(np.abs(np.subtract(radii, dense_root_radii(g, sa)))) <= 1e-12
        assert abs(ll.lambda_new_from_fibers(g, sa) - dense_split_lambda_new(g, sa)) <= 1e-12
        assert ll.lambda_nontrivial_sparse(g) == 1.0

    @pytest.mark.parametrize("base,k", [("random_regular 60 4 3", 4),
                                        ("random_regular 60 4 3", 7),
                                        ("complete_bipartite 6", 6)])
    def test_sparse_radii_match_the_former_dense_half_roots(self, base, k, lanczos_roots):
        g = ll.resolve_base_graph(ll.ExperimentConfig(base, k, 1, 0, (1.0,), "shift_lift"))
        sa = ll.random_shift_lift(g, k, 17)
        _, radii = ll.lambda_new_from_roots(g, sa)
        assert np.max(np.abs(np.subtract(radii, dense_half_root_radii(g, sa)))) <= 1e-12


def _sparse_radii(g, sa) -> list[float]:
    """Every sparse radius of one shift lift: the k-1 root radii with every
    root solved by Lanczos, the fiber-projected radius, the base lambda and,
    for a bipartite base, lambda with -d dropped too."""
    with mock.patch.object(characterization, "_STACKED_MAX_N", 0):
        radii = list(ll.lambda_new_from_roots(g, sa)[1])
    radii += [ll.lambda_new_from_fibers(g, sa), ll.lambda_nontrivial_sparse(g)]
    try:
        radii.append(ll.lambda_nontrivial_sparse(g, bipartite=True))
    except ll.InvalidParameterError:
        pass
    return radii


def _check_plain_lanczos_against_arpack(g, sa):
    """Every sparse radius of the shift lift of g by sa, from the plain
    Lanczos and from ARPACK, agrees within 1e-12."""
    plain = _sparse_radii(g, sa)
    with mock.patch.object(characterization, "_lanczos_radius", arpack_radius):
        arpack = _sparse_radii(g, sa)
    assert np.max(np.abs(np.subtract(plain, arpack))) <= 1e-12


def _operator_bases():
    fixed = [ll.disjoint_copies(ll.complete_graph(2), 3), ll.complete_bipartite(3),
             ll.cycle_graph(8), ll.disjoint_copies(ll.complete_graph(4), 5)]
    rng = np.random.default_rng(1326)
    drawn = []
    while len(drawn) < 10:
        n, d = int(rng.integers(10, 601)), int(rng.integers(3, 8))
        if n * d % 2 == 0:
            drawn.append(ll.random_regular(n, d, int(rng.integers(0, 2**63))))
    return fixed + drawn


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
def test_root_operators_match_the_bmat_oracle_byte_for_byte(k, monkeypatch, lanczos_roots):
    # Lanczos sees the same products only if the operator bytes are the same;
    # the conjugate embedding (b and -b swapped) has the same spectrum, so
    # no radius test can tell it apart
    seen = []

    def spy(op, what):
        seen.append(op)
        return 0.0

    monkeypatch.setattr(characterization, "_lanczos_radius", spy)
    for i, g in enumerate(_operator_bases()):
        sa = ll.random_shift_lift(g, k, 100 * k + i)
        seen.clear()
        ll.lambda_new_from_roots(g, sa)
        want = bmat_root_operators(g, sa)
        assert len(seen) == len(want) == k // 2
        for got, ref in zip(seen, want):
            assert got.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(ref, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (g.n, k, attr)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12])
def test_no_root_operator_stores_a_zero(k, monkeypatch, lanczos_roots):
    # at k = 4 every weight is real or imaginary, so half the embedding's
    # entries would be zeros that each Lanczos product still multiplies
    seen = []

    def spy(op, what):
        seen.append(op)
        return 0.0

    monkeypatch.setattr(characterization, "_lanczos_radius", spy)
    bases = _operator_bases()
    for i, g in enumerate(bases):
        ll.lambda_new_from_roots(g, ll.random_shift_lift(g, k, 100 * k + i))
    assert len(seen) == len(bases) * (k // 2)
    assert all(np.all(op.data != 0) for op in seen)


@pytest.mark.parametrize("lanczos", [False, True], ids=["stacked", "lanczos"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("n,d", [(4, 3), (12, 4), (40, 3), (STACKED, 3)])
def test_root_radii_match_the_dense_half_roots(n, d, k, lanczos, monkeypatch):
    g = ll.random_regular(n, d, n + k)
    shifts = np.array([ll.random_shift_lift(g, k, s).shift_array for s in range(3)])
    expected = [dense_half_root_radii(g, ll.ShiftAssignment(k, row))[:k // 2] for row in shifts]
    dtypes, eigvalsh = [], np.linalg.eigvalsh

    def recording_eigvalsh(a):
        dtypes.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    # the size rule: stacks up to order _STACKED_MAX_N, Lanczos above it
    monkeypatch.setattr(characterization, "_STACKED_MAX_N", n - 1 if lanczos else n)
    radii = np.transpose(list(characterization._root_radii(g, k, shifts)))
    assert np.max(np.abs(radii - expected)) <= 1e-12
    # stacked: one eigvalsh per root j <= k/2, and M_{k/2} on its real part
    stacks = [np.dtype(complex)] * ((k - 1) // 2) + [np.dtype(float)] * (k % 2 == 0)
    assert dtypes == ([] if lanczos else stacks)


@pytest.mark.parametrize("limit", [STACKED, 0], ids=["stacked", "lanczos"])
@pytest.mark.parametrize("k", [8, 16])
def test_a_bound_met_exactly_counts_as_met(k, limit, monkeypatch):
    # on K_4, 3 * lambda = 3 = d bounds every new eigenvalue, and lifts with
    # lambda_new = d exactly land on either side of it by their last bits:
    # with no slack this fraction read 0.9425 to 0.9875 on these campaigns
    monkeypatch.setattr(characterization, "_STACKED_MAX_N", limit)
    cfg = ll.ExperimentConfig("complete 4", k, 400, 1, (3.0,), "shift_lift")
    report = ll.run_lift_trials(cfg, threads=2)
    assert report.failed == 0 and report.lam == pytest.approx(1.0, abs=1e-12)
    assert any(abs(r.lambda_new - 3.0) <= 1e-12 for r in report.records)
    assert report.frac_multiplicative == ((3.0, 1.0),)


def test_exact_checks_import_no_scipy():
    # scipy in the small exact path raised the exact_small peak RSS from 48
    # to 73 MB; the dense assemblers must not pull it in
    script = (
        "import sys\n"
        "import liftlab as ll\n"
        "g = ll.complete_bipartite(3)\n"
        "ll.verify_characterization(g, ll.random_shift_lift(g, 4, 1))\n"
        "ll.exhaustive_signing_search(ll.complete_graph(4))\n"
        "ll.cheeger_check(g)\n"
        "lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), g.d)\n"
        "ll.eml_check(g, lam, method='exhaustive')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _check_one_value_solves(g, sa):
    """Roots, fibers and the dense oracles agree within 1e-12; returns lambda_new."""
    lam, radii = ll.lambda_new_from_roots(g, sa)
    assert np.max(np.abs(np.subtract(radii, dense_root_radii(g, sa)))) <= 1e-12
    split = dense_split_lambda_new(g, sa)
    assert abs(lam - split) <= 1e-12
    assert abs(ll.lambda_new_from_fibers(g, sa) - split) <= 1e-12
    return lam


@pytest.mark.usefixtures("lanczos_roots")
class TestOneValueSolve:
    """The Lanczos radius asks for one largest-magnitude value; these are the
    cases where one value is easiest to get wrong."""

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_plus_minus_ties_of_bipartite_lifts(self, copies, k, seed):
        # every lift of K_{3,3} is bipartite: each root spectrum is symmetric,
        # so its top value is an exact +-lambda tie
        g = ll.disjoint_copies(ll.complete_bipartite(3), copies)
        sa = ll.random_shift_lift(g, k, 10 * seed + k)
        for j in range(1, k):
            m = loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(k, j))
            vals = ll.eig_symmetric(m).values
            assert abs(vals[0] + vals[-1]) <= 1e-12
        _check_one_value_solves(g, sa)

    def test_disconnected_copy_lifts_reach_d(self):
        # a 4-lift of K_4 falls apart when every cycle's shift sum lies in
        # {0, 2}; the lift then has the new eigenvalue d = 3 (a connected
        # lift can reach 3 too, through -3 when it is bipartite)
        g = ll.disjoint_copies(ll.complete_graph(4), 5)
        seen = set()
        for seed in range(12):
            sa = ll.random_shift_lift(g, 4, seed)
            lifted = ll.build_shift_lift(g, sa).graph
            split = len(bfs_components(lifted.n, lifted.edges)) > 5
            lam = _check_one_value_solves(g, sa)
            if split:
                assert abs(lam - 3.0) <= 1e-12
            seen.add(split)
        assert seen == {False, True}


class _Counted:
    """op with a matrix product that adds one to counter[0] per call."""

    def __init__(self, op, counter):
        self.op, self.counter, self.shape = op, counter, op.shape

    def __matmul__(self, x):
        self.counter[0] += 1
        return self.op @ x


def test_one_trial_asks_for_one_value(monkeypatch):
    # one k = 4 trial: roots j = 1, 2 and the fiber check. Each Lanczos step
    # applies the squared operator once, two sparse-matrix products: 240
    # steps and 480 products in all (85, 70 and 85 steps). ARPACK on the
    # same squared operators took 253 applications, and on the operator
    # itself 433. Each stop test, one per 5 steps, asks dstemr for the top
    # eigenpair of T_j only: range by index (2), from index j to j
    real_dstemr, real_radius = scipy.linalg.lapack.dstemr, characterization._lanczos_radius
    asked, solves, products = [], [], [0]

    def counting(d, e, which, vl, vu, il, iu, *args, **kwargs):
        asked.append((which, il, iu, d.size))
        return real_dstemr(d, e, which, vl, vu, il, iu, *args, **kwargs)

    def radius(op, what, *args):
        solves.append(what)
        return real_radius(_Counted(op, products), what, *args)

    monkeypatch.setattr(scipy.linalg.lapack, "dstemr", counting)
    monkeypatch.setattr(characterization, "_lanczos_radius", radius)
    cfg = ll.ExperimentConfig("random_regular 500 6 2", 4, 1, 0, (1.0,), "shift_lift")
    g = ll.resolve_base_graph(cfg)
    record = experiments._run_one_trial(g, cfg, 0)
    assert record.error is None and len(record.root_radii) == 3
    assert solves == ["root 1", "root 2", "the fiber-sum-zero operator"]
    assert products[0] % 2 == 0 and products[0] <= 500, products[0]
    assert len(asked) == products[0] // 2 // 5
    # the base lambda, plain and with -d dropped
    ll.lambda_nontrivial_sparse(g)
    ll.lambda_nontrivial_sparse(ll.disjoint_copies(ll.complete_bipartite(6), 2),
                                bipartite=True)
    assert len(solves) == 5
    assert all(which == 2 and il == iu == size for which, il, iu, size in asked)


def _check_bipartite_lambda(g):
    """lambda with -d dropped from both paths: both raise InvalidParameterError
    (g is not bipartite) and return None, or they agree within 1e-12 and the
    value is returned."""
    try:
        dense = dense_lambda_nontrivial(g, bipartite=True)
    except ll.InvalidParameterError:
        with pytest.raises(ll.InvalidParameterError):
            ll.lambda_nontrivial_sparse(g, bipartite=True)
        return None
    sparse = ll.lambda_nontrivial_sparse(g, bipartite=True)
    assert abs(sparse - dense) <= 1e-12
    return sparse


def _refuse(*args, **kwargs):
    raise AssertionError("a dense constructor or eigensolver was called")


def _refuse_dense(monkeypatch):
    for module in (characterization, spectra, experiments):
        for name in ("edge_matrix", "eig_symmetric", "spectral_radius"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(lifts, "signed_adjacency", _refuse)
    for module in (np.linalg, scipy.linalg):
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(module, name, _refuse)


@pytest.mark.parametrize("mode,k", [("shift_lift", 4), ("shift_lift", 5), ("two_lift", 2)])
def test_campaigns_build_no_dense_matrix(mode, k, monkeypatch):
    n = 1000
    cfg = ll.ExperimentConfig(f"random_regular {n} 6 2", k, 2, 9, (1.0,), mode)
    g = ll.resolve_base_graph(cfg)
    _refuse_dense(monkeypatch)
    tracemalloc.start()
    try:
        report = ll.run_lift_trials(cfg, graph=g, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.failed == 0, [r.error for r in report.records]
    # a dense n x n real matrix alone would take n*n*8 bytes
    assert peak < n * n * 8, peak


@pytest.mark.parametrize("argv", [
    ["eml", "--method", "sampled", "--samples", "50", "--seed", "3"],
    ["lemma-check", "--which", "lemma3", "--trials", "50", "--seed", "1"],
    ["lemma-check", "--which", "lemma4", "--trials", "50", "--seed", "1"],
], ids=["eml-sampled", "lemma3", "lemma4"])
def test_sampled_checks_build_no_dense_matrix(argv, monkeypatch, tmp_path):
    n = 1000
    g = ll.random_regular(n, 6, 7)
    path, out = tmp_path / "g.graph", tmp_path / "report"
    fileio.write_graph(g, str(path))
    _refuse_dense(monkeypatch)
    for module in (graphs, characterization, experiments, expansion, cli):
        if hasattr(module, "adjacency_matrix"):
            monkeypatch.setattr(module, "adjacency_matrix", _refuse)
    tracemalloc.start()
    try:
        code = dispatch([argv[0], "--graph", str(path), *argv[1:], "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # a dense n x n real matrix alone would take n*n*8 bytes
    assert peak < n * n * 8, peak


@pytest.mark.parametrize("k", [2, 3])
def test_growth_solves_nothing_densely(k, monkeypatch):
    # every level's graph is above the order up to which candidates are
    # ranked by dense root stacks
    g = ll.random_regular(STACKED + 8, 3, 1)
    _refuse_dense(monkeypatch)
    for module in (graphs, characterization, experiments):
        if hasattr(module, "adjacency_matrix"):
            monkeypatch.setattr(module, "adjacency_matrix", _refuse)
    traj = ll.greedy_lift_growth(g, 2, 3, k, 1)
    assert [r.n for r in traj.records] == [g.n * k**level for level in range(3)]


def _fail_lanczos_on(monkeypatch, failing):
    """Make dstemr fail (info 1) on each solve whose _lanczos_radius label
    `what` satisfies failing(what). Every solve reaches dstemr with its
    tridiagonal only, so only the label tells the solves apart."""
    real_dstemr, real_radius = scipy.linalg.lapack.dstemr, characterization._lanczos_radius
    label = [None]

    def labelled(op, what, *args):
        label[0] = what
        return real_radius(op, what, *args)

    def dstemr(*args, **kwargs):
        found, w, z, info = real_dstemr(*args, **kwargs)
        return found, w, z, 1 if failing(label[0]) else info

    monkeypatch.setattr(characterization, "_lanczos_radius", labelled)
    monkeypatch.setattr(scipy.linalg.lapack, "dstemr", dstemr)


def test_root_lanczos_failure_is_a_named_failed_trial(monkeypatch, tmp_path, lanczos_roots):
    n = 40
    _fail_lanczos_on(monkeypatch, lambda what: what.startswith("root "))
    cfg = ll.ExperimentConfig(f"random_regular {n} 3 2", 4, 3, 5, (3.0,), "shift_lift")
    report = ll.run_lift_trials(cfg)
    assert report.failed == cfg.trials
    for record in report.records:
        assert record.error == "Lanczos on root 1 failed: dstemr info 1"

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"base = random_regular {n} 3 2\nmode = two_lift\n"
                        "k = 2\ntrials = 3\nseed = 5\n")
    out = tmp_path / "report.txt"
    assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out)]) == 3
    text = out.read_text()
    assert "failed = 3" in text
    for i in range(3):
        assert (f"trial {i} seed {ll.trial_seed(5, i)} failed Lanczos on root 1 failed"
                in text)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("argv", [["search-signing"],
                                  ["grow", "--levels", "1", "--samples", "8"],
                                  ["grow", "--levels", "1", "--samples", "729", "--k", "3"]],
                         ids=["search-signing", "grow-sampled", "grow-exhaustive"])
def test_stacked_root_failure_exits_three(argv, monkeypatch, tmp_path, capsys):
    # a LAPACK failure once escaped dispatch as LinAlgError: Python's exit 1,
    # which reads as a failed check
    path = tmp_path / "k4.graph"
    fileio.write_graph(ll.complete_graph(4), str(path))
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    assert dispatch([argv[0], "--graph", str(path), *argv[1:]]) == cli.EXIT_NUMERICAL
    assert (capsys.readouterr().err
            == "failure: eigvalsh on root 1 failed: Eigenvalues did not converge\n")


def test_stacked_root_failure_is_a_named_failed_trial(monkeypatch, tmp_path):
    n = 40
    assert n <= STACKED
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    cfg = ll.ExperimentConfig(f"random_regular {n} 3 2", 4, 3, 5, (3.0,), "shift_lift")
    report = ll.run_lift_trials(cfg, threads=2)
    assert report.failed == cfg.trials
    assert [r.error for r in report.records] == (
        ["eigvalsh on root 1 failed: Eigenvalues did not converge"] * cfg.trials)

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"base = random_regular {n} 3 2\nmode = two_lift\n"
                        "k = 2\ntrials = 3\nseed = 5\n")
    out = tmp_path / "report.txt"
    assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out)]) == 3
    text = out.read_text()
    assert "failed = 3" in text
    for i in range(3):
        assert (f"trial {i} seed {ll.trial_seed(5, i)} failed eigvalsh on root 1 failed"
                in text)


def test_restart_vectors_are_seeded(lanczos_roots):
    # random_regular(16, 3) has few distinct eigenvalues: the Krylov space of
    # root 1's embedding turns invariant, and the solve stops at that step
    cfg = ll.ExperimentConfig("random_regular 16 3 2", 4, 10, 42, (1.0,), "shift_lift")
    g = ll.resolve_base_graph(cfg)
    sa = ll.random_shift_lift(g, 4, ll.trial_seed(42, 8))
    assert len({ll.lambda_new_from_roots(g, sa) for _ in range(8)}) == 1


def _cli_env(blas):
    """The environment for a CLI subprocess with OPENBLAS_NUM_THREADS=blas,
    or unset if blas is None."""
    env = {key: val for key, val in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def test_report_bytes_do_not_depend_on_threads_or_blas(tmp_path):
    configs = {"mc": "base = random_regular 300 5 4\nmode = shift_lift\n"
                     "k = 6\ntrials = 6\nseed = 21\nconstants = 1,2,3\n",
               # dense complex root stacks (n <= 128)
               "mc_stacked": "base = random_regular 128 3 1\nmode = shift_lift\n"
                             "k = 8\ntrials = 4\nseed = 3\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    graph, k4, small = (tmp_path / f"{name}.graph" for name in ("base", "k4", "small"))
    fileio.write_graph(ll.random_regular(300, 5, 4), str(graph))
    fileio.write_graph(ll.complete_graph(4), str(k4))
    fileio.write_graph(ll.random_regular(120, 3, 1), str(small))
    out, csv = tmp_path / "out", tmp_path / "csv"
    # only mc takes --threads; the other commands run once per BLAS setting
    runs = [(name, ["mc", "--config", str(tmp_path / f"{name}.cfg"), "--threads", str(threads),
                    "--csv", str(csv)]) for name in configs for threads in (1, 2)]
    runs += [
        ("grow", ["grow", "--graph", str(graph), "--levels", "1", "--samples", "4"]),
        # 3**6 <= 729: an exhaustive level over the 27 classes
        ("grow_classes", ["grow", "--graph", str(k4), "--levels", "1", "--samples", "729",
                          "--k", "3"]),
        # a sampled level ranked by dense root stacks (n <= 128)
        ("grow_stacked", ["grow", "--graph", str(small), "--levels", "1", "--samples", "16",
                          "--k", "4"]),
        ("eml", ["eml", "--graph", str(graph), "--method", "sampled", "--samples", "200",
                 "--seed", "3"]),
        ("lemma3", ["lemma-check", "--graph", str(graph), "--which", "lemma3",
                    "--trials", "200", "--seed", "1"]),
    ]
    seen = {}  # name -> the (report, CSV) bytes of its runs
    for blas in ("1", None):
        for name, argv in runs:
            subprocess.run([sys.executable, "-m", "liftlab.cli", *argv, "--out", str(out)],
                           env=_cli_env(blas), check=True, capture_output=True)
            seen.setdefault(name, set()).add(
                (out.read_bytes(), csv.read_bytes() if argv[0] == "mc" else None))
    assert {name: len(outputs) for name, outputs in seen.items()} == dict.fromkeys(seen, 1)
    for name in configs:
        assert b"failed = 0" in next(iter(seen[name]))[0]


def test_sparse_report_bytes_do_not_depend_on_blas_threads_at_large_order(tmp_path):
    # OpenBLAS splits a dot product over its threads above a length of about
    # 20000, and the split moves its last bits. Every sparse radius of this
    # trial has order 30000 or more. ARPACK, which reorthogonalizes through
    # BLAS, wrote line 11 (lambda) of the two reports differently
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("base = random_regular 30000 3 1\nmode = two_lift\nk = 2\n"
                   "trials = 1\nseed = 5\n")
    reports = set()
    for blas in ("1", "2"):
        out = tmp_path / f"report_{blas}"
        subprocess.run([sys.executable, "-m", "liftlab.cli", "mc", "--config", str(cfg),
                        "--threads", "1", "--out", str(out)],
                       env=_cli_env(blas), check=True, capture_output=True)
        reports.add(out.read_bytes())
    assert len(reports) == 1
    assert b"failed = 0" in reports.pop()


def test_dense_report_bytes_do_not_depend_on_blas_below_the_documented_size(tmp_path):
    # spec (graph order) and verify-shift (lift order) solve densely; on a
    # 2-vCPU host their bytes agreed at every order up to 200 and differed
    # above it (README), so this runs below that size. At order 240 it fails.
    order, k = 160, 4
    base = ll.random_regular(order, 4, 1)
    small = ll.random_regular(order // k, 3, 1)
    shifts = ",".join(map(str, ll.random_shift_lift(small, k, 1).shift_array.tolist()))
    fileio.write_graph(base, str(tmp_path / "base.graph"))
    fileio.write_graph(small, str(tmp_path / "small.graph"))
    outputs = set()
    for blas in ("1", None):
        env = _cli_env(blas)
        run = []
        for argv in (["spec", "--graph", str(tmp_path / "base.graph")],
                     ["verify-shift", "--graph", str(tmp_path / "small.graph"),
                      "--shifts", shifts, "--k", str(k)]):
            out = tmp_path / f"{argv[0]}_{blas}"
            proc = subprocess.run([sys.executable, "-m", "liftlab.cli", *argv, "--out", str(out)],
                                  env=env, check=True, capture_output=True)
            run.append(proc.stdout + out.read_bytes())
        outputs.add(tuple(run))
    assert len(outputs) == 1


def test_base_lambda_failure_fails_every_trial(monkeypatch, tmp_path):
    n = 40
    _fail_lanczos_on(monkeypatch, lambda what: what == "the base graph")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"base = random_regular {n} 3 2\nmode = shift_lift\n"
                        "k = 3\ntrials = 2\nseed = 5\n")
    out = tmp_path / "report.txt"
    assert dispatch(["mc", "--config", str(cfg_path), "--out", str(out)]) == 3
    text = out.read_text()
    assert "lambda = nan" in text and "failed = 2" in text
    for i in range(2):
        assert (f"trial {i} seed {ll.trial_seed(5, i)} failed base lambda: "
                "Lanczos on the base graph failed" in text)
