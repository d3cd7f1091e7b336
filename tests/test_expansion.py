import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import liftlab as ll
from liftlab import expansion
from liftlab.errors import InvalidParameterError, SizeLimitError

from liftlab.expansion import _cut_blocks, _cut_grid, _lowest_extreme_masks
from oracles import (
    brute_force_expansion,
    brute_force_mixing_ratio,
    cut_sizes,
    cut_tables,
    full_mask_expansion,
    indicator_edge_count,
    pair_scan_mixing,
    per_edge_cut_sizes,
)
from oracles import dense_lambda_nontrivial as base_lambda


def _tie_corpus():
    """(id, graph, lam) for n <= 12: complete, cycle, complete bipartite and
    disjoint-copy graphs, whose symmetries make many pairs and cuts tie, then
    90 seeded random regular graphs, each with a random lam."""
    cases = [(f"K{n}", ll.complete_graph(n)) for n in range(2, 13)]
    cases += [(f"C{n}", ll.cycle_graph(n)) for n in range(3, 13)]
    cases += [(f"K{m},{m}", ll.complete_bipartite(m)) for m in range(1, 7)]
    for name, g in [("K3", ll.complete_graph(3)), ("K4", ll.complete_graph(4)),
                    ("C4", ll.cycle_graph(4))]:
        cases += [(f"{c}x{name}", ll.disjoint_copies(g, c)) for c in range(2, 12 // g.n + 1)]
    rng = np.random.default_rng(2024)
    out = [(name, g, float(rng.uniform(0.0, g.d))) for name, g in cases]
    while len(out) < len(cases) + 90:
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, n))
        if n * d % 2:
            continue
        seed = int(rng.integers(0, 2**31))
        out.append((f"rr{n}_{d}_{seed}", ll.random_regular(n, d, seed),
                    float(rng.uniform(0.0, d))))
    return out


TIE_CORPUS = _tie_corpus()
LARGE_CUTS = [
    ("C16", ll.cycle_graph(16)),
    ("K8,8", ll.complete_bipartite(8)),
    ("4xK4", ll.disjoint_copies(ll.complete_graph(4), 4)),
    ("rr16_4", ll.random_regular(16, 4, 16)),
    ("C17", ll.cycle_graph(17)),
    ("C20", ll.cycle_graph(20)),
    ("5xC4", ll.disjoint_copies(ll.cycle_graph(4), 5)),
    ("rr20_3", ll.random_regular(20, 3, 20)),
    ("rr21_4", ll.random_regular(21, 4, 21)),
    ("C24", ll.cycle_graph(24)),
    ("8xK3", ll.disjoint_copies(ll.complete_graph(3), 8)),
    ("rr24_3", ll.random_regular(24, 3, 24)),
    ("rr23_4", ll.random_regular(23, 4, 23)),
    ("rr24_5", ll.random_regular(24, 5, 24)),
    ("K12,12", ll.complete_bipartite(12)),
    ("K24", ll.complete_graph(24)),
    # the first chunk of 2^13 masks reaching h holds only masks whose
    # complement is the witness; a later chunk holds a smaller canonical mask
    ("rr18_4_1443098011", ll.random_regular(18, 4, 1443098011)),
    ("rr18_3_267479194", ll.random_regular(18, 3, 267479194)),
    # the same at the granularity of the top mask byte hi, both in mask
    # order and in the popcount order of the scan
    ("rr24_3_1446883356", ll.random_regular(24, 3, 1446883356)),
    ("rr20_3_818821112", ll.random_regular(20, 3, 818821112)),
    ("rr19_4_929298480", ll.random_regular(19, 4, 929298480)),
]


class TestCombinatorialExpansion:
    def test_k4_exhaustive(self, k4):
        assert ll.cheeger_check(k4).h == pytest.approx(2.0)

    def test_c4_exhaustive(self):
        assert ll.cheeger_check(ll.cycle_graph(4)).h == pytest.approx(1.0)

    def test_disconnected_graph_has_zero_expansion(self, k4):
        assert ll.cheeger_check(ll.disjoint_copies(k4, 2)).h == 0.0

    def test_matches_brute_force_oracle(self, rng):
        graphs = [
            ll.complete_graph(5),
            ll.cycle_graph(6),
            ll.complete_bipartite(3),
            ll.random_regular(8, 3, 21),
            ll.random_regular(10, 4, 22),
        ]
        for g in graphs:
            assert ll.cheeger_check(g).h == pytest.approx(brute_force_expansion(g.n, g.edges),
                                                          abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            ll.cheeger_check(ll.random_regular(26, 3, 0))

    def test_parameters_are_checked_before_the_dense_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lambda2 was solved before the parameters were checked")

        monkeypatch.setattr(expansion, "eig_symmetric", refuse)
        with pytest.raises(SizeLimitError):
            ll.cheeger_check(ll.random_regular(26, 3, 0))


class TestCutKernel:
    @pytest.mark.parametrize("g", [
        ll.complete_graph(2),
        ll.cycle_graph(3),
        ll.random_regular(8, 3, 8),
        ll.random_regular(9, 4, 9),
        ll.random_regular(16, 3, 16),
        ll.cycle_graph(17),
        ll.random_regular(18, 4, 18),
        ll.disjoint_copies(ll.complete_graph(3), 8),
        ll.random_regular(24, 3, 24),
        ll.complete_bipartite(12),
        ll.complete_graph(24),
    ], ids=["K2", "C3", "rr8_3", "rr9_4", "rr16_3", "C17", "rr18_4", "8xK3", "rr24_3",
            "K12,12", "K24"])
    def test_cut_grid_matches_per_edge_oracle(self, g):
        # every mask the scan reads: one grid per value of the top byte hi
        eu, ev = ll.edge_endpoints(g)
        blocks = _cut_blocks(g, ll.adjacency_matrix(g))
        grid = np.empty(blocks[0].shape, dtype=np.int32)
        assert len(blocks[1]) * grid.size == 1 << (g.n - 1)
        low = np.arange(grid.size, dtype=np.int32)
        for hi in range(len(blocks[1])):
            want = per_edge_cut_sizes((hi << 16) | low, eu, ev)
            np.testing.assert_array_equal(_cut_grid(blocks, hi, grid).ravel(), want)

    @pytest.mark.parametrize("g", [
        ll.complete_bipartite(3),
        ll.random_regular(6, 3, 2),
        ll.random_regular(9, 4, 3),
        ll.random_regular(12, 3, 4),
        ll.complete_graph(12),
    ], ids=["K33", "rr6_3", "rr9_4", "rr12_3", "K12"])
    def test_byte_tables_match_per_edge_oracle(self, g):
        eu, ev = ll.edge_endpoints(g)
        masks = np.arange(1 << g.n, dtype=np.int64)
        got = cut_sizes(masks, cut_tables(g.n, eu, ev))
        np.testing.assert_array_equal(got, per_edge_cut_sizes(masks, eu, ev))

    def test_three_blocks_match_per_edge_oracle(self):
        g = ll.random_regular(20, 3, 5)
        eu, ev = ll.edge_endpoints(g)
        rng = np.random.default_rng(7)
        masks = np.concatenate([rng.integers(0, 1 << 20, 4096), [(1 << 20) - 1]])
        got = cut_sizes(masks, cut_tables(g.n, eu, ev))
        np.testing.assert_array_equal(got, per_edge_cut_sizes(masks, eu, ev))


class TestExhaustiveOracles:
    """The complement-halved cut scan and the prefix-sum mixing maximum
    against the full scans they replace: equal floats, and for mixing equal
    witnesses."""

    @pytest.mark.parametrize("g", [g for _, g, _ in TIE_CORPUS] + [g for _, g in LARGE_CUTS],
                             ids=[i for i, _, _ in TIE_CORPUS] + [i for i, _ in LARGE_CUTS])
    def test_expansion_matches_full_mask_scan(self, g):
        assert ll.cheeger_check(g).h.hex() == full_mask_expansion(g).hex()

    @pytest.mark.parametrize("g, lam", [(g, lam) for _, g, lam in TIE_CORPUS],
                             ids=[i for i, _, _ in TIE_CORPUS])
    def test_mixing_matches_pair_scan(self, g, lam):
        report = ll.eml_check(g, lam)
        ratio, s, t = pair_scan_mixing(g)
        assert report.max_ratio.hex() == ratio.hex()
        assert (report.worst_s, report.worst_t) == (s, t)
        assert report.passed == (ratio <= lam + report.slack)

    def test_lowest_extreme_masks_match_enumeration(self):
        # eml_check never reaches a partial tie: with one, sizes t - 1 and
        # t + 1 move the deviation by the same step, and as sqrt is strictly
        # concave one of them has the larger ratio. So the lowest-index rule
        # for partial ties is checked here, against enumeration.
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 3, size=(300, 7)).astype(float)
        t = rng.integers(1, 8, size=300)
        high = rng.integers(0, 2, size=300).astype(bool)
        got = _lowest_extreme_masks(rows, t, high)
        for row, size, hi, mask in zip(rows, t, high, got):
            sums = {c: row[list(c)].sum() for c in combinations(range(7), int(size))}
            target = (max if hi else min)(sums.values())
            want = min(sum(1 << x for x in c) for c, total in sums.items() if total == target)
            assert mask == want

    def test_pair_scan_memory_stays_small(self):
        # the full pair scan held (2^12 - 1) x 1024 float blocks, about 193 MB
        g = ll.random_regular(12, 4, 72)
        lam = base_lambda(g)
        tracemalloc.start()
        try:
            ll.eml_check(g, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCheeger:
    def test_scan_memory_stays_small(self):
        # the byte-table scan peaked at about 4.5 MB at n = 24
        g = ll.random_regular(24, 3, 3)
        tracemalloc.start()
        try:
            ll.cheeger_check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_k4_bounds(self, k4):
        report = ll.cheeger_check(k4)
        # lambda2(K_4) = -1: bounds are 2 <= 2 <= sqrt(12)
        assert report.passed
        assert report.lambda2 == pytest.approx(-1.0, abs=1e-9)
        assert report.lower == pytest.approx(2.0, abs=1e-9)
        assert report.upper == pytest.approx(math.sqrt(12.0), abs=1e-9)
        assert report.h == pytest.approx(2.0)

    def test_c4_bounds(self):
        report = ll.cheeger_check(ll.cycle_graph(4))
        # lambda2(C_4) = 0: bounds are 1 <= 1 <= 2
        assert report.passed
        assert report.lower == pytest.approx(1.0, abs=1e-9)
        assert report.h == pytest.approx(1.0)
        assert report.upper == pytest.approx(2.0, abs=1e-9)

    def test_disconnected_graph_zero_both_sides(self, k4):
        report = ll.cheeger_check(ll.disjoint_copies(k4, 2))
        assert report.passed
        assert report.lambda2 == pytest.approx(3.0, abs=1e-9)
        assert report.lower == pytest.approx(0.0, abs=1e-9)
        assert report.h == 0.0

    def test_compares_with_bound_slack(self, k4):
        # K_4 is tight on the lower side (h = (d - lambda2)/2 = 2), so it
        # passes only through the slack, which is BOUND_SLACK for every graph
        report = ll.cheeger_check(k4)
        assert report.slack == ll.spectra.BOUND_SLACK == 1e-9
        assert report.passed
        assert report.lower - report.slack <= report.h <= report.upper + report.slack

    def test_holds_across_small_corpus(self, rng):
        graphs = [
            ll.complete_graph(6),
            ll.cycle_graph(7),
            ll.complete_bipartite(4),
            ll.random_regular(10, 3, 1),
            ll.random_regular(12, 5, 2),
            ll.random_regular(16, 3, 3),
        ]
        for g in graphs:
            assert ll.cheeger_check(g).passed


class TestMixing:
    def test_k5_exhaustive_within_lambda(self, k5):
        lam = base_lambda(k5)
        report = ll.eml_check(k5, lam)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert report.passed
        assert report.max_ratio <= 1.0 + 1e-9

    def test_matches_pair_oracle(self):
        for g in [ll.complete_graph(4), ll.cycle_graph(4), ll.cycle_graph(5)]:
            report = ll.eml_check(g, base_lambda(g))
            oracle = brute_force_mixing_ratio(g.n, g.d, ll.adjacency_matrix(g))
            assert report.max_ratio == pytest.approx(oracle, abs=1e-12)

    def test_whole_vertex_set_has_zero_deviation(self, k5):
        # E(V,V) counts both incidences of each edge: d*n exactly
        everything = set(range(5))
        assert indicator_edge_count(ll.adjacency_matrix(k5), everything, everything) == 5 * 4
        report = ll.eml_check(k5, base_lambda(k5))
        # the maximizing pair is never (V, V) since that deviation is 0
        assert report.max_ratio > 0

    def test_bipartite_lambda_convention_matters(self):
        # C_4 is bipartite: with -d excluded lambda = 0 and the bound fails
        # on the bipartition pair; with the default convention lambda = 2
        # and every pair passes.
        c4 = ll.cycle_graph(4)
        strict = ll.eml_check(c4, base_lambda(c4, bipartite=True))
        assert not strict.passed
        # worst pair is one bipartition class against itself: E = 0 against
        # an expectation of 2, ratio 2/sqrt(4) = 1 (brute-force oracle agrees)
        assert strict.max_ratio == pytest.approx(
            brute_force_mixing_ratio(4, 2, ll.adjacency_matrix(c4)), abs=1e-12
        )
        assert strict.max_ratio == pytest.approx(1.0, abs=1e-9)
        loose = ll.eml_check(c4, base_lambda(c4))
        assert loose.passed

    def test_compares_with_bound_slack(self):
        # C_4's worst pair has ratio 1 exactly: a lam below 1 by half the
        # slack passes, one below by twice the slack fails, for both methods
        c4 = ll.cycle_graph(4)
        for method in ({}, {"method": "sampled", "samples": 64, "seed": 1}):
            inside = ll.eml_check(c4, 1.0 - 0.5e-9, **method)
            outside = ll.eml_check(c4, 1.0 - 2e-9, **method)
            assert inside.slack == outside.slack == ll.spectra.BOUND_SLACK
            assert inside.max_ratio == outside.max_ratio == 1.0
            assert inside.passed and not outside.passed

    def test_worst_pair_achieves_ratio(self):
        g = ll.random_regular(8, 3, 17)
        report = ll.eml_check(g, base_lambda(g))
        count = indicator_edge_count(ll.adjacency_matrix(g), report.worst_s, report.worst_t)
        dev = abs(count - g.d * len(report.worst_s) * len(report.worst_t) / g.n)
        assert dev / math.sqrt(len(report.worst_s) * len(report.worst_t)) == \
            pytest.approx(report.max_ratio, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            ll.eml_check(ll.random_regular(14, 3, 0), 3.0)

    def test_sampled_mode(self):
        g = ll.random_regular(30, 4, 2)
        lam = base_lambda(g)
        report = ll.eml_check(g, lam, method="sampled", samples=500, seed=8)
        assert report.method == "sampled"
        assert report.passed

    def test_exhaustive_mode_rejects_sampled_parameters(self, k4):
        # eml_check names the dropped parameter instead of ignoring it
        lam = base_lambda(k4)
        for samples, seed, named in ((5, None, "samples"), (None, 3, "seed"),
                                     (5, 3, "samples or seed"), (0, 0, "samples or seed")):
            with pytest.raises(InvalidParameterError, match=f"^exhaustive mode takes no {named}$"):
                ll.eml_check(k4, lam, "exhaustive", samples, seed)

    def test_sampled_never_exceeds_exhaustive(self):
        g = ll.random_regular(10, 3, 12)
        lam = base_lambda(g)
        exact = ll.eml_check(g, lam)
        sampled = ll.eml_check(g, lam, method="sampled", samples=300, seed=4)
        assert sampled.max_ratio <= exact.max_ratio + 1e-12


    @pytest.mark.parametrize("lam", [math.nan, -1.0, math.inf])
    def test_bad_lam_is_rejected(self, k4, lam):
        # a NaN or negative lam would report passed = False, an infinite one
        # passed = True
        for method in ({}, {"method": "sampled", "samples": 5, "seed": 1}):
            with pytest.raises(InvalidParameterError,
                               match=f"^lam must be finite and >= 0, got {lam}$"):
                ll.eml_check(k4, lam, **method)
