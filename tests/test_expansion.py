import math

import numpy as np
import pytest

import liftlab as ll
from liftlab.errors import InvalidParameterError, SizeLimitError

from liftlab.expansion import _cut_sizes, _cut_tables
from oracles import brute_force_expansion, brute_force_mixing_ratio, per_edge_cut_sizes


def base_lambda(g, bipartite=False):
    return ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), g.d,
                                bipartite=bipartite)


class TestCombinatorialExpansion:
    def test_k4_exhaustive(self, k4):
        report = ll.combinatorial_expansion(k4)
        assert report.h == pytest.approx(2.0)
        assert report.method == "exhaustive"

    def test_c4_exhaustive(self):
        assert ll.combinatorial_expansion(ll.cycle_graph(4)).h == pytest.approx(1.0)

    def test_disconnected_graph_has_zero_expansion(self, k4):
        g = ll.disjoint_copies(k4, 2)
        report = ll.combinatorial_expansion(g)
        assert report.h == 0.0
        # the argmin witness really is a zero-boundary cut
        cut = ll.edges_between(g, report.argmin_subset,
                               set(range(g.n)) - report.argmin_subset)
        assert cut == 0

    def test_matches_brute_force_oracle(self, rng):
        graphs = [
            ll.complete_graph(5),
            ll.cycle_graph(6),
            ll.complete_bipartite(3),
            ll.random_regular(8, 3, 21),
            ll.random_regular(10, 4, 22),
        ]
        for g in graphs:
            report = ll.combinatorial_expansion(g)
            oracle_h, _ = brute_force_expansion(g.n, g.edges)
            assert report.h == pytest.approx(oracle_h, abs=1e-12)

    def test_argmin_subset_achieves_h(self, rng):
        g = ll.random_regular(12, 3, 4)
        report = ll.combinatorial_expansion(g)
        s = report.argmin_subset
        cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
        assert cut / len(s) == pytest.approx(report.h)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            ll.combinatorial_expansion(ll.random_regular(26, 3, 0))

    def test_sampled_upper_bounds_exhaustive(self, rng):
        g = ll.random_regular(14, 3, 9)
        exact = ll.combinatorial_expansion(g)
        sampled = ll.combinatorial_expansion(g, method="sampled", samples=200, seed=3)
        assert sampled.method == "sampled"
        assert sampled.h >= exact.h - 1e-12

    def test_sampled_needs_parameters(self, k4):
        with pytest.raises(InvalidParameterError):
            ll.combinatorial_expansion(k4, method="sampled")


class TestCutKernel:
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
        got = _cut_sizes(masks, _cut_tables(g.n, eu, ev))
        np.testing.assert_array_equal(got, per_edge_cut_sizes(masks, eu, ev))

    def test_three_blocks_match_per_edge_oracle(self):
        g = ll.random_regular(20, 3, 5)
        eu, ev = ll.edge_endpoints(g)
        rng = np.random.default_rng(7)
        masks = np.concatenate([rng.integers(0, 1 << 20, 4096), [(1 << 20) - 1]])
        got = _cut_sizes(masks, _cut_tables(g.n, eu, ev))
        np.testing.assert_array_equal(got, per_edge_cut_sizes(masks, eu, ev))


class TestCheeger:
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
        assert ll.edges_between(k5, everything, everything) == 5 * 4
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

    def test_worst_pair_achieves_ratio(self):
        g = ll.random_regular(8, 3, 17)
        report = ll.eml_check(g, base_lambda(g))
        count = ll.edges_between(g, report.worst_s, report.worst_t)
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

    def test_sampled_never_exceeds_exhaustive(self):
        g = ll.random_regular(10, 3, 12)
        lam = base_lambda(g)
        exact = ll.eml_check(g, lam)
        sampled = ll.eml_check(g, lam, method="sampled", samples=300, seed=4)
        assert sampled.max_ratio <= exact.max_ratio + 1e-12


class TestConverseMixing:
    def test_alpha_never_exceeds_lambda(self):
        for g in [ll.complete_graph(5), ll.random_regular(10, 3, 6)]:
            lam = base_lambda(g)
            report = ll.converse_eml_alpha(g, lam)
            assert report.alpha <= lam + 1e-9

    def test_k5_alpha_at_most_one(self, k5):
        report = ll.converse_eml_alpha(k5, base_lambda(k5))
        assert report.alpha <= 1.0 + 1e-9
        assert report.diagnostic >= 0
