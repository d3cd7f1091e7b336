import numpy as np
import pytest

import liftlab as ll
from liftlab.errors import InvalidParameterError
from liftlab.graphs import edge_matrix, symmetric_csr

from conftest import random_base
from oracles import (RootOfUnity, bfs_components, circulant_cycle_spectrum, loop_adjacency,
                     loop_shift_matrix)


def spectrum_of(g):
    return ll.eig_symmetric(ll.adjacency_matrix(g)).values


class TestGenerators:
    def test_complete_graph_k4(self, k4):
        assert (k4.n, k4.d, k4.num_edges) == (4, 3, 6)
        deg = np.zeros(4, dtype=int)
        for u, v in k4.edges:
            deg[u] += 1
            deg[v] += 1
        assert (deg == 3).all()

    def test_complete_graph_k2(self):
        g = ll.complete_graph(2)
        assert g.edges == ((0, 1),)
        assert g.d == 1

    def test_k5_spectrum(self, k5):
        assert np.allclose(spectrum_of(k5), [4, -1, -1, -1, -1], atol=1e-9)

    def test_complete_graph_rejects_m1(self):
        with pytest.raises(InvalidParameterError):
            ll.complete_graph(1)

    def test_complete_bipartite_k33(self):
        g = ll.complete_bipartite(3)
        assert (g.n, g.d, g.num_edges) == (6, 3, 9)
        assert np.allclose(spectrum_of(g), [3, 0, 0, 0, 0, -3], atol=1e-9)

    def test_complete_bipartite_m1_is_single_edge(self):
        assert ll.complete_bipartite(1).edges == ((0, 1),)

    def test_complete_bipartite_m2_is_c4(self):
        assert np.allclose(spectrum_of(ll.complete_bipartite(2)), [2, 0, 0, -2],
                           atol=1e-9)

    def test_cycle_spectrum_matches_circulant_formula(self):
        assert np.allclose(spectrum_of(ll.cycle_graph(9)),
                           circulant_cycle_spectrum(9), atol=1e-9)

    def test_cycle_small_cases(self):
        assert np.allclose(spectrum_of(ll.cycle_graph(4)), [2, 0, 0, -2], atol=1e-9)
        assert np.allclose(spectrum_of(ll.cycle_graph(3)), [2, -1, -1], atol=1e-9)
        with pytest.raises(InvalidParameterError):
            ll.cycle_graph(2)

    def test_disjoint_copies_spectrum_replicates(self, k4):
        doubled = ll.disjoint_copies(k4, 2)
        assert doubled.n == 8
        expected = np.sort(np.concatenate([spectrum_of(k4)] * 2))[::-1]
        assert np.allclose(spectrum_of(doubled), expected, atol=1e-9)

    def test_disjoint_copies_lambda_equals_d(self, k4):
        g = ll.disjoint_copies(k4, 25)
        assert g.n == 100
        lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), 3)
        assert lam == pytest.approx(3.0, abs=1e-9)

    def test_disjoint_copies_identity(self):
        c3 = ll.cycle_graph(3)
        assert ll.disjoint_copies(c3, 1) == c3


class TestRandomRegular:
    def test_unique_cubic_graph_on_4_vertices_is_k4(self, k4):
        for seed in (0, 1, 99):
            assert ll.random_regular(4, 3, seed).edges == k4.edges

    def test_determinism(self):
        a = ll.random_regular(100, 3, 1)
        b = ll.random_regular(100, 3, 1)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        assert ll.random_regular(100, 3, 1) != ll.random_regular(100, 3, 2)

    def test_validity_across_parameters(self, rng):
        for n, d in [(10, 3), (11, 4), (30, 7), (16, 5)]:
            g = ll.random_regular(n, d, int(rng.integers(0, 2**63)))
            assert (g.n, g.d) == (n, d)  # constructor enforces regularity

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.random_regular(5, 3, 0)  # odd n*d
        with pytest.raises(InvalidParameterError):
            ll.random_regular(4, 4, 0)  # d >= n

    def test_acceptance_base_graph_is_connected_expander(self):
        g = ll.random_regular(500, 6, 7)
        comps = bfs_components(g.n, g.edges)
        assert len(comps) == 1
        lam = ll.lambda_nontrivial(ll.eig_symmetric(ll.adjacency_matrix(g)), 6)
        assert lam < 6


class TestAdjacencyMatrix:
    def test_k2(self):
        assert np.array_equal(ll.adjacency_matrix(ll.complete_graph(2)),
                              [[0, 1], [1, 0]])

    def test_row_sums_and_trace(self, rng):
        g = ll.random_regular(14, 5, 3)
        a = ll.adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert (a.sum(axis=1) == g.d).all()
        assert np.trace(a) == 0


class TestEdgeMatrix:
    def test_weight_stack_equals_single_calls(self, rng):
        g = random_base(rng)
        eu, ev = ll.edge_endpoints(g)
        weights = rng.standard_normal((4, g.num_edges)) + 1j * rng.standard_normal((4, g.num_edges))
        stack = edge_matrix(g.n, eu, ev, weights)
        assert stack.shape == (4, g.n, g.n)
        for w, m in zip(weights, stack):
            assert np.array_equal(m, edge_matrix(g.n, eu, ev, w))

    def test_default_weight_is_the_adjacency_matrix(self, rng):
        g = random_base(rng)
        a = edge_matrix(g.n, *ll.edge_endpoints(g))
        assert a.dtype == np.float64
        assert np.array_equal(a, loop_adjacency(g.n, g.edges))

    def test_int_signs_give_float64(self, rng):
        g = random_base(rng)
        signs = ll.random_signing(g, 3).sign_array
        m = edge_matrix(g.n, *ll.edge_endpoints(g), signs)
        assert m.dtype == np.float64
        assert np.array_equal(m, loop_adjacency(g.n, g.edges, signs))

    def test_root_weights_give_a_hermitian_complex_matrix(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 5, 2)
        t = RootOfUnity(5, 2)
        m = edge_matrix(g.n, *ll.edge_endpoints(g), [t.power(s) for s in sa.shifts])
        assert m.dtype == np.complex128
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m, loop_shift_matrix(g.n, g.edges, sa.shifts, t))

    def test_sparse_assembler_is_the_dense_one(self, rng):
        g = random_base(rng)
        eu, ev = ll.edge_endpoints(g)
        w = rng.standard_normal(g.num_edges)
        for weights in (1.0, w):
            sparse = symmetric_csr(g.n, eu, ev, weights)
            assert sparse.has_sorted_indices and sparse.dtype == np.float64
            assert np.array_equal(sparse.toarray(), edge_matrix(g.n, eu, ev, weights))


class TestValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.RegularGraph(2, 2, ((0, 1), (0, 1)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.RegularGraph(2, 1, ((0, 0),))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.RegularGraph(4, 3, ((0, 1), (2, 3)))

    def test_irregular_degrees_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.RegularGraph(4, 2, ((0, 1), (0, 2), (0, 3), (1, 2)))

    def test_unsorted_edges_rejected(self):
        with pytest.raises(InvalidParameterError):
            ll.RegularGraph(3, 2, ((1, 2), (0, 1), (0, 2)))
