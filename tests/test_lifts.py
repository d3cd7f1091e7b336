import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liftlab as ll
from liftlab import lifts
from liftlab.errors import InvalidParameterError

from conftest import random_base
from oracles import bfs_components


def spectrum_of(g):
    return ll.eig_symmetric(ll.adjacency_matrix(g)).values


class TestRandomAssignments:
    def test_k1_rejected(self, k4):
        with pytest.raises(InvalidParameterError):
            ll.random_k_lift(k4, 1, 0)
        with pytest.raises(InvalidParameterError):
            ll.random_shift_lift(k4, 1, 0)

    def test_same_seed_identical(self, k4):
        assert ll.random_k_lift(k4, 3, 42) == ll.random_k_lift(k4, 3, 42)
        assert ll.random_shift_lift(k4, 5, 42) == ll.random_shift_lift(k4, 5, 42)
        assert ll.random_signing(k4, 42) == ll.random_signing(k4, 42)

    def test_two_lift_perms_uniform(self):
        # pool the 10 edge permutations over 1000 draws: 10^4 samples of
        # identity-vs-swap, each with probability 1/2
        g = ll.cycle_graph(10)
        identity = 0
        total = 0
        for t in range(1000):
            a = ll.random_k_lift(g, 2, 1000 + t)
            identity += sum(1 for p in a.perms if p == (0, 1))
            total += len(a.perms)
        # z-test at 3 sigma: sd of the count is sqrt(N)/2
        assert abs(identity - total / 2) <= 3 * math.sqrt(total) / 2

    def test_shift_histogram_uniform(self):
        g = ll.cycle_graph(10)
        k = 5
        counts = np.zeros(k)
        for t in range(1000):
            for s in ll.random_shift_lift(g, k, 5000 + t).shifts:
                counts[s] += 1
        total = counts.sum()
        chi2 = float(((counts - total / k) ** 2 / (total / k)).sum())
        dof = k - 1
        assert chi2 <= dof + 3 * math.sqrt(2 * dof)

    def test_shift_and_perm_samplers_agree_in_law_for_k2(self, k4):
        # both samplers should induce the uniform distribution over the 64
        # possible 2-lift assignments of K_4
        draws = 6400
        for sampler in ("perm", "shift"):
            counts = np.zeros(64)
            for t in range(draws):
                if sampler == "perm":
                    a = ll.random_k_lift(k4, 2, 7_000_000 + t)
                else:
                    a = ll.shift_to_assignment(ll.random_shift_lift(k4, 2, 8_000_000 + t))
                code = sum((1 << e) for e, p in enumerate(a.perms) if p == (1, 0))
                counts[code] += 1
            expected = draws / 64
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            dof = 63
            assert chi2 <= dof + 3 * math.sqrt(2 * dof), sampler


class TestConversions:
    def test_all_plus_signing_is_identity_assignment(self, k4):
        a = ll.signing_to_assignment(ll.Signing((1,) * 6))
        assert all(p == (0, 1) for p in a.perms)

    def test_minus_on_k2_is_swap(self):
        a = ll.signing_to_assignment(ll.Signing((-1,)))
        assert a.perms == ((1, 0),)

    def test_shift_to_assignment_values(self):
        sa = ll.ShiftAssignment(3, (0, 1))
        a = ll.shift_to_assignment(sa)
        assert a.perms[0] == (0, 1, 2)
        assert a.perms[1] == (1, 2, 0)

    def test_reverse_direction_composes_to_identity(self):
        k = 6
        sa = ll.ShiftAssignment(k, (4,))
        perm = ll.shift_to_assignment(sa).perms[0]
        inverse = tuple(perm.index(i) for i in range(k))
        assert tuple(inverse[perm[i]] for i in range(k)) == tuple(range(k))
        # and the inverse is the shift by -s mod k
        assert inverse == tuple((i - 4) % k for i in range(k))



class TestBuildLift:
    def test_identity_assignment_gives_disjoint_copies(self, rng):
        g = random_base(rng)
        k = 3
        a = ll.LiftAssignment(k, (tuple(range(k)),) * g.num_edges)
        lifted = ll.build_lift(g, a)
        comps = bfs_components(lifted.graph.n, lifted.graph.edges)
        assert len(comps) == k * len(bfs_components(g.n, g.edges))

    def test_k2_swap_is_two_disjoint_edges(self):
        g = ll.complete_graph(2)
        lifted = ll.build_lift(g, ll.signing_to_assignment(ll.Signing((-1,))))
        assert np.allclose(spectrum_of(lifted.graph), [1, 1, -1, -1], atol=1e-9)

    def test_c3_shift_101_gives_nine_cycle(self):
        # walk holonomy of shifts (1,0,0) is 1 mod 3: one closed 9-walk
        g = ll.cycle_graph(3)
        lifted = ll.build_shift_lift(g, ll.ShiftAssignment(3, (1, 0, 0)))
        assert lifted.graph.n == 9 and lifted.graph.d == 2
        assert len(bfs_components(9, lifted.graph.edges)) == 1
        # 2-regular + connected on 9 vertices forces C_9; spectra agree too
        assert np.allclose(spectrum_of(lifted.graph),
                           spectrum_of(ll.cycle_graph(9)), atol=1e-9)

    def test_length_mismatch_rejected(self, k4):
        with pytest.raises(InvalidParameterError):
            ll.build_lift(k4, ll.LiftAssignment(2, ((0, 1),) * 5))

    def test_lift_endpoints_give_the_built_edge_set(self, rng):
        for _ in range(10):
            g = random_base(rng)
            a = ll.random_k_lift(g, int(rng.integers(2, 7)), int(rng.integers(0, 2**63)))
            x, y = lifts.lift_endpoints(g, a.perm_array)
            assert x.shape == y.shape == (a.k * g.num_edges,)
            ends = {(min(p, q), max(p, q)) for p, q in zip(x.tolist(), y.tolist())}
            assert ends == set(ll.build_lift(g, a).graph.edges)

    def test_lift_shape_invariants(self, rng):
        for _ in range(10):
            g = random_base(rng)
            k = int(rng.integers(2, 7))
            a = ll.random_k_lift(g, k, int(rng.integers(0, 2**63)))
            lifted = ll.build_lift(g, a)
            assert lifted.graph.n == k * g.n
            assert lifted.graph.d == g.d
            assert lifted.graph.num_edges == k * g.num_edges

    def test_projection_is_k_to_one(self, rng):
        g = random_base(rng)
        k = 4
        lifted = ll.build_lift(g, ll.random_k_lift(g, k, 77))
        projected = {}
        for x, y in lifted.graph.edges:
            bu, bv = x // k, y // k
            key = (min(bu, bv), max(bu, bv))
            projected[key] = projected.get(key, 0) + 1
        assert projected == {e: k for e in g.edges}

    def test_two_lift_spectrum_is_base_plus_signed(self, rng):
        for _ in range(15):
            g = random_base(rng, n_range=(6, 14))
            s = ll.random_signing(g, int(rng.integers(0, 2**63)))
            lifted = ll.build_lift(g, ll.signing_to_assignment(s))
            pooled = np.concatenate([
                spectrum_of(g),
                ll.eig_symmetric(ll.signed_adjacency(g, s)).values,
            ])
            assert ll.max_multiset_mismatch(
                spectrum_of(lifted.graph), pooled) <= 1e-9


class TestSignedAdjacency:
    def test_all_plus_equals_adjacency(self, k4):
        s = ll.Signing((1,) * 6)
        assert np.array_equal(ll.signed_adjacency(k4, s), ll.adjacency_matrix(k4))

    def test_k2_minus(self):
        g = ll.complete_graph(2)
        m = ll.signed_adjacency(g, ll.Signing((-1,)))
        assert np.array_equal(m, [[0, -1], [-1, 0]])
        assert np.allclose(ll.eig_symmetric(m).values, [1, -1], atol=1e-12)

    def test_abs_equals_adjacency(self, rng):
        g = random_base(rng)
        s = ll.random_signing(g, 5)
        assert np.array_equal(np.abs(ll.signed_adjacency(g, s)),
                              ll.adjacency_matrix(g))

    def test_length_mismatch(self, k4):
        with pytest.raises(InvalidParameterError):
            ll.signed_adjacency(k4, ll.Signing((1, -1)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    d=st.integers(1, 5),
    graph_seed=st.integers(0, 2**32),
    sign_bits=st.integers(0, 2**25 - 1),
    subset_bits=st.integers(0, 2**10 - 1),
)
def test_switching_preserves_signed_spectrum(n, d, graph_seed, sign_bits, subset_bits):
    assume(d < n and n * d % 2 == 0)
    g = ll.random_regular(n, d, graph_seed)
    signs = [1 - 2 * ((sign_bits >> e) & 1) for e in range(g.num_edges)]
    side = [(subset_bits >> x) & 1 for x in range(n)]
    switched = [s * (-1 if side[u] != side[v] else 1) for (u, v), s in zip(g.edges, signs)]
    before = np.linalg.eigvalsh(ll.signed_adjacency(g, ll.Signing(tuple(signs))))
    after = np.linalg.eigvalsh(ll.signed_adjacency(g, ll.Signing(tuple(switched))))
    np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


class TestTwoLiftBlockMatrix:
    def test_same_signing_gives_block_diagonal(self, k4):
        a = ll.adjacency_matrix(k4)
        block = ll.two_lift_block_matrix(a, a)
        assert np.array_equal(block[:4, :4], a)
        assert np.array_equal(block[:4, 4:], np.zeros((4, 4)))

    def test_negated_signing_gives_bipartite_double_cover(self, k4):
        a = ll.adjacency_matrix(k4)
        block = ll.two_lift_block_matrix(a, -a)
        assert np.array_equal(block[:4, :4], np.zeros((4, 4)))
        assert np.array_equal(block[:4, 4:], a)

    def test_spectrum_matches_built_lift_for_100_signings(self, k4):
        a = ll.adjacency_matrix(k4)
        for t in range(100):
            s = ll.random_signing(k4, 31_000 + t)
            block = ll.two_lift_block_matrix(a, ll.signed_adjacency(k4, s))
            lifted = ll.build_lift(k4, ll.signing_to_assignment(s))
            assert ll.max_multiset_mismatch(
                ll.eig_symmetric(block).values,
                spectrum_of(lifted.graph),
            ) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            ll.two_lift_block_matrix(np.zeros((3, 3)), np.zeros((4, 4)))
