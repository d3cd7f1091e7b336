import numpy as np
import pytest

import liftlab as ll
from liftlab.errors import InvalidParameterError, MatchingError, NumericalError

from conftest import random_base
from oracles import (
    RootOfUnity,
    charpoly_spectrum,
    circulant_cycle_spectrum,
    dense_lambda_nontrivial,
    doubled_real_embedding_spectrum,
    loop_shift_matrix,
)


class TestEigSymmetric:
    def test_k5(self, k5):
        spec = ll.eig_symmetric(ll.adjacency_matrix(k5))
        assert np.allclose(spec.values, [4, -1, -1, -1, -1], atol=1e-9)

    def test_c9_circulant(self):
        spec = ll.eig_symmetric(ll.adjacency_matrix(ll.cycle_graph(9)))
        assert np.allclose(spec.values, circulant_cycle_spectrum(9), atol=1e-9)

    def test_zero_matrix(self):
        spec = ll.eig_symmetric(np.zeros((5, 5)))
        assert np.array_equal(spec.values, np.zeros(5))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidParameterError):
            ll.eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_a_non_finite_entry(self, entry):
        # NaN - NaN is NaN and `NaN > 1e-12` is false, so the symmetry test
        # alone would let a NaN matrix through; inf - inf warns
        m = np.array([[0.0, entry], [entry, 0.0]])
        for solve in (ll.eig_symmetric, lambda m: ll.spectra.eig_stack(m[None])):
            with pytest.raises(InvalidParameterError, match="^matrix has a non-finite entry$"):
                solve(m)

    def test_residuals_and_orthonormality(self, rng):
        m = rng.standard_normal((40, 40))
        m = m + m.T
        (values,), (vecs,) = ll.spectra.eig_stack(m[None])
        resid = m @ vecs - vecs * values
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * np.linalg.norm(m)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(40))) <= 1e-8

    def test_trace_and_frobenius_identities(self, rng):
        g = random_base(rng)
        a = ll.adjacency_matrix(g)
        vals = ll.eig_symmetric(a).values
        assert abs(vals.sum() - np.trace(a)) <= g.n * 1e-9
        assert abs((vals**2).sum() - 2 * g.num_edges) <= g.n * 1e-9

    def test_charpoly_oracle_on_small_sign_matrices(self, rng):
        mats = [
            ll.adjacency_matrix(ll.complete_graph(4)),
            ll.adjacency_matrix(ll.cycle_graph(5)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        ]
        for _ in range(4):
            m = rng.integers(-1, 2, size=(5, 5)).astype(float)
            m = np.triu(m, 1)
            mats.append(m + m.T)
        for m in mats:
            assert np.allclose(ll.eig_symmetric(m).values, charpoly_spectrum(m),
                               atol=1e-9)


class TestEigHermitian:
    def test_root_one_matrix_equals_adjacency_spectrum(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 4, 7)
        h = loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(4, 0))
        assert np.array_equal(h.real, ll.adjacency_matrix(g))
        spec = ll.eig_symmetric(h)
        base = ll.eig_symmetric(ll.adjacency_matrix(g))
        assert ll.max_multiset_mismatch(spec.values, base.values) <= 1e-9

    def test_pauli_like_matrix(self):
        h = np.array([[0.0, 1j], [-1j, 0.0]])
        assert np.allclose(ll.eig_symmetric(h).values, [1, -1], atol=1e-12)

    def test_triangle_unit_directed_shifts_at_omega(self):
        # Shifts equal to 1 along the directed walk 0->1->2->0 are stored as
        # (1, 2, 1) for edges ((0,1),(0,2),(1,2)): the middle edge is
        # traversed against its stored direction. The root-omega matrix is
        # then circulant with eigenvalues 2*Re(omega*zeta) over cube roots
        # zeta, i.e. {2, -1, -1}.
        g = ll.cycle_graph(3)
        sa = ll.ShiftAssignment(3, (1, 2, 1))
        spec = ll.eig_symmetric(loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(3, 1)))
        omega = np.exp(2j * np.pi / 3)
        expected = np.sort([2 * (omega * zeta).real for zeta in omega ** np.arange(3)])[::-1]
        assert np.allclose(spec.values, expected, atol=1e-9)
        assert np.allclose(spec.values, [2, -1, -1], atol=1e-9)

    def test_triangle_stored_shifts_give_nine_cycle_coset(self):
        # Stored shifts (1,1,1) have walk holonomy 1+1-1 = 1, so the lift is
        # the 9-cycle and the root-omega spectrum is the circulant coset
        # {2 cos(2 pi (3j+1)/9)} rather than the triangle spectrum.
        g = ll.cycle_graph(3)
        sa = ll.ShiftAssignment(3, (1, 1, 1))
        spec = ll.eig_symmetric(loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(3, 1)))
        expected = np.sort([2 * np.cos(2 * np.pi * m / 9) for m in (1, 4, 7)])[::-1]
        assert np.allclose(spec.values, expected, atol=1e-9)

    def test_agrees_with_doubled_real_embedding(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 5, 3)
        h = loop_shift_matrix(g.n, g.edges, sa.shifts, RootOfUnity(5, 2))
        assert ll.max_multiset_mismatch(
            ll.eig_symmetric(h).values, doubled_real_embedding_spectrum(h)
        ) <= 1e-9

    def test_hermitian_residuals(self, rng):
        m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        m = m + m.conj().T
        (values,), (vecs,) = ll.spectra.eig_stack(m[None])
        resid = m @ vecs - vecs * values
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * np.linalg.norm(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameterError):
            ll.eig_symmetric(np.array([[0.0, 1j], [1j, 0.0]]))


class TestEigStack:
    def test_each_matrix_solved_as_on_its_own(self, rng):
        """Row i of a stacked solve is bit for bit the single solve of M_i."""
        ms = rng.standard_normal((5, 7, 7)) + 1j * rng.standard_normal((5, 7, 7))
        ms = ms + ms.conj().swapaxes(1, 2)
        values, vecs = ll.spectra.eig_stack(ms)
        for m, w, v in zip(ms, values, vecs):
            (single_w,), (single_v,) = ll.spectra.eig_stack(m[None])
            assert np.array_equal(w, single_w)
            assert np.array_equal(v, single_v)

    def test_rejects_any_non_hermitian_member(self):
        ms = np.zeros((3, 2, 2), dtype=complex)
        ms[2, 0, 1] = 1j
        with pytest.raises(InvalidParameterError, match="asymmetry"):
            ll.spectra.eig_stack(ms)

    def test_rejects_a_single_matrix(self):
        with pytest.raises(InvalidParameterError, match="square"):
            ll.spectra.eig_stack(np.zeros((4, 4)))

    def test_residual_contract_names_the_matrix(self, rng, monkeypatch):
        m = rng.standard_normal((3, 3))
        ms = np.stack([np.eye(3), m + m.T])
        monkeypatch.setattr(ll.spectra, "DEFAULT_TOL", 0.0)
        with pytest.raises(NumericalError, match="of matrix 1 "):
            ll.spectra.eig_stack(ms)


class TestSpectrum:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value(self, bad):
        # NaN passes the sortedness test, and a mismatch against it is NaN,
        # which `mismatch > window` would let through
        with pytest.raises(InvalidParameterError, match="^spectrum values must be finite$"):
            ll.Spectrum([1.0, bad])


class TestSpectralRadius:
    def test_k4_radius(self, k4):
        assert ll.spectral_radius(ll.adjacency_matrix(k4)) == pytest.approx(3.0)

    def test_signed_k2(self):
        assert ll.spectral_radius(np.array([[0.0, -1.0], [-1.0, 0.0]])) == pytest.approx(1.0)

    def test_negation_invariance(self, k4):
        a = ll.adjacency_matrix(k4)
        assert ll.spectral_radius(-a) == pytest.approx(ll.spectral_radius(a))


class TestSplitOldNew:
    def test_identity_two_lift_new_equals_old(self, k4):
        base = ll.eig_symmetric(ll.adjacency_matrix(k4))
        lifted = ll.build_lift(k4, ll.signing_to_assignment(ll.Signing((1,) * 6)))
        lift = ll.eig_symmetric(ll.adjacency_matrix(lifted.graph))
        split = ll.split_old_new(base, lift, 2)
        assert ll.max_multiset_mismatch(split.old, split.new) <= 1e-9

    def test_k2_swap(self):
        g = ll.complete_graph(2)
        base = ll.eig_symmetric(ll.adjacency_matrix(g))
        lifted = ll.build_lift(g, ll.signing_to_assignment(ll.Signing((-1,))))
        # the swap 2-lift of one edge is two disjoint edges
        assert lifted.graph.edges == ((0, 3), (1, 2))
        lift = ll.eig_symmetric(ll.adjacency_matrix(lifted.graph))
        split = ll.split_old_new(base, lift, 2)
        assert np.allclose(split.old, [1, -1], atol=1e-9)
        assert np.allclose(split.new, [1, -1], atol=1e-9)
        assert split.lambda_new == pytest.approx(1.0)

    def test_new_matches_signed_adjacency_spectrum(self, rng):
        for _ in range(30):
            g = ll.random_regular(10, 4, int(rng.integers(0, 2**63)))
            s = ll.random_signing(g, int(rng.integers(0, 2**63)))
            base = ll.eig_symmetric(ll.adjacency_matrix(g))
            lifted = ll.build_lift(g, ll.signing_to_assignment(s))
            lift = ll.eig_symmetric(ll.adjacency_matrix(lifted.graph))
            split = ll.split_old_new(base, lift, 2)
            signed = ll.eig_symmetric(ll.signed_adjacency(g, s))
            assert ll.max_multiset_mismatch(split.new, signed.values) <= 1e-6
            assert ll.max_multiset_mismatch(split.old, base.values) <= 1e-6

    def test_non_lift_spectrum_raises(self, k4, k5):
        base = ll.eig_symmetric(ll.adjacency_matrix(k5))
        bogus = ll.Spectrum(np.sort(np.linspace(-2, 2, 10))[::-1])
        with pytest.raises(MatchingError):
            ll.split_old_new(base, bogus, 2)

    def test_size_mismatch_raises(self, k4):
        base = ll.eig_symmetric(ll.adjacency_matrix(k4))
        with pytest.raises(InvalidParameterError):
            ll.split_old_new(base, base, 2)

    def test_matches_within_default_match_window(self):
        # each base value is off from its partner by half the window
        split = ll.split_old_new(ll.Spectrum([3, 1]),
                                 ll.Spectrum([3 + 5e-7, 2, 1 - 5e-7, 0]), 2)
        assert split.window == ll.spectra.DEFAULT_MATCH_WINDOW == 1e-6
        assert np.array_equal(split.old, [3 + 5e-7, 1 - 5e-7])
        assert np.array_equal(split.new, [2, 0])
        assert split.lambda_new == 2.0

    def test_partner_outside_default_match_window_raises(self):
        # off by twice the window; unrelated spectra, as a NaN window once matched
        for lift in ([3 + 2e-6, 2, 1, 0], [9, 8, 7, 6]):
            with pytest.raises(MatchingError, match="no unused lift partner within 1e-06 "):
                ll.split_old_new(ll.Spectrum([3, 1]), ll.Spectrum(lift), 2)


class TestLambdaNontrivial:
    def test_k5(self, k5):
        spec = ll.eig_symmetric(ll.adjacency_matrix(k5))
        assert ll.lambda_nontrivial(spec, 4) == pytest.approx(1.0, abs=1e-9)

    def test_bipartite_flag_drops_minus_d(self):
        # the convention lives in the sparse path, with the dense oracle as
        # its reference; lambda_nontrivial itself drops d alone
        g = ll.complete_bipartite(3)
        spec = ll.eig_symmetric(ll.adjacency_matrix(g))
        assert dense_lambda_nontrivial(g, bipartite=True) == pytest.approx(0.0, abs=1e-9)
        assert ll.lambda_nontrivial_sparse(g, bipartite=True) == pytest.approx(0.0, abs=1e-9)
        assert ll.lambda_nontrivial(spec, 3) == pytest.approx(3.0, abs=1e-9)

    def test_k2(self):
        spec = ll.eig_symmetric(ll.adjacency_matrix(ll.complete_graph(2)))
        assert ll.lambda_nontrivial(spec, 1) == pytest.approx(1.0)

    def test_top_value_within_1e_6_of_d_is_accepted(self):
        assert ll.lambda_nontrivial(ll.Spectrum([3 + 5e-7, 1, -2]), 3) == 2.0

    @pytest.mark.parametrize("top", [3 + 2e-6, 3 - 2e-6, 5.0])
    def test_top_value_further_than_1e_6_from_d_is_rejected(self, top):
        # a NaN tol once let a top eigenvalue of 5 pass for d = 3
        with pytest.raises(InvalidParameterError,
                           match=r"^top eigenvalue .+ differs from d=3 by more than 1e-06$"):
            ll.lambda_nontrivial(ll.Spectrum([top, 1]), 3)

    def test_wrong_degree_rejected(self, k5):
        spec = ll.eig_symmetric(ll.adjacency_matrix(k5))
        with pytest.raises(InvalidParameterError):
            ll.lambda_nontrivial(spec, 5)

    def test_bipartite_flag_on_nonbipartite_rejected(self, k5):
        # C_3 + C_4 has -2 in its spectrum (from C_4) but is not bipartite
        c3_c4 = ll.RegularGraph(7, 2, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 6), (4, 5), (5, 6)])
        for g in (k5, c3_c4):
            with pytest.raises(InvalidParameterError):
                dense_lambda_nontrivial(g, bipartite=True)
            with pytest.raises(InvalidParameterError):
                ll.lambda_nontrivial_sparse(g, bipartite=True)
