import tracemalloc

import numpy as np
import pytest

import liftlab as ll
from liftlab import characterization, fileio
from liftlab.errors import CharacterizationError, InvalidParameterError

from conftest import random_base
from oracles import RootOfUnity, circulant_cycle_spectrum, per_root_characterization


class TestRootOfUnity:
    def test_power_k_is_one(self):
        for k in range(1, 12):
            assert np.max(np.abs(characterization._root_values(k) ** k - 1)) <= 1e-12

    def test_zeroth_root_is_exactly_one(self):
        assert characterization._root_values(7)[0] == 1.0 + 0.0j

    def test_k2_root_is_exactly_minus_one(self):
        assert characterization._root_values(2)[1] == -1.0 + 0.0j

    def test_roots_listing(self):
        assert np.array_equal(characterization._root_values(4), [1, 1j, -1, -1j])

    def test_power_table_is_scalar_power_bit_for_bit(self):
        # the root path reads t_j**s as entry (j*s) mod k of the k root
        # values, built by numpy cos/sin: every j at small k, a spread of j
        # at odd, prime and large k; float bits, so -0.0 cannot pass as 0.0
        for k in [*range(1, 65), 97, 1024, 4096, 4097, 4099, 65536, 65537]:
            roots, s = characterization._root_values(k), np.arange(k)
            for j in range(k) if k <= 12 else {1, 2, 3 * k // 7, k // 2, k - 1}:
                t = RootOfUnity(k, j)
                want = np.array([t.power(int(i)) for i in s])
                assert np.array_equal(roots[j * s % k].view(np.int64), want.view(np.int64))


class TestRootPathMemory:
    """Each root's weights are read from the k root values, so no call
    below holds a k x k table of powers (384 MB at k = 4096)."""

    K = 4096
    LIMIT = 8 * 2**20

    @pytest.fixture
    def lift(self):
        g = ll.random_regular(20, 3, 1)
        return g, ll.random_shift_lift(g, self.K, 7)

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("limit", [characterization._STACKED_MAX_N, 0],
                             ids=["stacked", "lanczos"])
    def test_roots(self, lift, monkeypatch, limit):
        monkeypatch.setattr(characterization, "_lanczos_radius", lambda op, what: 0.0)
        monkeypatch.setattr(characterization, "_STACKED_MAX_N", limit)
        g = lift[0]
        ll.lambda_new_from_roots(g, ll.random_shift_lift(g, 4, 0))  # scipy imports, untraced
        assert self._peak(lambda: ll.lambda_new_from_roots(*lift)) <= self.LIMIT

    def test_verify_refuses_a_lift_over_the_dense_cap_before_building_it(self):
        # k*n = 5200: the (kn)^2 lift matrix alone would be 216 MB
        g = ll.random_regular(20, 3, 1)
        sa = ll.random_shift_lift(g, 260, 7)

        def verify():
            with pytest.raises(ll.SizeLimitError, match=r"^dense solver capped at n=5000, got 5200$"):
                ll.verify_characterization(g, sa)

        assert self._peak(verify) < 5 * 2**20

    def test_verify_refuses_a_lift_over_the_dense_cap_before_its_permutations(self):
        # k*n = 4 * 10^6: the (m, k) permutations and the lift edge arrays
        # would take 144 MB before edge_matrix itself could refuse the order
        g = ll.complete_graph(4)
        sa = ll.ShiftAssignment(10**6, (0,) * g.num_edges)

        def verify():
            with pytest.raises(ll.SizeLimitError, match=r"^dense solver capped at n=5000, got 4000000$"):
                ll.verify_characterization(g, sa)

        assert self._peak(verify) < 5 * 2**20


class TestVerifyCharacterization:
    def test_all_zero_shifts(self, rng):
        g = random_base(rng)
        k = 4
        sa = ll.ShiftAssignment(k, (0,) * g.num_edges)
        report = ll.verify_characterization(g, sa)
        base = ll.eig_symmetric(ll.adjacency_matrix(g)).values
        expected = np.sort(np.concatenate([base] * k))[::-1]
        assert ll.max_multiset_mismatch(report.pooled, expected) <= 1e-9

    def test_triangle_pooled_spectrum_is_nine_cycle(self):
        g = ll.cycle_graph(3)
        report = ll.verify_characterization(g, ll.ShiftAssignment(3, (1, 0, 0)))
        assert ll.max_multiset_mismatch(report.pooled,
                                        circulant_cycle_spectrum(9)) <= 1e-9

    def test_random_instances(self, rng):
        for _ in range(30):
            g = random_base(rng)
            k = int(rng.integers(2, 9))
            sa = ll.random_shift_lift(g, k, int(rng.integers(0, 2**63)))
            report = ll.verify_characterization(g, sa)
            assert report.max_multiset_mismatch <= 1e-6
            assert report.max_eigenvector_residual <= 1e-8 * report.lift_frobenius_norm
            assert report.max_cross_root_inner <= 1e-8

    def test_lambda_new_equals_max_root_radius(self, rng):
        for _ in range(10):
            g = random_base(rng)
            k = int(rng.integers(2, 6))
            sa = ll.random_shift_lift(g, k, int(rng.integers(0, 2**63)))
            lifted = ll.build_shift_lift(g, sa)
            split = ll.split_old_new(
                ll.eig_symmetric(ll.adjacency_matrix(g)),
                ll.eig_symmetric(ll.adjacency_matrix(lifted.graph)),
                k,
            )
            from_roots, radii = ll.lambda_new_from_roots(g, sa)
            assert len(radii) == k - 1
            assert abs(split.lambda_new - from_roots) <= 1e-6

    def test_impossible_tolerance_raises_with_offender(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 3, 123)
        with pytest.raises(CharacterizationError, match="residual"):
            ll.verify_characterization(g, sa, tol=0.0)

    def test_zero_window_raises_with_offender(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 5, 7)
        report = ll.verify_characterization(g, sa)
        assert report.max_multiset_mismatch > 0.0
        with pytest.raises(CharacterizationError,
                           match=f"mismatch lift spectrum by {report.max_multiset_mismatch:.3e}"):
            ll.verify_characterization(g, sa, window=0.0)

    def test_zero_ortho_tol_raises_with_offender(self, rng):
        g = random_base(rng)
        sa = ll.random_shift_lift(g, 4, 11)
        report = ll.verify_characterization(g, sa)
        assert report.max_cross_root_inner > 0.0
        with pytest.raises(CharacterizationError,
                           match=f"cross-root inner product {report.max_cross_root_inner:.3e}"):
            ll.verify_characterization(g, sa, ortho_tol=0.0)

    @pytest.mark.parametrize("name", ["tol", "window", "ortho_tol"])
    @pytest.mark.parametrize("value", [float("nan"), -1.0, -1e-300, float("inf")])
    def test_nan_or_negative_threshold_is_rejected(self, k4, name, value):
        # every comparison with NaN is false, so a NaN threshold passed any
        # instance, as an infinite one did; a negative one failed every
        # instance as a check failure
        sa = ll.random_shift_lift(k4, 3, 1)
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be finite and >= 0, got {value}$"):
            ll.verify_characterization(k4, sa, **{name: value})

    @pytest.mark.parametrize("call", [
        lambda g, sa: ll.verify_characterization(g, sa),
        lambda g, sa: ll.lambda_new_from_roots(g, sa),
        lambda g, sa: ll.lambda_new_from_fibers(g, sa),
    ])
    def test_shift_count_mismatch_is_named(self, k4, call):
        with pytest.raises(InvalidParameterError, match="^assignment has 3 shifts for 6 edges$"):
            call(k4, ll.ShiftAssignment(3, (0, 1, 2)))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_eigh_call_per_check(self, rng, monkeypatch, k):
        calls = []
        eigh = np.linalg.eigh

        def spy(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        g = random_base(rng)
        ll.verify_characterization(g, ll.random_shift_lift(g, k, 3))
        assert calls == [(k, g.n, g.n)]

    def test_report_bytes_match_per_root_oracle(self, rng):
        """The stacked solve writes the per-root loop's report byte for byte."""
        cases = []
        for _ in range(200):
            g = random_base(rng, n_range=(4, 13))
            k = int(rng.integers(2, 9))
            cases.append((g, ll.random_shift_lift(g, k, int(rng.integers(0, 2**63)))))
        k4x3 = ll.disjoint_copies(ll.complete_graph(4), 3)
        cases += [
            (ll.cycle_graph(3), ll.ShiftAssignment(3, (1, 0, 0))),
            (ll.complete_bipartite(3), ll.ShiftAssignment(4, (0, 1, 2, 3, 0, 1, 2, 3, 1))),
            (k4x3, ll.random_shift_lift(k4x3, 3, 5)),
            (ll.complete_graph(4), ll.ShiftAssignment(2, (1, 0, 1, 1, 0, 1))),
        ]
        for g, sa in cases:
            assert (fileio.characterization_report_text(ll.verify_characterization(g, sa))
                    == fileio.characterization_report_text(per_root_characterization(g, sa)))

    def test_report_per_root_ordering(self, rng):
        g = random_base(rng)
        k = 3
        sa = ll.random_shift_lift(g, k, 5)
        report = ll.verify_characterization(g, sa)
        assert len(report.per_root_spectra) == k
        base = ll.eig_symmetric(ll.adjacency_matrix(g)).values
        # root j=0 is t=1, whose spectrum is the old (base) spectrum
        assert ll.max_multiset_mismatch(report.per_root_spectra[0].values,
                                        base) <= 1e-9
