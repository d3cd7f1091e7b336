import math

import numpy as np
import pytest

import liftlab as ll
from liftlab.errors import InvalidParameterError, SearchError


def random_grid_vector(rng, n, max_level=8):
    levels = rng.integers(1, max_level + 1, size=n)
    signs = rng.choice([-1.0, 0.0, 1.0], size=n)
    return signs * np.ldexp(1.0, -levels)


class TestSupport:
    def test_zero_vector(self):
        assert ll.support(np.zeros(5)) == frozenset()

    def test_mixed_signs(self):
        assert ll.support(np.array([1.0, 0.0, -1.0])) == frozenset({0, 2})

    def test_size_bounded_by_dimension(self, rng):
        v = rng.standard_normal(10)
        assert len(ll.support(v)) <= 10


class TestDyadicDecompose:
    def test_basic_example(self):
        dd = ll.dyadic_decompose(np.array([0.5, -0.25, 0.0]))
        assert [i for i, _ in dd.terms] == [1, 2]
        assert np.array_equal(dd.terms[0][1], [1, 0, 0])
        assert np.array_equal(dd.terms[1][1], [0, -1, 0])

    def test_zero_vector_is_empty(self):
        assert ll.dyadic_decompose(np.zeros(4)).terms == ()

    def test_off_grid_entry_names_index(self):
        with pytest.raises(InvalidParameterError, match="entry 1"):
            ll.dyadic_decompose(np.array([0.5, 0.3]))
        with pytest.raises(InvalidParameterError, match="entry 0"):
            ll.dyadic_decompose(np.array([1.0, 0.5]))  # 2^0 is above the grid

    def test_reconstruction_bit_exact(self, rng):
        for _ in range(1000):
            y = random_grid_vector(rng, int(rng.integers(1, 30)))
            dd = ll.dyadic_decompose(y)
            recon = dd.reconstruct() if dd.terms else np.zeros_like(y)
            assert np.array_equal(recon, y)

    def test_supports_disjoint(self, rng):
        y = random_grid_vector(rng, 40)
        dd = ll.dyadic_decompose(y)
        seen = set()
        for _, u in dd.terms:
            s = ll.support(u)
            assert not (seen & s)
            seen |= s

    def test_norm_identity(self, rng):
        # ||y||^2 = sum over levels of 4^-i |S(u_i)| with disjoint supports
        y = random_grid_vector(rng, 25)
        dd = ll.dyadic_decompose(y)
        total = sum(4.0**-i * len(ll.support(u)) for i, u in dd.terms)
        assert total == float(y @ y)


class TestDyadicRound:
    def test_grid_input_is_fixed_point(self, rng):
        y = random_grid_vector(rng, 12)
        assert np.array_equal(ll.dyadic_round(y, rng), y)

    def test_output_always_on_grid(self, rng):
        x = rng.uniform(-0.5, 0.5, size=20)
        for _ in range(50):
            y = ll.dyadic_round(x, rng)
            ll.dyadic_decompose(y)  # raises if off-grid

    def test_per_coordinate_unbiasedness(self, rng):
        x = np.array([0.3, -0.17, 0.5, 0.07, -0.41])
        rounds = 20000
        acc = np.zeros_like(x)
        spread = np.zeros_like(x)
        for _ in range(rounds):
            y = ll.dyadic_round(x, rng)
            acc += y
            spread += y * y
        mean = acc / rounds
        var = spread / rounds - mean**2
        sigma = np.sqrt(np.maximum(var, 1e-30) / rounds)
        assert np.all(np.abs(mean - x) <= 3 * sigma + 1e-12)


class TestDiscretize:
    def test_grid_vector_returned_unchanged(self, rng):
        g = ll.random_regular(8, 3, 5)
        m = ll.adjacency_matrix(g)
        x = random_grid_vector(rng, 8)
        y = ll.discretize(x, m, seed=1)
        assert np.array_equal(y, x)

    def test_zero_vector(self):
        m = ll.adjacency_matrix(ll.complete_graph(4))
        assert np.array_equal(ll.discretize(np.zeros(4), m, seed=0), np.zeros(4))

    def test_random_inputs_succeed_with_guarantees(self, rng):
        g = ll.random_regular(20, 4, 8)
        for t in range(25):
            s = ll.random_signing(g, t)
            m = ll.signed_adjacency(g, s)
            x = rng.uniform(-0.5, 0.5, size=20)
            y = ll.discretize(x, m, seed=t, max_tries=10000)
            assert abs(y @ m @ y) >= abs(x @ m @ x) - 1e-12
            assert y @ y <= 4 * (x @ x) + 1e-12
            ll.dyadic_decompose(y)

    def test_quadratic_form_expectation(self, rng):
        # over independent roundings, E[y^T M y] = x^T M x (zero diagonal)
        g = ll.random_regular(16, 3, 3)
        m = ll.signed_adjacency(g, ll.random_signing(g, 9))
        x = rng.uniform(-0.5, 0.5, size=16)
        target = float(x @ m @ x)
        rounds = 20000
        vals = np.empty(rounds)
        for i in range(rounds):
            y = ll.dyadic_round(x, rng)
            vals[i] = y @ m @ y
        se = vals.std(ddof=1) / math.sqrt(rounds)
        assert abs(vals.mean() - target) <= 3 * se

    def test_rejects_large_entries(self):
        m = ll.adjacency_matrix(ll.complete_graph(3))
        with pytest.raises(InvalidParameterError):
            ll.discretize(np.array([0.6, 0.0, 0.0]), m, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        # NaN compares False, so the ||x||_inf and symmetry checks alone
        # would let it spend every rounding try before a SearchError
        m = ll.adjacency_matrix(ll.complete_graph(3))
        x = np.array([0.25, bad, 0.0])
        m_bad = m.copy()
        m_bad[0, 1] = m_bad[1, 0] = bad
        for call in (lambda: ll.discretize(x, m, seed=0),
                     lambda: ll.discretize(np.zeros(3), m_bad, seed=0)):
            with pytest.raises(InvalidParameterError, match="x and M must be finite"):
                call()

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidParameterError):
            ll.discretize(np.zeros(2), np.eye(2), seed=0)

    def test_search_failure_reports_best(self):
        # target 2*(0.26)^2 = 0.1352 but the (down, down) rounding gives
        # 0.125; with up-probability 0.04 per coordinate one try usually
        # fails, and seed 0 is pinned to a failing first draw
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([0.26, 0.26])
        with pytest.raises(SearchError) as info:
            ll.discretize(x, m, seed=0, max_tries=1)
        assert info.value.best is not None
        assert abs(info.value.best @ m @ info.value.best) < abs(x @ m @ x)


class TestGeometricLogSumBound:
    def test_t_zero_trivially_holds(self):
        lhs, rhs, c = ll.geometric_log_sum_bound(2.0, 0, 16.0, 1.0)
        assert lhs == pytest.approx(4.0)  # log2(16) = 4
        assert c >= 1.0
        assert lhs <= rhs

    def test_frozen_r2_example(self):
        # lhs = 1*5 + 2*4 + 4*3 + 8*2 = 41; alpha(2) = 4/3, c(2) = 5,
        # rhs = 5 * (8 * log2(4)) = 80
        lhs, rhs, c = ll.geometric_log_sum_bound(2.0, 3, 32.0, 1.0)
        assert lhs == pytest.approx(41.0)
        assert c == pytest.approx(5.0)
        assert rhs == pytest.approx(80.0)

    def test_full_sweep_grid(self):
        for r in (2.0, 4.0):
            for t in range(0, 11):
                for x in (0.5, 1.0, 2.0):
                    z = 2.0 * r**t
                    lhs, rhs, _ = ll.geometric_log_sum_bound(r, t, z, x)
                    assert lhs <= rhs

    def test_wider_z_values(self):
        for r in (2.0, 3.0, 4.0):
            for t in range(0, 8):
                for mult in (2.0, 7.5, 64.0):
                    for x in (0.5, 1.0, 2.0, 3.0):
                        lhs, rhs, _ = ll.geometric_log_sum_bound(r, t, mult * r**t, x)
                        assert lhs <= rhs

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            ll.geometric_log_sum_bound(1.5, 1, 100.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ll.geometric_log_sum_bound(2.0, 1, 100.0, 0.0)
        with pytest.raises(InvalidParameterError):
            ll.geometric_log_sum_bound(2.0, 5, 40.0, 1.0)  # r^t > z/2
        with pytest.raises(InvalidParameterError):
            ll.geometric_log_sum_bound(2.0, -1, 100.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_arguments_rejected(self, bad, slot):
        # a NaN lhs or rhs would read as a pass, since lhs > rhs is False
        args = [2.0, 3, 32.0, 1.0]
        args[slot] = bad
        with pytest.raises(InvalidParameterError, match="need finite r, t, z, x"):
            ll.geometric_log_sum_bound(*args)
