import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy.integrate import quad

from asianhermite import (
    GhpBasis,
    change_of_basis,
    ghp_eval,
    ghp_norm_sq,
    hermite_eval,
    payoff_coefficients,
    payoff_l2_error,
    payoff_series_eval,
)
from asianhermite.hermite import SERIES_TAIL_END, hermite_orthonormal_values

from conftest import ghq_integral

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

BASIS_CASES = [(0.0, 1.0), (5.0, 2.0), (-3.0, 0.5)]


class TestHermiteEval:
    def test_degree_zero_is_one(self):
        assert hermite_eval(0, 3.7) == 1.0

    def test_degree_two(self):
        assert hermite_eval(2, 2.0) == 3.0

    def test_degree_three_by_recurrence(self):
        # x^3 - 3x at x = 2
        assert hermite_eval(3, 2.0) == 2.0

    def test_against_numpy_basis(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-4, 4, size=50)
        for n in range(0, 25):
            coef = np.zeros(n + 1)
            coef[n] = 1.0
            expected = hermite_e.hermeval(xs, coef)
            np.testing.assert_allclose(hermite_eval(n, xs), expected, rtol=1e-10)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)

    def test_orthonormal_values_match(self):
        u = hermite_orthonormal_values(30, 1.7)
        for n in (0, 5, 17, 30):
            expected = hermite_eval(n, 1.7) / math.sqrt(math.factorial(n))
            assert u[n] == pytest.approx(expected, rel=1e-12)


class TestGhpEval:
    def test_reduces_to_standard(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=10)
        assert ghp_eval(basis, 5, 1.3) == hermite_eval(5, 1.3)

    def test_scale_two(self):
        basis = GhpBasis(drift=2.0, scale=2.0, order=3)
        assert ghp_eval(basis, 1, 4.0) == 0.5

    def test_degree_zero(self):
        basis = GhpBasis(drift=7.7, scale=0.3, order=2)
        assert ghp_eval(basis, 0, -11.0) == 1.0

    def test_degree_above_order_rejected(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=3)
        with pytest.raises(ValueError):
            ghp_eval(basis, 4, 0.0)

    def test_scaling_lemma_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            b = rng.uniform(0.2, 4.0)
            n = int(rng.integers(0, 15))
            x = rng.uniform(-8, 8)
            basis = GhpBasis(drift=a, scale=b, order=15)
            expected = b ** (-n) * hermite_eval(n, (x - a) / b)
            assert ghp_eval(basis, n, x) == expected


class TestGhpNorm:
    def test_degree_zero_unit_scale(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=0)
        assert ghp_norm_sq(basis, 0) == pytest.approx(SQRT_TWO_PI, rel=1e-15)

    def test_lemma_value(self):
        basis = GhpBasis(drift=0.0, scale=2.0, order=3)
        assert ghp_norm_sq(basis, 3) == pytest.approx(6.0 * SQRT_TWO_PI / 32.0, rel=1e-15)

    def test_degree_ten_against_quadrature(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=10)
        expected = ghq_integral(lambda x: ghp_eval(basis, 10, x) ** 2, 0.0, 1.0)
        assert ghp_norm_sq(basis, 10) == pytest.approx(SQRT_TWO_PI * 3628800.0, rel=1e-12)
        assert ghp_norm_sq(basis, 10) == pytest.approx(expected, rel=1e-10)

    def test_log_space_branch_continuous(self):
        basis = GhpBasis(drift=0.0, scale=1.3, order=30)
        direct = SQRT_TWO_PI * math.factorial(21) / 1.3**41
        assert ghp_norm_sq(basis, 21) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("a,b", BASIS_CASES)
    def test_norm_matches_quadrature(self, a, b):
        basis = GhpBasis(drift=a, scale=b, order=12)
        for n in range(13):
            integral = ghq_integral(lambda x: ghp_eval(basis, n, x) ** 2, a, b)
            assert integral == pytest.approx(ghp_norm_sq(basis, n), rel=1e-9)

    @pytest.mark.parametrize("a,b", BASIS_CASES)
    def test_orthogonality(self, a, b):
        basis = GhpBasis(drift=a, scale=b, order=12)
        for i in range(12):
            for j in range(i + 1, 13):
                integral = ghq_integral(
                    lambda x: ghp_eval(basis, i, x) * ghp_eval(basis, j, x), a, b
                )
                scale = math.sqrt(ghp_norm_sq(basis, i) * ghp_norm_sq(basis, j))
                assert abs(integral) / scale < 1e-9


class TestChangeOfBasis:
    def test_order_one(self):
        np.testing.assert_array_equal(change_of_basis(1), np.eye(2))

    def test_order_three_rows(self):
        expected = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [-1, 0, 1, 0],
            [0, -3, 0, 1],
        ], dtype=float)
        np.testing.assert_array_equal(change_of_basis(3), expected)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        m = change_of_basis(3)
        for x in rng.uniform(-3, 3, size=20):
            mono = x ** np.arange(4)
            target = np.array([hermite_eval(n, x) for n in range(4)])
            np.testing.assert_allclose(m @ mono, target, rtol=1e-12, atol=1e-12)

    def test_rows_match_independent_conversion(self):
        # coefficient rows agree exactly with numpy's basis conversion
        cob = change_of_basis(20)
        for n in range(21):
            coef = np.zeros(n + 1)
            coef[n] = 1.0
            np.testing.assert_array_equal(cob[n, : n + 1], hermite_e.herme2poly(coef))

    def _exact_inverse(self, order):
        inv = np.zeros((order + 1, order + 1))
        for n in range(order + 1):
            coef = np.zeros(n + 1)
            coef[n] = 1.0
            inv[n, : n + 1] = hermite_e.poly2herme(coef)
        return inv

    def test_inverse_matrix_exact_to_order_twenty(self):
        cob = change_of_basis(20)
        inv = self._exact_inverse(20)
        np.testing.assert_array_equal(cob @ inv, np.eye(21))
        np.testing.assert_array_equal(inv @ cob, np.eye(21))

    def test_identity_and_inverse_pointwise(self):
        # the forward identity evaluates cleanly up to order 20; pointwise
        # evaluation of the inverse cancels catastrophically beyond order
        # ~12 (integer coefficients near 1e7 against values near 1), so it
        # is checked where double precision can express it -- the exact
        # matrix-inverse test above carries the rest
        rng = np.random.default_rng(4)
        cob = change_of_basis(20)
        inv12 = self._exact_inverse(12)
        for x in rng.uniform(-2, 2, size=20):
            mono = x ** np.arange(21.0)
            target = np.array([hermite_eval(n, x) for n in range(21)])
            fwd = cob @ mono
            assert np.max(np.abs(fwd - target)) <= 1e-10 * np.max(np.abs(target))
            back = inv12 @ target[:13]
            assert np.max(np.abs(back - mono[:13])) <= 1e-10 * np.max(np.abs(mono[:13]))

    def test_monic_lower_triangular(self):
        m = change_of_basis(12)
        np.testing.assert_array_equal(np.diag(m), np.ones(13))
        assert np.all(np.triu(m, 1) == 0.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            change_of_basis(201)


class TestPayoffCoefficients:
    def test_at_the_money_leading(self):
        basis = GhpBasis(drift=1.0, scale=1.0, order=4)
        beta = payoff_coefficients(1.0, basis).beta
        assert beta[0] == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-15)
        assert beta[1] == pytest.approx(0.5, rel=1e-15)
        assert beta[3] == 0.0
        assert beta[4] == pytest.approx(-1.0 / (24.0 * SQRT_TWO_PI), rel=1e-14)

    def test_at_the_money_closed_form(self):
        # even coefficients: (-1)^(k-1) sigma / (sqrt(2 pi) k! (2k-1) 2^k)
        sigma = 1.7
        basis = GhpBasis(drift=3.0, scale=sigma, order=40)
        beta = payoff_coefficients(3.0, basis).beta
        for k in range(1, 21):
            expected = (-1.0) ** (k - 1) * sigma / (
                SQRT_TWO_PI * math.factorial(k) * (2 * k - 1) * 2**k
            )
            assert beta[2 * k] == pytest.approx(expected, rel=1e-14)
        for n in range(3, 40, 2):
            assert abs(beta[n]) <= 1e-16

    def test_coefficients_from_projection_integrals(self):
        # independent oracle: the projection coefficient onto the scaled
        # polynomial carries b^n relative to the series coefficient
        a, b, strike = 1.3, 0.8, 1.6
        basis = GhpBasis(drift=a, scale=b, order=8)
        beta = payoff_coefficients(strike, basis).beta
        for n in range(9):
            def integrand(x):
                return np.maximum(x - strike, 0.0) * ghp_eval(basis, n, x) * np.exp(
                    -((x - a) ** 2) / (2 * b * b)
                )
            lo, hi = a - 14 * b, a + 14 * b
            left, _ = quad(integrand, lo, strike, limit=200)
            right, _ = quad(integrand, strike, hi, limit=200)
            alpha = (left + right) / ghp_norm_sq(basis, n)
            assert beta[n] == pytest.approx(alpha / b**n, rel=1e-9, abs=1e-13)

    def test_large_order_finite(self):
        basis = GhpBasis(drift=5.0, scale=2.0, order=200)
        beta = payoff_coefficients(4.0, basis).beta
        assert np.all(np.isfinite(beta))

    def test_negative_strike_rejected(self):
        with pytest.raises(ValueError):
            payoff_coefficients(-1.0, GhpBasis(drift=0.0, scale=1.0, order=2))


class TestPayoffSeriesEval:
    def test_order_one_at_the_money(self):
        sigma = 0.9
        basis = GhpBasis(drift=2.0, scale=sigma, order=1)
        expansion = payoff_coefficients(2.0, basis)
        for x in (1.0, 2.0, 3.5):
            expected = sigma / SQRT_TWO_PI + (x - 2.0) / 2.0
            assert payoff_series_eval(expansion, x) == pytest.approx(expected, rel=1e-14)

    def test_order_zero_is_constant(self):
        basis = GhpBasis(drift=1.0, scale=2.0, order=0)
        expansion = payoff_coefficients(3.0, basis)
        assert payoff_series_eval(expansion, -4.0) == expansion.beta[0]
        assert payoff_series_eval(expansion, 9.0) == expansion.beta[0]

    def test_at_strike_kink_value(self):
        # at the kink the series converges to zero slowly (~N^-1/2); the
        # order-40 value is pinned by exact rational arithmetic on the
        # closed-form coefficients times the polynomial values at zero
        basis = GhpBasis(drift=5.0, scale=2.0, order=40)
        expansion = payoff_coefficients(5.0, basis)
        value = payoff_series_eval(expansion, 5.0)
        assert value == pytest.approx(0.10003133602890124, rel=1e-12)
        # and it keeps shrinking with the order
        wide = payoff_coefficients(5.0, GhpBasis(drift=5.0, scale=2.0, order=160))
        assert abs(payoff_series_eval(wide, 5.0)) < abs(value)

    def test_vectorized(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=6)
        expansion = payoff_coefficients(0.5, basis)
        xs = np.array([-1.0, 0.5, 2.0])
        vals = payoff_series_eval(expansion, xs)
        assert vals.shape == (3,)
        assert vals[1] == payoff_series_eval(expansion, 0.5)


def _true_l2_error_by_quadrature(expansion):
    basis, strike = expansion.basis, expansion.strike
    a, b = basis.drift, basis.scale

    def integrand(x):
        return (max(x - strike, 0.0) - payoff_series_eval(expansion, x)) ** 2 * math.exp(
            -((x - a) ** 2) / (2 * b * b)
        )

    lo, hi = a - 14 * b, a + 14 * b
    left, _ = quad(integrand, lo, strike, limit=300)
    right, _ = quad(integrand, strike, hi, limit=300)
    return math.sqrt(left + right)


class TestPayoffL2Error:
    def test_monotone_in_order(self):
        values = []
        for order in range(0, 12):
            basis = GhpBasis(drift=5.0, scale=1.5, order=order)
            values.append(payoff_l2_error(payoff_coefficients(5.0, basis)))
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_scale_power_law_at_strike(self):
        # with the drift at the strike the error scales like b**1.5: the
        # tail sum is scale-free there and the coefficient-norm product
        # carries b cubed inside the square root
        def err(b):
            basis = GhpBasis(drift=5.0, scale=b, order=8)
            return payoff_l2_error(payoff_coefficients(5.0, basis))

        for b1, b2 in ((0.5, 1.0), (1.0, 3.0)):
            assert err(b1) / err(b2) == pytest.approx((b1 / b2) ** 1.5, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a,strike", [(5.0, 5.0), (4.2, 5.0)])
    def test_parseval_terms_match_quadrature_projections(self, a, strike):
        # dual route for the tail terms: closed form vs quadrature-computed
        # projection coefficients over the same index range
        b = 1.1
        n0 = 6
        basis = GhpBasis(drift=a, scale=b, order=n0)
        expansion = payoff_coefficients(strike, basis)
        tail = 20
        total = 0.0
        wide = GhpBasis(drift=a, scale=b, order=n0 + tail)
        beta_wide = payoff_coefficients(strike, wide).beta
        for n in range(n0 + 1, n0 + tail + 1):
            def integrand(x):
                return np.maximum(x - strike, 0.0) * ghp_eval(wide, n, x) * np.exp(
                    -((x - a) ** 2) / (2 * b * b)
                )
            left, _ = quad(integrand, a - 14 * b, strike, limit=200)
            right, _ = quad(integrand, strike, a + 14 * b, limit=200)
            alpha = (left + right) / ghp_norm_sq(wide, n)
            total += alpha**2 * ghp_norm_sq(wide, n)
            assert alpha / b**n == pytest.approx(beta_wide[n], rel=1e-8, abs=1e-14)
        # the terms n0+1..n0+tail are what the tail at order n0 holds
        # beyond the tail at order n0+tail
        beyond = payoff_l2_error(payoff_coefficients(strike, GhpBasis(drift=a, scale=b, order=n0 + tail)))
        assert math.sqrt(payoff_l2_error(expansion) ** 2 - beyond**2) == pytest.approx(
            math.sqrt(total), rel=1e-9
        )

    def test_against_full_quadrature_error(self):
        # the capped tail understates the full error by the dropped terms;
        # at these orders the shortfall is below a percent
        basis = GhpBasis(drift=5.0, scale=1.2, order=8)
        expansion = payoff_coefficients(5.0, basis)
        truncated = payoff_l2_error(expansion)
        full = _true_l2_error_by_quadrature(expansion)
        assert truncated <= full * (1.0 + 1e-9)
        assert truncated == pytest.approx(full, rel=0.02)

    def test_tail_bounds_validated(self):
        # the tail ends at SERIES_TAIL_END, so a basis of that order has none
        basis = GhpBasis(drift=5.0, scale=1.0, order=SERIES_TAIL_END)
        with pytest.raises(ValueError):
            payoff_l2_error(payoff_coefficients(5.0, basis))

    def test_default_tail_reaches_cap(self):
        # one order below the end the tail is the single term n = SERIES_TAIL_END;
        # with the drift at the strike and b = 1 it is He_{n-2}(0)^2 / (sqrt(2 pi) n!),
        # where He_{n-2}(0)^2 = ((n-3)!!)^2
        n = SERIES_TAIL_END
        basis = GhpBasis(drift=5.0, scale=1.0, order=n - 1)
        expected = math.prod(range(1, n - 2, 2)) ** 2 / math.factorial(n) / math.sqrt(2 * math.pi)
        assert payoff_l2_error(payoff_coefficients(5.0, basis)) ** 2 == pytest.approx(
            expected, rel=1e-10
        )


class TestBasisValidation:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            GhpBasis(drift=0.0, scale=0.0, order=1)

    def test_order_must_be_non_negative(self):
        with pytest.raises(ValueError):
            GhpBasis(drift=0.0, scale=1.0, order=-1)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            GhpBasis(drift=0.0, scale=1.0, order=201)
