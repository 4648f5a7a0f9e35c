import math

import numpy as np
import pytest

from asianhermite import (
    CorrelatorEngine,
    GaussianLaw,
    GhpBasis,
    McConfig,
    ModelSpec,
    NigParams,
    accuracy_gamma,
    error_constant,
    gaussian_call,
    ou_asian_law,
    scale_floor,
    simulate_paths,
    std_normal,
)
from asianhermite.benchmarks import _average_law
from asianhermite.pricing import _average_moments

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


class TestStdNormal:
    def test_at_zero(self):
        pdf, cdf = std_normal(0.0)
        assert pdf == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-15)
        assert cdf == 0.5

    def test_far_tails(self):
        pdf, cdf = std_normal(40.0)
        assert pdf == 0.0
        assert cdf == 1.0
        pdf, cdf = std_normal(-40.0)
        assert cdf < 1e-300

    def test_quantile_value(self):
        _, cdf = std_normal(1.96)
        assert cdf == pytest.approx(0.9750021048517795, abs=1e-15)

    def test_against_erfc_oracle(self):
        for x in (-8.0, -2.3, -0.4, 0.7, 3.1, 9.0):
            _, cdf = std_normal(x)
            assert cdf == pytest.approx(0.5 * math.erfc(-x / math.sqrt(2)), abs=1e-15)

    def test_vectorized(self):
        pdf, cdf = std_normal(np.array([0.0, 1.0]))
        assert pdf.shape == (2,)
        assert cdf[0] == 0.5


class TestGaussianCall:
    def test_at_the_money(self):
        law = GaussianLaw(mean=3.0, std=1.7)
        assert gaussian_call(law, 3.0) == pytest.approx(1.7 / SQRT_TWO_PI, rel=1e-15)

    def test_degenerate_limit(self):
        law = GaussianLaw(mean=5.0, std=1e-13)
        assert gaussian_call(law, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_benchmark_value_against_quadrature(self):
        # the short-horizon unit-diffusion benchmark point, checked by
        # direct integration of the payoff against the density
        from scipy.integrate import quad

        law = GaussianLaw(mean=0.0, std=math.sqrt(0.5))

        def integrand(x):
            return (x - 0.2) * math.exp(-x * x / (2 * law.std**2)) / (law.std * SQRT_TWO_PI)

        val, _ = quad(integrand, 0.2, 30.0, limit=200)
        assert gaussian_call(law, 0.2) == pytest.approx(val, rel=1e-12)

    def test_shape_properties(self):
        strikes = np.linspace(0.0, 4.0, 21)
        values = np.array([gaussian_call(GaussianLaw(1.0, 0.8), k) for k in strikes])
        assert np.all(np.diff(values) < 0)          # decreasing in strike
        second = np.diff(values, 2)
        assert np.all(second > -1e-12)              # convex in strike
        sigmas = np.linspace(0.3, 3.0, 15)
        v_sigma = np.array([gaussian_call(GaussianLaw(1.0, s), 1.5) for s in sigmas])
        assert np.all(np.diff(v_sigma) > 0)         # increasing in volatility

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianLaw(mean=0.0, std=0.0)


class TestOuAsianLaw:
    def test_single_time_reduces_to_transition_law(self, ou_model):
        law = ou_asian_law(ou_model, 0.0, 2.0, (2.0,))
        b0, b1, s0 = ou_model.drift_const, ou_model.drift_lin, ou_model.diff_sq
        mean = 2.0 * math.exp(2 * b1) + b0 / b1 * (math.exp(2 * b1) - 1.0)
        var = s0 * (math.exp(4 * b1) - 1.0) / (2 * b1)
        assert law.mean == pytest.approx(mean, rel=1e-14)
        assert law.std == pytest.approx(math.sqrt(var), rel=1e-14)
        assert law.std == pytest.approx(1.41412, abs=5e-6)

    def test_variance_against_monte_carlo(self, ou_model):
        times = (0.5, 1.0, 1.5, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        cfg = McConfig(paths=100_000, batches=1, seed=20)
        values = simulate_paths(ou_model, 0.0, 2.0, times, cfg)
        avg = values.mean(axis=1)
        sample_var = avg.var(ddof=1)
        # variance of the sample variance for a Gaussian: 2 var^2 / (n - 1)
        se = math.sqrt(2.0 * law.std**4 / (cfg.paths - 1))
        assert abs(sample_var - law.std**2) < 3.0 * se
        assert abs(avg.mean() - law.mean) < 3.0 * law.std / math.sqrt(cfg.paths)

    def test_zero_reversion_limit(self):
        flat = ModelSpec(drift_const=0.05, drift_lin=0.0, diff_sq=0.8)
        times = (1.0, 2.0)
        law = ou_asian_law(flat, 0.0, 1.0, times)
        assert law.mean == pytest.approx(1.0 + 0.05 * 1.5, rel=1e-14)
        # Taylor limit oracle: tiny reversion approaches the closed limit
        for b1, rel in ((1e-9, 1e-7), (1e-12, 1e-10)):
            near = ModelSpec(drift_const=0.05, drift_lin=b1, diff_sq=0.8)
            near_law = ou_asian_law(near, 0.0, 1.0, times)
            assert near_law.mean == pytest.approx(law.mean, rel=rel)
            assert near_law.std == pytest.approx(law.std, rel=rel)

    def test_variance_monotone_in_diffusion(self):
        sigmas = (0.3, 0.6, 1.2, 2.4)
        stds = [
            ou_asian_law(ModelSpec(-0.02, 0.01, s), 0.0, 2.0, (1.0, 2.0)).std
            for s in sigmas
        ]
        assert all(x < y for x, y in zip(stds, stds[1:]))

    def test_rejects_jump_models(self, jd_model):
        with pytest.raises(ValueError):
            ou_asian_law(jd_model, 0.0, 2.0, (1.0, 2.0))


class TestAverageLaw:
    @pytest.mark.parametrize("times", [(1.1,), (0.7, 2.0), (0.5, 0.9, 1.6, 2.0)],
                             ids=["m0", "m1", "m3"])
    @pytest.mark.parametrize("b1", [0.0, 1e-12, 0.01, -0.5])
    @pytest.mark.parametrize("jumps", [None, NigParams(alpha=2.0, beta=0.3, mu=0.0, delta=0.05)],
                             ids=["ou", "skewed-nig"])
    def test_matches_correlator_chain(self, jumps, b1, times):
        # the kernel's mean and variance against E[A] and E[A^2] of the
        # chain, on an uneven grid after t > 0
        spec = ModelSpec(-0.02, b1, 0.49, jumps)
        mean, var = _average_law(spec, 0.3, 2.0, times)
        chain = _average_moments(CorrelatorEngine(spec), 0.3, 2.0, times, 2)
        assert mean == pytest.approx(chain[1], rel=1e-13)
        assert var + mean * mean == pytest.approx(chain[2], rel=1e-13)


class TestErrorConstant:
    def test_reference_point(self):
        basis = GhpBasis(drift=0.0, scale=1.0, order=4)
        law = GaussianLaw(mean=0.0, std=1.0)
        assert error_constant(basis, law) ** 2 == pytest.approx(1.0 / SQRT_TWO_PI, rel=1e-14)
        assert error_constant(basis, law) == pytest.approx(0.63161877774606470, rel=1e-14)

    def test_large_scale_limit(self):
        sigma = 1.3
        basis = GhpBasis(drift=2.0, scale=1e7, order=2)
        law = GaussianLaw(mean=2.0, std=sigma)
        limit = (4.0 * math.pi * sigma**2) ** -0.25
        assert error_constant(basis, law) == pytest.approx(limit, rel=1e-7)

    def test_below_floor_rejected(self):
        sigma = 1.0
        basis = GhpBasis(drift=0.0, scale=0.9 * sigma / math.sqrt(2), order=2)
        law = GaussianLaw(mean=0.0, std=sigma)
        with pytest.raises(ValueError):
            error_constant(basis, law)

    def test_monotone_decreasing_in_scale_at_centre(self):
        values = []
        for b in np.linspace(0.8, 6.0, 25):
            basis = GhpBasis(drift=1.0, scale=float(b), order=2)
            law = GaussianLaw(mean=1.0, std=1.0)
            values.append(error_constant(basis, law))
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_quadrature_oracle(self):
        # C^2 is the integral of the squared density against the inverse weight
        from scipy.integrate import quad

        a, b, mu, sigma = 0.7, 1.4, 0.2, 1.1
        basis = GhpBasis(drift=a, scale=b, order=2)
        law = GaussianLaw(mean=mu, std=sigma)

        def integrand(x):
            density = math.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (sigma * SQRT_TWO_PI)
            return density**2 * math.exp((x - a) ** 2 / (2 * b**2))

        val, _ = quad(integrand, -30, 30, limit=300)
        assert error_constant(basis, law) == pytest.approx(math.sqrt(val), rel=1e-9)


class TestScaleFloor:
    def test_values(self):
        assert scale_floor(1.41) == pytest.approx(0.99702, abs=5e-6)
        assert scale_floor(math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-15)
        assert scale_floor(1.0) == pytest.approx(0.7071067811865475, rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            scale_floor(0.0)


class TestAccuracyGamma:
    def test_three_digits(self):
        assert accuracy_gamma(1.0, 0.999) == pytest.approx(3.0, rel=1e-12)

    def test_exact_match_clamped(self):
        assert accuracy_gamma(2.5, 2.5) == 16.0

    def test_divergence_goes_negative(self):
        value = accuracy_gamma(1.0, 10.0)
        assert value < 0
        assert value == pytest.approx(-math.log10(9.0), rel=1e-12)

    def test_zero_benchmark_rejected(self):
        with pytest.raises(ValueError):
            accuracy_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            accuracy_gamma(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_arrays_equal_scalar_calls(self):
        exact = np.array([1.0, 2.5, -3.0, 1e-300, 7.0, 1.0, 2.0, math.inf])
        approx = np.array([0.999, 2.5, 30.0, 2e-300, math.nan, math.inf, 2.0 + 4e-16, 1.0])
        scalar = [accuracy_gamma(e, a) for e, a in zip(exact.tolist(), approx.tolist())]
        assert all(type(value) is float for value in scalar)
        got = accuracy_gamma(exact, approx)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, scalar, equal_nan=True)
        # one benchmark against a column of approximations, as the CLI asks
        column = [accuracy_gamma(2.0, a) for a in approx.tolist()]
        assert np.array_equal(accuracy_gamma(2.0, approx), column, equal_nan=True)
