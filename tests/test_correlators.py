import math

import numpy as np
import pytest

from asianhermite import (
    CorrelatorEngine,
    CorrelatorQuery,
    ModelSpec,
    correlator,
    correlator_kronecker_reference,
    correlator_tower_oracle,
    generator_matrix,
    matrix_exponential,
    moment,
)
from asianhermite.kronecker import mth_selectors


def random_query(rng, n_cap=4, m_cap=2):
    m = int(rng.integers(0, m_cap + 1))
    times = tuple(np.sort(rng.uniform(0.1, 2.5, size=m + 1)))
    while any(b - a < 1e-3 for a, b in zip(times, times[1:])):
        times = tuple(np.sort(rng.uniform(0.1, 2.5, size=m + 1)))
    powers = tuple(int(k) for k in rng.integers(0, n_cap + 1, size=m + 1))
    y = float(rng.uniform(-1.5, 2.5))
    return CorrelatorQuery(t=0.0, y_t=y, times=times, powers=powers)


class TestQueryValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            CorrelatorQuery(t=0.0, y_t=0.0, times=(1.0, 1.0), powers=(1, 1))

    def test_times_after_t(self):
        with pytest.raises(ValueError):
            CorrelatorQuery(t=1.0, y_t=0.0, times=(0.5,), powers=(1,))

    def test_powers_length(self):
        with pytest.raises(ValueError):
            CorrelatorQuery(t=0.0, y_t=0.0, times=(1.0,), powers=(1, 2))

    def test_powers_non_negative(self):
        with pytest.raises(ValueError):
            CorrelatorQuery(t=0.0, y_t=0.0, times=(1.0,), powers=(-1,))


class TestSingleTime:
    def test_reduces_to_moment(self, jd_model):
        for k in range(6):
            q = CorrelatorQuery(t=0.0, y_t=2.0, times=(1.7,), powers=(k,))
            assert correlator(jd_model, q) == pytest.approx(
                moment(jd_model, k, 0.0, 1.7, 2.0), rel=1e-12
            )

    def test_all_powers_zero(self, ou_model):
        q = CorrelatorQuery(t=0.0, y_t=5.0, times=(0.5, 1.0, 1.5), powers=(0, 0, 0))
        assert correlator(ou_model, q) == 1.0


class TestKnownValues:
    def test_brownian_two_point_product(self, bm_model):
        # tower rule with the martingale property: E[B(s0) B(s1)] = y^2 + (s0 - t)
        for y, s0, s1 in ((0.0, 0.5, 1.0), (1.3, 0.2, 2.0), (-0.7, 1.0, 1.5)):
            q = CorrelatorQuery(t=0.0, y_t=y, times=(s0, s1), powers=(1, 1))
            assert correlator(bm_model, q) == pytest.approx(y * y + s0, rel=1e-12, abs=1e-14)

    def test_ou_single_power_is_mean_formula(self, ou_model):
        b0, b1 = ou_model.drift_const, ou_model.drift_lin
        y, tau = 3.7, 1.2
        expected = y * math.exp(b1 * tau) + b0 / b1 * (math.exp(b1 * tau) - 1.0)
        q = CorrelatorQuery(t=0.0, y_t=y, times=(tau,), powers=(1,))
        assert correlator_tower_oracle(ou_model, q) == pytest.approx(expected, rel=1e-13)
        assert correlator(ou_model, q) == pytest.approx(expected, rel=1e-13)

    def test_deterministic_model_is_flow_product(self):
        spec = ModelSpec(drift_const=0.3, drift_lin=-0.5, diff_sq=0.0)
        y, times, powers = 1.4, (0.5, 1.25, 2.0), (2, 0, 3)

        def flow(s):
            e = math.exp(-0.5 * s)
            return y * e + (0.3 / -0.5) * (e - 1.0)

        expected = math.prod(flow(s) ** k for s, k in zip(times, powers))
        q = CorrelatorQuery(t=0.0, y_t=y, times=times, powers=powers)
        assert correlator(spec, q) == pytest.approx(expected, rel=1e-10)
        assert correlator_tower_oracle(spec, q) == pytest.approx(expected, rel=1e-10)


class TestDualPath:
    @pytest.mark.parametrize("model_name", ("bm_model", "ou_model", "jd_model"))
    def test_matches_tower_oracle(self, model_name, request):
        spec = request.getfixturevalue(model_name)
        rng = np.random.default_rng(17)
        engine = CorrelatorEngine(spec)
        for _ in range(30):
            q = random_query(rng, n_cap=3, m_cap=2)
            a = engine.correlator(q)
            b = correlator_tower_oracle(spec, q)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("model_name", ("bm_model", "ou_model", "jd_model"))
    def test_matches_kronecker_reference(self, model_name, request):
        spec = request.getfixturevalue(model_name)
        rng = np.random.default_rng(23)
        engine = CorrelatorEngine(spec)
        for _ in range(30):
            q = random_query(rng, n_cap=4, m_cap=3)
            assert engine.correlator(q) == pytest.approx(
                correlator_kronecker_reference(spec, q), rel=1e-12, abs=1e-14
            )


class TestCompressionIdentity:
    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("r", (1, 2))
    def test_compressed_equals_dense_on_expanded_vectors(self, jd_model, n, r):
        # dense route, built only here: exp(D G E * tau) applied to the
        # expanded Kronecker vector, against gathering around the exponential
        # of the order-n(r+1) generator
        rng = np.random.default_rng(n + 10 * r)
        sel = mth_selectors(n, r)
        g_big = generator_matrix(jd_model, n * (r + 1))
        # row i of a selector is the unit row of the index it gathers
        d_dense = np.eye(sel.compressed_size)[sel.d_idx]
        e_dense = np.eye(sel.expanded_size)[sel.e_idx]
        g_tilde = d_dense @ g_big @ e_dense
        for _ in range(5):
            tau = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(-1.5, 1.5))
            h = x ** np.arange(n + 1.0)
            expanded = h.copy()
            for _ in range(r):
                expanded = np.kron(expanded, h)
            dense_out = matrix_exponential(g_tilde * tau) @ expanded
            compressed = sel.apply_d(matrix_exponential(g_big * tau) @ sel.apply_e(expanded))
            np.testing.assert_allclose(dense_out, compressed, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_fixing_a_power_between_selectors_is_a_slice(self, r):
        # the engine's chain step: expanding by D, fixing the power k of the
        # last factor and compressing by the next E keeps w[k : k + n*r + 1]
        rng = np.random.default_rng(r)
        for n in range(1, 8):
            sel = mth_selectors(n, r)
            inner = mth_selectors(n, r - 1) if r > 1 else None
            w = rng.normal(size=sel.compressed_size)
            expanded = sel.apply_d(w).reshape(-1, n + 1)
            for k in range(n + 1):
                fixed = expanded[:, k]
                gathered = inner.apply_e(fixed) if inner else fixed
                assert np.array_equal(gathered, w[k : k + n * r + 1])


class TestEngine:
    def test_cache_returns_identical_values(self, ou_model):
        engine = CorrelatorEngine(ou_model)
        q = CorrelatorQuery(t=0.0, y_t=2.0, times=(1.0, 2.0), powers=(2, 3))
        first = engine.correlator(q)
        assert engine.correlator(q) == first
        fresh = CorrelatorEngine(ou_model)
        assert fresh.correlator(q) == first

    def test_module_function_checks_engine_model(self, ou_model, bm_model):
        engine = CorrelatorEngine(ou_model)
        q = CorrelatorQuery(t=0.0, y_t=0.0, times=(1.0,), powers=(1,))
        with pytest.raises(ValueError):
            correlator(bm_model, q, engine=engine)

    def test_size_cap(self, ou_model):
        # the engine has no expanded-size cap: a query the Kronecker chain
        # would expand to 5**3 elements evaluates at order 12 directly
        engine = CorrelatorEngine(ou_model)
        q = CorrelatorQuery(t=0.0, y_t=0.0, times=(0.5, 1.0, 1.5), powers=(4, 4, 4))
        assert engine.correlator(q) == pytest.approx(
            correlator_tower_oracle(ou_model, q), rel=1e-9, abs=1e-12
        )

    def test_state_derivative_against_finite_difference(self, jd_model):
        engine = CorrelatorEngine(jd_model)
        q = CorrelatorQuery(t=0.0, y_t=1.8, times=(0.8, 2.0), powers=(2, 1))
        h = 1e-5
        up = engine.correlator(CorrelatorQuery(0.0, 1.8 + h, q.times, q.powers))
        dn = engine.correlator(CorrelatorQuery(0.0, 1.8 - h, q.times, q.powers))
        assert engine.derivative_state(q) == pytest.approx((up - dn) / (2 * h), rel=1e-8)

    def test_time_derivative_against_finite_difference(self, ou_model):
        engine = CorrelatorEngine(ou_model)
        times = (0.8, 2.0)
        q = CorrelatorQuery(t=0.0, y_t=1.8, times=times, powers=(2, 2))
        h = 1e-6
        for j, bumped in ((0, ((0.8 + 1e-6, 2.0), (0.8 - 1e-6, 2.0))),
                          (1, ((0.8, 2.0 + 1e-6), (0.8, 2.0 - 1e-6)))):
            up = engine.correlator(CorrelatorQuery(0.0, 1.8, bumped[0], q.powers))
            dn = engine.correlator(CorrelatorQuery(0.0, 1.8, bumped[1], q.powers))
            assert engine.derivative_time(q, j) == pytest.approx(
                (up - dn) / (2 * h), rel=1e-7
            )
