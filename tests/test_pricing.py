import math

import numpy as np
import pytest

from asianhermite import (
    CorrelatorEngine,
    GaussianLaw,
    GhpBasis,
    ModelSpec,
    PriceReport,
    PriceRequest,
    asian_price,
    average_std,
    default_drift,
    delta,
    european_price,
    gaussian_call,
    moment,
    ou_asian_law,
    scale_floor,
    std_normal,
    stopping_criterion,
    theta,
)
from asianhermite.pricing import _gamma_tilde, multinomial_expand


def report_from(partial):
    partial = np.asarray(partial, dtype=float)
    return PriceReport(
        price_by_N=partial,
        gamma_tilde=_gamma_tilde(partial),
        chosen_N=partial.size - 1,
        converged=False,
    )


class TestMultinomialExpand:
    def test_binomial_square(self):
        terms = dict(multinomial_expand(2, 1))
        assert terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_order_zero(self):
        terms = multinomial_expand(0, 2)
        assert terms == [((0, 0, 0), 1)]

    def test_cubic_three_slots(self):
        terms = multinomial_expand(3, 2)
        assert len(terms) == 10
        assert sum(coeff for _, coeff in terms) == 27

    def test_completeness_identity(self):
        # coefficients weighted by (m+1)^-i sum to one: a constant process
        # reproduces its own powers exactly
        for i, m in ((4, 1), (5, 2), (7, 3)):
            total = sum(coeff for _, coeff in multinomial_expand(i, m))
            assert total == (m + 1) ** i

    def test_term_cap(self):
        with pytest.raises(ValueError):
            # C(104, 4) = 4 598 126 terms, above the cap of 2 000 000
            multinomial_expand(100, 4)

    def test_asian_price_checks_the_cap_before_any_chain(self, ou_model, monkeypatch):
        # order 13 at m = 11 needs C(24, 11) = 2 496 144 terms; orders 0..12
        # would take minutes of chains before the expansion of order 13 fails
        def no_chain(*args, **kwargs):
            raise AssertionError("a correlator chain ran before the term cap was checked")

        monkeypatch.setattr(CorrelatorEngine, "_chain", no_chain)
        times = tuple(j / 12 for j in range(1, 13))
        basis = GhpBasis(drift=2.0, scale=1.0, order=13)
        with pytest.raises(ValueError, match="2496144 terms, above the cap 2000000"):
            asian_price(PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0))


class TestEuropeanPrice:
    def test_brownian_converges_to_closed_form(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=0.6, order=60)
        req = PriceRequest(0.2, 0.0, 0.0, (0.5,), basis, bm_model, 0.0)
        report = european_price(req)
        exact = gaussian_call(GaussianLaw(0.0, math.sqrt(0.5)), 0.2)
        best = np.min(np.abs(report.price_by_N - exact)) / exact
        assert best < 1e-8

    @pytest.mark.parametrize("model_name,y0,tau", [("bm_model", 0.0, 0.5), ("ou_model", 2.0, 2.0)])
    def test_order_one_is_exact_gaussian_price(self, model_name, y0, tau, request):
        # with the drift at the mean and the scale at the standard deviation
        # the order-1 partial sum is the exact Gaussian price
        model = request.getfixturevalue(model_name)
        law = ou_asian_law(model, 0.0, y0, (tau,))
        basis = GhpBasis(drift=law.mean, scale=law.std, order=1)
        req = PriceRequest(1.1 * law.mean + 0.2, 0.0, 0.0, (tau,), basis, model, y0)
        report = european_price(req)
        assert report.price_by_N[1] == pytest.approx(
            gaussian_call(law, req.strike), rel=1e-12
        )

    def test_far_strike_price_vanishes(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=0.7, order=12)
        req = PriceRequest(30.0, 0.0, 0.0, (0.5,), basis, bm_model, 0.0)
        report = european_price(req)
        assert abs(report.price_by_N[-1]) < 1e-300

    def test_deep_in_the_money_is_discounted_forward(self):
        # strike far below the mean in units of the width: the tail terms
        # vanish and the price is the discounted forward
        model = ModelSpec(drift_const=-0.02, drift_lin=0.01, diff_sq=4e-4)
        law = ou_asian_law(model, 0.0, 2.0, (2.0,))
        basis = GhpBasis(drift=law.mean, scale=law.std, order=1)
        strike = 1.0  # (K - a)/b is about -35 here
        req = PriceRequest(strike, 0.05, 0.0, (2.0,), basis, model, 2.0)
        report = european_price(req)
        expected = math.exp(-0.05 * 2.0) * (law.mean - strike)
        assert report.price_by_N[1] == pytest.approx(expected, rel=1e-12)

    def test_requires_single_time(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=4)
        req = PriceRequest(1.0, 0.0, 0.0, (0.5, 1.0), basis, bm_model, 0.0)
        with pytest.raises(ValueError):
            european_price(req)

    def test_discount_applied(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=0.6, order=20)
        r0 = european_price(PriceRequest(0.2, 0.0, 0.0, (0.5,), basis, bm_model, 0.0))
        r5 = european_price(PriceRequest(0.2, 0.05, 0.0, (0.5,), basis, bm_model, 0.0))
        ratio = r5.price_by_N[-1] / r0.price_by_N[-1]
        assert ratio == pytest.approx(math.exp(-0.05 * 0.5), rel=1e-12)


class TestAsianPrice:
    def test_single_point_equals_european(self, ou_model, jd_model):
        for model in (ou_model, jd_model):
            basis = GhpBasis(drift=2.0, scale=1.5, order=12)
            req = PriceRequest(2.0, 0.03, 0.0, (2.0,), basis, model, 2.0)
            eu = european_price(req)
            asian = asian_price(req)
            np.testing.assert_allclose(
                asian.price_by_N, eu.price_by_N, rtol=1e-12, atol=1e-15
            )

    def test_ou_average_converges_to_closed_form(self, ou_model):
        times = (1.0, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        basis = GhpBasis(drift=law.mean, scale=2.0 * scale_floor(law.std), order=30)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        report = asian_price(req)
        exact = gaussian_call(law, 2.0)
        assert report.converged
        assert report.price == pytest.approx(exact, rel=1.5e-4)
        assert abs(report.price_by_N[-1] - exact) / exact < 1e-6

    def test_constant_process_reproduces_exact_moments(self):
        # multinomial completeness: a frozen process makes the expanded
        # average moments equal the exact powers of the start value
        from asianhermite.pricing import _average_moments

        const = ModelSpec(drift_const=0.0, drift_lin=0.0, diff_sq=0.0)
        basis = GhpBasis(drift=1.0, scale=1.0, order=8)
        req = PriceRequest(1.5, 0.0, 0.0, (0.5, 1.0, 1.5), basis, const, 2.0)
        moments = _average_moments(req, CorrelatorEngine(const), 8)
        np.testing.assert_allclose(moments, 2.0 ** np.arange(9.0), rtol=1e-13)
        # the payoff series itself then converges to the deterministic payoff
        wide = GhpBasis(drift=2.0, scale=1.0, order=60)
        report = asian_price(
            PriceRequest(1.5, 0.0, 0.0, (0.5, 1.0, 1.5), wide, const, 2.0)
        )
        assert report.price_by_N[-1] == pytest.approx(0.5, abs=5e-3)

    def test_engine_shared_across_strikes(self, ou_model, monkeypatch):
        chains = []
        original = CorrelatorEngine._chain

        def counting(self, *args, **kwargs):
            chains.append(args[0].powers)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CorrelatorEngine, "_chain", counting)
        engine = CorrelatorEngine(ou_model)
        times = (1.0, 2.0)
        basis = GhpBasis(drift=2.0, scale=1.6, order=10)
        p1 = asian_price(
            PriceRequest(1.0, 0.0, 0.0, times, basis, ou_model, 2.0), engine=engine
        )
        assert chains
        chains.clear()
        # neither the strike nor the scale enters the moments of the average
        wider = GhpBasis(drift=2.0, scale=2.4, order=10)
        p2 = asian_price(
            PriceRequest(3.0, 0.0, 0.0, times, wider, ou_model, 2.0), engine=engine
        )
        assert chains == []
        assert p1.price_by_N[-1] != p2.price_by_N[-1]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["ou", "jd"])
    def test_extended_moments_equal_direct(self, kind, m, ou_model, jd_model):
        # each moment of the average is summed on its own, so extending a
        # cached vector reproduces a single pass bit for bit
        from asianhermite.pricing import _average_moments

        model = ou_model if kind == "ou" else jd_model
        times = tuple(2.0 * (j + 1) / (m + 1) for j in range(m + 1))
        basis = GhpBasis(drift=2.0, scale=1.6, order=20)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, model, 2.0)
        grown = CorrelatorEngine(model)
        short = _average_moments(req, grown, 10)
        extended = _average_moments(req, grown, 20)
        direct = _average_moments(req, CorrelatorEngine(model), 20)
        assert np.array_equal(extended, direct)
        assert np.array_equal(short, direct[:11])
        assert np.array_equal(
            asian_price(req, engine=grown).price_by_N, asian_price(req).price_by_N
        )

    def test_european_moments_cached_per_order(self, ou_model, monkeypatch):
        from asianhermite import pricing

        calls = []
        original = pricing.moment_vector

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(pricing, "moment_vector", counting)
        engine = CorrelatorEngine(ou_model)
        for strike, scale, order in ((1.0, 1.6, 10), (3.0, 2.4, 10), (2.0, 1.6, 12)):
            req = PriceRequest(strike, 0.0, 0.0, (2.0,),
                               GhpBasis(drift=2.0, scale=scale, order=order), ou_model, 2.0)
            shared = european_price(req, engine=engine)
            assert np.array_equal(shared.price_by_N, european_price(req).price_by_N)
        # one exponential per order for the shared engine, one per fresh call
        assert calls == [10, 10, 10, 12, 12]


class TestStoppingCriterion:
    def test_threshold_crossing_at_series_end(self):
        report = report_from([1.0, 0.999, 0.9990499])
        decision = stopping_criterion(report)
        assert report.gamma_tilde[2] > 4.0
        assert decision.n == 2
        assert decision.converged

    def test_below_threshold_not_converged(self):
        report = report_from([1.0, 0.999, 0.9985])
        decision = stopping_criterion(report)
        assert decision.n == 2
        assert not decision.converged

    def test_constant_sums_stop_immediately(self):
        decision = stopping_criterion(report_from([0.5] * 8))
        assert decision.n == 1
        assert decision.converged

    def test_structural_zero_increments_are_skipped(self, ou_model):
        # with the drift at the mean, odd-order increments vanish
        # identically; the first confirmed measurable crossing decides
        times = (1.0, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        basis = GhpBasis(drift=law.mean, scale=2.0 * scale_floor(law.std), order=30)
        req = PriceRequest(1.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        report = asian_price(req)
        assert report.converged
        assert report.chosen_N >= 4
        exact = gaussian_call(law, 1.0)
        assert abs(report.price - exact) / exact < 1e-4

    def test_oscillating_series_flagged_not_converged(self, jd_model):
        # at the scale floor the series oscillates around the target and
        # then diverges; the rule must not claim convergence
        engine = CorrelatorEngine(jd_model)
        sigma = average_std(jd_model, 0.0, 2.0, (2.0,), engine=engine)
        basis = GhpBasis(drift=2.0, scale=scale_floor(sigma), order=30)
        req = PriceRequest(1.0, 0.0, 0.0, (2.0,), basis, jd_model, 2.0)
        report = european_price(req)
        assert not report.converged

    @pytest.mark.parametrize("threshold", [-3.0, 0.0, math.nan, math.inf])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            stopping_criterion(report_from([1.0, 0.999, 0.9990499]), threshold)

    def test_needs_two_partial_sums(self):
        with pytest.raises(ValueError):
            stopping_criterion(report_from([1.0]))

    def test_stopped_increment_is_small(self, ou_model):
        times = (1.0, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        basis = GhpBasis(drift=law.mean, scale=2.0 * scale_floor(law.std), order=30)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        report = asian_price(req)
        n = report.chosen_N
        step = abs(report.price_by_N[n] - report.price_by_N[n - 1])
        assert step <= 1e-4 * abs(report.price)


class TestGreeks:
    def test_delta_order_one_brownian(self, bm_model):
        # order-1 truncation: the sensitivity is the tail weight of the
        # strike under the basis scale
        basis = GhpBasis(drift=0.0, scale=math.sqrt(0.5), order=1)
        req = PriceRequest(0.2, 0.0, 0.0, (0.5,), basis, bm_model, 0.0)
        _, cdf = std_normal(0.2 / math.sqrt(0.5))
        assert delta(req) == pytest.approx(1.0 - cdf, rel=1e-12)

    @pytest.mark.parametrize("m", (0, 1))
    def test_delta_matches_finite_difference(self, ou_model, m):
        times = tuple((j + 1) * 2.0 / (m + 1) for j in range(m + 1))
        engine = CorrelatorEngine(ou_model)
        a = default_drift(ou_model, 0.0, 2.0, times)
        basis = GhpBasis(drift=a, scale=1.6, order=10)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        h = 1e-4 * max(1.0, abs(req.y_t))
        up = asian_price(
            PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0 + h), engine=engine
        ).price_at_order
        dn = asian_price(
            PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0 - h), engine=engine
        ).price_at_order
        fd = (up - dn) / (2 * h)
        assert delta(req, engine=engine) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("j", (0, 1))
    def test_theta_matches_finite_difference(self, ou_model, j):
        times = (1.0, 2.0)
        engine = CorrelatorEngine(ou_model)
        basis = GhpBasis(drift=2.0, scale=1.6, order=10)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        h = 1e-5
        bump = lambda s, d: tuple(v + d if i == j else v for i, v in enumerate(s))
        up = asian_price(
            PriceRequest(2.0, 0.0, 0.0, bump(times, h), basis, ou_model, 2.0), engine=engine
        ).price_at_order
        dn = asian_price(
            PriceRequest(2.0, 0.0, 0.0, bump(times, -h), basis, ou_model, 2.0), engine=engine
        ).price_at_order
        fd = (up - dn) / (2 * h)
        assert theta(req, j, engine=engine) == pytest.approx(fd, rel=1e-5)

    def test_theta_at_maturity_with_discounting(self, ou_model):
        # moving the last sampling time also moves the discount horizon
        engine = CorrelatorEngine(ou_model)
        basis = GhpBasis(drift=2.0, scale=1.6, order=8)
        req = PriceRequest(2.0, 0.04, 0.0, (1.0, 2.0), basis, ou_model, 2.0)
        h = 1e-5
        up = asian_price(
            PriceRequest(2.0, 0.04, 0.0, (1.0, 2.0 + h), basis, ou_model, 2.0), engine=engine
        ).price_at_order
        dn = asian_price(
            PriceRequest(2.0, 0.04, 0.0, (1.0, 2.0 - h), basis, ou_model, 2.0), engine=engine
        ).price_at_order
        fd = (up - dn) / (2 * h)
        assert theta(req, 1, engine=engine) == pytest.approx(fd, rel=1e-5)

    def test_theta_index_validated(self, ou_model):
        basis = GhpBasis(drift=2.0, scale=1.6, order=4)
        req = PriceRequest(2.0, 0.0, 0.0, (1.0, 2.0), basis, ou_model, 2.0)
        with pytest.raises(ValueError):
            theta(req, 2)


class TestHelpers:
    def test_default_drift_matches_average_mean(self, ou_model):
        times = (0.5, 1.0, 1.5, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        assert default_drift(ou_model, 0.0, 2.0, times) == pytest.approx(law.mean, rel=1e-13)

    def test_average_std_matches_closed_form(self, ou_model):
        times = (0.5, 1.0, 1.5, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        assert average_std(ou_model, 0.0, 2.0, times) == pytest.approx(law.std, rel=1e-11)

    def test_average_std_works_with_jumps(self, jd_model):
        sigma = average_std(jd_model, 0.0, 2.0, (2.0,))
        var = moment(jd_model, 2, 0.0, 2.0, 2.0) - moment(jd_model, 1, 0.0, 2.0, 2.0) ** 2
        assert sigma == pytest.approx(math.sqrt(var), rel=1e-12)


class TestRequestValidation:
    def test_negative_strike(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        with pytest.raises(ValueError):
            PriceRequest(-1.0, 0.0, 0.0, (1.0,), basis, bm_model, 0.0)

    def test_negative_rate(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        with pytest.raises(ValueError):
            PriceRequest(1.0, -0.01, 0.0, (1.0,), basis, bm_model, 0.0)

    def test_unsorted_times(self, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        with pytest.raises(ValueError):
            PriceRequest(1.0, 0.0, 0.0, (2.0, 1.0), basis, bm_model, 0.0)
