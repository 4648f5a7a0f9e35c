import math
import re
from dataclasses import replace

import numpy as np
import pytest

from asianhermite import (
    CorrelatorEngine,
    GaussianLaw,
    GhpBasis,
    ModelSpec,
    NigParams,
    NumericalError,
    PriceReport,
    PriceRequest,
    asian_price,
    average_std,
    default_drift,
    delta,
    european_price,
    gamma,
    gaussian_call,
    moment,
    ou_asian_law,
    payoff_coefficients,
    scale_floor,
    std_normal,
    stopping_criterion,
    theta,
)
from asianhermite import correlators, generator
from asianhermite.pricing import (
    _build_report,
    _expanded_moments,
    _gamma_tilde,
    _series_partial_sums,
    multinomial_expand,
)

# a NIG model whose series at the orders below still converge
NIG_LIGHT = ModelSpec(-0.02, 0.01, 0.49, NigParams(alpha=2.0, beta=0.0, mu=0.0, delta=0.05))


def book_request(model, m, order, z, rate=0.0, engine=None):
    """From ``y_t = 2`` at ``K = mean + z std`` on ``m + 1`` times to 2, basis at twice the scale floor."""
    times = tuple(2.0 * (j + 1) / (m + 1) for j in range(m + 1))
    a = default_drift(model, 0.0, 2.0, times)
    s = average_std(model, 0.0, 2.0, times, engine=engine)
    basis = GhpBasis(drift=a, scale=2.0 * scale_floor(s), order=order)
    return PriceRequest(a + z * s, rate, 0.0, times, basis, model, 2.0)


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

    @pytest.mark.parametrize(
        "price", [asian_price, delta, lambda req: theta(req, 0)],
        ids=["asian_price", "delta", "theta"],
    )
    @pytest.mark.parametrize("m, order, limit", [
        # order 13 at m = 11 needs C(24, 11) = 2 496 144 terms; orders 0..12
        # would take minutes of chains before the expansion of order 13 fails
        (11, 13, "order 13 exceeds the multinomial term cap: order 13 needs "
                 "C(24, 11) = 2496144 terms, above DEFAULT_TERM_CAP = 2000000"),
        # order 101 at m = 1 needs a generator of order 202
        (1, 101, "order 101 exceeds max_order(model) // (m + 1) = 200 // 2"),
    ], ids=["term-cap", "generator"])
    def test_order_limit_checked_before_any_chain(self, ou_model, monkeypatch, price, m,
                                                  order, limit):
        def no_chain(*args, **kwargs):
            raise AssertionError("a correlator chain ran before the order limit was checked")

        monkeypatch.setattr(CorrelatorEngine, "_chain", no_chain)
        times = tuple((j + 1) / (m + 1) for j in range(m + 1))
        basis = GhpBasis(drift=2.0, scale=1.0, order=order)
        with pytest.raises(ValueError, match=re.escape(limit)):
            price(PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0))


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
        # one sampling time is the European case of the same moment function
        for model in (ou_model, jd_model):
            basis = GhpBasis(drift=2.0, scale=1.5, order=12)
            req = PriceRequest(2.0, 0.03, 0.0, (2.0,), basis, model, 2.0)
            eu = european_price(req)
            asian = asian_price(req)
            assert np.array_equal(asian.price_by_N, eu.price_by_N)

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
        moments = _average_moments(CorrelatorEngine(const), 0.0, 2.0, req.times, 8)
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
        short = _average_moments(grown, 0.0, 2.0, req.times, 10)
        extended = _average_moments(grown, 0.0, 2.0, req.times, 20)
        direct = _average_moments(CorrelatorEngine(model), 0.0, 2.0, req.times, 20)
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

    def test_all_nan_series_not_converged(self):
        # a NaN increment is measured, not vanished: nothing here converged
        decision = stopping_criterion(report_from([math.nan] * 8))
        assert decision == (7, False, False)

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

    def test_one_vanished_last_increment_is_not_a_quiet_tail(self):
        # a diverging series whose last increment is a structural zero
        increments = [x for k in range(1, 11) for x in (0.1 * 1.5**k, 0.0)]
        quiet = report_from(np.concatenate([[1.0], 1.0 + np.cumsum(increments)]))
        assert stopping_criterion(quiet) == (20, False, False)
        loud = report_from(np.concatenate([[1.0], 1.0 + np.cumsum(increments[:-1])]))
        assert stopping_criterion(loud) == (19, False, False)

    def test_two_vanished_last_increments_are_a_quiet_tail(self):
        decision = stopping_criterion(report_from([1.0, 1.1, 1.15, 1.15, 1.15]))
        assert decision == (3, True, False)

    @pytest.mark.parametrize("partial, expected", [
        # a NaN neighbour counts as 0, so the finite step is measured: it
        # crosses, and the NaN step after it does not confirm the crossing
        ([math.nan, 1.0, 1.0 + 1e-6, math.nan], (2, False, True)),
        ([1.0, 1.1, 1.10001, 1.3, 1.6], (2, False, True)),
        ([1.0, 1.1, 1.10001, 1.100011, 1.4], (2, True, True)),
        ([0.0, 0.0, 0.5, 0.5], (3, False, False)),
        ([0.0, 0.0, 0.0], (1, True, True)),
        ([1.0, 2.0, math.inf], (2, False, False)),
    ], ids=["finite-step-between-nan-steps", "unconfirmed-crossing", "confirmed-crossing",
            "zero-sums", "all-zero-sums", "infinite-sum"])
    def test_hand_built_sequences(self, partial, expected):
        # the price's own report and the public rule reach the same decision
        partial = np.asarray(partial, dtype=float)
        assert stopping_criterion(report_from(partial)) == expected
        report = _build_report(partial)
        assert (report.chosen_N, report.converged) == expected[:2]

    def test_gamma_tilde_clamps(self):
        # equal sums, 0 -> 0 included, give the upper clamp; a zero reference
        # before a non-zero sum and an infinite relative error the lower one
        partial = np.array([0.0, 0.0, 0.5, 0.5, math.inf, math.nan, 0.0, math.nan])
        expected = [math.nan, 16.0, -16.0, 16.0, -16.0, math.nan, math.nan, -16.0]
        assert np.array_equal(_gamma_tilde(partial), expected, equal_nan=True)

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

    def test_european_theta_with_discounting(self, ou_model):
        # at m = 0 the sampling time is the maturity: the moments and the
        # discount factor both move with it
        basis = GhpBasis(drift=2.0, scale=1.6, order=10)
        req = PriceRequest(2.0, 0.05, 0.0, (2.0,), basis, ou_model, 2.0)
        h = 1e-5
        up = european_price(
            PriceRequest(2.0, 0.05, 0.0, (2.0 + h,), basis, ou_model, 2.0)
        ).price_at_order
        dn = european_price(
            PriceRequest(2.0, 0.05, 0.0, (2.0 - h,), basis, ou_model, 2.0)
        ).price_at_order
        fd = (up - dn) / (2 * h)
        assert theta(req, 0) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("kind, m, order", [
        ("ou", 0, 40), ("ou", 1, 40), ("ou", 2, 20), ("ou", 3, 16),
        # NIG at m = 1, N = 40 diverges and its two deltas part at 5e-8
        ("nig", 0, 40), ("nig", 2, 20), ("nig", 3, 16),
    ])
    def test_delta_matches_state_derivative_chains(self, ou_model, kind, m, order):
        # the reference differentiates every correlator chain in the state
        model = ou_model if kind == "ou" else NIG_LIGHT
        engine = CorrelatorEngine(model)
        for z in (0.0, 0.7):
            req = book_request(model, m, order, z, rate=0.03, engine=engine)
            d_moments = _expanded_moments(model, req.t, req.y_t, req.times,
                                          engine.derivative_state, range(order + 1))
            beta = payoff_coefficients(req.strike, req.basis).beta
            chains = req.discount * _series_partial_sums(d_moments, req.basis, beta)[-1]
            assert delta(req, engine=engine) == pytest.approx(chains, rel=1e-9)

    @pytest.mark.parametrize("m", (0, 1))
    def test_greeks_reuse_the_price_moments(self, ou_model, monkeypatch, m):
        calls = []

        def counting(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls.append(attr)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for owner in (generator, correlators):
            for attr in ("matrix_exponential", "_transition"):
                counting(owner, attr)
        counting(CorrelatorEngine, "_chain")
        engine = CorrelatorEngine(ou_model)
        req = book_request(ou_model, m, 40, 0.3, engine=engine)
        asian_price(req, engine=engine)
        calls.clear()
        delta(req, engine=engine)
        gamma(req, engine=engine)
        assert calls == []

    @pytest.mark.parametrize("m", (0, 1))
    def test_gamma_ou_closed_form(self, ou_model, m):
        # the OU average is Gaussian with a mean linear in the state, slope c,
        # so the call's second derivative is disc c^2 phi(z) / sigma_A
        req = book_request(ou_model, m, 40, 0.3, rate=0.03)
        law = ou_asian_law(ou_model, 0.0, req.y_t, req.times)
        slope = ou_asian_law(ou_model, 0.0, req.y_t + 1.0, req.times).mean - law.mean
        pdf, _ = std_normal((req.strike - law.mean) / law.std)
        exact = req.discount * slope**2 * pdf / law.std
        assert gamma(req) == pytest.approx(exact, rel=1e-6)

    def test_gamma_matches_difference_of_delta(self):
        engine = CorrelatorEngine(NIG_LIGHT)
        req = book_request(NIG_LIGHT, 2, 16, 0.4, engine=engine)
        h = 1e-4
        up, dn = (delta(replace(req, y_t=req.y_t + d), engine=engine) for d in (h, -h))
        assert gamma(req, engine=engine) == pytest.approx((up - dn) / (2 * h), rel=1e-6)

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

    def test_law_runs_no_chain(self, ou_model, jd_model, monkeypatch):
        # the mean and the width of the average are closed forms: no
        # correlator chain, no matrix exponential and no transition matrix
        def refuse(*args, **kwargs):
            raise AssertionError("the law of the average ran a chain or an exponential")

        monkeypatch.setattr(CorrelatorEngine, "_chain", refuse)
        for owner in (generator, correlators):
            for attr in ("matrix_exponential", "_transition"):
                monkeypatch.setattr(owner, attr, refuse)
        times = (0.5, 1.2, 2.0)
        for model in (ou_model, jd_model):
            assert math.isfinite(default_drift(model, 0.0, 2.0, times))
            assert average_std(model, 0.0, 2.0, times, engine=CorrelatorEngine(model)) > 0
        assert ou_asian_law(ou_model, 0.0, 2.0, times).std > 0
        with pytest.raises(ValueError, match="jump-free"):
            ou_asian_law(jd_model, 0.0, 2.0, times)

    @pytest.mark.parametrize("m", [0, 1])
    def test_average_std_does_not_depend_on_state(self, ou_model, m):
        # the state shifts the average by a constant; a width taken as
        # E[A^2] - E[A]^2 would lose its digits to that shift
        times = (2.0,) if m == 0 else (1.0, 2.0)
        far = average_std(ou_model, 0.0, 1e7, times)
        assert far == pytest.approx(average_std(ou_model, 0.0, 2.0, times), rel=1e-12)

    @pytest.mark.parametrize("y_t", [math.nan, math.inf])
    def test_law_refuses_non_finite_state(self, ou_model, y_t):
        for law in (default_drift, average_std, ou_asian_law):
            with pytest.raises(ValueError, match="y_t"):
                law(ou_model, 0.0, y_t, (1.0, 2.0))

    def test_law_overflow_is_numerical_failure(self):
        steep = ModelSpec(drift_const=0.0, drift_lin=400.0, diff_sq=1.0)
        for law in (default_drift, average_std, ou_asian_law):
            with pytest.raises(NumericalError, match="law of the average overflows"):
                law(steep, 0.0, 1.0, (1.0, 2.0))

    def test_average_std_checks_the_engine_model(self, ou_model, bm_model):
        with pytest.raises(ValueError, match="different model"):
            average_std(ou_model, 0.0, 2.0, (1.0, 2.0), engine=CorrelatorEngine(bm_model))

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

    @pytest.mark.parametrize("strike, rate, t", [
        (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0),
        (1.0, math.inf, 0.0), (1.0, 0.0, math.nan),
    ])
    def test_non_finite_inputs(self, strike, rate, t, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        with pytest.raises(ValueError):
            PriceRequest(strike, rate, t, (1.0,), basis, bm_model, 0.0)
