import math

import numpy as np
import pytest

from asianhermite import (
    GhpBasis,
    McConfig,
    ModelSpec,
    NigParams,
    PriceRequest,
    accuracy_gamma,
    gaussian_call,
    levy_moments,
    mc_price,
    moment,
    ou_asian_law,
    simulate_paths,
)
from asianhermite import montecarlo


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = McConfig()
        assert cfg.paths == 20_000
        assert cfg.batches == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(paths=0)
        with pytest.raises(ValueError):
            McConfig(refine=0)


class TestSimulatePaths:
    def test_deterministic_model_is_ode_flow(self):
        spec = ModelSpec(drift_const=0.3, drift_lin=-0.4, diff_sq=0.0)
        times = (0.5, 1.0, 2.0)
        values = simulate_paths(spec, 0.0, 1.0, times, McConfig(paths=7, batches=1, seed=1))

        def flow(s):
            e = math.exp(-0.4 * s)
            return 1.0 * e + (0.3 / -0.4) * (e - 1.0)

        for j, s in enumerate(times):
            np.testing.assert_allclose(values[:, j], flow(s), rtol=1e-12)

    def test_same_seed_bit_identical(self, jd_model):
        cfg = McConfig(paths=500, batches=1, seed=42, refine=10)
        a = simulate_paths(jd_model, 0.0, 2.0, (1.0, 2.0), cfg)
        b = simulate_paths(jd_model, 0.0, 2.0, (1.0, 2.0), cfg)
        np.testing.assert_array_equal(a, b)

    def test_ou_mean_matches_transition_formula(self, ou_model):
        cfg = McConfig(paths=100_000, batches=1, seed=3)
        values = simulate_paths(ou_model, 0.0, 2.0, (2.0,), cfg)
        mean = moment(ou_model, 1, 0.0, 2.0, 2.0)
        var = moment(ou_model, 2, 0.0, 2.0, 2.0) - mean**2
        se = math.sqrt(var / cfg.paths)
        assert abs(values[:, 0].mean() - mean) < 3 * se

    def test_nig_second_moment_matches_generator(self, jd_model):
        cfg = McConfig(paths=200_000, batches=1, seed=5, refine=50)
        values = simulate_paths(jd_model, 0.0, 2.0, (2.0,), cfg)
        y = values[:, 0]
        target = moment(jd_model, 2, 0.0, 2.0, 2.0)
        sample = np.mean(y**2)
        fourth = moment(jd_model, 4, 0.0, 2.0, 2.0)
        se = math.sqrt((fourth - target**2) / cfg.paths)
        assert abs(sample - target) < 3 * se

    def test_ou_near_zero_rate_matches_brownian_branch(self):
        # b1 = 1e-12 takes the OU transition, b1 = 0 the Brownian one; with
        # expm1 the two agree to rounding on the same draws
        times = (0.5, 1.0, 2.0)
        cfg = McConfig(paths=1000, batches=1, seed=4)
        ou = simulate_paths(ModelSpec(0.3, 1e-12, 0.98), 0.0, 2.0, times, cfg)
        bm = simulate_paths(ModelSpec(0.3, 0.0, 0.98), 0.0, 2.0, times, cfg)
        np.testing.assert_allclose(ou, bm, rtol=0.0, atol=1e-10)

    def test_exact_scheme_grid_invariant_in_law(self, ou_model):
        # refining the monitoring grid must not change terminal marginals
        coarse = simulate_paths(ou_model, 0.0, 2.0, (2.0,), McConfig(paths=80_000, batches=1, seed=9))
        fine = simulate_paths(
            ou_model, 0.0, 2.0, tuple(np.linspace(0.25, 2.0, 8)), McConfig(paths=80_000, batches=1, seed=10)
        )
        a, b = coarse[:, -1], fine[:, -1]
        se_mean = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 3 * se_mean
        se_var = math.sqrt(2.0 * a.var() ** 2 / (a.size - 1) + 2.0 * b.var() ** 2 / (b.size - 1))
        assert abs(a.var() - b.var()) < 3 * se_var

    @pytest.mark.parametrize("nig", [(1.0, 0.0, 0.0, 0.05), (2.0, 0.5, 0.0, 0.3)])
    @pytest.mark.parametrize("diff_sq", [0.49, 0.0])
    def test_jump_paths_equal_expression_form_step(self, nig, diff_sq):
        # the in-place Euler interval must round exactly like the expression form
        spec = ModelSpec(-0.02, 0.01, diff_sq, NigParams(*nig))
        times = (0.7, 2.0)
        cfg = McConfig(paths=1000, batches=1, seed=21, refine=13)
        rng = montecarlo._generator(np.random.SeedSequence(cfg.seed))
        expected = np.empty((cfg.paths, len(times)))
        y = np.full(cfg.paths, 2.0)
        for j, (t0, t1) in enumerate(zip((0.0,) + times, times)):
            y = _expression_form_euler(spec, y, t0, t1, cfg.refine, rng)
            expected[:, j] = y
        got = simulate_paths(spec, 0.0, 2.0, times, cfg)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("nig", [(1.0, 0.0, 0.0, 0.3), (2.0, 0.5, 0.0, 0.3)])
    @pytest.mark.parametrize("diff_sq", [0.49, 0.0])
    def test_interval_law_matches_euler(self, nig, diff_sq):
        # 13 Euler substeps at growth 1 + b1*dt = 0.95 weigh the substeps'
        # increments by unequal powers of growth; the interval's mean, variance
        # and third central moment match the scheme's closed forms to 4
        # standard errors
        spec = ModelSpec(-0.02, -0.5, diff_sq, NigParams(*nig))
        y0, tau, substeps, n = 2.0, 1.3, 13, 200_000
        dt = tau / substeps
        growth = 1.0 + spec.drift_lin * dt
        rng = montecarlo._generator(np.random.SeedSequence(32))
        x = montecarlo._euler_jump_path(spec, np.full(n, y0), 0.0, tau, substeps, rng)

        def power_sum(p):
            return math.fsum(growth ** (p * k) for k in range(substeps))

        c = levy_moments(spec.jumps, 6)
        k2 = (diff_sq + c[2]) * dt * power_sum(2)
        k3, k4, k6 = (c[p] * dt * power_sum(p) for p in (3, 4, 6))
        mu4 = k4 + 3 * k2**2
        mu6 = k6 + 15 * k4 * k2 + 10 * k3**2 + 15 * k2**3
        # shift + beta*E[S] = b0*dt: the compensator cancels the jumps' mean
        mean = growth**substeps * y0 + spec.drift_const * dt * power_sum(1)
        d = x - x.mean()
        checks = [
            (x.mean(), mean, k2),
            (np.mean(d**2), k2, mu4 - k2**2),
            (np.mean(d**3), k3, mu6 - k3**2 - 6 * mu4 * k2 + 9 * k2**3),
        ]
        for sample, target, var in checks:
            assert abs(sample - target) < 4 * math.sqrt(var / n)

    @pytest.mark.parametrize("nig", [(1.0, 0.0, 0.0, 0.3), (2.0, 0.5, 0.0, 0.3)])
    @pytest.mark.parametrize("diff_sq", [0.49, 0.0])
    def test_one_substep_law(self, nig, diff_sq):
        # one Euler substep from a fixed y has mean (b0 + b1*y)*dt, variance
        # (diff_sq + c2)*dt and third central moment c3*dt, to 4 standard errors
        spec = ModelSpec(-0.02, 0.01, diff_sq, NigParams(*nig))
        y0, dt, n = 2.0, 0.5, 200_000
        rng = montecarlo._generator(np.random.SeedSequence(31))
        x = montecarlo._euler_jump_path(spec, np.full(n, y0), 0.0, dt, 1, rng) - y0
        c = levy_moments(spec.jumps, 6)
        k2, k3, k4, k6 = (diff_sq + c[2]) * dt, c[3] * dt, c[4] * dt, c[6] * dt
        mu4 = k4 + 3 * k2**2
        mu6 = k6 + 15 * k4 * k2 + 10 * k3**2 + 15 * k2**3
        d = x - x.mean()
        checks = [
            (x.mean(), (spec.drift_const + spec.drift_lin * y0) * dt, k2),
            (np.mean(d**2), k2, mu4 - k2**2),
            (np.mean(d**3), k3, mu6 - k3**2 - 6 * mu4 * k2 + 9 * k2**3),
        ]
        for sample, target, var in checks:
            assert abs(sample - target) < 4 * math.sqrt(var / n)


def _expression_form_euler(spec, y, t0, t1, substeps, rng):
    """One monitoring interval of the jump model's Euler scheme, one expression per term.

    Given the subordinator draws S_k, the substeps' normals sum to one normal
    of variance sum growth^(2(K-1-k)) * (diff_sq*dt + S_k); kept as a reference.
    """
    jumps = spec.jumps
    dt = (t1 - t0) / substeps
    gam = jumps.gamma
    growth = 1.0 + spec.drift_lin * dt
    var = np.zeros_like(y)
    lin = np.zeros_like(y)
    for _ in range(substeps):
        subordinator = rng.wald(jumps.delta * dt / gam, (jumps.delta * dt) ** 2, size=y.shape)
        var = var * (growth * growth) + subordinator
        lin = lin * growth + subordinator
    y = y * growth**substeps
    shift = (spec.drift_const - jumps.delta * jumps.beta / gam) * dt
    y = y + shift * math.fsum(growth**k for k in range(substeps))
    if jumps.beta != 0.0:
        y = y + jumps.beta * lin
    var = var + spec.diff_sq * dt * math.fsum(growth ** (2 * k) for k in range(substeps))
    y = y + np.sqrt(var) * rng.standard_normal(y.shape)
    return y


def _serial_mc(spec, req, cfg, scheme):
    """mc_price's batches run one after another in the calling thread."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.batches)
    means = np.empty(cfg.batches)
    for b in range(cfg.batches):
        rng = montecarlo._generator(streams[b])
        values = montecarlo._simulate(spec, req.t, req.y_t, req.times, cfg.paths, scheme,
                                      cfg.refine, rng)
        means[b] = req.discount * np.maximum(values.mean(axis=1) - req.strike, 0.0).mean()
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(cfg.batches))


class TestMcPrice:
    @pytest.mark.parametrize("workers", [None, 1, 3])
    @pytest.mark.parametrize("scheme", ["exact-ou", "euler-jump"])
    def test_concurrent_batches_equal_serial_loop(self, scheme, workers, ou_model, jd_model,
                                                  monkeypatch):
        # five batches: not a multiple of any worker count tried
        if workers is not None:
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        spec = ou_model if scheme == "exact-ou" else jd_model
        basis = GhpBasis(drift=2.0, scale=1.5, order=2)
        req = PriceRequest(2.0, 0.03, 0.0, (1.0, 2.0), basis, spec, 2.0)
        cfg = McConfig(paths=400, batches=5, seed=17, refine=7)
        est = mc_price(spec, req, cfg)
        mean, std_error = _serial_mc(spec, req, cfg, scheme)
        assert est.mean == mean
        assert est.std_error == std_error

    def test_deterministic_model_exact_zero_error(self):
        spec = ModelSpec(drift_const=0.1, drift_lin=0.0, diff_sq=0.0)
        basis = GhpBasis(drift=1.0, scale=1.0, order=2)
        req = PriceRequest(1.0, 0.0, 0.0, (1.0, 2.0), basis, spec, 1.0)
        est = mc_price(spec, req, McConfig(paths=100, batches=5, seed=0))
        # average of the flow: (1.1 + 1.2)/2 = 1.15, payoff 0.15
        assert est.mean == pytest.approx(0.15, rel=1e-12)
        assert est.std_error == 0.0

    def test_reproducible_estimates(self, ou_model):
        basis = GhpBasis(drift=2.0, scale=1.5, order=2)
        req = PriceRequest(2.0, 0.0, 0.0, (1.0, 2.0), basis, ou_model, 2.0)
        cfg = McConfig(paths=2000, batches=8, seed=11)
        a = mc_price(ou_model, req, cfg)
        b = mc_price(ou_model, req, cfg)
        assert a == b

    def test_std_error_scaling_with_paths(self, ou_model):
        basis = GhpBasis(drift=2.0, scale=1.5, order=2)
        req = PriceRequest(2.0, 0.0, 0.0, (2.0,), basis, ou_model, 2.0)
        small = mc_price(ou_model, req, McConfig(paths=2000, batches=100, seed=12))
        large = mc_price(ou_model, req, McConfig(paths=8000, batches=100, seed=12))
        ratio = small.std_error / large.std_error
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_brownian_accuracy_order_three(self, bm_model):
        # the benchmark protocol reaches roughly three accurate digits
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        req = PriceRequest(0.2, 0.0, 0.0, (0.5,), basis, bm_model, 0.0)
        est = mc_price(bm_model, req, McConfig(paths=20_000, batches=100, seed=13))
        from asianhermite import GaussianLaw

        exact = gaussian_call(GaussianLaw(0.0, math.sqrt(0.5)), 0.2)
        gamma = accuracy_gamma(exact, est.mean)
        assert 2.0 <= gamma <= 4.5

    def test_interval_contains_closed_form(self, ou_model):
        times = (1.0, 2.0)
        law = ou_asian_law(ou_model, 0.0, 2.0, times)
        basis = GhpBasis(drift=law.mean, scale=1.5, order=2)
        req = PriceRequest(2.0, 0.0, 0.0, times, basis, ou_model, 2.0)
        est = mc_price(ou_model, req, McConfig(paths=20_000, batches=50, seed=14))
        assert est.contains(gaussian_call(law, 2.0))

    def test_interval_geometry(self, ou_model):
        basis = GhpBasis(drift=2.0, scale=1.5, order=2)
        req = PriceRequest(2.0, 0.0, 0.0, (2.0,), basis, ou_model, 2.0)
        est = mc_price(ou_model, req, McConfig(paths=1000, batches=20, seed=15))
        assert est.ci95[0] == pytest.approx(est.mean - 1.96 * est.std_error)
        assert est.ci95[1] == pytest.approx(est.mean + 1.96 * est.std_error)

    def test_model_mismatch_rejected(self, ou_model, bm_model):
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        req = PriceRequest(1.0, 0.0, 0.0, (1.0,), basis, bm_model, 0.0)
        with pytest.raises(ValueError):
            mc_price(ou_model, req, McConfig(paths=10, batches=2))

    def test_one_batch_rejected(self, ou_model):
        # one batch mean has no dispersion, so it gives no error estimate
        basis = GhpBasis(drift=0.0, scale=1.0, order=2)
        req = PriceRequest(1.0, 0.0, 0.0, (1.0,), basis, ou_model, 0.0)
        with pytest.raises(ValueError, match="two batches"):
            mc_price(ou_model, req, McConfig(paths=10, batches=1))


def fourier_call_price(spec, t, y0, maturity, strike, damping=0.5):
    """Independent benchmark: damped Fourier integration of the payoff.

    The terminal characteristic function combines the deterministic mean,
    the Gaussian variance, and the time-integrated jump cumulant of the
    exponentially filtered Levy integral.  Valid only while the damped
    exponential moment exists, i.e. ``damping * kernel < alpha - beta``.
    """
    from scipy.integrate import quad

    b0, b1, s0 = spec.drift_const, spec.drift_lin, spec.diff_sq
    tau = maturity - t
    mu_det = y0 * math.exp(b1 * tau) + b0 / b1 * (math.exp(b1 * tau) - 1.0)
    var_g = s0 * (math.exp(2 * b1 * tau) - 1.0) / (2 * b1)
    jumps = spec.jumps

    def psi_jump(u):
        if jumps is None:
            return 0.0
        al, be, de = jumps.alpha, jumps.beta, jumps.delta
        gam = jumps.gamma

        def part(s, take):
            k = math.exp(b1 * (tau - s))
            z = be + 1j * u * k
            val = de * (gam - np.sqrt(al * al - z * z)) - 1j * u * k * de * be / gam
            return val.real if take == "re" else val.imag

        re, _ = quad(lambda s: part(s, "re"), 0.0, tau, limit=200)
        im, _ = quad(lambda s: part(s, "im"), 0.0, tau, limit=200)
        return re + 1j * im

    def integrand(u):
        w = u - 1j * damping
        cf = np.exp(1j * w * mu_det - 0.5 * w * w * var_g + psi_jump(w))
        return (np.exp(-1j * u * strike) * cf / (damping + 1j * u) ** 2).real

    val, _ = quad(integrand, 0.0, 80.0, limit=400)
    return math.exp(-damping * strike) / math.pi * val


class TestFourierBenchmark:
    def test_machinery_on_gaussian_model(self, ou_model):
        from asianhermite import GaussianLaw

        law = ou_asian_law(ou_model, 0.0, 2.0, (2.0,))
        got = fourier_call_price(ou_model, 0.0, 2.0, 2.0, 2.0)
        assert got == pytest.approx(gaussian_call(law, 2.0), rel=1e-11)

    def test_jump_mc_against_fourier(self, jd_model):
        # the only non-simulation benchmark of the jump model end to end
        truth = fourier_call_price(jd_model, 0.0, 2.0, 2.0, 1.0)
        assert truth == pytest.approx(1.0950828157227843, rel=1e-10)
        basis = GhpBasis(drift=2.0, scale=1.0, order=2)
        req = PriceRequest(1.0, 0.0, 0.0, (2.0,), basis, jd_model, 2.0)
        est = mc_price(jd_model, req, McConfig(paths=20_000, batches=40, seed=21))
        assert est.contains(truth)
