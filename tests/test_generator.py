import math
import os
import subprocess
import sys
import warnings
from math import comb

import mpmath as mp
import numpy as np
import pytest

import asianhermite
from asianhermite import (
    CorrelatorEngine,
    CorrelatorQuery,
    ModelSpec,
    NigParams,
    NumericalError,
    generator_matrix,
    levy_moments,
    matrix_exponential,
    max_order,
    moment,
    moment_vector,
)
from asianhermite.generator import (
    MAX_GENERATOR_ORDER,
    _levy_abs_moment_quadrature,
    _levy_table,
    _transition,
    levy_moment_quadrature,
)

NIG_REF = NigParams(alpha=1.0, beta=0.0, mu=0.0, delta=0.05)


def gaussian_moment(mean, std, n):
    """Non-central Gaussian moment by the double-factorial expansion."""
    total = 0.0
    for j in range(0, n + 1, 2):
        dfact = math.prod(range(1, j, 2)) if j else 1
        total += comb(n, j) * dfact * std**j * mean ** (n - j)
    return total


def ou_transition(spec, tau, y):
    b0, b1, s0 = spec.drift_const, spec.drift_lin, spec.diff_sq
    if b1 == 0.0:
        return y + b0 * tau, math.sqrt(s0 * tau)
    e = math.exp(b1 * tau)
    return y * e + b0 / b1 * (e - 1.0), math.sqrt(s0 * (math.exp(2 * b1 * tau) - 1) / (2 * b1))


def jd_moments_by_cumulants(spec, tau, y, n_max):
    """Independent oracle: filtered-jump cumulants assembled into moments.

    Each cumulant of the terminal value integrates the jump moment against
    the exponential kernel; moments follow by the standard recursive
    moment-cumulant identity.
    """
    b0, b1 = spec.drift_const, spec.drift_lin
    c = levy_moments(spec.jumps, max(n_max, 2)) if spec.jumps else np.zeros(n_max + 1)
    kappa = np.zeros(n_max + 1)
    if b1 == 0.0:
        kappa[1] = y + b0 * tau
        base = lambda m: tau
    else:
        kappa[1] = y * math.exp(b1 * tau) + b0 / b1 * (math.exp(b1 * tau) - 1.0)
        base = lambda m: (math.exp(m * b1 * tau) - 1.0) / (m * b1)
    for m in range(2, n_max + 1):
        kappa[m] = (c[m] if m < len(c) else 0.0) * base(m)
        if m == 2:
            kappa[2] += spec.diff_sq * base(2)
    moments = np.zeros(n_max + 1)
    moments[0] = 1.0
    for n in range(1, n_max + 1):
        moments[n] = sum(
            comb(n - 1, j - 1) * kappa[j] * moments[n - j] for j in range(1, n + 1)
        )
    return moments


def symmetric_levy_moment(params, m):
    """Even Levy moment of a beta = 0 NIG law: delta (2j)! |C(1/2, j)| alpha^(1-2j), m = 2j."""
    j = m // 2
    binom_half = math.prod((0.5 - i) / (i + 1) for i in range(j))
    return params.delta * math.factorial(2 * j) * abs(binom_half) * params.alpha ** (1 - 2 * j)


def generator_loop(spec, n):
    """Row-by-row generator build, the reference for the vectorized one."""
    g = np.zeros((n + 1, n + 1))
    c = levy_moments(spec.jumps, n) if spec.jumps is not None and n >= 2 else None
    for k in range(1, n + 1):
        g[k, k] += spec.drift_lin * k
        g[k, k - 1] += spec.drift_const * k
        if k >= 2:
            g[k, k - 2] += 0.5 * spec.diff_sq * k * (k - 1)
            if c is not None:
                for j in range(2, k + 1):
                    g[k, k - j] += comb(k, j) * c[j]
    return g


def max_order_loop(spec):
    """The last order at which every ``C(k, j) c_j`` is finite, by a loop."""
    if spec.jumps is None:
        return MAX_GENERATOR_ORDER
    c = _levy_table(spec.jumps).tolist()
    for k in range(2, len(c)):
        if not all(math.isfinite(comb(k, j) * c[j]) for j in range(2, k + 1)):
            return k - 1
    return len(c) - 1


def quad_levy_moment(params, m):
    """``z^m`` against the NIG Levy density by adaptive quadrature."""
    from scipy.integrate import quad
    from scipy.special import kve

    a, b, d = params.alpha, params.beta, params.delta

    def f(z):
        return z**m * d * a / math.pi * math.exp(b * z - a * abs(z)) * kve(1, a * abs(z)) / abs(z)

    return quad(f, 0.0, np.inf, limit=200)[0] + quad(f, -np.inf, 0.0, limit=200)[0]


class TestLevyMoments:
    def test_reference_values(self):
        c = levy_moments(NIG_REF, 6)
        assert c[2] == pytest.approx(0.05, rel=1e-14)
        assert c[3] == 0.0
        assert c[4] == pytest.approx(0.15, rel=1e-14)
        assert c[5] == 0.0

    def test_cumulants_match_quadrature_to_order_ten(self):
        c = levy_moments(NIG_REF, 10)
        for m in range(2, 11):
            q = levy_moment_quadrature(NIG_REF, m)
            scale = max(abs(c[m]), abs(q), 1e-12)
            assert abs(c[m] - q) <= 1e-7 * scale

    def test_asymmetric_measure(self):
        params = NigParams(alpha=2.0, beta=0.8, mu=0.0, delta=0.3)
        c = levy_moments(params, 8)
        for m in range(2, 9):
            q = levy_moment_quadrature(params, m)
            assert c[m] == pytest.approx(q, rel=1e-7)
        assert c[3] != 0.0  # skewed measure has odd moments

    def test_closed_form_low_orders(self):
        # variance and fourth cumulant of the NIG law
        params = NigParams(alpha=1.5, beta=0.5, mu=0.0, delta=0.4)
        gam = math.sqrt(1.5**2 - 0.5**2)
        c = levy_moments(params, 4)
        assert c[2] == pytest.approx(0.4 * 1.5**2 / gam**3, rel=1e-13)
        assert c[3] == pytest.approx(3 * 0.4 * 0.5 * 1.5**2 / gam**5, rel=1e-13)
        assert c[4] == pytest.approx(3 * 0.4 * 1.5**2 * (1.5**2 + 4 * 0.5**2) / gam**7, rel=1e-13)

    @pytest.mark.parametrize(
        "params", [NIG_REF, NigParams(alpha=2.5, beta=0.0, mu=0.0, delta=0.3)]
    )
    def test_symmetric_closed_form_to_order_forty(self, params):
        # with beta = 0 the cumulants are delta * (2j)! * |C(1/2, j)| *
        # alpha^(1-2j) at even orders and vanish at odd ones; the factorial
        # growth is what makes the jump-diffusion series only asymptotic, and
        # quadrature cannot reach these orders
        c = levy_moments(params, 40)
        for j in range(1, 21):
            assert c[2 * j] == pytest.approx(symmetric_levy_moment(params, 2 * j), rel=1e-12)
        assert np.all(c[3::2] == 0.0)

    @pytest.mark.parametrize("alpha", [0.005, 1.0, 2.5, 50.0, 80.0])
    @pytest.mark.parametrize("delta", [0.05, 1.0])
    def test_rule_matches_symmetric_closed_form(self, alpha, delta):
        # the same beta = 0 closed form, now against the double-exponential
        # rule at the orders the moment check compares
        params = NigParams(alpha=alpha, beta=0.0, mu=0.0, delta=delta)
        for m in (2, 4, 6):
            assert levy_moment_quadrature(params, m) == pytest.approx(symmetric_levy_moment(params, m), rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("skew", [0.0, 0.5, -0.9])
    def test_rule_matches_adaptive_quadrature(self, alpha, skew):
        # where adaptive quadrature is accurate, both rules agree to 1e-10
        # of the absolute moment (odd moments of a symmetric law vanish)
        params = NigParams(alpha=alpha, beta=skew * alpha, mu=0.0, delta=0.1)
        for m in range(2, 7):
            scale = _levy_abs_moment_quadrature(params, m)
            assert abs(levy_moment_quadrature(params, m) - quad_levy_moment(params, m)) <= 1e-10 * scale

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NigParams(alpha=1.0, beta=1.0, mu=0.0, delta=0.1)
        with pytest.raises(ValueError):
            NigParams(alpha=1.0, beta=0.0, mu=0.0, delta=0.0)
        with pytest.raises(ValueError):
            levy_moments(NIG_REF, 1)

    def test_extreme_order_overflow_is_diagnosed(self):
        from asianhermite import NumericalError

        # at unit steepness the moments grow factorially; far enough out
        # they leave double range and must fail loudly, not as inf/nan
        with pytest.raises(NumericalError):
            levy_moments(NIG_REF, 200)
        # a steep measure keeps them representable through the cap
        steep = NigParams(alpha=30.0, beta=0.0, mu=0.0, delta=0.05)
        c = levy_moments(steep, 200)
        assert np.all(np.isfinite(c))


class TestOrderLimit:
    def test_fig8_model_limits(self):
        # the cumulants of alpha = 1, delta = 0.05 are finite up to order
        # 173; C(173, 172) c_172 already overflows, so the generator stops
        # one order earlier
        assert levy_moments(NIG_REF, 173).size == 174
        with pytest.raises(NumericalError, match="up to order 173"):
            levy_moments(NIG_REF, 174)
        spec = ModelSpec(-0.02, 0.01, 0.49, NIG_REF)
        assert max_order(spec) == 172
        assert np.all(np.isfinite(generator_matrix(spec, 172)))
        with pytest.raises(ValueError, match="limit 172"):
            generator_matrix(spec, 173)

    def test_limits_found_without_warnings(self):
        # the cumulant table ends at its first overflow; finding it warns of
        # nothing (a fresh process, since the table is cached per process)
        script = (
            "import warnings\n"
            "warnings.simplefilter('error')\n"
            "import asianhermite as ah\n"
            "for alpha, limit in ((0.01, 89), (1.0, 172)):\n"
            "    spec = ah.ModelSpec(-0.02, 0.01, 0.49, ah.NigParams(alpha, 0.0, 0.0, 0.05))\n"
            "    assert ah.max_order(spec) == limit, (alpha, ah.max_order(spec))\n"
            "    ah.generator_matrix(spec, limit)\n"
        )
        src = os.path.dirname(os.path.dirname(asianhermite.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_step_overflow_is_numerical_error(self):
        # the generator is finite at the limit 83 but not its 2-year transition
        spec = ModelSpec(-0.02, 0.01, 0.49, NigParams(0.005, 0.0, 0.0, 1.0))
        assert max_order(spec) == 83
        with pytest.raises(NumericalError, match="order 83 over the step 2.0 overflowed"):
            moment_vector(spec, 83, 0.0, 2.0, 2.0)
        engine = CorrelatorEngine(spec)
        with pytest.raises(NumericalError, match="order 83 over the step 2.0 overflowed"):
            engine.correlator(CorrelatorQuery(t=0.0, y_t=2.0, times=(2.0,), powers=(83,)))

    def test_gaussian_limit(self, ou_model):
        assert max_order(ou_model) == MAX_GENERATOR_ORDER

    def test_table_is_sliced_not_recomputed(self):
        params = NigParams(alpha=1.7, beta=0.2, mu=0.0, delta=0.11)
        short, long = levy_moments(params, 10), levy_moments(params, 60)
        assert np.array_equal(short, long[:11])
        assert not long.flags.writeable

    def test_quadrature_check_once_per_parameter_set(self, monkeypatch):
        from asianhermite import generator

        calls = []
        original = generator.levy_moment_quadrature

        def counting(params, m):
            calls.append(m)
            return original(params, m)

        monkeypatch.setattr(generator, "levy_moment_quadrature", counting)
        params = NigParams(alpha=1.3, beta=-0.1, mu=0.0, delta=0.07)
        spec = ModelSpec(0.0, 0.0, 0.5, params)
        for n in (4, 12, 30):
            generator_matrix(spec, n)
        assert calls == [2, 3, 4, 5, 6]

    def test_parameter_caches_are_bounded(self, monkeypatch):
        from asianhermite import generator

        caches = (generator._levy_table, generator._validate_levy_table, generator.max_order)
        bound = generator.PARAMETER_CACHE_SIZE
        for i in range(bound + 50):
            params = NigParams(alpha=1.0 + i / 1000, beta=0.0, mu=0.0, delta=0.0123)
            levy_moments(params, 4)
            max_order(ModelSpec(0.0, 0.0, 0.5, params))
            assert all(cache.cache_info().currsize <= bound for cache in caches)
        calls = []
        original = generator.levy_moment_quadrature

        def counting(params, m):
            calls.append(m)
            return original(params, m)

        monkeypatch.setattr(generator, "levy_moment_quadrature", counting)
        params = NigParams(alpha=1.9, beta=0.1, mu=0.0, delta=0.0123)
        levy_moments(params, 4)
        hits = generator._validate_levy_table.cache_info().hits
        levy_moments(params, 4)
        assert generator._validate_levy_table.cache_info().hits == hits + 1
        assert calls == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("params", [
        NigParams(alpha=80.0, beta=0.0, mu=0.0, delta=0.1),
        NigParams(alpha=0.005, beta=-0.0045, mu=0.0, delta=0.1),
    ])
    def test_valid_edge_parameters_pass_the_check(self, params):
        # adaptive quadrature once missed c_6 (alpha = 80) and c_5
        # (alpha = 0.005) by more than 1e-6 and raised NumericalError
        g = generator_matrix(ModelSpec(0.0, 0.0, 0.5, params), 8)
        assert np.all(np.isfinite(g))

    def test_perturbed_table_is_caught(self, monkeypatch):
        from asianhermite import generator

        params = NigParams(alpha=1.1, beta=0.3, mu=0.0, delta=0.2)
        c = generator._nig_cumulants(params)
        generator._validate_levy_table.__wrapped__(params)
        c[4] *= 1.0 + 1e-5
        monkeypatch.setattr(generator, "_levy_table", lambda p: c)
        with pytest.raises(NumericalError, match="jump moment m=4"):
            generator._validate_levy_table.__wrapped__(params)

    def test_import_defers_quadrature(self):
        # the moment check needs scipy.special only, once per parameter set
        script = (
            "import sys\n"
            "import asianhermite as ah\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "ah.generator_matrix(ah.ModelSpec(0.0, 0.0, 1.0), 40)\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "from asianhermite import generator\n"
            "calls = []\n"
            "original = generator.levy_moment_quadrature\n"
            "generator.levy_moment_quadrature = lambda p, m: calls.append(m) or original(p, m)\n"
            "nig = ah.NigParams(1.0, 0.0, 0.0, 0.05)\n"
            "ah.generator_matrix(ah.ModelSpec(0.0, 0.0, 0.49, nig), 8)\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "assert calls == [2, 3, 4, 5, 6], calls\n"
        )
        _run_fresh(script)

    def test_scipy_loads_only_where_called(self, tmp_path):
        # the package, the CLI, the law of a Gaussian average and Monte Carlo
        # load no SciPy; the series, jump models and the run command
        # included, load scipy.special only; scipy.linalg waits for a
        # reference path, and nothing loads scipy.integrate
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import asianhermite as ah\n"
            "import asianhermite.cli\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "ou = ah.ModelSpec(-0.02, 0.01, 0.98)\n"
            "ah.default_drift(ou, 0.0, 2.0, (1.0, 2.0))\n"
            "ah.average_std(ou, 0.0, 2.0, (1.0, 2.0))\n"
            "ah.ou_asian_law(ou, 0.0, 2.0, (1.0, 2.0))\n"
            "jd = ah.ModelSpec(-0.02, 0.01, 0.49, ah.NigParams(1.0, 0.0, 0.0, 0.05))\n"
            "basis = ah.GhpBasis(drift=2.0, scale=1.5, order=10)\n"
            "for spec in (ou, jd):\n"
            "    req = ah.PriceRequest(2.0, 0.0, 0.0, (1.0, 2.0), basis, spec, 2.0)\n"
            "    ah.mc_price(spec, req, ah.McConfig(paths=200, batches=2, refine=2))\n"
            "assert not scipy_modules(), scipy_modules()\n"
            "ah.european_price(ah.PriceRequest(2.0, 0.0, 0.0, (2.0,), basis, ou, 2.0))\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "ah.generator_matrix(jd, 8)\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "ah.asian_price(ah.PriceRequest(2.0, 0.0, 0.0, (1.0, 2.0), basis, jd, 2.0))\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            f"assert asianhermite.cli.main(['run', 'fig8', '--no-mc', '--out', {str(tmp_path)!r}]) == 0\n"
            "top = {m.split('.')[1] for m in scipy_modules() if m.count('.') == 1}\n"
            "assert not {'integrate', 'linalg', 'optimize', 'sparse'} & top, sorted(top)\n"
            "assert 'scipy.special' in sys.modules\n"
            "query = ah.CorrelatorQuery(t=0.0, y_t=2.0, times=(1.0, 2.0), powers=(1, 2))\n"
            "ah.correlator_tower_oracle(jd, query)\n"
            "assert 'scipy.linalg' in sys.modules\n"
        )
        _run_fresh(script)


def _run_fresh(script: str) -> None:
    """Run ``script`` in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(asianhermite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestGeneratorMatrix:
    @pytest.mark.parametrize("spec", [
        ModelSpec(-0.02, 0.01, 0.98),
        ModelSpec(-0.02, 0.01, 0.49, NIG_REF),
        ModelSpec(0.1, -0.3, 0.2, NigParams(alpha=2.0, beta=0.8, mu=0.0, delta=0.3)),
        ModelSpec(-0.02, 0.01, 0.49, NigParams(alpha=0.01, beta=0.0, mu=0.0, delta=0.05)),
    ], ids=["ou", "fig8", "skewed", "alpha-0.01"])
    def test_matches_loop_oracle(self, spec):
        # each entry is summed in the loop's order, so the build is equal to
        # it bit for bit; a lower order is a leading block of a higher one
        limit = max_order(spec)
        assert limit == max_order_loop(spec)
        for n in (0, 1, 2, 3, 7, limit):
            g = generator_matrix(spec, n)
            assert g.tobytes() == generator_loop(spec, n).tobytes(), n

    def test_brownian_order_two(self, bm_model):
        g = generator_matrix(bm_model, 2)
        np.testing.assert_array_equal(g, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])

    def test_ou_quadratic_row(self, ou_model):
        g = generator_matrix(ou_model, 2)
        np.testing.assert_allclose(g[2], [0.98, -0.04, 0.02], rtol=1e-15)

    def test_jump_contribution_to_quartic_row(self, jd_model):
        with_jumps = generator_matrix(jd_model, 4)
        without = generator_matrix(
            ModelSpec(jd_model.drift_const, jd_model.drift_lin, jd_model.diff_sq), 4
        )
        delta = with_jumps[4] - without[4]
        np.testing.assert_allclose(delta, [0.15, 0.0, 0.3, 0.0, 0.0], atol=1e-15)

    def test_first_row_zero_and_triangular(self, jd_model):
        g = generator_matrix(jd_model, 8)
        np.testing.assert_array_equal(g[0], np.zeros(9))
        assert np.all(np.triu(g, 1) == 0.0)

    def test_diagonal_carries_linear_drift(self, ou_model):
        g = generator_matrix(ou_model, 6)
        np.testing.assert_allclose(np.diag(g), 0.01 * np.arange(7), rtol=1e-15)


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exponential(np.diag([0.3, -1.2]))
        np.testing.assert_allclose(out, np.diag([math.exp(0.3), math.exp(-1.2)]), rtol=1e-14)

    def test_nilpotent(self):
        out = matrix_exponential(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0], [1.0, 1.0]], rtol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    def test_semigroup_property(self, ou_model, jd_model):
        rng = np.random.default_rng(5)
        for spec in (ou_model, jd_model):
            for n in (3, 6, 10):
                g = generator_matrix(spec, n)
                s, t = rng.uniform(0.05, 2.0, size=2)
                left = matrix_exponential(g * s) @ matrix_exponential(g * t)
                right = matrix_exponential(g * (s + t))
                np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)


# the models the closed-form transition is checked on: OU, Brownian, the
# fig6 OU, a strongly mean-reverting OU, the fig8 jump model, a skewed NIG
# and an OU whose drift_lin is barely off zero
TRANSITION_MODELS = {
    "ou": ModelSpec(-0.02, 0.01, 0.98),
    "bm": ModelSpec(0.0, 0.0, 1.0),
    "fig6": ModelSpec(-0.2, 0.01, 0.98),
    "ou-b1-neg": ModelSpec(0.1, -0.5, 0.98),
    "fig8": ModelSpec(-0.02, 0.01, 0.49, NIG_REF),
    "skewed-nig": ModelSpec(-0.02, 0.01, 0.49, NigParams(alpha=2.0, beta=0.5, mu=0.0, delta=0.1)),
    "ou-b1-tiny": ModelSpec(-0.02, 1e-12, 0.98),
}


def assert_rows_close(got, want, tol):
    """Every entry within ``tol`` of the largest entry of its row of ``want``."""
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= tol * scale), np.max(np.abs(got - want) / scale)


class TestTransition:
    @pytest.mark.parametrize("n", [8, 40, 80, 120])
    @pytest.mark.parametrize("name", sorted(set(TRANSITION_MODELS) - {"ou-b1-tiny"}))
    def test_matches_reference_exponential(self, name, n):
        # at drift_lin = 1e-12 SciPy's exponential itself is off by up to 6e-5
        # of a row's largest entry (n = 40), so that model is checked against
        # the 60-digit exponential below instead
        spec = TRANSITION_MODELS[name]
        for dt in (0.0, 0.01, 0.5, 2.0):
            want = matrix_exponential(generator_matrix(spec, n) * dt)
            assert_rows_close(_transition(spec, dt, n), want, 1e-12)

    @pytest.mark.parametrize("name", ["ou", "fig6", "ou-b1-neg", "fig8", "skewed-nig"])
    def test_semigroup_property(self, name):
        spec = TRANSITION_MODELS[name]
        for n in (8, 40):
            for s, t in ((0.3, 1.1), (0.01, 2.0)):
                both = _transition(spec, s, n) @ _transition(spec, t, n)
                assert_rows_close(both, _transition(spec, s + t, n), 1e-12)

    def test_moments_match_high_precision_exponential(self):
        # a 60-digit exponential of the same generator; its cost grows
        # steeply with the order, so orders stay at 30 and below
        cases = (("fig6", 30, 2.0, 20.0), ("fig8", 20, 2.0, 2.0), ("skewed-nig", 20, 0.5, 2.0),
                 ("ou-b1-tiny", 20, 0.5, 2.0))
        with mp.workdps(60):
            for name, n, dt, y in cases:
                spec = TRANSITION_MODELS[name]
                prop = mp.expm(mp.matrix(generator_matrix(spec, n).tolist()) * dt)
                want = prop * mp.matrix([mp.mpf(y) ** k for k in range(n + 1)])
                got = moment_vector(spec, n, 0.0, dt, y)
                rel = [abs((got[k] - want[k]) / want[k]) for k in range(n + 1)]
                assert max(rel) <= 1e-14, (name, float(max(rel)))

    def test_tiny_drift_lin_approaches_zero(self):
        tiny = TRANSITION_MODELS["ou-b1-tiny"]
        flat = ModelSpec(tiny.drift_const, 0.0, tiny.diff_sq)
        for dt in (0.01, 0.5, 2.0):
            assert_rows_close(_transition(tiny, dt, 40), _transition(flat, dt, 40), 1e-10)

    def test_entry_overflow_is_numerical_error(self):
        # the Levy moments of alpha = 0.005 are finite to order 83, but the
        # moments of the two-year increment are not
        spec = ModelSpec(-0.02, 0.01, 0.49, NigParams(0.005, 0.0, 0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="order 83 over the step 2.0 overflowed"):
                _transition(spec, 2.0, 83)

    def test_expm1_overflow_is_numerical_error(self):
        # n b1 dt = 800 > 709: the kernel's expm1 leaves double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="order 80 over the step 1.0 overflowed"):
                _transition(ModelSpec(0.0, 10.0, 1.0), 1.0, 80)

    def test_order_checked_against_the_model_limit(self, jd_model):
        with pytest.raises(ValueError, match="limit 172"):
            _transition(jd_model, 1.0, 173)


class TestMoment:
    def test_brownian_variance(self, bm_model):
        assert moment(bm_model, 2, 0.0, 0.5, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_ou_mean_recovers_initial_state(self, ou_model):
        # parameters put the mean-reversion level at the starting state
        assert moment(ou_model, 1, 0.0, 2.0, 2.0) == pytest.approx(2.0, rel=1e-13)
        mean, _ = ou_transition(ou_model, 2.0, 2.0)
        assert mean == pytest.approx(2.0, rel=1e-14)

    def test_order_zero(self, jd_model):
        assert moment(jd_model, 0, 0.0, 1.3, 4.2) == 1.0

    def test_martingale_with_compensated_jumps(self):
        spec = ModelSpec(0.0, 0.0, 0.3, NIG_REF)
        for y in (-1.5, 0.0, 2.0, 20.0):
            assert moment(spec, 1, 0.0, 2.0, y) == y

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gaussian_moments_brownian(self, bm_model, n):
        mean, std = 0.7, math.sqrt(1.5)
        got = moment(bm_model, n, 0.0, 1.5, 0.7)
        assert got == pytest.approx(gaussian_moment(mean, std, n), rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gaussian_moments_ou(self, ou_model, n):
        mean, std = ou_transition(ou_model, 2.0, 3.1)
        got = moment(ou_model, n, 0.0, 2.0, 3.1)
        assert got == pytest.approx(gaussian_moment(mean, std, n), rel=1e-9)

    def test_jump_diffusion_moments_against_cumulant_oracle(self, jd_model):
        oracle = jd_moments_by_cumulants(jd_model, 2.0, 2.0, 20)
        got = moment_vector(jd_model, 20, 0.0, 2.0, 2.0)
        np.testing.assert_allclose(got, oracle, rtol=1e-12)

    def test_horizon_before_t_rejected(self, bm_model):
        with pytest.raises(ValueError):
            moment(bm_model, 2, 1.0, 0.5, 0.0)
