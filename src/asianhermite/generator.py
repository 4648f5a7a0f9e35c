"""Generator matrices for polynomial jump-diffusions and the moment formula.

The model is ``dY = (b0 + b1 Y) dt + sqrt(sigma0) dB + dJ`` with ``J`` a
compensated pure-jump part whose jump measure is state-independent.  The
generator keeps polynomial degree, so moments come from its exponential:
:func:`_transition` in closed form, :func:`matrix_exponential` generically.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest generator order of any model; jump models whose binomial-weighted
# moments overflow earlier have a lower limit, see ``max_order``.
MAX_GENERATOR_ORDER = 200

# Parameter sets whose Levy table, moment check and order limit stay cached;
# a long-lived process pricing fresh parameters evicts the oldest.
PARAMETER_CACHE_SIZE = 128


class NumericalError(RuntimeError):
    """A linear-algebra kernel produced non-finite output."""


def _sampling_grid(t: float, times) -> tuple[float, ...]:
    """``times`` as floats, checked to be finite, non-empty, strictly increasing and after ``t``."""
    times = tuple(map(float, times))
    if not times:
        raise ValueError("at least one sampling time is required")
    # every comparison with NaN is False, so a NaN anywhere fails the chain
    if not (math.isfinite(t) and t < times[0] and math.isfinite(times[-1])
            and all(map(operator.lt, times, times[1:]))):
        raise ValueError(f"sampling times must be finite, strictly increasing and after t = {t!r}")
    return times


def _require_finite(obj, *names: str) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` in ``names`` that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_int(obj, name: str, minimum: int) -> None:
    """Raise ``ValueError`` unless field ``name`` of ``obj`` is an integer >= ``minimum``.

    Numpy integers count; ``bool`` and integral floats do not.
    """
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _monomials(y: float, order: int) -> np.ndarray:
    """``(1, y, .., y^order)``; overflow to infinity is left for the finite checks downstream."""
    with np.errstate(over="ignore"):
        return np.power(float(y), np.arange(order + 1, dtype=float))


@dataclass(frozen=True)
class NigParams:
    """Normal inverse Gaussian law: steepness, asymmetry, location (always 0), scale."""

    alpha: float
    beta: float
    mu: float
    delta: float

    def __post_init__(self):
        _require_finite(self, "alpha", "beta", "mu", "delta")
        if self.mu != 0.0:
            # the jump part is compensated, so a location would never reach a price
            raise ValueError(f"mu must be 0, got {self.mu!r}: the compensated jump part "
                             "drops the location; fold it into drift_const")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not abs(self.beta) < self.alpha:
            raise ValueError("asymmetry must satisfy |beta| < alpha")
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)


@dataclass(frozen=True)
class ModelSpec:
    """Polynomial jump-diffusion parameters; ``jumps=None`` gives a Gaussian OU/BM."""

    drift_const: float
    drift_lin: float
    diff_sq: float
    jumps: NigParams | None = None

    def __post_init__(self):
        _require_finite(self, "drift_const", "drift_lin", "diff_sq")
        if self.diff_sq < 0:
            raise ValueError("squared diffusion coefficient must be non-negative")


# the table ends at the first overflow, so numpy's warnings about it are noise
@np.errstate(over="ignore", invalid="ignore")
def _nig_cumulants(params: NigParams) -> np.ndarray:
    """Cumulants of order 2.. of the NIG law (equal to the Levy moments).

    Taylor coefficients ``r_k`` of ``sqrt(alpha^2 - (beta + u)^2)`` at zero
    satisfy a quadratic convolution identity solved recursively; the m-th
    cumulant is then ``-delta * m! * r_m``.  The recursion is exact up to
    rounding, with the only square root in the leading coefficient.  Each
    order depends on the lower ones only, so the table runs up to
    ``MAX_GENERATOR_ORDER`` and stops before the first order that overflows
    double precision.
    """
    n_max = MAX_GENERATOR_ORDER
    r = np.zeros(n_max + 1)
    r[0] = params.gamma
    for k in range(1, n_max + 1):
        if k == 1:
            ck = -2.0 * params.beta
        elif k == 2:
            ck = -1.0
        else:
            ck = 0.0
        acc = float(np.dot(r[1:k], r[k - 1:0:-1]))
        r[k] = (ck - acc) / (2.0 * r[0])
    c = np.zeros(n_max + 1)
    for m in range(2, n_max + 1):
        if m <= 170:
            c[m] = -params.delta * math.factorial(m) * r[m]
        elif r[m] != 0.0:
            # m! is no longer representable; assemble the product in logs
            log_mag = math.lgamma(m + 1) + math.log(abs(r[m])) + math.log(params.delta)
            if log_mag >= math.log(np.finfo(float).max):
                return c[:m]
            c[m] = -math.copysign(math.exp(log_mag), r[m])
        if not math.isfinite(c[m]):
            return c[:m]
    return c


@lru_cache(maxsize=None)
def _exp_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x`` and weights ``w`` with ``sum w f(x) ~ int_0^inf f(x) e^-x dx / x``.

    A fixed exp-sinh rule (Takahasi & Mori 1974): ``x = exp(pi/2 sinh t)``
    for ``t`` in ``[-4.5, 4.5]`` with step 1/16.  The weights carry the
    Jacobian and ``e^-x``; nodes where ``e^-x`` underflows (``x >= 700``)
    are dropped, which leaves 107.
    """
    h = 1.0 / 16.0
    t = np.arange(-72, 73) * h
    x = np.exp(0.5 * np.pi * np.sinh(t))
    keep = x < 700.0
    x, t = x[keep], t[keep]
    w = h * 0.5 * np.pi * np.cosh(t) * np.exp(-x)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _density_integral(params: NigParams, weight) -> float:
    """``weight(z)`` integrated against the NIG Levy density over the real line.

    ``weight`` must accept arrays.  The density is ``delta alpha / pi *
    exp(beta z - alpha |z|) * kve(1, alpha |z|) / |z|``.  On each half-line
    ``z = +-x / (alpha -+ beta)`` turns the exponential into ``e^-x`` and
    ``dz / |z|`` into ``dx / x``, the form the exp-sinh rule integrates, so
    no exponential overflows.
    """
    # deferred: scipy.special is only needed when moments are validated
    from scipy.special import kve

    a, b, d = params.alpha, params.beta, params.delta
    x, w = _exp_sinh_rule()
    total = 0.0
    for z in (x / (a - b), -x / (a + b)):
        total += float(np.dot(w, weight(z) * kve(1, a * np.abs(z))))
    return d * a / math.pi * total


def levy_moment_quadrature(params: NigParams, m: int) -> float:
    """Exp-sinh quadrature of ``z^m`` against the NIG Levy density (m >= 2)."""
    if m < 2:
        raise ValueError("Levy moments are defined for m >= 2 only")
    return _density_integral(params, lambda z: z**m)


def _levy_abs_moment_quadrature(params: NigParams, m: int) -> float:
    return _density_integral(params, lambda z: abs(z) ** m)


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _levy_table(params: NigParams) -> np.ndarray:
    c = _nig_cumulants(params)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def _validate_levy_table(params: NigParams) -> None:
    # guard against derivation slips in the recursion; the absolute moment
    # sets the scale so symmetric (exact-zero) moments check too
    c = _levy_table(params)
    for m in range(2, min(c.size - 1, 6) + 1):
        q = levy_moment_quadrature(params, m)
        scale = max(abs(c[m]), abs(q), _levy_abs_moment_quadrature(params, m))
        if abs(c[m] - q) > 1e-6 * scale:
            raise NumericalError(
                f"jump moment m={m}: cumulant value {c[m]} disagrees with "
                f"quadrature {q}"
            )


@lru_cache(maxsize=None)
def _pascal() -> np.ndarray:
    """``C(k, j)`` rounded to floats for ``j <= k <= MAX_GENERATOR_ORDER``, read-only."""
    n = MAX_GENERATOR_ORDER
    p = np.zeros((n + 1, n + 1))
    row = [1]  # exact integers, rounded once each
    for k in range(n + 1):
        p[k, : k + 1] = row
        row = [1, *map(operator.add, row, row[1:]), 1]
    p.setflags(write=False)
    return p


@lru_cache(maxsize=PARAMETER_CACHE_SIZE)
def max_order(spec: ModelSpec) -> int:
    """Highest generator order whose matrix is finite in double precision.

    ``MAX_GENERATOR_ORDER`` for Gaussian models.  For jump models the
    factorially growing jump moments set a lower limit: the last order at
    which every binomial-weighted moment ``C(k, j) c_j`` of the generator
    is finite, which can lie below the last finite ``c_j``.  The transition
    can still overflow below it, for long enough horizons.
    """
    if spec.jumps is None:
        return MAX_GENERATOR_ORDER
    c = _levy_table(spec.jumps)
    with np.errstate(over="ignore"):
        weighted = _pascal()[: c.size, 2 : c.size] * c[2:]
    overflowed = np.flatnonzero(~np.isfinite(weighted).all(axis=1))
    return int(overflowed[0]) - 1 if overflowed.size else c.size - 1


def levy_moments(params: NigParams, n_max: int) -> np.ndarray:
    """Jump-measure moments ``c[0..n_max]`` from the NIG cumulants, read-only.

    ``c[m]`` is the integral of ``z^m`` against the Levy measure.  The
    cumulant table is computed once per parameter set and sliced.  Its low
    orders are cross-checked against a double-exponential rule on the Levy
    density, also once per parameter set.  Both stay cached for the last
    ``PARAMETER_CACHE_SIZE`` parameter sets.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > MAX_GENERATOR_ORDER:
        raise ValueError(f"n_max {n_max} exceeds the limit {MAX_GENERATOR_ORDER}")
    c = _levy_table(params)
    if n_max >= c.size:
        raise NumericalError(
            f"jump moment m={c.size} overflows double precision; these "
            f"parameters have finite moments up to order {c.size - 1} only"
        )
    _validate_levy_table(params)
    return c[: n_max + 1]


def generator_matrix(spec: ModelSpec, n: int) -> np.ndarray:
    """Generator matrix of order ``n`` on the monomials ``(1, x, .., x^n)``, read-only.

    Row ``k`` holds the coefficients of ``G x^k = (b0 + b1 x) k x^(k-1)
    + sigma0/2 k(k-1) x^(k-2) + sum_{j=2..k} C(k, j) c_j x^(k-j)``, by
    binomial expansion of the jump integral; the matrix is lower triangular
    with ``k b1`` on the diagonal.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    limit = max_order(spec)
    if n > limit:
        raise ValueError(f"order {n} exceeds the limit {limit} of this model")
    g = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        g[k, k] += spec.drift_lin * k
        g[k, k - 1] += spec.drift_const * k
        if k >= 2:
            g[k, k - 2] += 0.5 * spec.diff_sq * k * (k - 1)
    if spec.jumps is not None and n >= 2:
        # row k gains C(k, j) c_j in column i = k - j for every j >= 2
        c = levy_moments(spec.jumps, n)
        k, i = np.tril_indices(n + 1, -2)
        g[k, i] += _pascal()[k, k - i] * c[k - i]
    g.setflags(write=False)
    return g


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade approximation.

    Thin validation layer over ``scipy.linalg.expm``; rejects non-finite
    input and raises :class:`NumericalError` with diagnostics if the result
    overflows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # deferred: the Monte Carlo path never needs scipy.linalg
    import scipy.linalg

    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"matrix exponential overflowed: size {a.shape[0]}, "
            f"max |entry| {np.max(np.abs(a)):.3e}"
        )
    return out


def _phi(x: float) -> float:
    """``(e^x - 1) / x`` by ``expm1``, with its limit 1 at ``x = 0``."""
    return math.expm1(x) / x if x else 1.0


def _rates(spec: ModelSpec, n: int) -> np.ndarray:
    """``(0, b0, sigma0 + c2, c3, .., cn)``: cumulants per unit time of the driving Levy process."""
    top = max(n, 2)
    r = np.zeros(top + 1) if spec.jumps is None else levy_moments(spec.jumps, top).copy()
    r[1:3] += (spec.drift_const, spec.diff_sq)
    return r[: n + 1]


def _transition(spec: ModelSpec, dt: float, n: int) -> np.ndarray:
    """``exp(G dt)`` for the generator ``G`` of order ``n``, in closed form, read-only.

    Over a step ``dt`` the state goes to ``e^(b1 dt) Y + X``, with ``X``
    independent of ``Y`` and of cumulants ``kappa_j = r_j dt phi(j b1 dt)``
    (Barndorff-Nielsen & Shephard 2001).  Row ``k`` then holds
    ``C(k, i) e^(i b1 dt) E[X^(k-i)]`` in column ``i``.
    """
    if not 0 <= n <= max_order(spec):
        raise ValueError(f"order {n} exceeds the limit {max_order(spec)} of this model")
    failed = NumericalError(f"transition of order {n} over the step {dt} overflowed")
    b, i, mu = spec.drift_lin * dt, np.arange(n + 1), np.ones(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            kappa = _rates(spec, n) * dt * [_phi(j * b) for j in i]
        except OverflowError:
            raise failed from None
        for k in range(1, n + 1):  # moments of X from its cumulants
            mu[k] = _pascal()[k - 1, :k] @ (kappa[1 : k + 1] * mu[k - 1 :: -1])
        out = _pascal()[: n + 1, : n + 1] * np.exp(i * b) * mu[abs(i[:, None] - i)]
    if not np.all(np.isfinite(out)):
        raise failed
    out.setflags(write=False)
    return out


def moment_vector(spec: ModelSpec, n: int, t: float, horizon: float, y_t: float) -> np.ndarray:
    """All conditional moments ``E[Y(T)^k | Y(t) = y]`` for ``k = 0..n`` at once."""
    if horizon < t:
        raise ValueError("horizon must not precede the conditioning time")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _transition(spec, horizon - t, n) @ _monomials(y_t, n)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"moment vector overflowed at order {n}, horizon {horizon - t}, state {y_t}"
        )
    return out


def moment(spec: ModelSpec, n: int, t: float, horizon: float, y_t: float) -> float:
    """Conditional moment ``E[Y(T)^n | Y(t) = y]`` via the closed-form transition."""
    if n < 0:
        raise ValueError("moment order must be non-negative")
    return float(moment_vector(spec, n, t, horizon, y_t)[n])
