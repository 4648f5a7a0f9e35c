"""Generator matrices for polynomial jump-diffusions and the moment formula.

The model is ``dY = (b0 + b1 Y) dt + sqrt(sigma0) dB + dJ`` with ``J`` a
compensated pure-jump part whose jump measure is state-independent.  Acting
on a monomial, the generator returns a polynomial of no higher degree, so
conditional moments come from one matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

# Largest generator order of any model; jump models whose binomial-weighted
# moments overflow earlier have a lower limit, see ``max_order``.
MAX_GENERATOR_ORDER = 200


class NumericalError(RuntimeError):
    """A linear-algebra kernel produced non-finite output."""


@dataclass(frozen=True)
class NigParams:
    """Normal inverse Gaussian law: steepness, asymmetry, location, scale."""

    alpha: float
    beta: float
    mu: float
    delta: float

    def __post_init__(self):
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


def _density_integral(params: NigParams, weight) -> float:
    """``weight(z)`` integrated against the NIG Levy density over the real line."""
    # deferred: scipy.integrate and scipy.special are only needed when
    # moments are validated
    from scipy.integrate import quad
    from scipy.special import kve

    a, b, d = params.alpha, params.beta, params.delta

    def f(z):
        # exp(beta z) alone overflows for large |z|; fold it into the scaled
        # Bessel function, whose combined exponent beta*z - alpha*|z| is <= 0
        density = d * a / math.pi * math.exp(b * z - a * abs(z)) * kve(1, a * abs(z)) / abs(z)
        return weight(z) * density

    pos, _ = quad(f, 0.0, np.inf, limit=200)
    neg, _ = quad(f, -np.inf, 0.0, limit=200)
    return pos + neg


def levy_moment_quadrature(params: NigParams, m: int) -> float:
    """Adaptive quadrature of ``z^m`` against the NIG Levy density (m >= 2)."""
    if m < 2:
        raise ValueError("Levy moments are defined for m >= 2 only")
    return _density_integral(params, lambda z: z**m)


def _levy_abs_moment_quadrature(params: NigParams, m: int) -> float:
    return _density_integral(params, lambda z: abs(z) ** m)


@lru_cache(maxsize=None)
def _levy_table(params: NigParams) -> np.ndarray:
    c = _nig_cumulants(params)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=None)
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
def max_order(spec: ModelSpec) -> int:
    """Highest generator order whose matrix is finite in double precision.

    ``MAX_GENERATOR_ORDER`` for Gaussian models.  For jump models the
    factorially growing jump moments set a lower limit: the last order at
    which every binomial-weighted moment ``C(k, j) c_j`` of the generator
    is finite, which can lie below the last finite ``c_j``.  The matrix
    exponential can still overflow below it, for long enough horizons.
    """
    if spec.jumps is None:
        return MAX_GENERATOR_ORDER
    c = _levy_table(spec.jumps).tolist()
    for k in range(2, len(c)):
        if not all(math.isfinite(comb(k, j) * c[j]) for j in range(2, k + 1)):
            return k - 1
    return len(c) - 1


def levy_moments(params: NigParams, n_max: int) -> np.ndarray:
    """Jump-measure moments ``c[0..n_max]`` from the NIG cumulants, read-only.

    ``c[m]`` is the integral of ``z^m`` against the Levy measure.  The
    cumulant table is computed once per parameter set and sliced.  Its low
    orders are cross-checked against adaptive quadrature of the Levy
    density, also once per parameter set.
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
    c = None
    if spec.jumps is not None and n >= 2:
        c = levy_moments(spec.jumps, n)
    for k in range(1, n + 1):
        g[k, k] += spec.drift_lin * k
        g[k, k - 1] += spec.drift_const * k
        if k >= 2:
            g[k, k - 2] += 0.5 * spec.diff_sq * k * (k - 1)
            if c is not None:
                for j in range(2, k + 1):
                    g[k, k - j] += comb(k, j) * c[j]
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


def scale_by_step(g: np.ndarray, dt: float) -> np.ndarray:
    """``g * dt``, the argument of a propagator's exponential.

    A finite generator can still overflow once scaled by a long step; that
    is a numerical failure at this order, reported as :class:`NumericalError`.
    """
    with np.errstate(over="ignore"):
        a = g * dt
    if not np.all(np.isfinite(a)):
        raise NumericalError(
            f"generator of order {a.shape[0] - 1} overflowed when scaled by the step {dt}"
        )
    return a


def moment_vector(spec: ModelSpec, n: int, t: float, horizon: float, y_t: float) -> np.ndarray:
    """All conditional moments ``E[Y(T)^k | Y(t) = y]`` for ``k = 0..n`` at once."""
    if horizon < t:
        raise ValueError("horizon must not precede the conditioning time")
    g = generator_matrix(spec, n)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(y_t, np.arange(n + 1, dtype=float))
        out = matrix_exponential(scale_by_step(g, horizon - t)) @ powers
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"moment vector overflowed at order {n}, horizon {horizon - t}, state {y_t}"
        )
    return out


def moment(spec: ModelSpec, n: int, t: float, horizon: float, y_t: float) -> float:
    """Conditional moment ``E[Y(T)^n | Y(t) = y]`` via the generator exponential."""
    if n < 0:
        raise ValueError("moment order must be non-negative")
    return float(moment_vector(spec, n, t, horizon, y_t)[n])
