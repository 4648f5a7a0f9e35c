"""Drift/scale Hermite polynomial family and the call-payoff series.

The family is built from the probabilists' Hermite polynomials composed
with the affine map ``(x - a) / b`` and scaled by ``b**-n``; it is
orthogonal under the Gaussian-shaped weight ``exp(-(x-a)^2 / (2 b^2))``.
The call payoff ``max(x - K, 0)`` has closed-form coefficients in this
family, which is what the pricing modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import std_normal

# Above this order the change-of-basis coefficients overflow doubles.
MAX_ORDER = 200

# The tail of the squared-error series is truncated at this index; beyond it
# the factorial-based reference terms are no longer representable exactly.
SERIES_TAIL_END = 160

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GhpBasis:
    """Drift ``a``, scale ``b`` and truncation order of the polynomial family."""

    drift: float
    scale: float
    order: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if self.order > MAX_ORDER:
            raise ValueError(f"order {self.order} exceeds the construction limit {MAX_ORDER}")

    def standardize(self, x):
        """Affine map ``(x - a) / b`` onto the reference variable."""
        return (np.asarray(x, dtype=float) - self.drift) / self.scale


def hermite_eval(n: int, x):
    """Probabilists' Hermite polynomial ``q_n`` at ``x`` by the three-term recurrence.

    ``q_{n+1}(x) = x q_n(x) - n q_{n-1}(x)`` starting from ``q_0 = 1`` and
    ``q_1 = x``.  Overflow to infinity is possible for extreme ``n`` and
    ``x`` and is passed through untouched.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = x.copy()
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return float(cur) if cur.ndim == 0 else cur


def hermite_orthonormal_values(n_max: int, x: float) -> np.ndarray:
    """Values ``q_k(x) / sqrt(k!)`` for ``k = 0..n_max``.

    The scaled recurrence ``u_{k+1} = x u_k / sqrt(k+1) - sqrt(k/(k+1)) u_{k-1}``
    keeps every intermediate bounded, so arbitrary orders are safe where the
    raw polynomials would overflow.
    """
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = x * out[k] / math.sqrt(k + 1) - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def ghp_eval(basis: GhpBasis, n: int, x):
    """Generalized polynomial ``b**-n q_n((x - a) / b)``; requires ``n <= basis.order``."""
    if n > basis.order:
        raise ValueError(f"degree {n} exceeds basis order {basis.order}")
    return basis.scale ** (-n) * hermite_eval(n, basis.standardize(x))


def ghp_norm_sq(basis: GhpBasis, n: int) -> float:
    """Squared weighted norm ``sqrt(2 pi) n! / b**(2n - 1)``.

    Evaluated through log-gamma above ``n = 20`` so large orders neither
    overflow nor round through a huge factorial.
    """
    if n > basis.order:
        raise ValueError(f"degree {n} exceeds basis order {basis.order}")
    b = basis.scale
    if n <= 20:
        return _SQRT_TWO_PI * math.factorial(n) / b ** (2 * n - 1)
    log_val = 0.5 * math.log(2.0 * math.pi) + math.lgamma(n + 1) - (2 * n - 1) * math.log(b)
    return math.exp(log_val)


def change_of_basis(order: int) -> np.ndarray:
    """Monomial coefficient matrix ``M`` with ``M @ (1, x, .., x^N) = (q_0(x), .., q_N(x))``.

    Row ``n`` holds the coefficients of the monic ``q_n``, so the matrix is
    lower triangular with a unit diagonal; it is read-only.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the construction limit {MAX_ORDER}")
    m = np.zeros((order + 1, order + 1))
    m[0, 0] = 1.0
    if order >= 1:
        m[1, 1] = 1.0
    for n in range(1, order):
        m[n + 1, 1:] += m[n, :-1]
        m[n + 1, :] -= n * m[n - 1, :]
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class PayoffExpansion:
    """Call strike, basis, and the series coefficients of the payoff."""

    strike: float
    basis: GhpBasis
    beta: np.ndarray = field(repr=False)


def _sqrt_factorial(n: int) -> float:
    # exact integer sqrt path while n! is representable, log-gamma beyond
    if n <= 170:
        return math.sqrt(math.factorial(n))
    return math.exp(0.5 * math.lgamma(n + 1))


def payoff_coefficients(strike: float, basis: GhpBasis) -> PayoffExpansion:
    """Series coefficients of ``max(x - K, 0)`` in the basis.

    ``beta_0`` and ``beta_1`` carry the Gaussian tail terms; for ``n >= 2``
    the coefficient is ``b phi(d) q_{n-2}(d) / n!`` with ``d = (K - a)/b``.
    """
    if strike < 0:
        raise ValueError("strike must be non-negative")
    a, b, order = basis.drift, basis.scale, basis.order
    d = (strike - a) / b
    pdf, cdf = std_normal(d)
    beta = np.zeros(order + 1)
    beta[0] = b * pdf + (a - strike) * (1.0 - cdf)
    if order >= 1:
        beta[1] = b * (1.0 - cdf)
    if order >= 2 and pdf > 0.0:
        # pdf == 0 only when the strike sits so deep in a tail that every
        # curvature coefficient underflows; the raw polynomials would
        # overflow before the product could recover, so skip them outright.
        if order <= 170:
            q = np.empty(order - 1)
            q[0] = 1.0
            if order >= 3:
                q[1] = d
            for k in range(1, order - 2):
                q[k + 1] = d * q[k] - k * q[k - 1]
            fact = np.array([math.factorial(n) for n in range(2, order + 1)], dtype=float)
            beta[2:] = b * pdf * q / fact
        else:
            u = hermite_orthonormal_values(order - 2, d)
            for n in range(2, order + 1):
                beta[n] = b * pdf * u[n - 2] / (n * (n - 1) * _sqrt_factorial(n - 2))
    beta.setflags(write=False)
    return PayoffExpansion(strike=strike, basis=basis, beta=beta)


def payoff_series_eval(expansion: PayoffExpansion, x):
    """Truncated series ``sum_n beta_n q_n((x - a) / b)`` at ``x``."""
    basis = expansion.basis
    z = basis.standardize(x)
    beta = expansion.beta
    total = np.full_like(z, beta[0], dtype=float)
    if basis.order == 0:
        return float(total) if total.ndim == 0 else total
    prev = np.ones_like(z)
    cur = z.copy()
    total = total + beta[1] * cur
    for k in range(1, basis.order):
        prev, cur = cur, z * cur - k * prev
        total += beta[k + 1] * cur
    return float(total) if total.ndim == 0 else total


def payoff_l2_error(expansion: PayoffExpansion) -> float:
    """Weighted L2 norm of the payoff approximation error past the truncation.

    By orthogonality the squared error is the tail sum of squared
    coefficients times the basis norms, which collapses to
    ``sqrt(2 pi) b^3 phi(d)^2 * sum_{n > N} q_{n-2}(d)^2 / n!``.  Each term
    is evaluated with orthonormal-scaled polynomial values so no factorial
    is ever formed.  The tail runs over all terms up to index
    ``SERIES_TAIL_END``; indices beyond that are not supported.
    """
    basis = expansion.basis
    n0 = basis.order
    n_end = SERIES_TAIL_END
    if n0 >= n_end:
        raise ValueError("tail must contain at least one term")
    a, b = basis.drift, basis.scale
    d = (expansion.strike - a) / b
    pdf, cdf = std_normal(d)
    total = 0.0
    if n0 < 1:
        # degree-1 coefficient does not follow the q_{n-2} pattern
        beta1 = b * (1.0 - cdf)
        total += beta1 * beta1 * _SQRT_TWO_PI * b
    if pdf > 0.0:
        u = hermite_orthonormal_values(max(n_end - 2, 0), d)
        scale = _SQRT_TWO_PI * b**3 * pdf * pdf
        for n in range(max(n0 + 1, 2), n_end + 1):
            term = scale * u[n - 2] ** 2 / (n * (n - 1))
            if not math.isfinite(term):
                raise FloatingPointError(f"tail term at index {n} is not finite")
            total += term
    return math.sqrt(total)
