"""Closed-form Gaussian benchmarks, error-bound constants and accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .generator import ModelSpec, NumericalError, _phi, _rates, _require_finite, _sampling_grid

if TYPE_CHECKING:  # pragma: no cover
    from .hermite import GhpBasis

# Accuracy exponents beyond double precision are rounding noise; clamp there.
GAMMA_CLAMP = 16.0

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def std_normal(x):
    """Standard normal density and distribution function at ``x``.

    The distribution function goes through the complementary error function,
    which keeps full precision deep in both tails.  Accepts scalars or
    arrays and returns ``(pdf, cdf)`` of matching shape.
    """
    # deferred: the Monte Carlo path never needs scipy.special
    from scipy.special import erfc

    x = np.asarray(x, dtype=float)
    pdf = np.exp(-0.5 * x * x) / _SQRT_TWO_PI
    cdf = 0.5 * erfc(-x / _SQRT2)
    if pdf.ndim == 0:
        return float(pdf), float(cdf)
    return pdf, cdf


@dataclass(frozen=True)
class GaussianLaw:
    """Mean and standard deviation of a Gaussian benchmark distribution."""

    mean: float
    std: float

    def __post_init__(self):
        _require_finite(self, "mean", "std")
        if not self.std > 0:
            raise ValueError("standard deviation must be positive")


def gaussian_call(law: GaussianLaw, strike: float) -> float:
    """Exact expected call payoff ``E[max(X - K, 0)]`` for Gaussian ``X``."""
    d = (strike - law.mean) / law.std
    pdf, cdf = std_normal(d)
    return law.std * pdf - (strike - law.mean) * (1.0 - cdf)


def _average_law(spec: ModelSpec, t: float, y_t: float, times) -> tuple[float, float]:
    """Mean and variance of the discrete average over ``times`` given ``Y(t) = y_t``.

    Every :class:`ModelSpec` is an OU process driven by a Levy process of
    variance ``c2`` per unit time, so the centred average is ``int k(u) dL_u``
    with ``k = w_i e^(b1 (s_i - u))`` on ``(s_(i-1), s_i]``, where ``(m + 1) w_i
    = sum_(j >= i) e^(b1 (s_j - s_i))`` (Barndorff-Nielsen & Shephard 2001).
    """
    if not math.isfinite(y_t):
        raise ValueError(f"y_t must be finite, got {y_t!r}")
    times = _sampling_grid(t, times)
    b0, b1 = spec.drift_const, spec.drift_lin
    c2 = float(_rates(spec, 2)[2])
    try:
        mean = math.fsum(y_t * math.exp(b1 * (s - t)) + b0 * (s - t) * _phi(b1 * (s - t))
                         for s in times) / len(times)
        terms, weight, growth = [], 0.0, 0.0
        for dt in reversed([s - r for r, s in zip((t,) + times, times)]):
            weight = 1.0 + growth * weight  # (m + 1) w_i
            terms.append(weight * weight * dt * _phi(2.0 * b1 * dt))
            growth = math.exp(b1 * dt)
        var = c2 * math.fsum(terms) / len(times) ** 2
    except OverflowError:
        mean = var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise NumericalError(f"law of the average overflows at drift_lin {b1}, "
                             f"horizon {times[-1] - t}")
    return mean, var


def ou_asian_law(spec: ModelSpec, t: float, y_t: float, times) -> GaussianLaw:
    """Exact Gaussian law of the discrete average of a jump-free OU process."""
    if spec.jumps is not None:
        raise ValueError("closed-form average law exists only for jump-free models")
    if not spec.diff_sq > 0:
        raise ValueError("diffusion coefficient must be positive")
    mean, var = _average_law(spec, t, y_t, times)
    return GaussianLaw(mean=mean, std=math.sqrt(var))


def error_constant(basis: "GhpBasis", law: GaussianLaw) -> float:
    """Cauchy-Schwarz constant bounding price error by payoff series error.

    Finite only above the scale floor ``std / sqrt(2)``; at or below it the
    defining integral diverges and a ``ValueError`` is raised.
    """
    a, b = basis.drift, basis.scale
    mu, sigma = law.mean, law.std
    if b <= scale_floor(sigma):
        raise ValueError(
            f"scale {b} is at or below the floor {scale_floor(sigma)}; "
            "the error-bound constant does not exist"
        )
    c2 = (b / math.sqrt(2.0 * math.pi * sigma**2)) * math.exp(
        (a - mu) ** 2 / (2.0 * b**2 - sigma**2)
    ) / math.sqrt(2.0 * b**2 - sigma**2)
    return math.sqrt(c2)


def scale_floor(sigma: float) -> float:
    """Smallest admissible basis scale for a Gaussian target of width ``sigma``."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return sigma / _SQRT2


def accuracy_gamma(exact, approx):
    """Base-10 accuracy exponent of ``approx`` against the benchmark ``exact``.

    Returns ``-log10(|exact - approx| / |exact|)``, clamped to
    ``[-GAMMA_CLAMP, GAMMA_CLAMP]``; exact agreement maps to the upper clamp.
    Negative values mean the approximation is further from the benchmark
    than the benchmark's own size and are returned as-is (divergence is
    reported, not hidden).  Works element by element: floats give a float,
    arrays give an array; a zero benchmark anywhere is refused.
    """
    exact = np.asarray(exact, dtype=float)
    if np.any(exact == 0):
        raise ValueError("benchmark value must be nonzero")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.clip(-np.log10(np.abs(exact - approx) / np.abs(exact)), -GAMMA_CLAMP, GAMMA_CLAMP)
    return float(out) if out.ndim == 0 else out
