"""Closed-form Gaussian benchmarks, error-bound constants and accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .generator import ModelSpec
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
        if not self.std > 0:
            raise ValueError("standard deviation must be positive")


def gaussian_call(law: GaussianLaw, strike: float) -> float:
    """Exact expected call payoff ``E[max(X - K, 0)]`` for Gaussian ``X``."""
    d = (strike - law.mean) / law.std
    pdf, cdf = std_normal(d)
    return law.std * pdf - (strike - law.mean) * (1.0 - cdf)


def ou_asian_law(spec: "ModelSpec", t: float, y_t: float, times) -> GaussianLaw:
    """Exact Gaussian law of the discrete average of a jump-free OU process.

    The average over the sampling grid decomposes into a weighted sum of
    independent Gaussian integrals over consecutive grid intervals, which
    yields the mean and variance in closed form.  ``b1 = 0`` is handled by
    the explicit limit expressions instead of dividing by ``b1``.
    """
    if spec.jumps is not None:
        raise ValueError("closed-form average law exists only for jump-free models")
    if not spec.diff_sq > 0:
        raise ValueError("diffusion coefficient must be positive")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("sampling times must be a non-empty 1-d sequence")
    if np.any(np.diff(times) <= 0) or times[0] <= t:
        raise ValueError("sampling times must be strictly increasing and after t")

    b0, b1, sigma0 = spec.drift_const, spec.drift_lin, spec.diff_sq
    mp1 = times.size
    tau = times - t
    if b1 == 0.0:
        mean = y_t + b0 * float(np.sum(tau)) / mp1
    else:
        e = np.exp(b1 * tau)
        mean = float(np.sum(y_t * e + (b0 / b1) * (e - 1.0))) / mp1

    grid = np.concatenate([[t], times])
    var = 0.0
    for j in range(mp1):
        tail = times[j:]  # s_k for k >= j
        if b1 == 0.0:
            # each pair (k1, k2) contributes the interval length
            var += tail.size ** 2 * (grid[j + 1] - grid[j])
        else:
            s = tail[:, None] + tail[None, :]
            var += float(
                np.sum(np.exp(b1 * (s - 2.0 * grid[j])) - np.exp(b1 * (s - 2.0 * grid[j + 1])))
            ) / (2.0 * b1)
    var *= sigma0 / mp1**2
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


def accuracy_gamma(exact: float, approx: float) -> float:
    """Base-10 accuracy exponent of ``approx`` against the benchmark ``exact``.

    Returns ``-log10(|exact - approx| / |exact|)``, clamped to
    ``[-GAMMA_CLAMP, GAMMA_CLAMP]``; exact agreement maps to the upper clamp.
    Negative values mean the approximation is further from the benchmark
    than the benchmark's own size and are returned as-is (divergence is
    reported, not hidden).
    """
    if exact == 0:
        raise ValueError("benchmark value must be nonzero")
    rel = abs(exact - approx) / abs(exact)
    if rel == 0.0:
        return GAMMA_CLAMP
    return float(np.clip(-math.log10(rel), -GAMMA_CLAMP, GAMMA_CLAMP))
