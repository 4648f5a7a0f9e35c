"""Reference values computed apart from the program, for the benchmark's checks.

Nothing here imports ``asianhermite``.  The model is
``dY = (b0 + b1 Y) dt + sqrt(sigma0) dB + dJ`` with ``J`` an optional
compensated normal inverse Gaussian (NIG) Levy process, started at ``y0``
at time 0 and averaged over the sampling times ``t_0 < .. < t_m``:

    A = mu_A + int_0^T k(s) (sqrt(sigma0) dB_s + dJ_s),
    k(s) = (1/(m+1)) sum_j exp(b1 (t_j - s)) 1{s < t_j}.

* Without jumps ``A`` is Gaussian: its mean and variance give the call price
  and the delta in closed form (Bachelier's formula).
* The compensated jumps add no drift and ``delta alpha^2 / gamma^3`` of
  variance per unit time, so the NIG average has the Gaussian law's mean and
  the variance of the same model with ``sigma0 + delta alpha^2 / gamma^3``.
* The NIG call price comes from a damped Fourier inversion of the
  characteristic function of ``A``, whose jump part is the time integral of
  the NIG cumulant exponent along the kernel ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Nig:
    """NIG Levy law: steepness, asymmetry and scale (location cancels on compensation)."""

    alpha: float
    beta: float
    delta: float

    @property
    def gamma(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)

    @property
    def variance_rate(self) -> float:
        """Second moment of the Levy measure, ``delta alpha^2 / gamma^3``."""
        return self.delta * self.alpha**2 / self.gamma**3


@dataclass(frozen=True)
class Average:
    """Model, start value and sampling times of one discrete average."""

    b0: float
    b1: float
    sigma0: float
    y0: float
    times: tuple[float, ...]
    nig: Nig | None = None

    def _growth(self) -> np.ndarray:
        return np.exp(self.b1 * np.asarray(self.times))

    def mean(self) -> float:
        """``E[A]``: each ``E[Y(t)] = y0 e^(b1 t) + b0 (e^(b1 t) - 1) / b1``."""
        t = np.asarray(self.times)
        drift = self.b0 * t if self.b1 == 0.0 else self.b0 * np.expm1(self.b1 * t) / self.b1
        return float(np.mean(self.y0 * self._growth() + drift))

    def dmean_dy0(self) -> float:
        return float(np.mean(self._growth()))

    def kernel_sq_integral(self) -> float:
        """``int k(s)^2 ds`` from ``Cov(Y(s), Y(u)) = e^(b1 (u - s)) Var Y(s)`` for ``s <= u``."""
        t = np.asarray(self.times)
        lo = np.minimum.outer(t, t)
        hi = np.maximum.outer(t, t)
        if self.b1 == 0.0:
            var_lo = lo
        else:
            var_lo = np.expm1(2.0 * self.b1 * lo) / (2.0 * self.b1)
        cov = np.exp(self.b1 * (hi - lo)) * var_lo
        return float(cov.sum()) / t.size**2

    def std(self) -> float:
        """Standard deviation of ``A``; jumps add their variance rate to ``sigma0``."""
        rate = self.sigma0 + (self.nig.variance_rate if self.nig else 0.0)
        return math.sqrt(rate * self.kernel_sq_integral())


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bachelier_call(mean: float, std: float, strike: float) -> float:
    """``E[(X - K)+]`` for Gaussian ``X``."""
    d = (mean - strike) / std
    pdf = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    return (mean - strike) * normal_cdf(d) + std * pdf


def gaussian_call(avg: Average, strike: float) -> float:
    """Closed-form call on the average of the jump-free model."""
    if avg.nig is not None:
        raise ValueError("the closed form holds only without jumps")
    return bachelier_call(avg.mean(), avg.std(), strike)


def gaussian_delta(avg: Average, strike: float) -> float:
    """``d price / d y0 = d mean / d y0 * P(A > K)``; the variance does not move with ``y0``."""
    if avg.nig is not None:
        raise ValueError("the closed form holds only without jumps")
    return avg.dmean_dy0() * normal_cdf((avg.mean() - strike) / avg.std())


def _legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _jump_exponent(avg: Average, z: np.ndarray, nodes: int = 24) -> np.ndarray:
    """``int_0^T psi(z k(s)) ds`` for the compensated NIG exponent ``psi``.

    ``psi(v) = delta (gamma - sqrt(alpha^2 - (beta + i v)^2)) - i v delta beta / gamma``;
    ``k`` is smooth between sampling times, so each interval takes its own
    Gauss-Legendre rule.
    """
    nig = avg.nig
    grid = (0.0,) + tuple(avg.times)
    t = np.asarray(avg.times)
    out = np.zeros(z.shape, dtype=complex)
    for j in range(len(avg.times)):
        s, w = _legendre(grid[j], grid[j + 1], nodes)
        k = np.exp(avg.b1 * (t[j:, None] - s[None, :])).sum(axis=0) / t.size
        v = z[:, None] * k[None, :]
        b = nig.beta + 1j * v
        psi = nig.delta * (nig.gamma - np.sqrt(nig.alpha**2 - b * b)) - 1j * v * nig.delta * nig.beta / nig.gamma
        out += psi @ w
    return out


def characteristic_function(avg: Average, z: np.ndarray) -> np.ndarray:
    """``E[exp(i z A)]`` at complex ``z``."""
    z = np.asarray(z, dtype=complex)
    expo = 1j * z * avg.mean() - 0.5 * z * z * avg.sigma0 * avg.kernel_sq_integral()
    if avg.nig is not None:
        expo = expo + _jump_exponent(avg, z)
    return np.exp(expo)


def _max_kernel(avg: Average) -> float:
    # k(s) is largest just after 0 when b1 <= 0 and just before t_0 when b1 > 0
    t = np.asarray(avg.times)
    return float(max(np.exp(avg.b1 * t).mean(), np.exp(avg.b1 * (t - t[0])).mean()))


def fourier_call(avg: Average, strike: float, panels: int = 96, nodes: int = 16) -> float:
    """Call on the average by damped Fourier inversion.

    ``E[(A - K)+] = (1/pi) int_0^inf Re[F(xi) phi(-xi)] du`` with
    ``xi = u + i eta`` and ``F(xi) = -exp(i xi K) / xi^2``, the transform of
    the payoff damped by ``exp(-eta x)``.  The damping needs ``E[exp(eta A)]``,
    finite while ``|beta + eta k(s)| < alpha``; the integrand decays like the
    Gaussian factor ``exp(-u^2 sigma0 int k^2 / 2)``, which sets the cut-off.
    """
    var_g = avg.sigma0 * avg.kernel_sq_integral()
    eta = 1.0 / avg.std()
    if avg.nig is not None:
        room = (avg.nig.alpha - abs(avg.nig.beta)) / _max_kernel(avg)
        eta = min(eta, 0.5 * room)
    cut = math.sqrt(2.0 * 40.0 / var_g)
    edges = np.linspace(0.0, cut, panels + 1)
    u = np.concatenate([_legendre(a, b, nodes)[0] for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([_legendre(a, b, nodes)[1] for a, b in zip(edges[:-1], edges[1:])])
    xi = u + 1j * eta
    payoff = -np.exp(1j * xi * strike) / (xi * xi)
    values = (payoff * characteristic_function(avg, -xi)).real
    return float(values @ w) / math.pi
