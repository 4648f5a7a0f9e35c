"""Call-option pricing by the truncated polynomial payoff series.

European-style prices need the conditional moments of the terminal value;
discretely sampled Asian prices expand the moments of the arithmetic
average into correlators by the multinomial theorem.  Partial sums over
every truncation order are always produced, because the working stopping
rule and the divergence diagnostics both live on the increment sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, fsum
from typing import NamedTuple

import numpy as np

from .benchmarks import GAMMA_CLAMP
from .correlators import CorrelatorEngine, CorrelatorQuery
from .generator import ModelSpec, moment_vector
from .hermite import GhpBasis, change_of_basis, payoff_coefficients

STOPPING_THRESHOLD = 4.0

# Increments this many decades below their neighbours carry no convergence
# signal: they are structural zeros (odd-order terms of a symmetric
# distribution with the drift at its mean) seen through rounding noise.
_DEGENERATE_RATIO = 1e-6

# Cap on the number of multinomial terms of a single moment expansion.
DEFAULT_TERM_CAP = 2_000_000


@dataclass(frozen=True)
class PriceRequest:
    """Option, sampling grid, model and series parameters of one valuation."""

    strike: float
    rate: float
    t: float
    times: tuple[float, ...]
    basis: GhpBasis
    model: ModelSpec
    y_t: float

    def __post_init__(self):
        times = tuple(float(s) for s in self.times)
        object.__setattr__(self, "times", times)
        if self.strike < 0:
            raise ValueError("strike must be non-negative")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if len(times) == 0:
            raise ValueError("at least one sampling time is required")
        if times[0] <= self.t or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sampling times must be strictly increasing and after t")

    @property
    def m(self) -> int:
        return len(self.times) - 1

    @property
    def maturity(self) -> float:
        return self.times[-1]

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * (self.maturity - self.t))


def _check_term_count(total: int, m: int) -> None:
    count = comb(total + m, m)
    if count > DEFAULT_TERM_CAP:
        raise ValueError(f"expansion would produce {count} terms, above the cap {DEFAULT_TERM_CAP}")


def multinomial_expand(total: int, m: int) -> list[tuple[tuple[int, ...], int]]:
    """All multi-indices ``(k_0..k_m)`` with ``|k| = total``, as ``(powers, weight)`` pairs.

    The weight is the multinomial coefficient ``total! / (k_0! .. k_m!)``.
    """
    if total < 0 or m < 0:
        raise ValueError("expansion orders must be non-negative")
    _check_term_count(total, m)
    fact = math.factorial(total)
    out: list[tuple[tuple[int, ...], int]] = []

    def build(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            k = prefix + (remaining,)
            weight = fact
            for kj in k:
                weight //= math.factorial(kj)
            out.append((k, weight))
            return
        for head in range(remaining + 1):
            build(prefix + (head,), remaining - head, slots - 1)

    build((), total, m + 1)
    return out


@dataclass(frozen=True)
class PriceReport:
    """Partial sums per truncation, increment diagnostics and the stopped order."""

    price_by_N: np.ndarray = field(repr=False)
    gamma_tilde: np.ndarray = field(repr=False)
    chosen_N: int
    converged: bool

    @property
    def order(self) -> int:
        return len(self.price_by_N) - 1

    @property
    def price(self) -> float:
        """Price at the truncation selected by the stopping rule."""
        return float(self.price_by_N[self.chosen_N])

    @property
    def price_at_order(self) -> float:
        """Price using every computed term."""
        return float(self.price_by_N[-1])


class StoppingDecision(NamedTuple):
    n: int
    converged: bool
    crossed: bool


def _gamma_tilde(partial: np.ndarray) -> np.ndarray:
    out = np.full(partial.size, np.nan)
    for n in range(1, partial.size):
        step = abs(partial[n] - partial[n - 1])
        base = abs(partial[n - 1])
        if base == 0.0:
            out[n] = GAMMA_CLAMP if step == 0.0 else -GAMMA_CLAMP
        elif step == 0.0:
            out[n] = GAMMA_CLAMP
        else:
            out[n] = float(np.clip(-math.log10(step / base), -GAMMA_CLAMP, GAMMA_CLAMP))
    return out


def stopping_criterion(report: PriceReport, threshold: float = STOPPING_THRESHOLD) -> StoppingDecision:
    """Truncation choice from the relative-increment exponents.

    A term whose relative contribution has exponent above ``threshold`` is
    negligible.  The rule returns the first negligible contribution that is
    confirmed by the next measurable one (or sits at the end of the data).
    Increments many decades below their neighbours are structural zeros --
    with the drift at the distribution mean every odd-order term vanishes
    identically -- and are skipped, since they carry no evidence either
    way.  If negligibility is observed but never confirmed (the series
    turned around and diverged), the first crossing is reported with
    ``converged=False``; with no crossing at all the last order is
    reported, also unconverged.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    partial = report.price_by_N
    n_max = partial.size - 1
    if n_max < 1:
        raise ValueError("stopping rule needs at least two partial sums")
    gt = report.gamma_tilde
    steps = np.abs(np.diff(partial))
    nondeg = []
    for n in range(1, n_max + 1):
        neighbour = 0.0
        if n >= 2:
            neighbour = max(neighbour, steps[n - 2])
        if n < n_max:
            neighbour = max(neighbour, steps[n])
        if steps[n - 1] > _DEGENERATE_RATIO * neighbour:
            nondeg.append(n)
    if not nondeg:
        # every increment vanished: the series was converged from the start
        return StoppingDecision(1, True, True)
    first_cross = None
    for idx, n in enumerate(nondeg):
        if gt[n] > threshold:
            if first_cross is None:
                first_cross = n
            nxt = nondeg[idx + 1] if idx + 1 < len(nondeg) else None
            if nxt is None or gt[nxt] > threshold:
                return StoppingDecision(n, True, True)
    if first_cross is not None:
        return StoppingDecision(first_cross, False, True)
    last = nondeg[-1]
    if last < n_max:
        # measurable increments died out below the noise floor before ever
        # crossing the threshold: the tail is quiet, accept it
        return StoppingDecision(last + 1, True, False)
    return StoppingDecision(n_max, False, False)


def _recentered_expectations(moments: np.ndarray, drift: float, scale: float) -> np.ndarray:
    """``E[((X - a)/b)^k]`` for every k from the raw moments, by binomial recentering."""
    n = moments.size - 1
    out = np.empty(n + 1)
    for k in range(n + 1):
        terms = [comb(k, i) * (-drift) ** (k - i) * moments[i] for i in range(k + 1)]
        out[k] = sum(terms) / scale**k
    return out


def _series_partial_sums(moments: np.ndarray, basis: GhpBasis, strike: float) -> np.ndarray:
    """Partial sums of the payoff series from the moments of the underlying value.

    Row ``n`` of the change-of-basis matrix turns the recentered moments into
    the expected n-th polynomial, so the price increments are coefficient
    times expectation, accumulated in order.
    """
    centered = _recentered_expectations(moments, basis.drift, basis.scale)
    expect = change_of_basis(basis.order) @ centered
    return np.cumsum(payoff_coefficients(strike, basis).beta * expect)


def _build_report(partial: np.ndarray) -> PriceReport:
    gt = _gamma_tilde(partial)
    interim = PriceReport(price_by_N=partial, gamma_tilde=gt, chosen_N=partial.size - 1, converged=False)
    if partial.size < 2:
        return interim
    decision = stopping_criterion(interim)
    return PriceReport(price_by_N=partial, gamma_tilde=gt, chosen_N=decision.n, converged=decision.converged)


def _engine_for(request: PriceRequest, engine: CorrelatorEngine | None) -> CorrelatorEngine:
    if engine is None:
        return CorrelatorEngine(request.model)
    if engine.model != request.model:
        raise ValueError("engine was built for a different model")
    return engine


def european_price(request: PriceRequest, engine: CorrelatorEngine | None = None) -> PriceReport:
    """Price of a call on the single-time value via the moment formula.

    Computes all conditional moments up to the basis order with one matrix
    exponential, recenters them onto the basis, and accumulates discounted
    partial sums for every truncation.  Passing a shared engine reuses the
    moment vector across strikes and scales, which do not enter it.
    """
    if request.m != 0:
        raise ValueError("european pricing takes exactly one sampling time")
    order = request.basis.order
    key = (request.t, request.y_t, request.times, order)
    moments = None
    if engine is not None:
        moments = _engine_for(request, engine).moments.get(key)
    if moments is None:
        moments = moment_vector(request.model, order, request.t, request.maturity, request.y_t)
        if engine is not None:
            moments.setflags(write=False)
            engine.moments[key] = moments
    partial = request.discount * _series_partial_sums(moments, request.basis, request.strike)
    return _build_report(partial)


def _expanded_moments(
    request: PriceRequest,
    engine: CorrelatorEngine,
    orders: range,
    mode: str = "value",
    time_index: int = 0,
) -> np.ndarray:
    """Moments of the discrete average (or their parameter derivatives) at ``orders``.

    ``E[X^i]`` expands over multi-indices ``|k| = i`` with multinomial
    weights; each term is a correlator of the underlying at the sampling
    times.  ``mode`` selects the plain value, the derivative in the initial
    state, or the derivative in one sampling time.  Each order is summed on
    its own, so the result for ``i`` does not depend on the other orders.
    The highest order's term count is checked before the first chain runs.
    """
    m = request.m
    if orders:
        _check_term_count(orders[-1], m)
    out = np.empty(len(orders))
    for slot, i in enumerate(orders):
        contributions = []
        for powers, coeff in multinomial_expand(i, m):
            query = CorrelatorQuery(
                t=request.t, y_t=request.y_t, times=request.times, powers=powers
            )
            if mode == "value":
                val = engine.correlator(query)
            elif mode == "state":
                val = engine.derivative_state(query)
            else:
                val = engine.derivative_time(query, time_index)
            contributions.append(coeff * val)
        out[slot] = sum(contributions) / float(m + 1) ** i
    return out


def _average_moments(request: PriceRequest, engine: CorrelatorEngine, order: int) -> np.ndarray:
    """``E[X^i]`` of the discrete average for ``i = 0..order``, from the engine's cache.

    A cached vector that is too short is extended by the missing orders
    only; since each order is summed on its own, the result is the same
    as computing every order afresh.
    """
    key = (request.t, request.y_t, request.times)
    cached = engine.moments.get(key)
    have = 0 if cached is None else cached.size
    if have <= order:
        extra = _expanded_moments(request, engine, range(have, order + 1))
        cached = extra if cached is None else np.concatenate([cached, extra])
        cached.setflags(write=False)
        engine.moments[key] = cached
    return cached[: order + 1]


def asian_price(request: PriceRequest, engine: CorrelatorEngine | None = None) -> PriceReport:
    """Price of a discretely sampled arithmetic Asian call via correlators.

    The moments of the average come from the multinomial expansion over
    correlators; from there the assembly is identical to the European case.
    Passing a shared engine reuses the moments across strikes and scales,
    which do not enter them.
    """
    engine = _engine_for(request, engine)
    moments = _average_moments(request, engine, request.basis.order)
    partial = request.discount * _series_partial_sums(moments, request.basis, request.strike)
    return _build_report(partial)


def delta(request: PriceRequest, engine: CorrelatorEngine | None = None) -> float:
    """Sensitivity of the full-order price to the current state ``y_t``.

    Only the correlators depend on the state, so the same series assembly
    runs on their state derivatives.  The basis is held fixed: a drift
    policy that pegs ``a`` to the forward mean is resolved before, not
    inside, the differentiation.
    """
    engine = _engine_for(request, engine)
    d_moments = _expanded_moments(request, engine, range(request.basis.order + 1), mode="state")
    partial = _series_partial_sums(d_moments, request.basis, request.strike)
    return request.discount * float(partial[-1])


def theta(request: PriceRequest, j: int, engine: CorrelatorEngine | None = None) -> float:
    """Sensitivity of the full-order price to the sampling time ``s_j``.

    Runs the series assembly on the correlators' time derivatives.  Moving
    the last sampling time also moves the maturity, so the discount factor
    contributes its own term there.
    """
    if not 0 <= j <= request.m:
        raise ValueError(f"time index {j} out of range for m={request.m}")
    engine = _engine_for(request, engine)
    d_moments = _expanded_moments(
        request, engine, range(request.basis.order + 1), mode="time", time_index=j
    )
    partial = _series_partial_sums(d_moments, request.basis, request.strike)
    out = request.discount * float(partial[-1])
    if j == request.m and request.rate != 0.0:
        value = asian_price(request, engine=engine).price_at_order
        out -= request.rate * value
    return out


def default_drift(model: ModelSpec, t: float, y_t: float, times) -> float:
    """Mean of the discrete average, the default focus point of the basis."""
    times = tuple(float(s) for s in times)
    total = fsum(
        float(moment_vector(model, 1, t, s, y_t)[1]) for s in times
    )
    return total / len(times)


def average_std(
    model: ModelSpec, t: float, y_t: float, times, engine: CorrelatorEngine | None = None
) -> float:
    """Standard deviation of the discrete average via pairwise correlators."""
    times = tuple(float(s) for s in times)
    if engine is None:
        engine = CorrelatorEngine(model)
    mp1 = len(times)
    mean = default_drift(model, t, y_t, times)
    second = 0.0
    for i in range(mp1):
        for j in range(mp1):
            powers = [0] * mp1
            powers[i] += 1
            powers[j] += 1
            second += engine.correlator(
                CorrelatorQuery(t=t, y_t=y_t, times=times, powers=tuple(powers))
            )
    second /= mp1**2
    var = second - mean * mean
    if var <= 0:
        raise ValueError("average has no positive variance under this model")
    return math.sqrt(var)
