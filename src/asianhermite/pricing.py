"""Call-option pricing by the truncated polynomial payoff series.

Every price needs only the moments of the average of the sampled values:
:func:`_average_moments` computes them (one sampling time is the European
case) and :func:`_order_limit` bounds their order; delta and gamma read the
same moments.  Partial sums over every truncation order are always
produced, because the working stopping rule and the divergence diagnostics
both live on the increment sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, fsum
from typing import NamedTuple

import numpy as np

from .benchmarks import GAMMA_CLAMP, _average_law, accuracy_gamma
from .correlators import CorrelatorEngine, CorrelatorQuery, _engine_for
from .generator import ModelSpec, _require_finite, _sampling_grid, max_order, moment_vector
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
        object.__setattr__(self, "times", _sampling_grid(self.t, self.times))
        if not 0 <= self.strike < math.inf:
            raise ValueError("strike must be finite and non-negative")
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and non-negative")
        _require_finite(self, "y_t")

    @property
    def m(self) -> int:
        return len(self.times) - 1

    @property
    def maturity(self) -> float:
        return self.times[-1]

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * (self.maturity - self.t))


def _order_limit(model: ModelSpec, m: int) -> tuple[int, str]:
    """Highest moment order of an ``m + 1``-point average, and the limit that sets it.

    The generator of a correlator chain has order ``N (m + 1)``, so
    ``max_order(model) // (m + 1)`` bounds ``N``; the moment of order ``N``
    also expands into ``C(N + m, m)`` multinomial terms, at most
    ``DEFAULT_TERM_CAP``.
    """
    limit = max_order(model)
    cap = limit // (m + 1)
    terms = 0
    while terms < cap and comb(terms + 1 + m, m) <= DEFAULT_TERM_CAP:
        terms += 1
    if terms < cap:
        count = comb(terms + 1 + m, m)
        return terms, (f"the multinomial term cap: order {terms + 1} needs "
                       f"C({terms + 1 + m}, {m}) = {count} terms, above "
                       f"DEFAULT_TERM_CAP = {DEFAULT_TERM_CAP}")
    return cap, f"max_order(model) // (m + 1) = {limit} // {m + 1}"


def multinomial_expand(total: int, m: int) -> list[tuple[tuple[int, ...], int]]:
    """All multi-indices ``(k_0..k_m)`` with ``|k| = total``, as ``(powers, weight)`` pairs.

    The weight is the multinomial coefficient ``total! / (k_0! .. k_m!)``.
    """
    if total < 0 or m < 0:
        raise ValueError("expansion orders must be non-negative")
    count = comb(total + m, m)
    if count > DEFAULT_TERM_CAP:
        raise ValueError(f"expansion would produce {count} terms, above the cap {DEFAULT_TERM_CAP}")
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
    """Accuracy exponent of each partial sum against the one before it; NaN at order 0.

    A zero reference sum gives ``GAMMA_CLAMP`` when the next one is also
    zero and ``-GAMMA_CLAMP`` otherwise.
    """
    out = np.full(partial.size, np.nan)
    ref, nxt = partial[:-1], partial[1:]
    zero = ref == 0.0
    out[1:] = np.where(zero, np.where(nxt == 0.0, GAMMA_CLAMP, -GAMMA_CLAMP),
                       accuracy_gamma(np.where(zero, 1.0, ref), nxt))
    return out


def _measurable(partial: np.ndarray) -> np.ndarray:
    """Mask over orders ``1..N`` of the increments that carry a convergence signal.

    One ``_DEGENERATE_RATIO`` below both neighbours is a structural zero.  A
    NaN neighbour counts as 0; a NaN or infinite increment is measured.
    """
    steps = np.abs(np.diff(partial))
    padded = np.pad(steps, 1)
    neighbour = np.fmax(np.fmax(padded[:-2], padded[2:]), 0.0)
    return ~np.isfinite(steps) | (steps > _DEGENERATE_RATIO * neighbour)


def _decide(partial: np.ndarray, gamma_tilde: np.ndarray, threshold: float) -> StoppingDecision:
    """The stopping rule on validated inputs; see :func:`stopping_criterion`."""
    orders = np.flatnonzero(_measurable(partial)) + 1
    if not orders.size:
        # every increment vanished: the series was converged from the start
        return StoppingDecision(1, True, True)
    crossed = gamma_tilde[orders] > threshold
    # a crossing is confirmed by the next measurable order, or by being the last
    confirmed = crossed & np.append(crossed[1:], True)
    if confirmed.any():
        return StoppingDecision(int(orders[confirmed.argmax()]), True, True)
    if crossed.any():
        return StoppingDecision(int(orders[crossed.argmax()]), False, True)
    n_max = partial.size - 1
    if orders[-1] < n_max - 1:
        # measurable increments died out below the noise floor before ever
        # crossing the threshold: the tail is quiet, accept it.  One vanished
        # increment at the end may be a structural zero of a diverging series
        return StoppingDecision(int(orders[-1]) + 1, True, False)
    return StoppingDecision(n_max, False, False)


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
    ``converged=False``.  With no crossing at all, a tail of at least two
    vanished increments is accepted as converged; otherwise the last order
    is reported, unconverged.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    if report.price_by_N.size < 2:
        raise ValueError("stopping rule needs at least two partial sums")
    return _decide(report.price_by_N, report.gamma_tilde, threshold)


def _recentered_expectations(moments: np.ndarray, drift: float, scale: float) -> np.ndarray:
    """``E[((X - a)/b)^k]`` for every k from the raw moments, by binomial recentering."""
    n = moments.size - 1
    out = np.empty(n + 1)
    for k in range(n + 1):
        terms = [comb(k, i) * (-drift) ** (k - i) * moments[i] for i in range(k + 1)]
        out[k] = sum(terms) / scale**k
    return out


def _series_partial_sums(moments: np.ndarray, basis: GhpBasis,
                         coefficients: np.ndarray) -> np.ndarray:
    """Partial sums of ``sum_n coefficients[n] E[q_n((X - a) / b)]`` from the moments of ``X``.

    Row ``n`` of the change-of-basis matrix turns the recentered moments into
    the expected n-th polynomial, so the increments are coefficient times
    expectation, accumulated in order.
    """
    centered = _recentered_expectations(moments, basis.drift, basis.scale)
    expect = change_of_basis(basis.order) @ centered
    return np.cumsum(coefficients * expect)


def _build_report(partial: np.ndarray) -> PriceReport:
    gt = _gamma_tilde(partial)
    n, converged = partial.size - 1, False
    if partial.size >= 2:
        n, converged, _ = _decide(partial, gt, STOPPING_THRESHOLD)
    return PriceReport(price_by_N=partial, gamma_tilde=gt, chosen_N=n, converged=converged)


def _expanded_moments(model: ModelSpec, t: float, y_t: float, times: tuple[float, ...],
                      value, orders: range) -> np.ndarray:
    """Moments of the discrete average (or their parameter derivatives) at ``orders``.

    ``E[X^i]`` expands over multi-indices ``|k| = i`` with multinomial
    weights; each term is a correlator of the underlying at the sampling
    times, evaluated by ``value``: the engine's correlator or one of its
    derivatives.  Each order is summed on its own, so the result for ``i``
    does not depend on the other orders.  The highest order is checked
    against :func:`_order_limit` before the first chain runs.
    """
    m = len(times) - 1
    if orders:
        cap, limit = _order_limit(model, m)
        if orders[-1] > cap:
            raise ValueError(f"order {orders[-1]} exceeds {limit}")
    out = np.empty(len(orders))
    for slot, i in enumerate(orders):
        contributions = [
            coeff * value(CorrelatorQuery(t=t, y_t=y_t, times=times, powers=powers))
            for powers, coeff in multinomial_expand(i, m)
        ]
        out[slot] = sum(contributions) / float(m + 1) ** i
    return out


def _average_moments(engine: CorrelatorEngine, t: float, y_t: float,
                     times: tuple[float, ...], order: int) -> np.ndarray:
    """``E[X^i]`` of the discrete average for ``i = 0..order``, from the engine's cache.

    The one owner of ``engine.moments``.  One sampling time takes one
    conditional moment vector, cached per order.  More sampling times take
    the multinomial expansion over correlators; a cached vector that is too
    short is extended by the missing orders only, and since each order is
    summed on its own, the result is the same as computing every order
    afresh.
    """
    single = len(times) == 1
    key = (t, y_t, times, order) if single else (t, y_t, times)
    cached = engine.moments.get(key)
    have = 0 if cached is None else cached.size
    if have <= order:
        if single:
            cached = moment_vector(engine.model, order, t, times[0], y_t)
        else:
            extra = _expanded_moments(engine.model, t, y_t, times, engine.correlator,
                                      range(have, order + 1))
            cached = extra if cached is None else np.concatenate([cached, extra])
        cached.setflags(write=False)
        engine.moments[key] = cached
    return cached[: order + 1]


def _discounted_sums(request: PriceRequest, engine: CorrelatorEngine | None,
                     k: int = 0) -> np.ndarray:
    """Discounted partial sums of the ``k``-th derivative in ``y_t`` of the payoff series.

    ``k = 0`` is the price.  Given ``Y(t) = y`` the average is ``A(0) + c y``
    with ``c`` the mean of ``exp(b1 (s_j - t))``, so with the basis held
    fixed ``d/dy`` acts on the series as ``c / b`` times ``d/dz``, and
    ``q_n' = n q_{n-1}`` turns each ``d/dz`` into a shift of the payoff
    coefficients.  Every derivative thus runs on the price's own moments.
    """
    engine = _engine_for(request.model, engine)
    basis = request.basis
    moments = _average_moments(engine, request.t, request.y_t, request.times, basis.order)
    coefficients = payoff_coefficients(request.strike, basis).beta
    factor = request.discount
    if k:
        slope = fsum(math.exp(request.model.drift_lin * (s - request.t)) for s in request.times)
        factor *= (slope / (request.m + 1) / basis.scale) ** k
    for _ in range(k):
        coefficients = np.append(np.arange(1, coefficients.size) * coefficients[1:], 0.0)
    return factor * _series_partial_sums(moments, basis, coefficients)


def european_price(request: PriceRequest, engine: CorrelatorEngine | None = None) -> PriceReport:
    """Price of a call on the single-time value: :func:`asian_price` at ``m = 0``.

    The moments come from one closed-form transition, shared across strikes
    and scales through ``engine``.
    """
    if request.m != 0:
        raise ValueError("european pricing takes exactly one sampling time")
    return _build_report(_discounted_sums(request, engine))


def asian_price(request: PriceRequest, engine: CorrelatorEngine | None = None) -> PriceReport:
    """Price of a discretely sampled arithmetic Asian call.

    The moments of the average are recentered onto the basis and summed
    against the payoff coefficients, one partial sum per truncation.
    Passing a shared engine reuses the moments across strikes and scales,
    which do not enter them.
    """
    return _build_report(_discounted_sums(request, engine))


def delta(request: PriceRequest, engine: CorrelatorEngine | None = None) -> float:
    """Sensitivity of the full-order price to the current state ``y_t``.

    Read off the moments the price uses, cached on ``engine``.  This holds
    because the drift is affine and neither diffusion nor jumps depend on
    the state, as for every :class:`ModelSpec`: the state then shifts the
    whole path by a deterministic multiple of ``y_t``.  The basis is held
    fixed: a drift policy that pegs ``a`` to the forward mean is resolved
    before, not inside, the differentiation.
    """
    return float(_discounted_sums(request, engine, 1)[-1])


def gamma(request: PriceRequest, engine: CorrelatorEngine | None = None) -> float:
    """Second derivative of the full-order price in ``y_t``, as :func:`delta` with the basis fixed."""
    return float(_discounted_sums(request, engine, 2)[-1])


def theta(request: PriceRequest, j: int, engine: CorrelatorEngine | None = None) -> float:
    """Sensitivity of the full-order price to the sampling time ``s_j``.

    Runs the series assembly on the correlators' time derivatives.  Moving
    the last sampling time also moves the maturity, so the discount factor
    contributes its own term there.
    """
    if not 0 <= j <= request.m:
        raise ValueError(f"time index {j} out of range for m={request.m}")
    engine = _engine_for(request.model, engine)
    d_moments = _expanded_moments(request.model, request.t, request.y_t, request.times,
                                  lambda query: engine.derivative_time(query, j),
                                  range(request.basis.order + 1))
    beta = payoff_coefficients(request.strike, request.basis).beta
    out = request.discount * float(_series_partial_sums(d_moments, request.basis, beta)[-1])
    if j == request.m and request.rate != 0.0:
        value = asian_price(request, engine=engine).price_at_order
        out -= request.rate * value
    return out


def default_drift(model: ModelSpec, t: float, y_t: float, times) -> float:
    """Mean of the discrete average, the default focus point of the basis."""
    return _average_law(model, t, y_t, times)[0]


def average_std(
    model: ModelSpec, t: float, y_t: float, times, engine: CorrelatorEngine | None = None
) -> float:
    """Standard deviation of the discrete average; ``engine`` is only checked against ``model``."""
    _engine_for(model, engine)
    var = _average_law(model, t, y_t, times)[1]
    if var <= 0:
        raise ValueError("average has no positive variance under this model")
    return math.sqrt(var)
