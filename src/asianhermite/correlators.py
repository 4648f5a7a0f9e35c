"""Conditional correlators of a polynomial jump-diffusion at multiple times.

``E[Y(s_0)^{k_0} ... Y(s_m)^{k_m} | Y(t) = y]`` is evaluated by propagating
the monomial vector of order ``n(m+1)`` through a chain of matrix
exponentials and, at each sampling time, slicing out the part that carries
the power observed there.  This is the paper's Kronecker chain with its
selector gathers resolved: expanding by ``D``, fixing a power and
compressing by ``E`` is a slice, so no ``(n+1)**(m+1)``-element vector is
built.  Two reference routes validate it: the Kronecker chain itself,
through the selector maps of :mod:`.kronecker`, and a tower-rule recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .generator import (
    MAX_GENERATOR_ORDER,
    ModelSpec,
    NumericalError,
    generator_matrix,
    matrix_exponential,
    scale_by_step,
)
from .kronecker import mth_selectors


@dataclass(frozen=True)
class CorrelatorQuery:
    """Conditioning point, sampling times and the power at each time."""

    t: float
    y_t: float
    times: tuple[float, ...]
    powers: tuple[int, ...]

    def __post_init__(self):
        times = tuple(float(s) for s in self.times)
        powers = tuple(int(k) for k in self.powers)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "powers", powers)
        if len(times) == 0:
            raise ValueError("at least one sampling time is required")
        if len(times) != len(powers):
            raise ValueError("times and powers must have equal length")
        if times[0] <= self.t or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sampling times must be strictly increasing and after t")
        if any(k < 0 for k in powers):
            raise ValueError("powers must be non-negative")

    @property
    def m(self) -> int:
        return len(self.times) - 1


def _monomials(y: float, order: int) -> np.ndarray:
    # overflow to infinity is intentional here; the finite checks downstream
    # turn it into a diagnosable error
    with np.errstate(over="ignore"):
        return np.power(float(y), np.arange(order + 1, dtype=float))


def _monomials_derivative(y: float, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    if order >= 1:
        out[1:] = np.arange(1, order + 1) * np.power(float(y), np.arange(order, dtype=float))
    return out


class CorrelatorEngine:
    """Correlator evaluator with shared propagator and moment caches.

    Propagator exponentials are cached per (order, time step), which is the
    dominant saving on the uniform sampling grids of a pricing run.
    ``moments`` holds the moment vectors the pricing layer builds from
    correlators; they depend on neither strike nor basis, so a sweep over
    strikes and scales computes them once.  Keys are ``(t, y_t, times)``
    for the moments of the average, extended in place to higher orders,
    and ``(t, y_t, times, order)`` for single-time moment vectors, whose
    exponential depends on the order.  The engine is not thread-safe.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self._propagators: dict[tuple[int, float], np.ndarray] = {}
        self._generators: dict[int, np.ndarray] = {}
        self.moments: dict[tuple, np.ndarray] = {}

    def _generator(self, order: int) -> np.ndarray:
        g = self._generators.get(order)
        if g is None:
            g = self._generators[order] = generator_matrix(self.model, order)
        return g

    def _propagator(self, order: int, dt: float) -> np.ndarray:
        key = (order, dt)
        p = self._propagators.get(key)
        if p is None:
            p = matrix_exponential(scale_by_step(self._generator(order), dt))
            p.setflags(write=False)
            self._propagators[key] = p
        return p

    def _chain(self, query: CorrelatorQuery, d_y: bool = False, d_s: int | None = None) -> float:
        """Evaluate the correlator chain; optional single-derivative variants.

        Propagate the monomial vector of order ``n(m+1)`` over each interval,
        then keep the slice that starts at the power observed there: fixing
        ``k_j`` between the expanding and compressing selectors of the
        Kronecker chain is exactly ``w[k_j : k_j + n(m-j) + 1]``.  ``d_y``
        starts from the derivative of the monomials; ``d_s = j`` inserts the
        generator after the exponential over ``(s_{j-1}, s_j]`` (the sign
        bookkeeping for a maturity derivative lives in
        :meth:`derivative_time`).
        """
        m = query.m
        n = max(query.powers)
        if n == 0:
            # constant observable: unit value, vanishing derivatives
            return 1.0 if (not d_y and d_s is None) else 0.0
        steps = np.diff(np.concatenate([[query.t], query.times]))
        # intermediate overflow is tolerated and surfaces as a diagnosable
        # error through the finite check at the end
        with np.errstate(over="ignore", invalid="ignore"):
            start = _monomials_derivative if d_y else _monomials
            w = start(query.y_t, n * (m + 1))
            for j, k in enumerate(query.powers):
                order = n * (m + 1 - j)
                w = self._propagator(order, steps[j]) @ w
                if d_s == j:
                    w = self._generator(order) @ w
                w = w[k : k + n * (m - j) + 1]
        value = float(w[0])
        if not np.isfinite(value):
            raise NumericalError(f"correlator chain overflowed for powers {query.powers}")
        return value

    def correlator(self, query: CorrelatorQuery) -> float:
        """Conditional expectation of the product of powers at the query times."""
        return self._chain(query)

    def derivative_state(self, query: CorrelatorQuery) -> float:
        """Partial derivative of the correlator with respect to ``y_t``.

        Only the initial vector depends on the state, so the chain is rerun
        from the derivative of the monomials.
        """
        return self._chain(query, d_y=True)

    def derivative_time(self, query: CorrelatorQuery, j: int) -> float:
        """Partial derivative with respect to the sampling time ``s_j``.

        ``s_j`` enters the exponential over ``(s_{j-1}, s_j]`` with positive
        sign and the one over ``(s_j, s_{j+1}]`` (when present) with negative
        sign; differentiating an exponential factor inserts its generator.
        """
        if not 0 <= j <= query.m:
            raise ValueError(f"time index {j} out of range for m={query.m}")
        out = self._chain(query, d_s=j)
        if j < query.m:
            out -= self._chain(query, d_s=j + 1)
        return out


def correlator(spec: ModelSpec, query: CorrelatorQuery, engine: CorrelatorEngine | None = None) -> float:
    """One-shot correlator; pass an engine to share caches across queries."""
    if engine is None:
        engine = CorrelatorEngine(spec)
    elif engine.model != spec:
        raise ValueError("engine was built for a different model")
    return engine.correlator(query)


def correlator_kronecker_reference(spec: ModelSpec, query: CorrelatorQuery) -> float:
    """Correlator by the paper's Kronecker chain, uncached, for validation.

    Starts from the ``(m+1)``-fold Kronecker power of ``H_n(y)``.  Over the
    interval ending at ``s_j`` it compresses with ``E``, applies the
    exponential of the generator of order ``n(r+1)``, expands with ``D``
    and fixes the power ``k_j``; ``r = m - j`` sampling times remain.
    """
    n = max(query.powers)
    if n == 0:
        return 1.0
    steps = np.diff((query.t,) + query.times)
    v = reduce(np.kron, [_monomials(query.y_t, n)] * (query.m + 1))
    for j, k in enumerate(query.powers):
        rank = query.m - j
        p = matrix_exponential(generator_matrix(spec, n * (rank + 1)) * steps[j])
        if rank == 0:
            v = p @ v
        else:
            sel = mth_selectors(n, rank)
            v = sel.apply_d(p @ sel.apply_e(v))
        v = v.reshape(-1, n + 1)[:, k]
    return float(v[0])


def correlator_tower_oracle(spec: ModelSpec, query: CorrelatorQuery) -> float:
    """Correlator by backward tower-rule recursion in coefficient space.

    Starting from ``x^{k_m}`` at the last time, alternately propagate the
    polynomial's coefficient vector back one interval (transpose moment
    formula) and multiply by the power observed there (coefficient shift).
    Independent of the Kronecker chain: exponentials are taken at the
    running polynomial degree, never at a compressed product size.
    """
    total_degree = sum(query.powers)
    if total_degree == 0:
        return 1.0
    if total_degree > MAX_GENERATOR_ORDER:
        raise ValueError(f"total degree {total_degree} exceeds the generator order limit")
    grid = (query.t,) + query.times
    degree = query.powers[-1]
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    for j in range(query.m, -1, -1):
        g = generator_matrix(spec, degree)
        coeffs = matrix_exponential(g * (grid[j + 1] - grid[j])).T @ coeffs
        if j > 0:
            shift = query.powers[j - 1]
            if shift:
                coeffs = np.concatenate([np.zeros(shift), coeffs])
                degree += shift
    return float(np.dot(coeffs, _monomials(query.y_t, degree)))
