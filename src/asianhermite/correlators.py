"""Conditional correlators of a polynomial jump-diffusion at multiple times.

``E[Y(s_0)^{k_0} ... Y(s_m)^{k_m} | Y(t) = y]`` is evaluated by propagating
the vectorized Kronecker power of the monomial vector through a chain of
matrix exponentials.  Every exponential is taken at the compressed size
``n*(r+1)+1`` -- the selector maps of :mod:`.kronecker` expand and compress
around it -- so the ``(n+1)**(m+1)``-square propagators of the raw formula
are never materialized.  A tower-rule recursion provides an independent
second route for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .generator import (
    MAX_GENERATOR_ORDER,
    GeneratorMatrix,
    ModelSpec,
    NumericalError,
    generator_matrix,
    matrix_exponential,
)
from .kronecker import DEFAULT_SIZE_CAP, MthSelector, mth_selectors


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


@dataclass(frozen=True)
class CompressedPropagator:
    """Exponential of the rank-``r`` product generator, never materialized.

    The full propagator acts on ``(n+1)**(r+1)`` components but factors as
    expand-exponentiate-compress, so only the generator of order
    ``n*(r+1)`` is ever exponentiated; the selectors gather in and out.
    ``rank = 0`` is the plain generator with no compression around it.
    """

    rank: int
    base: GeneratorMatrix
    selectors: MthSelector | None  # present for rank >= 1

    def apply(self, v: np.ndarray, dt: float, propagator) -> np.ndarray:
        """``exp(compressed generator * dt) @ v`` via the cached exponential."""
        if self.rank == 0:
            return propagator(self.base.n, dt) @ v
        w = self.selectors.apply_e(v)
        return self.selectors.apply_d(propagator(self.base.n, dt) @ w)

    def apply_generator(self, v: np.ndarray) -> np.ndarray:
        """``compressed generator @ v``, for time derivatives of the chain."""
        if self.rank == 0:
            return self.base.matrix @ v
        w = self.selectors.apply_e(v)
        return self.selectors.apply_d(self.base.matrix @ w)


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

    def __init__(self, model: ModelSpec, size_cap: int = DEFAULT_SIZE_CAP):
        self.model = model
        self.size_cap = size_cap
        self._propagators: dict[tuple[int, float], np.ndarray] = {}
        self._generators: dict[int, np.ndarray] = {}
        self._factors: dict[tuple[int, int], CompressedPropagator] = {}
        self.moments: dict[tuple, np.ndarray] = {}

    def _generator(self, order: int) -> np.ndarray:
        g = self._generators.get(order)
        if g is None:
            g = self._generators[order] = generator_matrix(self.model, order).matrix
        return g

    def _propagator(self, order: int, dt: float) -> np.ndarray:
        key = (order, dt)
        p = self._propagators.get(key)
        if p is None:
            p = matrix_exponential(self._generator(order) * dt)
            p.setflags(write=False)
            self._propagators[key] = p
        return p

    def compressed_propagator(self, n: int, rank: int) -> CompressedPropagator:
        """Factor of the correlator chain at the given polynomial order and rank."""
        key = (n, rank)
        f = self._factors.get(key)
        if f is None:
            order = n * (rank + 1)
            base = GeneratorMatrix(n=order, matrix=self._generator(order))
            sel = mth_selectors(n, rank, self.size_cap) if rank >= 1 else None
            f = self._factors[key] = CompressedPropagator(rank=rank, base=base, selectors=sel)
        return f

    def _initial_vector(self, n: int, m: int, y: float, derivative: bool) -> np.ndarray:
        """``vec(H_n(y)^T (x)^m H_n(y))``, optionally its derivative in ``y``.

        The vectorized outer product equals the (m+1)-fold Kronecker power of
        ``H_n(y)``; the derivative applies the product rule across factors.
        """
        h = _monomials(y, n)
        if not derivative:
            return reduce(np.kron, [h] * (m + 1))
        hp = _monomials_derivative(y, n)
        out = np.zeros((n + 1) ** (m + 1))
        for which in range(m + 1):
            factors = [hp if i == which else h for i in range(m + 1)]
            out += reduce(np.kron, factors)
        return out

    def _chain(self, query: CorrelatorQuery, d_y: bool = False, d_s: int | None = None) -> float:
        """Evaluate the correlator chain; optional single-derivative variants.

        ``d_y`` differentiates the initial state vector; ``d_s = j`` inserts
        the generator into the exponential factor whose time step is
        ``s_j - s_{j-1}`` (the sign bookkeeping for a maturity derivative
        lives in :meth:`derivative_time`).
        """
        m = query.m
        n = max(query.powers)
        if n == 0:
            # constant observable: unit value, vanishing derivatives
            return 1.0 if (not d_y and d_s is None) else 0.0
        if (n + 1) ** (m + 1) > self.size_cap:
            raise ValueError(
                f"correlator with max power {n} over {m + 1} times expands to "
                f"{(n + 1) ** (m + 1)} elements, above the cap {self.size_cap}"
            )
        steps = np.diff(np.concatenate([[query.t], query.times]))
        # intermediate overflow is tolerated and surfaces as a diagnosable
        # error through the finite check at the end
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._initial_vector(n, m, query.y_t, derivative=d_y)
            # factor 0: compressed propagation over (t, s_0]
            factor = self.compressed_propagator(n, m)
            v = factor.apply(v, steps[0], self._propagator)
            if d_s == 0:
                v = factor.apply_generator(v)
            # unit-vector extraction of the power at s_0
            r = v.reshape(-1, n + 1)[:, query.powers[0]]
            # factors j = 1..m, right-multiplied in time order
            for j in range(1, m + 1):
                factor = self.compressed_propagator(n, m - j)
                r = factor.apply(r, steps[j], self._propagator)
                if d_s == j:
                    r = factor.apply_generator(r)
                r = r.reshape(-1, n + 1)[:, query.powers[j]]
        value = float(r[0])
        if not np.isfinite(value):
            raise NumericalError(f"correlator chain overflowed for powers {query.powers}")
        return value

    def correlator(self, query: CorrelatorQuery) -> float:
        """Conditional expectation of the product of powers at the query times."""
        return self._chain(query)

    def derivative_state(self, query: CorrelatorQuery) -> float:
        """Partial derivative of the correlator with respect to ``y_t``.

        Only the initial vector depends on the state, so the chain is rerun
        with the product-rule derivative of the Kronecker factors.
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
        g = generator_matrix(spec, degree).matrix
        coeffs = matrix_exponential(g * (grid[j + 1] - grid[j])).T @ coeffs
        if j > 0:
            shift = query.powers[j - 1]
            if shift:
                coeffs = np.concatenate([np.zeros(shift), coeffs])
                degree += shift
    return float(np.dot(coeffs, _monomials(query.y_t, degree)))
