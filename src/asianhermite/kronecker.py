"""Vectorization calculus for Hankel-compressed Kronecker powers.

The correlator formulas work on vectors of the form
``vec(H_n(x)^T (x)^m H_n(x))`` whose entries repeat along skew-diagonals.
The selector matrices built here translate between that redundant
representation of size ``(n+1)**(m+1)`` and the compressed monomial vector
``H_{n(m+1)}(x)`` of size ``n*(m+1)+1``.  Selectors are stored as index
maps and applied as gather operations; they are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Hard ceiling on the length of any expanded Kronecker vector.  Exceeding it
# is an error rather than a slow computation: expanded vectors of this size
# defeat the compression the whole module exists to provide.
DEFAULT_SIZE_CAP = 50_000_000


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of ``a`` into one vector (top to bottom, left to right)."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    return a.reshape(-1, order="F").copy()


def vec_inverse(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild the ``n x m`` matrix with ``A[i, j] = v[n*j + i]``."""
    v = np.asarray(v).ravel()
    if v.size != n * m:
        raise ValueError(f"vector of length {v.size} cannot fill a {n}x{m} matrix")
    return v.reshape((n, m), order="F").copy()


def vecl(a: np.ndarray) -> np.ndarray:
    """First column followed by the rest of the last row: ``(a_11..a_n1, a_n2..a_nm)``."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    return np.concatenate([a[:, 0], a[-1, 1:]])


def _eliminating_index(n: int, m: int) -> np.ndarray:
    """vecL position -> vec position for an ``n x m`` matrix."""
    idx = np.empty(n + m - 1, dtype=np.int64)
    idx[:n] = np.arange(n)                      # first column: (i, 0) -> i
    idx[n:] = np.arange(1, m) * n + (n - 1)     # last row: (n-1, c) -> c*n + n-1
    return idx


def _duplicating_index(n: int, m: int) -> np.ndarray:
    """vec position -> vecL position; the vecL slot of index s is skew-diagonal s."""
    v = np.arange(n * m, dtype=np.int64)
    return (v % n) + (v // n)


@dataclass(frozen=True)
class EliminatingMatrix:
    """Selector with ``E @ vec(A) = vecL(A)`` for every ``n x m`` matrix ``A``."""

    n: int
    m: int
    idx: np.ndarray = field(repr=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[..., self.idx]


@dataclass(frozen=True)
class DuplicatingMatrix:
    """Selector with ``D @ vecL(A) = vec(A)`` for every Hankel ``n x m`` matrix ``A``."""

    n: int
    m: int
    idx: np.ndarray = field(repr=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[..., self.idx]


def eliminating(n: int, m: int) -> EliminatingMatrix:
    """L-eliminating selector for ``n x m`` matrices."""
    if n < 1 or m < 1:
        raise ValueError("matrix dimensions must be positive")
    idx = _eliminating_index(n, m)
    idx.setflags(write=False)
    return EliminatingMatrix(n, m, idx)


def duplicating(n: int, m: int) -> DuplicatingMatrix:
    """L-duplicating selector for Hankel ``n x m`` matrices."""
    if n < 1 or m < 1:
        raise ValueError("matrix dimensions must be positive")
    idx = _duplicating_index(n, m)
    idx.setflags(write=False)
    return DuplicatingMatrix(n, m, idx)


@dataclass(frozen=True)
class MthSelector:
    """m-th order selector pair for the basis size ``n + 1``.

    ``apply_e`` maps an expanded vector of length ``(n+1)**(m+1)`` to the
    compressed monomial vector of length ``n*(m+1)+1``; ``apply_d`` is the
    reverse gather.  ``E @ D`` is the identity on the compressed side, and
    ``apply_d`` of ``H_{n(m+1)}(x)`` reproduces ``vec(H_n(x)^T (x)^m H_n(x))``.
    """

    n: int
    m: int
    e_idx: np.ndarray = field(repr=False)
    d_idx: np.ndarray = field(repr=False)

    @property
    def compressed_size(self) -> int:
        return self.n * (self.m + 1) + 1

    @property
    def expanded_size(self) -> int:
        return (self.n + 1) ** (self.m + 1)

    def apply_e(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[..., self.e_idx]

    def apply_d(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[..., self.d_idx]


def _mth_index_maps(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    if m == 1:
        return _eliminating_index(n + 1, n + 1), _duplicating_index(n + 1, n + 1)
    e_sub, d_sub = _mth_index_maps(n, m - 1)
    sub_rows = n * m + 1          # compressed size at level m-1
    sub_cols = (n + 1) ** m       # expanded size at level m-1
    # E = E_{nm+1, n+1} (I_{n+1} (x) E^{(m-1)})
    blk = np.repeat(np.arange(n + 1, dtype=np.int64), sub_rows)
    pos = np.tile(np.arange(sub_rows, dtype=np.int64), n + 1)
    mid_to_in = blk * sub_cols + e_sub[pos]
    e_idx = mid_to_in[_eliminating_index(sub_rows, n + 1)]
    # D = (I_{n+1} (x) D^{(m-1)}) D_{nm+1, n+1}
    dp = _duplicating_index(sub_rows, n + 1)
    blk = np.repeat(np.arange(n + 1, dtype=np.int64), sub_cols)
    pos = np.tile(np.arange(sub_cols, dtype=np.int64), n + 1)
    d_idx = dp[blk * sub_rows + d_sub[pos]]
    e_idx.setflags(write=False)
    d_idx.setflags(write=False)
    return e_idx, d_idx


def mth_selectors(n: int, m: int) -> MthSelector:
    """Build ``E`` and ``D`` of order ``m`` by the defining recursion.

    Raises ``ValueError`` when the expanded size ``(n+1)**(m+1)`` exceeds
    ``DEFAULT_SIZE_CAP``.
    """
    if n < 1 or m < 1:
        raise ValueError("selector orders must satisfy n >= 1 and m >= 1")
    expanded = (n + 1) ** (m + 1)
    if expanded > DEFAULT_SIZE_CAP:
        raise ValueError(
            f"expanded selector size {expanded} exceeds the cap of {DEFAULT_SIZE_CAP} elements"
        )
    e_idx, d_idx = _mth_index_maps(n, m)
    return MthSelector(n, m, e_idx, d_idx)
