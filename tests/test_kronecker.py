import numpy as np
import pytest

from asianhermite.kronecker import (
    duplicating,
    eliminating,
    mth_selectors,
    vec,
    vec_inverse,
    vecl,
)


def random_hankel(n, m, rng):
    diag = rng.uniform(-2, 2, size=n + m - 1)
    return np.array([[diag[i + j] for j in range(m)] for i in range(n)])


def monomials(x, order):
    return x ** np.arange(order + 1.0)


def kron_power_vector(x, n, m):
    """vec of the outer product H_n(x)^T (x)^m H_n(x), built literally."""
    h = monomials(x, n)
    row = h.copy()
    for _ in range(m - 1):
        row = np.kron(row, h)
    outer = np.outer(h, row)  # (n+1) x (n+1)^m
    return vec(outer)


class TestVec:
    def test_column_stacking(self):
        np.testing.assert_array_equal(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])

    def test_column_vector_unchanged(self):
        np.testing.assert_array_equal(vec(np.array([5.0, 6.0, 7.0])), [5, 6, 7])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(vec_inverse(vec(a), 4, 3), a)


class TestVecInverse:
    def test_index_identity(self):
        out = vec_inverse(np.array([1, 3, 2, 4]), 2, 2)
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_single_row(self):
        np.testing.assert_array_equal(vec_inverse(np.array([1.0, 2.0]), 1, 2), [[1, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vec_inverse(np.arange(5), 2, 3)


class TestVecL:
    def test_first_column_last_row(self):
        np.testing.assert_array_equal(vecl(np.array([[1, 2], [3, 4]])), [1, 3, 4])

    def test_single_row(self):
        np.testing.assert_array_equal(vecl(np.array([[1, 2, 3]])), [1, 2, 3])

    def test_single_column(self):
        np.testing.assert_array_equal(vecl(np.array([[1], [2], [3]])), [1, 2, 3])


class TestSelectors:
    def test_e2_selects_expected_positions(self):
        e = eliminating(2, 2)
        np.testing.assert_array_equal(e.idx, [0, 1, 3])

    def test_d2_duplicates_hankel(self):
        d = duplicating(2, 2)
        np.testing.assert_array_equal(d.apply(np.array([1.0, 2.0, 3.0])), [1, 2, 2, 3])

    def test_composition_is_identity(self):
        e, d = eliminating(3, 4), duplicating(3, 4)
        out = e.apply(d.apply(np.arange(6.0)))
        np.testing.assert_array_equal(out, np.arange(6.0))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_defining_identities(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        e, d = eliminating(n, m), duplicating(n, m)
        a = rng.normal(size=(n, m))
        np.testing.assert_array_equal(e.apply(vec(a)), vecl(a))
        h = random_hankel(n, m, rng)
        np.testing.assert_array_equal(d.apply(vecl(h)), vec(h))
        # E @ D = I: the slot that E keeps for entry i duplicates entry i
        np.testing.assert_array_equal(d.idx[e.idx], np.arange(n + m - 1))


class TestMthSelectors:
    def test_base_case_matches_plain(self):
        sel = mth_selectors(3, 1)
        np.testing.assert_array_equal(sel.e_idx, eliminating(4, 4).idx)
        np.testing.assert_array_equal(sel.d_idx, duplicating(4, 4).idx)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", (1, 2))
    def test_expansion_identities_random_points(self, n, m):
        sel = mth_selectors(n, m)
        rng = np.random.default_rng(n * 5 + m)
        for x in rng.uniform(-2, 2, size=25):
            full = kron_power_vector(x, n, m)
            h = monomials(x, n * (m + 1))
            np.testing.assert_allclose(sel.apply_e(full), h, rtol=1e-12, atol=0)
            np.testing.assert_allclose(sel.apply_d(h), full, rtol=1e-12, atol=0)

    def test_composition_identity(self):
        sel = mth_selectors(3, 2)
        np.testing.assert_array_equal(sel.d_idx[sel.e_idx], np.arange(sel.compressed_size))

    def test_duplicating_index_is_digit_sum(self):
        # the expanded slot for digits (i_1..i_{m+1}) carries x to the power
        # of the digit sum, which is exactly the compressed index
        n, m = 3, 3
        sel = mth_selectors(n, m)
        flat = np.arange((n + 1) ** (m + 1))
        digits = np.zeros_like(flat)
        tmp = flat.copy()
        for _ in range(m + 1):
            digits += tmp % (n + 1)
            tmp //= n + 1
        np.testing.assert_array_equal(sel.d_idx, digits)

    def test_size_cap_enforced(self):
        with pytest.raises(ValueError):
            # 101**5 expanded elements, above DEFAULT_SIZE_CAP = 5e7
            mth_selectors(100, 4)

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            mth_selectors(0, 1)
        with pytest.raises(ValueError):
            mth_selectors(2, 0)
