import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed.linalg import normalize_columns, normalize_rows, truncated_svd


class TestNormalize:
    def test_rows_345_triangle(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_zero_row_unchanged(self):
        out = normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_random_row_norms(self):
        rng = np.random.default_rng(0)
        out = normalize_rows(rng.normal(size=(10, 5)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_columns_345(self):
        out = normalize_columns(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[0.6], [0.8]])

    def test_zero_column_unchanged(self):
        m = np.array([[0.0, 1.0], [0.0, 2.0]])
        out = normalize_columns(m)
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])

    def test_random_column_norms(self):
        rng = np.random.default_rng(1)
        out = normalize_columns(rng.normal(size=(20, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rows_idempotent(self, rows, cols, seed):
        m = np.random.default_rng(seed).normal(size=(rows, cols))
        once = normalize_rows(m)
        np.testing.assert_allclose(normalize_rows(once), once, atol=1e-12)


class TestTruncatedSvd:
    def test_rank_one(self):
        x = np.array([2.0, -1.0, 2.0])
        y = np.array([1.0, 2.0])
        result = truncated_svd(np.outer(x, y), 1)
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        np.testing.assert_allclose(result.singular_values, [expected])
        # u_1 proportional to x
        u = result.u_d[:, 0]
        np.testing.assert_allclose(np.abs(u), np.abs(x) / np.linalg.norm(x), atol=1e-12)

    def test_identity(self):
        result = truncated_svd(np.eye(4), 2)
        np.testing.assert_allclose(result.singular_values, [1.0, 1.0])

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(50, 20))
        result = truncated_svd(c, 5)
        eigvals = np.linalg.eigh(c.T @ c)[0][::-1]
        oracle = np.sqrt(np.clip(eigvals, 0.0, None))[:5]
        np.testing.assert_allclose(result.singular_values, oracle, atol=1e-8, rtol=0)

    def test_values_sorted_and_columns_orthonormal(self):
        rng = np.random.default_rng(4)
        result = truncated_svd(rng.normal(size=(30, 12)), 6)
        s = result.singular_values
        assert np.all(s[:-1] >= s[1:])
        gram = result.u_d.T @ result.u_d
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-6)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        result = truncated_svd(rng.normal(size=(15, 8)), 4)
        for j in range(4):
            col = result.u_d[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(6)
        c = rng.normal(size=(10, 7))
        result = truncated_svd(c, 7)
        approx = result.u_d @ (result.u_d.T @ c)
        assert np.linalg.norm(c - approx) / np.linalg.norm(c) < 1e-6

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(40, 15))
        d = 4
        result = truncated_svd(c, d)
        approx = result.u_d @ (result.u_d.T @ c)
        residual = np.linalg.norm(c - approx) ** 2
        all_sv = np.linalg.svd(c, compute_uv=False)
        discarded = np.sum(all_sv[d:] ** 2)
        assert abs(residual - discarded) / discarded < 1e-6

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(25, 10))
        perm = rng.permutation(10)
        s1 = truncated_svd(c, 6).singular_values
        s2 = truncated_svd(c[:, perm], 6).singular_values
        np.testing.assert_allclose(s1, s2, atol=1e-8)

    def test_d_too_large(self):
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.eye(3), 4)

    def test_wide_matrix_matches_dense_svd(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(12, 40))
        result = truncated_svd(m, 12)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_allclose(result.singular_values, s, rtol=1e-10)
        # same columns up to sign
        np.testing.assert_allclose(np.abs(result.u_d.T @ u), np.eye(12), atol=1e-8)

    def test_d_above_rank_names_the_rank(self):
        with pytest.raises(ValueError, match="rank 1"):
            truncated_svd(np.ones((5, 3)), 2)
