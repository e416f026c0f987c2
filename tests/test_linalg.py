import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed.linalg import min_norm_solve, normalize_columns, normalize_rows, truncated_svd


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

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
            truncated_svd(np.ones(3), 1)

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

    def test_wide_path_is_the_transposed_tall_path(self):
        # A wide matrix takes the Gram of its rows: the tall result, transposed
        rng = np.random.default_rng(12)
        m = rng.normal(size=(9, 30))
        wide, tall = truncated_svd(m, 5), truncated_svd(m.T, 5)
        np.testing.assert_allclose(wide.singular_values, tall.singular_values, rtol=1e-12)
        np.testing.assert_allclose(np.abs(wide.u_d.T @ tall.v_d), np.eye(5), atol=1e-10)
        np.testing.assert_allclose(np.abs(wide.v_d.T @ tall.u_d), np.eye(5), atol=1e-10)
        np.testing.assert_allclose(wide.v_d.T @ wide.v_d, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(m @ wide.v_d, wide.u_d * wide.singular_values, atol=1e-10)
        for j in range(5):
            col = wide.u_d[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_d_above_rank_names_the_rank(self):
        with pytest.raises(ValueError, match="rank 1"):
            truncated_svd(np.ones((5, 3)), 2)

    def test_right_vectors_share_the_left_signs(self):
        # m v = u s holds column by column only if v took u's sign flips
        rng = np.random.default_rng(10)
        m = rng.normal(size=(30, 9))
        result = truncated_svd(m, 5)
        np.testing.assert_allclose(result.v_d.T @ result.v_d, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(
            m @ result.v_d, result.u_d * result.singular_values, atol=1e-10
        )
        full = truncated_svd(m, 9)
        np.testing.assert_allclose(
            (full.u_d * full.singular_values) @ full.v_d.T, m, atol=1e-10
        )

    def test_overflowing_gram_is_a_named_error(self):
        m = np.random.default_rng(11).normal(size=(6, 3)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram matrix of the 6x3 matrix is not finite"):
                truncated_svd(m, 2)


class TestMinNormSolve:
    def test_nonsingular_gram_matches_solve(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(30, 6))
        gram, rhs = x.T @ x, rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            min_norm_solve(gram, rhs, 30), np.linalg.solve(gram, rhs.T).T, rtol=1e-12
        )

    def test_duplicated_column_matches_pinv(self):
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=(40, 4)), rng.normal(size=(40, 3))
        x[:, 3] = x[:, 1]
        solved = min_norm_solve(x.T @ x, y.T @ x, 40)
        np.testing.assert_allclose(solved, (np.linalg.pinv(x) @ y).T, rtol=1e-8)

    @pytest.mark.parametrize("shift", [1e-6, 7.5])
    @pytest.mark.parametrize("duplicated", [False, True])  # the LU and eigh branches
    def test_positive_shift_satisfies_the_ridge_normal_equations(self, shift, duplicated):
        rng = np.random.default_rng(22)
        x, y = rng.normal(size=(50, 5)), rng.normal(size=(50, 3))
        if duplicated:
            x[:, 4] = x[:, 0]
        gram, rhs = x.T @ x, y.T @ x
        solved = min_norm_solve(gram, rhs, 50, shift)
        np.testing.assert_allclose(solved @ (gram + shift * np.eye(5)), rhs, atol=1e-10)

    @pytest.mark.parametrize("shift", [0.0, 7.5, np.inf])
    def test_zero_gram_gives_zeros_without_warning(self, shift):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = min_norm_solve(np.zeros((3, 3)), np.ones((2, 3)), 10, shift)
        assert solved.shape == (2, 3) and not solved.any()

    @pytest.mark.parametrize("factor, kept", [(0.5, False), (2.0, True)])
    def test_noise_rule_is_shared_with_the_svd_rank(self, factor, kept):
        # m's Gram has eigenvalues 1, 0.5, 0.25 and factor * the rounding
        # noise of its 1000 rows, 1000 * eps: the last is dropped below
        # the noise and kept above it, by the solve and the rank alike.
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(1000, 4)))
        w, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        small = factor * 1000 * np.finfo(np.float64).eps
        m = q @ np.diag(np.sqrt([1.0, 0.5, 0.25, small])) @ w.T
        solved = min_norm_solve(m.T @ m, w[:, 3], 1000)
        if kept:
            assert np.linalg.norm(solved) > 0.1 / small
            last = truncated_svd(m, 4).singular_values[3]
            assert last == pytest.approx(np.sqrt(small), rel=1e-2)
        else:
            assert np.linalg.norm(solved) < 1e-9
            with pytest.raises(ValueError, match="rank 3"):
                truncated_svd(m, 4)
