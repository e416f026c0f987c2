import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    central_difference,
    latent_linked_sets,
    max_relative_error,
    regression_r2,
)

from metaembed.ensemble import (
    CONCAT,
    LATENT,
    LATENT_UNION,
    SVD,
    concatenate,
    prediction_loss_grads,
    svd_reduce,
    train_latent,
    train_latent_union,
)
from metaembed.io import EmbeddingSet
from metaembed.linalg import normalize_rows, truncated_svd
from metaembed.optimizer import TrainConfig
from metaembed.vocab import VocabAlignment, align


def make_sets(rng, vocab, dims, names=None):
    names = names or [f"s{i}" for i in range(len(dims))]
    return [
        EmbeddingSet(name, list(vocab), rng.normal(size=(len(vocab), d)))
        for name, d in zip(names, dims)
    ]


def unit_weights(sets):
    return {s.name: 1.0 for s in sets}


class TestConcatenate:
    def test_stacks_normalized_blocks(self):
        rng = np.random.default_rng(0)
        sets = make_sets(rng, ["a", "b", "c"], [2, 3])
        alignment = align(sets)
        meta = concatenate(sets, unit_weights(sets), alignment)
        assert meta.dim == 5
        assert meta.name == CONCAT
        for j, word in enumerate(meta.words):
            expected = np.concatenate([
                normalize_rows(sets[0].matrix)[sets[0].index[word]],
                normalize_rows(sets[1].matrix)[sets[1].index[word]],
            ])
            np.testing.assert_allclose(meta.matrix[j], expected, atol=1e-12)

    def test_output_dim_with_favored_weights(self):
        # five sets shaped like the usual public releases
        rng = np.random.default_rng(1)
        dims = [100, 50, 300, 200, 300]
        sets = make_sets(rng, ["u", "v", "w"], dims)
        weights = {s.name: 1.0 for s in sets}
        weights["s2"] = 8.0
        weights["s4"] = 8.0
        meta = concatenate(sets, weights, align(sets))
        assert meta.dim == 950

    def test_dot_product_decomposition_oracle(self):
        rng = np.random.default_rng(2)
        vocab = [f"w{i}" for i in range(30)]
        sets = make_sets(rng, vocab, [3, 5, 2])
        weights = {"s0": 1.5, "s1": 8.0, "s2": 0.5}
        meta = concatenate(sets, weights, align(sets))
        normed = [normalize_rows(s.matrix) for s in sets]
        for _ in range(200):
            u, v = rng.integers(0, len(meta.words), size=2)
            wu, wv = meta.words[u], meta.words[v]
            oracle = sum(
                weights[s.name] ** 2
                * np.dot(normed[i][s.index[wu]], normed[i][s.index[wv]])
                for i, s in enumerate(sets)
            )
            assert abs(np.dot(meta.matrix[u], meta.matrix[v]) - oracle) < 1e-10

    def test_column_normalization_applies_to_flagged_set_only(self):
        rng = np.random.default_rng(3)
        sets = make_sets(rng, ["a", "b", "c", "d"], [2, 2])
        alignment = align(sets)
        plain = concatenate(sets, unit_weights(sets), alignment)
        flagged = concatenate(sets, unit_weights(sets), alignment, ["s0"])
        assert not np.allclose(plain.matrix[:, :2], flagged.matrix[:, :2])
        np.testing.assert_array_equal(plain.matrix[:, 2:], flagged.matrix[:, 2:])

    def test_rejects_nonpositive_weight(self):
        rng = np.random.default_rng(4)
        sets = make_sets(rng, ["a", "b"], [2, 2])
        with pytest.raises(ValueError, match="must be positive"):
            concatenate(sets, {"s0": 0.0, "s1": 1.0}, align(sets))

    def test_rejects_unknown_colnorm_name(self):
        rng = np.random.default_rng(5)
        sets = make_sets(rng, ["a", "b"], [2, 2])
        with pytest.raises(ValueError, match="unknown sets"):
            concatenate(sets, unit_weights(sets), align(sets), ["nope"])

    def test_missing_word_detected(self):
        rng = np.random.default_rng(6)
        full = make_sets(rng, ["a", "b", "c"], [2, 2])
        alignment = align(full)
        truncated = EmbeddingSet("s0", ["a", "b"], full[0].matrix[:2])
        with pytest.raises(ValueError, match="missing"):
            concatenate([truncated, full[1]], unit_weights(full), alignment)

    def test_reordered_set_detected(self):
        rng = np.random.default_rng(6)
        full = make_sets(rng, ["a", "b", "c"], [2, 2])
        alignment = align(full)
        reordered = EmbeddingSet("s0", ["c", "a", "b"], full[0].matrix[[2, 0, 1]])
        with pytest.raises(ValueError, match="'s0' does not match"):
            concatenate([reordered, full[1]], unit_weights(full), alignment)

    def test_common_weight_scaling_keeps_neighbor_ranking(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(15)]
        sets = make_sets(rng, vocab, [3, 4])
        weights = {"s0": 2.0, "s1": 8.0}
        scaled = {k: 3.7 * v for k, v in weights.items()}
        alignment = align(sets)
        a = concatenate(sets, weights, alignment).matrix
        b = concatenate(sets, scaled, alignment).matrix
        for q in range(len(vocab)):
            ranks_a = np.argsort(-(a @ a[q]))
            ranks_b = np.argsort(-(b @ b[q]))
            np.testing.assert_array_equal(ranks_a, ranks_b)


class TestSvdReduce:
    def test_rank_collapse_of_duplicated_set(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(20, 4))
        vocab = [f"w{i}" for i in range(20)]
        sets = [
            EmbeddingSet("a", vocab, base),
            EmbeddingSet("b", vocab, base.copy()),
        ]
        conc = concatenate(sets, unit_weights(sets), align(sets))
        result_sv = np.linalg.svd(conc.matrix, compute_uv=False)
        assert (result_sv[4:] < 1e-8).all()
        reduced = svd_reduce(conc, 4)
        assert reduced.dim == 4

    def test_full_rank_preserves_similarity_ordering(self):
        # flat-spectrum fixture: distinct Fourier frequencies per block
        # give equal singular values, so the rotated rows keep exact
        # cosine structure
        n = 12
        theta = 2 * np.pi * np.arange(n) / n
        words = [f"w{i:02d}" for i in range(n)]
        sets = [
            EmbeddingSet("a", words, np.column_stack([np.cos(theta), np.sin(theta)])),
            EmbeddingSet("b", words, np.column_stack([np.cos(2 * theta), np.sin(2 * theta)])),
        ]
        conc = concatenate(sets, unit_weights(sets), align(sets))
        reduced = svd_reduce(conc, conc.dim)
        conc_cos = normalize_rows(conc.matrix) @ normalize_rows(conc.matrix).T
        svd_cos = reduced.matrix @ reduced.matrix.T
        np.testing.assert_allclose(svd_cos, conc_cos, atol=1e-12)
        iu = np.triu_indices(n, k=1)
        order_a = np.argsort(np.round(conc_cos[iu], 9), kind="stable")
        order_b = np.argsort(np.round(svd_cos[iu], 9), kind="stable")
        np.testing.assert_array_equal(order_a, order_b)

    def test_output_rows_unit_and_basis_orthonormal(self):
        rng = np.random.default_rng(9)
        vocab = [f"w{i}" for i in range(100)]
        sets = make_sets(rng, vocab, [6, 8])
        conc = concatenate(sets, unit_weights(sets), align(sets))
        reduced = svd_reduce(conc, 10)
        np.testing.assert_allclose(
            np.linalg.norm(reduced.matrix, axis=1), 1.0, atol=1e-9
        )
        basis = truncated_svd(conc.matrix, 10).u_d
        np.testing.assert_allclose(basis.T @ basis, np.eye(10), atol=1e-6)

    def test_singular_values_invariant_to_row_order(self):
        rng = np.random.default_rng(10)
        vocab = [f"w{i:02d}" for i in range(30)]
        sets = make_sets(rng, vocab, [4, 4])
        conc = concatenate(sets, unit_weights(sets), align(sets))
        perm = rng.permutation(30)
        s1 = truncated_svd(conc.matrix, 6).singular_values
        s2 = truncated_svd(conc.matrix[perm], 6).singular_values
        np.testing.assert_allclose(s1, s2, atol=1e-8)

    def test_requires_concat_input(self):
        meta = EmbeddingSet(LATENT, ["a"], np.ones((1, 3)))
        with pytest.raises(ValueError, match="expected a 'concat'"):
            svd_reduce(meta, 1)


class TestGradients:
    def test_latent_objective_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        n, d, dims = 5, 3, (2, 4)
        meta = rng.normal(size=(n, d))
        maps = [rng.normal(size=(di, d)) for di in dims]
        targets = [rng.normal(size=(n, di)) for di in dims]
        gammas = [8.0, 1.0]
        l2 = 2e-3

        def objective():
            loss, *_ = prediction_loss_grads(meta, maps, targets, gammas, l2)
            return loss + l2 * sum(float(np.sum(m * m)) for m in maps)

        _, g_meta, g_maps, _ = prediction_loss_grads(meta, maps, targets, gammas, l2)
        assert max_relative_error(central_difference(objective, meta), g_meta) < 1e-4
        for i in range(2):
            assert max_relative_error(
                central_difference(objective, maps[i]), g_maps[i]
            ) < 1e-4

    def test_union_objective_with_trainable_targets(self):
        rng = np.random.default_rng(12)
        n, d, dims = 5, 3, (2, 4)
        meta = rng.normal(size=(n, d))
        maps = [rng.normal(size=(di, d)) for di in dims]
        targets = [rng.normal(size=(n, di)) for di in dims]
        trainable = [np.array([True, False, True, False, True]),
                     np.array([False, True, False, True, False])]
        gammas = [8.0, 1.0]
        l2 = 2e-3

        def objective():
            loss, *_ = prediction_loss_grads(meta, maps, targets, gammas, l2, trainable)
            return loss + l2 * sum(float(np.sum(m * m)) for m in maps)

        _, g_meta, g_maps, g_targets = prediction_loss_grads(
            meta, maps, targets, gammas, l2, trainable
        )
        assert max_relative_error(central_difference(objective, meta), g_meta) < 1e-4
        for i in range(2):
            assert max_relative_error(
                central_difference(objective, maps[i]), g_maps[i]
            ) < 1e-4
            numeric = central_difference(objective, targets[i])
            numeric[~trainable[i]] = 0.0
            assert max_relative_error(numeric, g_targets[i]) < 1e-4


class TestTrainLatent:
    def test_single_set_converges_to_zero_loss(self):
        rng = np.random.default_rng(13)
        vocab = sorted(f"w{i:02d}" for i in range(40))
        emb = EmbeddingSet("only", vocab, rng.normal(size=(40, 4)) * 0.3)
        alignment = VocabAlignment(
            set_names=["only"],
            intersection=vocab,
            union=vocab,
            rows=np.arange(40)[None, :],
        )
        cfg = TrainConfig(
            l2_weight=0.0, epochs=3000, batch_size=40, seed=0, learning_rate=0.05
        )
        meta, maps, report = train_latent([emb], alignment, {"only": 1.0}, 4, cfg)
        assert report.final_loss < 1e-6
        assert maps["only"].shape == (4, 4)

    def test_recovers_shared_latent_structure(self):
        z, words, sets, _, _ = latent_linked_sets(n=200, scale=0.3)
        cfg = TrainConfig(l2_weight=0.0, epochs=3000, seed=3, learning_rate=0.05)
        meta, _, report = train_latent(
            sets, align(sets), {"one": 1.0, "two": 1.0}, 10, cfg
        )
        assert report.final_loss < 1e-3
        assert regression_r2(meta.matrix, z) > 0.99
        assert meta.name == LATENT

    def test_empty_intersection_rejected(self):
        rng = np.random.default_rng(14)
        sets = [
            EmbeddingSet("a", ["x", "y"], rng.normal(size=(2, 2))),
            EmbeddingSet("b", ["p", "q"], rng.normal(size=(2, 2))),
        ]
        with pytest.raises(ValueError, match="empty shared vocabulary"):
            train_latent(sets, align(sets), {"a": 1.0, "b": 1.0}, 2, TrainConfig(epochs=1))

    @pytest.mark.parametrize("l2", [0.0, 1e-2])
    @pytest.mark.parametrize("dim", [3, 6])
    def test_eckart_young_lower_bound(self, dim, l2):
        # sum_i gamma_i ||X M_i^T - T_i||^2 is a rank-dim fit of the
        # sqrt(gamma)-weighted target concatenation, so it can never fall
        # below that matrix's trailing squared singular values, and the
        # closed form attains them whatever the map penalty
        _, _, sets, _, _ = latent_linked_sets(
            seed=4, n=200, latent_dim=8, dims=(8, 12), scale=1.0
        )
        weights = {"one": 1.0, "two": 4.0}
        meta, maps, report = train_latent(
            sets, align(sets), weights, dim, TrainConfig(l2_weight=l2)
        )
        loss = sum(
            weights[s.name] * np.sum((meta.matrix @ maps[s.name].T - s.matrix) ** 2)
            for s in sets
        )
        stacked = np.hstack([np.sqrt(weights[s.name]) * s.matrix for s in sets])
        bound = float(np.sum(np.linalg.svd(stacked, compute_uv=False)[dim:] ** 2))
        assert bound > 0
        assert abs(loss - bound) <= 1e-9 * bound
        assert abs(report.final_loss * len(meta) - bound) <= 1e-9 * bound
        assert (report.epoch_losses, report.steps) == ([], 0)

    def test_overflowing_inputs_fail_with_a_named_error(self):
        _, _, sets, _, _ = latent_linked_sets(n=60)
        huge = [EmbeddingSet(s.name, s.words, s.matrix * 1e200) for s in sets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error is the only message
            with pytest.raises(ValueError, match="Gram matrix .* is not finite"):
                train_latent(huge, align(huge), {"one": 1.0, "two": 1.0}, 4)

    def test_dim_above_rank_names_the_rank(self):
        # both sets are linear images of a 10-dimensional latent space
        _, _, sets, _, _ = latent_linked_sets(n=60)
        with pytest.raises(ValueError, match="d=12 exceeds the rank 10 of the 60x25 matrix"):
            train_latent(sets, align(sets), {"one": 1.0, "two": 1.0}, 12)


class TestTrainLatentUnion:
    @pytest.mark.parametrize("seed, dim, l2", [(2, 8, 5e-4), (3, 4, 0.0), (5, 12, 1e-2)])
    def test_never_below_latent_when_no_words_missing(self, seed, dim, l2):
        # over full coverage the union objective is the latent one, whose
        # infimum train_latent attains; the union run keeps every target
        _, _, sets, _, _ = latent_linked_sets(seed=seed, n=80, latent_dim=14, scale=1.0)
        weights = {"one": 1.0, "two": 3.0}
        alignment = align(sets)
        cfg = TrainConfig(epochs=40, seed=seed, l2_weight=l2)
        gammas = [weights[s.name] for s in sets]

        def loss(meta, maps):
            targets = [s.matrix for s in sets]
            total, *_ = prediction_loss_grads(
                meta.matrix, [maps[s.name] for s in sets], targets, gammas, 0.0
            )
            return total

        plain, plain_maps, _ = train_latent(sets, alignment, weights, dim)
        union_meta, extended, union_maps, report = train_latent_union(
            sets, alignment, weights, dim, cfg
        )
        # the shared fit is that infimum
        assert report.start == "shared"
        bound = loss(plain, plain_maps)
        assert abs(loss(union_meta, union_maps) - bound) <= 1e-9 * bound
        # every word is shared, so the start is train_latent's fit up to rounding
        np.testing.assert_allclose(union_meta.matrix, plain.matrix, rtol=0,
                                   atol=1e-9 * np.abs(plain.matrix).max())
        for original, ext in zip(sets, extended):
            np.testing.assert_array_equal(original.matrix, ext.matrix)
            np.testing.assert_array_equal(union_maps[original.name], plain_maps[original.name])

    @pytest.mark.parametrize("hide_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_final_loss_is_the_returned_models_loss(self, seed, hide_fraction):
        # noisy sets, so the fit is not exact
        rng = np.random.default_rng(seed)
        words = [f"w{i:03d}" for i in range(150)]
        keep = rng.random(len(words)) >= hide_fraction
        sets = [
            EmbeddingSet("one", words, rng.normal(size=(150, 6))),
            EmbeddingSet("two", [w for w, k in zip(words, keep) if k],
                         rng.normal(size=(int(keep.sum()), 9))),
        ]
        weights = {"one": 1.0, "two": 2.0}
        meta, extended, maps, report = train_latent_union(sets, align(sets), weights, 5)
        assert (report.start, report.epoch_losses, report.steps) == ("shared", [], 0)
        returned, *_ = prediction_loss_grads(
            meta.matrix, [maps["one"], maps["two"]], [e.matrix for e in extended],
            [1.0, 2.0], 0.0,
        )
        assert returned / len(meta) == pytest.approx(report.final_loss, rel=1e-12)

    def test_one_epoch_recovers_hidden_words(self):
        # exact rank-10 sets: the start maps each hidden word's meta-vector
        # into the set that lacks it without error
        _, words, sets, matrices, hidden = latent_linked_sets(n=150, hide_fraction=0.1)
        cfg = TrainConfig.union_defaults(l2_weight=0.0, epochs=1, seed=4)
        _, extended, _, _ = train_latent_union(
            sets, align(sets), {"one": 1.0, "two": 1.0}, 10, cfg
        )
        learned = np.array([extended[1].row(words[i]) for i in hidden])
        truth = matrices[1][hidden]
        cosines = np.sum(learned * truth, axis=1) / (
            np.linalg.norm(learned, axis=1) * np.linalg.norm(truth, axis=1)
        )
        assert cosines.mean() > 0.999

    def test_start_solves_each_patterns_normal_equations(self):
        # Words known to 'a' or 'b' alone span 3 or 5 < dim directions, and
        # 'd' repeats its 4 columns, so words known to 'd' alone span 4 of
        # its 8: only the prior's shift makes their normal matrices regular.
        rng = np.random.default_rng(8)
        dims = {"a": 3, "b": 5, "c": 6, "d": 4}
        groups = {"abcd": 40, "a": 5, "b": 5, "c": 5, "d": 5, "ab": 5, "bc": 5}
        words = {name: [] for name in dims}
        for pattern, count in groups.items():
            for j in range(count):
                for name in pattern:
                    words[name].append(f"{pattern}{j}")
        sets = [EmbeddingSet(n, w, rng.normal(size=(len(w), dims[n]))) for n, w in words.items()]
        sets[3] = EmbeddingSet("d", sets[3].words, np.hstack([sets[3].matrix] * 2))
        weights = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 1.0}
        alignment = align(sets)
        meta, extended, maps, report = train_latent_union(sets, alignment, weights, 6)
        assert report.start == "shared"
        # the shift is noise over component variance, from the shared rows' spectrum
        shared = [w for w in alignment.union if all(w in s.index for s in sets)]
        a = np.hstack([np.sqrt(weights[s.name]) * np.array([s.row(w) for w in shared])
                       for s in sets])
        top = np.linalg.svd(a, compute_uv=False)[:6]
        noise = (np.sum(a * a) - np.sum(top**2)) / ((len(shared) - 6) * (a.shape[1] - 6))
        assert noise > 0
        for k, word in enumerate(alignment.union):
            holders = [s for s in sets if word in s.index]
            shift = 0.0 if len(holders) == len(sets) else noise * len(shared) / top**2
            x = meta.matrix[k]
            lhs = np.hstack([np.sqrt(weights[s.name]) * maps[s.name].T for s in holders])
            rhs = np.concatenate([np.sqrt(weights[s.name]) * s.row(word) for s in holders])
            gradient = lhs @ (lhs.T @ x - rhs) + shift * x
            assert np.linalg.norm(gradient) <= 1e-9 * np.linalg.norm(lhs @ rhs)
            for s, ext in zip(sets, extended):
                if word not in s.index:
                    np.testing.assert_allclose(ext.row(word), maps[s.name] @ x, rtol=1e-12)

    @staticmethod
    def noisy_three_sets():
        # a rank-4 signal seen with noise through three sets, over every
        # presence pattern
        rng = np.random.default_rng(31)
        groups = {"abc": 48, "ab": 7, "ac": 7, "bc": 7, "a": 7, "b": 7, "c": 7}
        words = [f"{pattern}{j}" for pattern, count in groups.items() for j in range(count)]
        z = rng.normal(size=(len(words), 4))
        sets = []
        for name, d in zip("abc", (5, 6, 7)):
            full = z @ rng.normal(size=(4, d)) + 0.3 * rng.normal(size=(len(words), d))
            rows = [i for i, w in enumerate(words) if name in w.rstrip("0123456789")]
            sets.append(EmbeddingSet(name, [words[i] for i in rows], full[rows]))
        return sets, {"a": 2.0, "b": 1.0, "c": 0.5}

    def test_fills_are_the_gaussian_conditional_means(self):
        # with the shared rows' fit u s v^T, the model's covariance of a
        # word's stacked vectors is C = M diag(s^2 / n) M^T + sigma^2 diag(1 / gamma),
        # and each fill must be C_UK C_KK^-1 t_K
        sets, weights = self.noisy_three_sets()
        alignment = align(sets)
        _, extended, _, report = train_latent_union(sets, alignment, weights, 4)
        assert report.start == "shared"
        gamma = np.concatenate([np.full(s.dim, weights[s.name]) for s in sets])
        known = np.repeat(alignment.presence, [s.dim for s in sets], axis=0).T  # words x columns
        stacked = np.hstack([
            np.array([s.row(w) if w in s.index else np.full(s.dim, np.nan)
                      for w in alignment.union])
            for s in sets
        ])
        shared = known.all(axis=1)
        a = stacked[shared] * np.sqrt(gamma)
        n, width = a.shape
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        noise = (np.sum(a * a) - np.sum(s[:4] ** 2)) / ((n - 4) * (width - 4))
        maps = vt[:4].T / np.sqrt(gamma)[:, None]
        cov = maps @ np.diag(s[:4] ** 2 / n) @ maps.T + noise * np.diag(1 / gamma)
        filled = np.hstack([e.matrix for e in extended])
        for k in np.flatnonzero(~shared):
            kn, un = known[k], ~known[k]
            oracle = cov[np.ix_(un, kn)] @ np.linalg.solve(cov[np.ix_(kn, kn)], stacked[k, kn])
            assert np.linalg.norm(filled[k, un] - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_outputs_scale_with_the_inputs(self):
        # the prior's shift is noise over component variance, free of the scale
        sets, weights = self.noisy_three_sets()
        scaled = [EmbeddingSet(s.name, s.words, s.matrix * 2.0**10) for s in sets]
        meta, extended, _, _ = train_latent_union(sets, align(sets), weights, 4)
        big_meta, big_extended, _, _ = train_latent_union(scaled, align(scaled), weights, 4)
        for small, big in [(meta, big_meta), *zip(extended, big_extended)]:
            error = np.linalg.norm(big.matrix - 2.0**10 * small.matrix)
            assert error <= 1e-12 * np.linalg.norm(big.matrix)

    def test_no_shared_word_fits_the_zero_filled_union(self):
        # every word is missing from one of the three sets
        rng = np.random.default_rng(5)
        words = [f"w{i:02d}" for i in range(45)]
        sets = [
            EmbeddingSet(name, words[:15 * k] + words[15 * k + 15:], rng.normal(size=(30, d)))
            for k, (name, d) in enumerate(zip("abc", (6, 8, 10)))
        ]
        weights = {"a": 1.0, "b": 3.0, "c": 0.5}
        alignment = align(sets)
        assert not alignment.intersection
        runs = [train_latent_union(sets, alignment, weights, 5) for _ in range(2)]
        (meta, extended, maps, report), (again, again_extended, _, _) = runs
        assert report.start == "union"
        assert np.isfinite(meta.matrix).all() and np.isfinite(report.final_loss)
        np.testing.assert_array_equal(meta.matrix, again.matrix)
        for original, ext, ext_again in zip(sets, extended, again_extended):
            np.testing.assert_array_equal(ext.matrix, ext_again.matrix)
            for w in original.words:
                assert (ext.row(w) == original.row(w)).all()
        self.assert_missing_vectors_are_images(sets, alignment, meta.matrix, extended, maps)

    @staticmethod
    def quarter_hidden_sets():
        # each set hides its own quarter of the words, so 15 are shared and
        # a dim of 16 or more is above their rank
        rng = np.random.default_rng(21)
        words = [f"w{i:02d}" for i in range(60)]
        sets = [
            EmbeddingSet(name, words[:15 * k] + words[15 * k + 15:], rng.normal(size=(45, d)))
            for k, (name, d) in enumerate(zip("abc", (6, 8, 10)))
        ]
        return sets, {"a": 8.0, "b": 1.0, "c": 0.25}

    def quarter_hidden_fit(self, dim):
        sets, weights = self.quarter_hidden_sets()
        alignment = align(sets)
        meta, extended, maps, report = train_latent_union(sets, alignment, weights, dim)
        return sets, alignment, weights, meta.matrix, extended, maps, report

    @staticmethod
    def assert_missing_vectors_are_images(sets, alignment, meta, extended, maps):
        for s, ext in zip(sets, extended):
            for k, word in enumerate(alignment.union):
                if word not in s.index:
                    np.testing.assert_allclose(ext.matrix[k], maps[s.name] @ meta[k], rtol=1e-12)

    @staticmethod
    def known_loss(sets, alignment, weights, meta, maps):
        """The per-word loss of the known vectors alone."""
        known = 0.0
        for s, rows in zip(sets, alignment.rows):
            residual = meta[rows >= 0] @ maps[s.name].T - s.matrix[rows[rows >= 0]]
            known += weights[s.name] * float(np.sum(residual * residual))
        return known / len(meta)

    @pytest.mark.parametrize("dim, start", [(5, "shared"), (18, "union")])
    def test_maps_each_missing_vector_from_its_meta_vector(self, dim, start):
        sets, alignment, _, meta, extended, maps, report = self.quarter_hidden_fit(dim)
        assert report.start == start
        self.assert_missing_vectors_are_images(sets, alignment, meta, extended, maps)

    @pytest.mark.parametrize("dim", [5, 18])
    def test_final_loss_counts_known_vectors_only(self, dim):
        sets, alignment, weights, meta, _, maps, report = self.quarter_hidden_fit(dim)
        known = self.known_loss(sets, alignment, weights, meta, maps)
        assert report.final_loss == pytest.approx(known, rel=1e-12)

    def test_peak_memory_stays_below_five_target_arrays(self):
        # five sets over a 2000-word union at 80% coverage; the per-set loop
        # peaked at 6.5 target arrays, gathering every target once per step
        # and holding full-size masked target gradients
        rng = np.random.default_rng(3)
        words = np.array([f"w{i:04d}" for i in range(2000)])
        keep = rng.random((5, len(words))) < 0.8
        keep[0, ~keep.any(axis=0)] = True  # every word in the union
        dims = (20, 30, 40, 50, 60)
        sets = [
            EmbeddingSet(f"s{k}", list(words[kept]), rng.normal(size=(int(kept.sum()), d)))
            for k, (kept, d) in enumerate(zip(keep, dims))
        ]
        alignment = align(sets)
        target_bytes = len(alignment.union) * sum(dims) * 8
        tracemalloc.start()
        try:
            train_latent_union(sets, alignment, unit_weights(sets), 20,
                               TrainConfig.union_defaults(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * target_bytes

    def test_deterministic_given_seed(self):
        _, _, sets, _, _ = latent_linked_sets(n=60, hide_fraction=0.2)
        cfg = TrainConfig(epochs=30, seed=21)
        weights = {"one": 1.0, "two": 8.0}
        alignment = align(sets)
        a, ext_a, _, _ = train_latent_union(sets, alignment, weights, 6, cfg)
        b, ext_b, _, _ = train_latent_union(sets, alignment, weights, 6, cfg)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        for x, y in zip(ext_a, ext_b):
            np.testing.assert_array_equal(x.matrix, y.matrix)

    def test_non_finite_loss_fails_at_first_epoch(self):
        _, _, sets, _, _ = latent_linked_sets(n=60)
        huge = [EmbeddingSet(s.name, s.words, s.matrix * 1e200) for s in sets]
        cfg = TrainConfig(epochs=400, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error is the only message
            with pytest.raises(ValueError, match="Gram matrix .* is not finite"):
                train_latent_union(huge, align(huge), {"one": 1.0, "two": 1.0}, 4, cfg)

    def test_overflowing_inputs_with_hidden_words_fail_with_a_named_error(self):
        _, _, sets, _, _ = latent_linked_sets(n=60, hide_fraction=0.2)
        huge = [EmbeddingSet(s.name, s.words, s.matrix * 1e200) for s in sets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error is the only message
            with pytest.raises(ValueError, match="Gram matrix .* is not finite"):
                train_latent_union(huge, align(huge), {"one": 1.0, "two": 1.0}, 4)

    def test_known_rows_never_modified(self):
        _, words, sets, matrices, hidden = latent_linked_sets(n=80, hide_fraction=0.2)
        alignment = align(sets)
        cfg = TrainConfig.union_defaults(epochs=50, seed=4)
        _, extended, _, _ = train_latent_union(
            sets, alignment, {"one": 1.0, "two": 1.0}, 8, cfg
        )
        for original, ext in zip(sets, extended):
            assert ext.words == alignment.union
            for w in original.words:
                assert (ext.row(w) == original.row(w)).all()

    def test_learned_vectors_for_hidden_words_correlate(self):
        _, words, sets, matrices, hidden = latent_linked_sets(
            n=150, hide_fraction=0.1
        )
        cfg = TrainConfig.union_defaults(
            l2_weight=0.0, epochs=3000, seed=4, learning_rate=0.05
        )
        _, extended, _, report = train_latent_union(
            sets, align(sets), {"one": 1.0, "two": 1.0}, 10, cfg
        )
        ext2 = next(e for e in extended if e.name == "two")
        cosines = []
        for i in hidden:
            learned = ext2.row(words[i])
            truth = matrices[1][i]
            cosines.append(
                np.dot(learned, truth)
                / (np.linalg.norm(learned) * np.linalg.norm(truth))
            )
        assert np.mean(cosines) > 0.9

    def test_requires_two_sets(self):
        rng = np.random.default_rng(15)
        emb = EmbeddingSet("a", ["x"], rng.normal(size=(1, 2)))
        alignment = VocabAlignment(
            set_names=["a"], intersection=["x"], union=["x"],
            rows=np.zeros((1, 1), dtype=np.intp),
        )
        with pytest.raises(ValueError, match="at least 2"):
            train_latent_union([emb], alignment, {"a": 1.0}, 2, TrainConfig(epochs=1))

    @pytest.mark.parametrize("words, dims, bound", [
        ("abc", [2, 2], 3),  # the union's words bound dim
        ("abcde", [1, 1], 2),  # the summed set dims bound dim
    ])
    def test_dim_bounded_by_union_words_and_summed_dims(self, words, dims, bound):
        sets = make_sets(np.random.default_rng(6), words, dims)
        weights = {"s0": 1.0, "s1": 1.0}
        config = TrainConfig(epochs=1)
        meta, _, _, _ = train_latent_union(sets, align(sets), weights, bound, config)
        assert meta.dim == bound
        for dim in (bound + 1, 0, -2):
            with pytest.raises(ValueError, match=rf"^dim must be in \[1, {bound}\], .*got {dim} "):
                train_latent_union(sets, align(sets), weights, dim, config)


@pytest.mark.parametrize("weight", [np.nan, np.inf])
@pytest.mark.parametrize("method", ["concatenate", "train_latent", "train_latent_union"])
def test_non_finite_weight_rejected_by_every_method(method, weight):
    rng = np.random.default_rng(4)
    sets = make_sets(rng, ["a", "b", "c"], [2, 2])
    weights = {"s0": 1.0, "s1": weight}
    with pytest.raises(ValueError, match="weight for set 's1' must be positive and finite"):
        if method == "concatenate":
            concatenate(sets, weights, align(sets))
        else:
            fit = train_latent if method == "train_latent" else train_latent_union
            fit(sets, align(sets), weights, 1, TrainConfig(epochs=1))
