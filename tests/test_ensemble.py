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
        union_meta, extended, union_maps, _ = train_latent_union(
            sets, alignment, weights, dim, cfg
        )
        assert loss(union_meta, union_maps) >= loss(plain, plain_maps) * (1 - 1e-9)
        for original, ext in zip(sets, extended):
            np.testing.assert_array_equal(original.matrix, ext.matrix)

    def test_loss_nonincreasing_up_to_tolerance(self):
        _, _, sets, _, _ = latent_linked_sets(n=120)
        cfg = TrainConfig(l2_weight=0.0, epochs=300, seed=5)
        _, _, _, report = train_latent_union(
            sets, align(sets), {"one": 1.0, "two": 1.0}, 10, cfg
        )
        losses = np.array(report.epoch_losses)
        increases = np.diff(losses)
        assert (increases <= 1e-6 + 0.01 * losses[:-1]).all()

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
            with pytest.raises(ValueError, match="epoch 1 loss is (inf|nan)"):
                train_latent_union(huge, align(huge), {"one": 1.0, "two": 1.0}, 4, cfg)

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
