import numpy as np
import pytest
from conftest import central_difference, max_relative_error

from metaembed.io import EmbeddingSet
from metaembed.oov import (
    AVERAGE,
    PROJECTED,
    RANDOM,
    ProjectionMap,
    extend_all,
    fill_oov,
    projection_loss_grad,
    train_projection,
)
from metaembed.optimizer import INIT_RANGE, TrainConfig, seeded_rng
from metaembed.vocab import align


def linear_pair(seed=0, n=200, src_dim=4, tgt_dim=6, scale=0.4):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(tgt_dim, src_dim)) * scale
    x = rng.normal(size=(n, src_dim))
    words = [f"w{i:03d}" for i in range(n)]
    return (
        EmbeddingSet("src", words, x),
        EmbeddingSet("tgt", words, x @ b.T),
        b,
    )


class TestTrainProjection:
    def test_recovers_exact_linear_map(self):
        source, target, b = linear_pair()
        cfg = TrainConfig.projection_defaults(l2_weight=0.0)
        pm = train_projection(source, target, cfg)
        assert np.linalg.norm(pm.matrix - b) < 1e-3
        assert pm.train_loss < 1e-6
        assert pm.source_set == "src"
        assert pm.target_set == "tgt"

    def test_self_projection_approaches_identity(self):
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(100)]
        emb = EmbeddingSet("same", words, rng.normal(size=(100, 5)) * 0.5)
        cfg = TrainConfig.projection_defaults(l2_weight=0.0)
        pm = train_projection(emb, emb, cfg)
        assert pm.train_loss < 1e-6
        assert np.abs(pm.matrix - np.eye(5)).max() < 1e-2

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 3))
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 4))
        l2 = 1e-3

        def objective():
            loss, _ = projection_loss_grad(m, x, y, l2)
            return loss + l2 * float(np.sum(m * m))

        _, grad = projection_loss_grad(m, x, y, l2)
        assert max_relative_error(central_difference(objective, m), grad) < 1e-4

    def test_ridge_normal_equations(self):
        rng = np.random.default_rng(10)
        words = [f"w{i:02d}" for i in range(50)]
        source = EmbeddingSet("src", words, rng.normal(size=(50, 4)))
        target = EmbeddingSet("tgt", words, rng.normal(size=(50, 3)))
        l2 = 7.5
        pm = train_projection(source, target, TrainConfig(l2_weight=l2))
        x, y = source.matrix, target.matrix
        loss, grad = projection_loss_grad(pm.matrix, x, y, l2)
        assert np.abs(grad).max() < 1e-10
        assert pm.train_loss == pytest.approx(loss / 50)
        oracle = np.linalg.solve(x.T @ x + l2 * np.eye(4), x.T @ y).T
        np.testing.assert_allclose(pm.matrix, oracle, atol=1e-12)

    def test_too_few_shared_words(self):
        rng = np.random.default_rng(4)
        source = EmbeddingSet("a", ["x", "y"], rng.normal(size=(2, 5)))
        target = EmbeddingSet("b", ["x", "z"], rng.normal(size=(2, 3)))
        with pytest.raises(ValueError, match="share 1 words"):
            train_projection(source, target, TrainConfig(epochs=1))


def two_sets_with_extras():
    # "b" is shared; each set has private words
    a = EmbeddingSet("a", ["b", "p", "q"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = EmbeddingSet("b", ["b", "r"], [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    return a, b


class TestFillOov:
    def test_known_rows_bitwise_unchanged(self):
        a, b = two_sets_with_extras()
        alignment = align([a, b])
        filled = fill_oov(a, [b], [], alignment, RANDOM, seed=0)
        assert filled.words == alignment.union
        for w in a.words:
            assert (filled.row(w) == a.row(w)).all()

    def test_random_fill_reproducible(self):
        a, b = two_sets_with_extras()
        alignment = align([a, b])
        one = fill_oov(a, [b], [], alignment, RANDOM, seed=5)
        two = fill_oov(a, [b], [], alignment, RANDOM, seed=5)
        np.testing.assert_array_equal(one.matrix, two.matrix)

    def test_average_fill_uses_known_rows_only(self):
        a, b = two_sets_with_extras()
        alignment = align([a, b])
        filled = fill_oov(a, [b], [], alignment, AVERAGE, seed=0)
        expected = a.matrix.mean(axis=0)
        np.testing.assert_array_equal(filled.row("r"), expected)

    def test_projected_fill_single_source_equals_projection(self):
        a, b = two_sets_with_extras()
        alignment = align([a, b])
        pm = ProjectionMap("b", "a", np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), 0.0)
        filled = fill_oov(a, [b], [pm], alignment, PROJECTED, seed=0)
        np.testing.assert_allclose(filled.row("r"), pm.matrix @ b.row("r"))

    def test_projected_fill_hand_average(self):
        # two sources project the word to (1,0) and (0,1)
        target = EmbeddingSet("t", ["shared"], [[0.3, 0.7]])
        s1 = EmbeddingSet("s1", ["shared", "new"], [[1.0], [1.0]])
        s2 = EmbeddingSet("s2", ["shared", "new"], [[1.0], [1.0]])
        alignment = align([target, s1, s2])
        projections = [
            ProjectionMap("s1", "t", np.array([[1.0], [0.0]]), 0.0),
            ProjectionMap("s2", "t", np.array([[0.0], [1.0]]), 0.0),
        ]
        filled = fill_oov(target, [s1, s2], projections, alignment, PROJECTED, seed=0)
        np.testing.assert_allclose(filled.row("new"), [0.5, 0.5])

    def test_projected_fill_identical_projections(self):
        target = EmbeddingSet("t", ["shared"], [[0.0, 0.0]])
        s1 = EmbeddingSet("s1", ["shared", "new"], [[1.0], [2.0]])
        s2 = EmbeddingSet("s2", ["shared", "new"], [[1.0], [2.0]])
        alignment = align([target, s1, s2])
        same = np.array([[3.0], [-1.0]])
        projections = [
            ProjectionMap("s1", "t", same, 0.0),
            ProjectionMap("s2", "t", same, 0.0),
        ]
        filled = fill_oov(target, [s1, s2], projections, alignment, PROJECTED, seed=0)
        np.testing.assert_allclose(filled.row("new"), same @ np.array([2.0]))

    def test_projected_fill_in_coordinatewise_hull(self):
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(12)]
        target = EmbeddingSet("t", words[:6], rng.normal(size=(6, 3)))
        s1 = EmbeddingSet("s1", words, rng.normal(size=(12, 4)))
        s2 = EmbeddingSet("s2", words, rng.normal(size=(12, 5)))
        alignment = align([target, s1, s2])
        projections = [
            ProjectionMap("s1", "t", rng.normal(size=(3, 4)), 0.0),
            ProjectionMap("s2", "t", rng.normal(size=(3, 5)), 0.0),
        ]
        filled = fill_oov(target, [s1, s2], projections, alignment, PROJECTED, seed=0)
        for w in words[6:]:
            vecs = np.stack([
                projections[0].matrix @ s1.row(w),
                projections[1].matrix @ s2.row(w),
            ])
            assert (filled.row(w) >= vecs.min(axis=0) - 1e-12).all()
            assert (filled.row(w) <= vecs.max(axis=0) + 1e-12).all()

    def test_projected_requires_all_projections(self):
        a, b = two_sets_with_extras()
        alignment = align([a, b])
        with pytest.raises(ValueError, match="no projection into 'a'"):
            fill_oov(a, [b], [], alignment, PROJECTED, seed=0)

    def test_unknown_strategy(self):
        a, b = two_sets_with_extras()
        with pytest.raises(ValueError, match="unknown strategy"):
            fill_oov(a, [b], [], align([a, b]), "bogus", seed=0)


def reference_fill(target, others, projections, union, strategy, seed):
    """Per-word oracle: each union word looked up in every set by name."""
    by_source = {p.source_set: p for p in projections if p.target_set == target.name}
    rng = seeded_rng(seed)
    out = np.empty((len(union), target.dim))
    for j, word in enumerate(union):
        if word in target:
            out[j] = target.row(word)
        elif strategy == RANDOM:
            out[j] = rng.uniform(-INIT_RANGE, INIT_RANGE, target.dim)
        elif strategy == AVERAGE:
            out[j] = target.matrix.mean(axis=0)
        else:
            out[j] = np.mean(
                [by_source[o.name].matrix @ o.row(word) for o in others if word in o],
                axis=0,
            )
    return out


class TestVectorizedFill:
    def four_sets(self):
        rng = np.random.default_rng(21)
        pool = [f"t{i:03d}" for i in range(120)]
        sets = []
        for i, dim in enumerate((3, 5, 4, 6)):
            words = list(rng.choice(pool, size=int(rng.integers(50, 90)), replace=False))
            sets.append(EmbeddingSet(f"s{i}", words, rng.normal(size=(len(words), dim))))
        projections = [
            ProjectionMap(o.name, t.name, rng.normal(size=(t.dim, o.dim)), 0.0)
            for t in sets for o in sets if o is not t
        ]
        return sets, projections

    @pytest.mark.parametrize("strategy", [RANDOM, AVERAGE, PROJECTED])
    def test_matches_per_word_reference(self, strategy):
        sets, projections = self.four_sets()
        alignment = align(sets)
        for target in sets:
            others = [s for s in sets if s is not target]
            filled = fill_oov(target, others, projections, alignment, strategy, seed=3)
            expected = reference_fill(
                target, others, projections, alignment.union, strategy, seed=3
            )
            assert filled.words == alignment.union
            if strategy == PROJECTED:
                np.testing.assert_allclose(filled.matrix, expected, rtol=1e-12, atol=0)
            else:
                assert filled.matrix.tobytes() == expected.tobytes()

    def test_reordered_source_rejected(self):
        sets, projections = self.four_sets()
        alignment = align(sets)
        moved = EmbeddingSet("s1", sets[1].words[::-1], sets[1].matrix[::-1])
        with pytest.raises(ValueError, match="'s1' does not match"):
            fill_oov(sets[0], [moved] + sets[2:], projections, alignment, PROJECTED)


class TestExtendAll:
    def toy_sets(self, count=5, seed=7):
        rng = np.random.default_rng(seed)
        pool = [f"t{i:02d}" for i in range(30)]
        sets = []
        for i in range(count):
            size = int(rng.integers(12, 25))
            words = sorted(rng.choice(pool, size=size, replace=False))
            dim = int(rng.integers(2, 5))
            sets.append(EmbeddingSet(f"s{i}", words, rng.normal(size=(size, dim))))
        return sets

    def test_disjoint_extras_get_common_vocabulary(self):
        a = EmbeddingSet("a", ["shared", "only_a"], np.eye(2))
        b = EmbeddingSet("b", ["shared", "only_b"], np.eye(2))
        extended = extend_all([a, b], TrainConfig(epochs=1), RANDOM)
        assert extended[0].words == extended[1].words == ["only_a", "only_b", "shared"]

    def test_every_output_covers_the_union(self):
        sets = self.toy_sets()
        alignment = align(sets)
        extended = extend_all(sets, TrainConfig(epochs=1), RANDOM)
        for ext in extended:
            assert len(ext) == len(alignment.union)
            assert ext.words == alignment.union

    def test_average_rows_identical_within_set(self):
        sets = self.toy_sets(count=3)
        extended = extend_all(sets, TrainConfig(epochs=1), AVERAGE)
        for original, ext in zip(sets, extended):
            missing = [w for w in ext.words if w not in original.index]
            if len(missing) < 2:
                continue
            rows = np.stack([ext.row(w) for w in missing])
            assert (rows == rows[0]).all()

    def test_projected_strategy_round_trip(self):
        rng = np.random.default_rng(8)
        words = [f"w{i:02d}" for i in range(40)]
        base = rng.normal(size=(40, 3)) * 0.4
        b = rng.normal(size=(4, 3)) * 0.4
        # second set is an exact linear image, minus some words
        s1 = EmbeddingSet("s1", words, base)
        s2 = EmbeddingSet("s2", words[:30], (base @ b.T)[:30])
        cfg = TrainConfig.projection_defaults(l2_weight=0.0)
        extended = extend_all([s1, s2], cfg, PROJECTED)
        ext2 = next(e for e in extended if e.name == "s2")
        for i, w in enumerate(words[30:], start=30):
            np.testing.assert_allclose(ext2.row(w), base[i] @ b.T, atol=1e-2)
