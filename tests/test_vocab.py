import numpy as np
import pytest

from metaembed.io import EmbeddingSet
from metaembed.vocab import align


def make_set(name, words, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(name, list(words), rng.normal(size=(len(words), dim)))


def random_vocabularies(rng, count=5):
    pool = [f"tok{i:03d}" for i in range(40)]
    vocabs = []
    for _ in range(count):
        size = rng.integers(3, 20)
        vocabs.append(list(rng.choice(pool, size=size, replace=False)))
    return vocabs


class TestAlign:
    def test_two_tiny_sets(self):
        a = make_set("a", ["a", "b"])
        b = make_set("b", ["b", "c"])
        alignment = align([a, b])
        assert alignment.intersection == ["b"]
        assert alignment.union == ["a", "b", "c"]

    def test_identical_sets(self):
        words = ["x", "y", "z"]
        alignment = align([make_set("a", words), make_set("b", words)])
        assert alignment.intersection == alignment.union == sorted(words)

    def test_counts_match_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        vocabs = random_vocabularies(rng)
        sets = [make_set(f"s{i}", v, seed=i) for i, v in enumerate(vocabs)]
        alignment = align(sets)

        # nested-loop membership oracle
        all_words = sorted({w for v in vocabs for w in v})
        oracle_inter = [w for w in all_words if all(w in v for v in vocabs)]
        oracle_union = [w for w in all_words if any(w in v for v in vocabs)]
        assert alignment.intersection == oracle_inter
        assert alignment.union == oracle_union

    def test_presence_mask_consistent(self):
        rng = np.random.default_rng(3)
        vocabs = random_vocabularies(rng, count=3)
        sets = [make_set(f"s{i}", v, seed=i) for i, v in enumerate(vocabs)]
        alignment = align(sets)
        for i, v in enumerate(vocabs):
            for j, w in enumerate(alignment.union):
                assert alignment.presence[i, j] == (w in v)

    def test_order_insensitive(self):
        a = make_set("a", ["p", "q", "r"])
        b = make_set("b", ["q", "s"])
        fwd = align([a, b])
        rev = align([b, a])
        assert fwd.intersection == rev.intersection
        assert fwd.union == rev.union

    def test_requires_two_sets(self):
        with pytest.raises(ValueError, match="at least 2"):
            align([make_set("a", ["x"])])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            align([make_set("a", ["x"]), make_set("a", ["y"])])

    def test_size_bounds(self):
        rng = np.random.default_rng(5)
        vocabs = random_vocabularies(rng, count=4)
        sets = [make_set(f"s{i}", v, seed=i) for i, v in enumerate(vocabs)]
        alignment = align(sets)
        sizes = [len(v) for v in vocabs]
        assert len(alignment.intersection) <= min(sizes)
        assert len(alignment.union) >= max(sizes)


def missing_words(alignment, set_name):
    """Union words the named set lacks, read off the row table."""
    rows = alignment.rows[alignment.set_names.index(set_name)]
    return [w for w, r in zip(alignment.union, rows) if r < 0]


class TestOovWords:
    def test_tiny_example(self):
        alignment = align([make_set("a", ["a", "b"]), make_set("b", ["b", "c"])])
        assert missing_words(alignment, "a") == ["c"]
        assert missing_words(alignment, "b") == ["a"]

    def test_full_coverage_is_empty(self):
        alignment = align([make_set("a", ["a", "b", "c"]), make_set("b", ["b"])])
        assert missing_words(alignment, "a") == []

    def test_matches_set_difference_oracle(self):
        # rows[i, j] is union[j]'s row in set i, and -1 exactly where
        # the set-difference oracle says the word is absent
        rng = np.random.default_rng(8)
        vocabs = random_vocabularies(rng, count=4)
        sets = [make_set(f"s{i}", v, seed=i) for i, v in enumerate(vocabs)]
        alignment = align(sets)
        assert alignment.rows.shape == (len(sets), len(alignment.union))
        union = set(alignment.union)
        for i, (s, vocab) in enumerate(zip(sets, vocabs)):
            absent = union - set(vocab)
            for j, w in enumerate(alignment.union):
                r = alignment.rows[i, j]
                if w in absent:
                    assert r == -1
                else:
                    assert r >= 0 and s.words[r] == w
            np.testing.assert_array_equal(alignment.rows_for(s), alignment.rows[i])
            assert missing_words(alignment, s.name) == sorted(absent)

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        vocabs = random_vocabularies(rng, count=3)
        sets = [make_set(f"s{i}", v, seed=i) for i, v in enumerate(vocabs)]
        alignment = align(sets)
        for s, vocab in zip(sets, vocabs):
            oov = set(missing_words(alignment, s.name))
            assert oov | set(vocab) == set(alignment.union)
            assert oov & set(vocab) == set()

    def test_unknown_set_name(self):
        alignment = align([make_set("a", ["a"]), make_set("b", ["b"])])
        with pytest.raises(KeyError, match="unknown set"):
            alignment.rows_for(make_set("zzz", ["a"]))


class TestRowsGuard:
    def test_reordered_set_rejected(self):
        a = make_set("a", ["p", "q", "r"])
        b = make_set("b", ["q", "s"])
        alignment = align([a, b])
        reordered = EmbeddingSet("a", ["r", "p", "q"], a.matrix[[2, 0, 1]])
        with pytest.raises(ValueError, match="'a' does not match"):
            alignment.rows_for(reordered)

    def test_added_word_rejected(self):
        a = make_set("a", ["p", "q"])
        alignment = align([a, make_set("b", ["q"])])
        with pytest.raises(ValueError, match="'a' does not match"):
            alignment.rows_for(make_set("a", ["p", "q", "x"]))

    def test_equal_copy_accepted(self):
        a = make_set("a", ["p", "q"])
        alignment = align([a, make_set("b", ["q"])])
        copy = EmbeddingSet("a", list(a.words), a.matrix * 2.0)
        np.testing.assert_array_equal(alignment.rows_for(copy), [0, 1])
