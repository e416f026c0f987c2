import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed.io import EmbeddingSet, load_embedding_set, save_embedding_set


def write(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_plain_two_words(self, tmp_path):
        path = write(tmp_path, "a 1.0 0.0\nb 0.0 1.0\n")
        emb = load_embedding_set(path)
        assert emb.words == ["a", "b"]
        assert emb.dim == 2
        np.testing.assert_array_equal(emb.matrix, np.eye(2))

    def test_auto_detects_header(self, tmp_path):
        path = write(tmp_path, "2 3\nx 1 2 3\ny 4 5 6\n")
        emb = load_embedding_set(path)
        assert emb.dim == 3
        assert emb.words == ["x", "y"]

    def test_auto_ignores_numeric_word_when_counts_disagree(self, tmp_path):
        # a plain 1-dim file whose first word happens to be a number
        path = write(tmp_path, "7 3\n8 4\n9 5\n")
        emb = load_embedding_set(path)
        assert emb.words == ["7", "8", "9"]
        assert emb.dim == 1

    def test_short_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "a 1 2 3\nb 4 5 6\nc 7 8\n")
        with pytest.raises(ValueError, match="line 3"):
            load_embedding_set(path)

    def test_non_numeric_value_reports_line_number(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb x 4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embedding_set(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb nan 4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embedding_set(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="no vector records"):
            load_embedding_set(path)

    def test_duplicates_keep_first_and_warn(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb 3 4\na 9 9\n")
        with pytest.warns(UserWarning, match="1 duplicate"):
            emb = load_embedding_set(path)
        assert emb.words == ["a", "b"]
        np.testing.assert_array_equal(emb.row("a"), [1.0, 2.0])

    def test_duplicate_is_parsed_before_it_is_dropped(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb 3 4\na 9 x\n")
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            load_embedding_set(path)

    def test_file_order_preserved(self, tmp_path):
        words = ["zebra", "apple", "mango", "kiwi"]
        lines = "".join(f"{w} {i} {i}\n" for i, w in enumerate(words))
        emb = load_embedding_set(write(tmp_path, lines))
        assert emb.words == words

    def test_default_name_is_file_stem(self, tmp_path):
        path = write(tmp_path, "a 1\n", name="glove_style.txt")
        assert load_embedding_set(path).name == "glove_style"

    def test_peak_memory_is_about_one_matrix(self, tmp_path):
        # values are parsed into a preallocated matrix, never held as
        # Python floats: the peak stays below two copies of the result
        rng = np.random.default_rng(2)
        emb = EmbeddingSet(
            "mem", [f"w{i}" for i in range(2000)], rng.uniform(-1.0, 1.0, (2000, 100))
        )
        path = tmp_path / "mem.txt"
        save_embedding_set(emb, path)
        tracemalloc.start()
        try:
            loaded = load_embedding_set(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * loaded.matrix.nbytes


class TestSave:
    def test_round_trip_small(self, tmp_path):
        emb = EmbeddingSet("toy", ["a", "b"], [[0.25, -1.5], [3.0, 0.125]])
        path = tmp_path / "out.txt"
        save_embedding_set(emb, path)
        back = load_embedding_set(path)
        assert back.words == emb.words
        np.testing.assert_allclose(back.matrix, emb.matrix, atol=1e-8)

    def test_round_trip_large_random(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(-1.0, 1.0, (1000, 50))
        emb = EmbeddingSet("big", [f"w{i}" for i in range(1000)], matrix)
        path = tmp_path / "plain.txt"
        save_embedding_set(emb, path)
        headed = tmp_path / "header.txt"
        headed.write_text("1000 50\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        for p in (path, headed):
            back = load_embedding_set(p)
            assert back.words == emb.words
            assert np.abs(back.matrix - emb.matrix).max() < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                min_size=1, max_size=8,
            ),
            min_size=1, max_size=6, unique=True,
        ),
        st.integers(min_value=1, max_value=5),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, words, dim, with_header, seed):
        matrix = np.random.default_rng(seed).uniform(-2.0, 2.0, (len(words), dim))
        emb = EmbeddingSet("prop", words, matrix)
        path = tmp_path_factory.mktemp("roundtrip") / "v.txt"
        save_embedding_set(emb, path)
        if with_header:
            body = path.read_text(encoding="utf-8")
            path.write_text(f"{len(words)} {dim}\n{body}", encoding="utf-8")
        back = load_embedding_set(path)
        assert back.words == emb.words
        assert np.abs(back.matrix - emb.matrix).max() < 1e-8

    def test_edge_values_match_per_value_format(self, tmp_path):
        # byte-identity oracle: one format() call per value, as written
        # before rows were formatted with one %-string
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-30, 30, (40, 6))
        edges = [-0.0, 5e-324, -5e-324, 1e-300, np.finfo(float).max,
                 -np.finfo(float).max, 0.1, 1.0 / 3.0]
        matrix[: len(edges), 0] = edges
        emb = EmbeddingSet("edge", [f"w{i}" for i in range(40)], matrix)
        path = tmp_path / "edge.txt"
        save_embedding_set(emb, path)
        oracle = "".join(
            f"{w} " + " ".join(format(v, ".9g") for v in row) + "\n"
            for w, row in zip(emb.words, emb.matrix)
        )
        assert path.read_bytes() == oracle.encode("utf-8")
        back = load_embedding_set(path)
        assert np.signbit(back.matrix[0, 0])
        np.testing.assert_allclose(back.matrix, matrix, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_writing(self, tmp_path, bad):
        emb = EmbeddingSet("bad", ["a", "b"], [[1.0, 2.0], [bad, 4.0]])
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="non-finite value for word 'b'"):
            save_embedding_set(emb, path)
        assert not path.exists()

    @pytest.mark.parametrize("word", ["a b", "a\tb", "a\u2028b", "a\u0085b", ""])
    def test_unreadable_word_refused_before_writing(self, tmp_path, word):
        # the loader cannot read these back: whitespace splits the word,
        # and " 1 2" would load as a "<count> <dim>" header
        emb = EmbeddingSet("bad", [word, "z"], [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(f"word {word!r} is empty or contains whitespace")):
            save_embedding_set(emb, path)
        assert not path.exists()


class TestEmbeddingSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSet("x", ["a", "a"], [[1.0], [2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one word"):
            EmbeddingSet("x", [], np.empty((0, 3)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="matrix rows"):
            EmbeddingSet("x", ["a", "b"], [[1.0]])

    def test_lookup(self):
        emb = EmbeddingSet("x", ["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        assert "a" in emb
        assert "c" not in emb
        np.testing.assert_array_equal(emb.row("b"), [0.0, 1.0])
