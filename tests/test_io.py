import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed import io
from metaembed.io import EmbeddingSet, load_embedding_set, save_embedding_set


def write(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    @pytest.mark.parametrize("header", ["", "2 2\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, header):
        path = write(tmp_path, f"\ufeff{header}the 0.1 0.2\ncat 0.3 0.4\n")
        cold = load_embedding_set(path)
        refuse_parsing(monkeypatch)
        for emb in (cold, load_embedding_set(path)):
            assert emb.words == ["the", "cat"]
            np.testing.assert_array_equal(emb.matrix, [[0.1, 0.2], [0.3, 0.4]])

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


def sidecars(path):
    """The names of the hidden cache files beside ``path``."""
    return sorted(p.name for p in path.parent.iterdir() if p.name.startswith(f".{path.name}."))


def refuse_parsing(monkeypatch):
    """From now on a load succeeds only from the sidecars."""
    monkeypatch.setattr(io, "_parse", lambda path: pytest.fail(f"{path} was parsed"))


def count_parses(monkeypatch):
    parsed = []
    parse = io._parse
    monkeypatch.setattr(io, "_parse", lambda path: parsed.append(path) or parse(path))
    return parsed


class TestCache:
    @pytest.fixture
    def path(self, tmp_path):
        rng = np.random.default_rng(5)
        emb = EmbeddingSet("r", [f"w{i}" for i in range(300)], rng.normal(size=(300, 7)))
        save_embedding_set(emb, tmp_path / "vectors.txt")
        return tmp_path / "vectors.txt"

    def test_warm_load_equals_cold_load(self, path, monkeypatch):
        cold = load_embedding_set(path, name="x")
        assert [n.rsplit(".", 1)[1] for n in sidecars(path)] == ["npy", "words"]
        refuse_parsing(monkeypatch)
        warm = load_embedding_set(path, name="x")
        assert (warm.name, warm.words) == (cold.name, cold.words)
        assert warm.matrix.dtype == np.float64
        assert np.array_equal(warm.matrix, cold.matrix)

    def test_loaded_matrix_is_read_only(self, path, monkeypatch):
        cold = load_embedding_set(path)
        refuse_parsing(monkeypatch)
        warm = load_embedding_set(path)
        for emb in (cold, warm):
            with pytest.raises(ValueError, match="read-only"):
                emb.matrix[0, 0] = 1.0

    def test_duplicate_warning_repeats_on_a_hit(self, tmp_path, monkeypatch):
        path = write(tmp_path, "a 1 2\nb 3 4\na 9 9\nb 0 0\n")
        with pytest.warns(UserWarning, match="dropped 2 duplicate"):
            load_embedding_set(path)
        refuse_parsing(monkeypatch)
        with pytest.warns(UserWarning, match="dropped 2 duplicate"):
            warm = load_embedding_set(path)
        assert warm.words == ["a", "b"]
        np.testing.assert_array_equal(warm.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_same_size_edit_with_old_mtime_is_reparsed(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb 3 4\n")
        load_embedding_set(path)
        stat = path.stat()
        path.write_text("a 1 2\nb 3 5\n", encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        np.testing.assert_array_equal(load_embedding_set(path).row("b"), [3.0, 5.0])
        # the first content's sidecars are replaced, not kept beside the new ones
        assert len(sidecars(path)) == 2

    def test_other_files_sidecars_are_kept(self, tmp_path):
        # ".a.txt." also begins the sidecar names of "a.txt.b.txt"
        first = write(tmp_path, "a 1\n", name="a.txt")
        second = write(tmp_path, "b 2\n", name="a.txt.b.txt")
        load_embedding_set(second)
        first.write_text("a 3\n", encoding="utf-8")
        load_embedding_set(first)
        load_embedding_set(first)
        assert len(sidecars(second)) == 2

    @pytest.mark.parametrize("damage", ["truncate npy", "empty npy", "drop a word", "count"])
    def test_damaged_sidecar_falls_back_to_parsing(self, path, monkeypatch, damage):
        cold = load_embedding_set(path)
        npy, vocab = (path.parent / name for name in sidecars(path))
        if damage == "truncate npy":
            npy.write_bytes(npy.read_bytes()[:-8])
        elif damage == "empty npy":
            npy.write_bytes(b"")
        elif damage == "drop a word":
            vocab.write_text(vocab.read_text(encoding="utf-8").replace("w7\n", ""), encoding="utf-8")
        else:
            text = vocab.read_text(encoding="utf-8")
            vocab.write_text(text.replace("300 0\n", "299 0\n", 1), encoding="utf-8")
        parsed = count_parses(monkeypatch)
        again = load_embedding_set(path)
        assert parsed == [path]
        assert again.words == cold.words
        assert np.array_equal(again.matrix, cold.matrix)
        # the reparse rewrites whole sidecars
        refuse_parsing(monkeypatch)
        assert np.array_equal(load_embedding_set(path).matrix, cold.matrix)

    def test_unwritable_directory_still_loads(self, path, monkeypatch):
        # root ignores chmod, so the rename that would publish a sidecar fails instead
        def fail(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = load_embedding_set(path)
        assert len(emb) == 300
        assert sidecars(path) == []  # no temp file is left either

    def test_nearly_full_disk_gets_no_sidecars(self, path, monkeypatch):
        # 300 x 7 float64 values and the word list: 17 kB of sidecars
        size = 300 * 7 * 8 + len("300 0\n") + sum(len(f"w{i}\n") for i in range(300))

        def free(space):
            monkeypatch.setattr(io.shutil, "disk_usage", lambda p: shutil._ntuple_diskusage(
                10 ** 12, 10 ** 12 - space, space))

        free(4 * size - 1)
        assert len(load_embedding_set(path)) == 300
        assert sidecars(path) == []
        free(4 * size)
        load_embedding_set(path)
        assert len(sidecars(path)) == 2

    def test_file_changed_while_parsed_is_not_stored(self, tmp_path, monkeypatch):
        path = write(tmp_path, "a 1 2\nb 3 4\n")
        parse = io._parse

        def parse_then_rewrite(p):
            parsed = parse(p)
            p.write_text("a 1 2\nb 3 5\n", encoding="utf-8")
            return parsed

        monkeypatch.setattr(io, "_parse", parse_then_rewrite)
        np.testing.assert_array_equal(load_embedding_set(path).row("b"), [3.0, 4.0])
        assert sidecars(path) == []
        monkeypatch.setattr(io, "_parse", parse)
        np.testing.assert_array_equal(load_embedding_set(path).row("b"), [3.0, 5.0])

    def test_saving_over_a_file_removes_its_sidecars(self, path, tmp_path):
        # ".vectors.txt." also begins the sidecar names of "vectors.txt.b.txt"
        other = write(tmp_path, "a 1\n", name="vectors.txt.b.txt")
        load_embedding_set(path)
        load_embedding_set(other)
        save_embedding_set(EmbeddingSet("s", ["a"], [[1.0]]), path)
        assert sidecars(path) == sidecars(other)
        assert len(sidecars(other)) == 2

    def test_sidecars_of_an_earlier_version_are_not_read(self, tmp_path):
        # version 1 kept a leading byte-order mark in the first word
        path = write(tmp_path, "\ufeffthe 0.1 0.2\ncat 0.3 0.4\n")
        old = [p.with_name(p.name.replace(f"-v{io._CACHE_VERSION}.", "-v1.")) for p in io._sidecars(path)]
        np.save(old[0], np.array([[0.1, 0.2], [0.3, 0.4]]))
        old[1].write_text("2 0\n\ufeffthe\ncat\n", encoding="utf-8")
        assert load_embedding_set(path).words == ["the", "cat"]
        assert not any(p.exists() for p in old)


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
            # save refuses a leading U+FEFF by design; the "\ufeffa" case of
            # test_unreadable_word_refused_before_writing checks that
            st.text(
                alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                min_size=1, max_size=8,
            ).filter(lambda word: not word.startswith("\ufeff")),
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

    @pytest.mark.parametrize("word", ["a b", "a\tb", "a\u2028b", "a\u0085b", "", "\ufeffa"])
    def test_unreadable_word_refused_before_writing(self, tmp_path, word):
        # the loader cannot read these back: whitespace splits the word,
        # " 1 2" would load as a "<count> <dim>" header, and a leading
        # byte-order mark is skipped
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
        np.testing.assert_array_equal(emb.row("b"), [0.0, 1.0])
