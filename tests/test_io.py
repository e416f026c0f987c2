import codecs
import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaembed import io
from metaembed.io import EmbeddingSet, load_embedding_set, save_embedding_set


def write(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@st.composite
def vector_files(draw):
    """The bytes of a loadable vector file, and each kept word with the
    bytes of its first occurrence's line (its line end included) and that
    line's tokens, in file order."""
    # no word holds whitespace, begins with a byte-order mark or reads as an
    # int, so none looks like a header
    word = st.text(
        alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs", "Nd")),
        min_size=1, max_size=6,
    ).filter(lambda w: not w.startswith("\ufeff"))
    header = draw(st.sampled_from([None, True, False]))
    dim = 1 if header is False else draw(st.integers(1, 3))  # a false header is a record
    pool = draw(st.lists(word, min_size=1, max_size=4, unique=True))
    sep = draw(st.sampled_from([" ", "\t", "  ", "\u3000"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    value = st.floats(-10.0, 10.0).map(repr)
    records = [[w, *draw(st.lists(value, min_size=dim, max_size=dim))]
               for w in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))]
    if header is not None:  # a false header's count is one too many
        records.insert(0, [str(len(records) + (not header)), str(dim)])
    text, kept = [], {}
    for i, tokens in enumerate(records):
        if i and draw(st.booleans()):
            text.append(draw(st.sampled_from(["", " ", "\t", "\u3000 "])) + end)
        last = i == len(records) - 1
        text.append(sep.join(tokens) + draw(st.sampled_from(["", " "]))
                    + (draw(st.sampled_from([end, ""])) if last else end))
        if i or header is not True:
            kept.setdefault(tokens[0], (text[-1].encode("utf-8"), tokens))
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + "".join(text).encode("utf-8"), list(kept.items())


class TestLoad:
    @pytest.mark.parametrize("header", ["", "2 2\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, header):
        path = write(tmp_path, f"\ufeff{header}the 0.1 0.2\ncat 0.3 0.4\n")
        cold = load_embedding_set(path)
        refuse_parsing(monkeypatch)
        for emb in (cold, load_embedding_set(path)):
            assert emb.words == ["the", "cat"]
            np.testing.assert_array_equal(emb.matrix, [[0.1, 0.2], [0.3, 0.4]])

    @settings(max_examples=60, deadline=None)
    @given(vector_files())
    def test_spans_slice_each_kept_words_first_line(self, tmp_path_factory, file):
        data, kept = file
        path = tmp_path_factory.mktemp("spans") / "v.txt"
        path.write_bytes(data)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as monkeypatch:
            warnings.simplefilter("ignore")  # the duplicates' warning
            loads = [load_embedding_set(path)]
            refuse_parsing(monkeypatch)
            loads.append(load_embedding_set(path))
        for emb in loads:
            assert emb.words == [w for w, _ in kept]
            spans = emb._text[2]
            assert (spans[:, 0] < spans[:, 1]).all() and (spans[1:, 0] >= spans[:-1, 1]).all()
            for (start, end), (_, (line, tokens)) in zip(spans.tolist(), kept):
                assert data[start:end] == line
                assert data[start:end].decode("utf-8").split() == tokens

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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad, error", [("x", "line 4: non-numeric"), ("nan", "line 4: non-finite")])
    def test_line_numbers_count_every_line_end(self, tmp_path, end, bad, error):
        path = tmp_path / "vectors.txt"
        path.write_bytes(f"\ufeffa 1 2{end}{end}b 3 4{end}c {bad} 6{end}".encode("utf-8"))
        with pytest.raises(ValueError, match=error):
            load_embedding_set(path)

    @pytest.mark.parametrize("text, error", [
        ("a\n", "line 1: expected a word and at least 1 values"),
        ("a 1 2\nb\n", "line 2: expected a word and 2 values"),
    ])
    def test_word_without_values_reports_line_number(self, tmp_path, text, error):
        path = write(tmp_path, text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
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
        for name in sidecars(path):  # measure a parse, not a hit on the save's sidecars
            (tmp_path / name).unlink()
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
        """A saved file without sidecars, so that its first load parses."""
        rng = np.random.default_rng(5)
        emb = EmbeddingSet("r", [f"w{i}" for i in range(300)], rng.normal(size=(300, 7)))
        save_embedding_set(emb, tmp_path / "vectors.txt")
        for name in sidecars(tmp_path / "vectors.txt"):
            (tmp_path / name).unlink()
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
        # 300 x 7 float64 values, the word list and the hex line of 300
        # int64 span pairs: 27 kB of sidecars
        size = (300 * 7 * 8 + len("300 0\n") + sum(len(f"w{i}\n") for i in range(300))
                + 300 * 2 * 8 * 2 + len("\n"))

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
        # only the sidecars the save wrote for its own bytes are left
        saved = [p.name for p in io._sidecars(path, io._digest(path))]
        assert sidecars(path) == sorted(sidecars(other) + saved)
        assert len(sidecars(other)) == 2

    def test_sidecars_of_an_earlier_version_are_not_read(self, tmp_path):
        # version 1 kept a leading byte-order mark in the first word
        path = write(tmp_path, "\ufeffthe 0.1 0.2\ncat 0.3 0.4\n")
        old = [p.with_name(p.name.replace(f"-v{io._CACHE_VERSION}.", "-v1."))
               for p in io._sidecars(path, io._digest(path))]
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
        # save refuses a first word that begins with U+FEFF by design; the
        # "\ufeffa" case of test_unreadable_word_refused_before_writing checks that
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                min_size=1, max_size=8,
            ),
            min_size=1, max_size=6, unique=True,
        ).filter(lambda words: not words[0].startswith("\ufeff")),
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

    @pytest.mark.parametrize("words, first", [
        (["2", "a", "b"], 1.0),
        (["3", "a", "b", "c"], 2.0),
        (["+2", "a", "b"], 7.0),
        (["\u0662", "a", "b"], 1.0),  # ARABIC-INDIC DIGIT TWO, which int() reads as 2
    ])
    def test_first_record_read_as_a_header_refused_before_writing(self, tmp_path, words, first):
        # "2 1" followed by two records would reload as a "<count> <dim>"
        # header, dropping the word "2" (or failing on the next line)
        matrix = np.full((len(words), 1), 0.5)
        matrix[0] = first
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(f"word {words[0]!r} would reload as the count")):
            save_embedding_set(EmbeddingSet("h", words, matrix), path)
        assert not path.exists()

    @pytest.mark.parametrize("words, matrix", [
        (["2", "a"], [[1.0], [0.5]]),  # count 2, but one record follows
        (["2", "a", "b"], [[1.5], [0.5], [0.25]]),  # "1.5" is no int
        (["2", "a", "b"], [[0.0], [0.5], [0.25]]),  # a header's dim is positive
        (["2", "a", "b"], [[1.0, 1.0], [0.5, 0.5], [0.25, 0.25]]),  # three tokens
    ])
    def test_first_record_that_is_no_header_saves(self, tmp_path, words, matrix):
        path = tmp_path / "out.txt"
        save_embedding_set(EmbeddingSet("h", words, matrix), path)
        for name in sidecars(path):
            (tmp_path / name).unlink()
        assert load_embedding_set(path).words == words

    def test_header_test_reads_the_copied_record(self, tmp_path):
        # copied, the record of "2" keeps its "1.0", which is no int;
        # formatted, it would read "2 1"
        source = load_embedding_set(write(tmp_path, "a 0.5\n2 1.0\n"))
        emb = EmbeddingSet("x", ["2", "a", "b"], [[1.0], [0.5], [0.25]])
        save_embedding_set(emb, tmp_path / "out.txt", source=source)
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "2 1.0\na 0.5\nb 0.25\n"
        assert load_embedding_set(tmp_path / "out.txt").words == emb.words
        with pytest.raises(ValueError, match="would reload as the count"):
            save_embedding_set(emb, tmp_path / "formatted.txt")

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


def percent_formatted(block):
    """The oracle: each row as one ``%`` string formats it."""
    row_format = " ".join(["%" + io.VALUE_FORMAT] * block.shape[1])
    return [(row_format % tuple(row)).encode("ascii") for row in block.tolist()]


def finite_bits(bits):
    value = np.uint64(bits).view(np.float64)
    return float(value) if np.isfinite(value) else 0.0


finite_values = st.one_of(
    st.integers(0, 2**64 - 1).map(finite_bits),  # any bit pattern
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e31, 1e31),
    # short decimals and values near a rounding tie, in every decade written
    st.builds(lambda m, k: m * 10.0 ** k, st.integers(-10**10, 10**10), st.integers(-24, 31)),
)


class TestFormatted:
    """The numpy formatter writes each value byte for byte as ``%`` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.lists(
        st.lists(finite_values, min_size=d, max_size=d), min_size=1, max_size=6)))
    def test_matches_percent_on_any_finite_matrix(self, rows):
        block = np.array(rows, dtype=np.float64)
        assert io._formatted(block) == percent_formatted(block)

    def test_matches_percent_on_adversarial_values(self):
        rng = np.random.default_rng(20)
        values = []
        for k in range(-15, 32):  # each power of ten and 1 ulp either side
            power = float(f"1e{k}")
            values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        for e in range(-14, 31):  # ties of the ninth digit, as near as a float gets
            values += list((rng.integers(10**8, 10**9, 50) + 0.5) * 10.0 ** (e - 8))
        values += [9.9999999995e-5, 999999999.5, 99999999.95, 0.0, -0.0, 5e-324,
                   2.2250738585072014e-308, 2.225073858507201e-308, 1e99, 1e-99, 1e100, 1e-100]
        values = np.array(values)
        block = np.concatenate([values, -values, [1.0] * (-2 * len(values) % 7)]).reshape(-1, 7)
        assert io._formatted(block) == percent_formatted(block)
        # three-digit exponents go through % a whole row at a time
        wide = rng.normal(size=(3, 4)) * 1e200
        assert io._formatted(wide) == percent_formatted(wide)

    def test_read_back_equals_the_parse_of_what_is_written(self):
        # 200k values over 49 decades, 9-digit ones among them: the kernel's
        # n * 10**(e - 8) must round as parsing its text does
        rng = np.random.default_rng(22)
        shape = (20_000, 10)
        block = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-16, 33, shape)
        block[::7] = np.round(block[::7] * 1e8) / 1e8
        back = np.full(shape, np.nan)
        rows = io._formatted(block, back)
        parsed = np.array([row.split() for row in rows]).astype(np.float64)
        assert np.array_equal(back.view(np.int64), parsed.view(np.int64))

    def test_rows_of_every_decade_and_an_empty_block(self):
        block = np.random.default_rng(21).normal(size=(9, 4)) * 10.0 ** np.arange(-6, 30, 4)[:, None]
        block[4, 2] = 999999999.5  # one row through %
        assert io._formatted(block) == percent_formatted(block)
        assert io._formatted(block[:0]) == []


class TestSaveSidecars:
    """A save without a source writes the sidecars a parse of its file would."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.lists(
        st.tuples(
            # no digit, so no first record reads as a "<count> <dim>" header
            st.text(alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs", "Nd")),
                    min_size=1, max_size=6).filter(lambda w: not w.startswith("\ufeff")),
            st.lists(finite_values, min_size=d, max_size=d),
        ),
        min_size=1, max_size=6, unique_by=lambda record: record[0])))
    @example([("caf\u00e9", [1e300, 0.5]), ("b", [999999999.5, -0.0])])  # rows that take %
    def test_sidecars_equal_a_parse_of_the_file(self, tmp_path_factory, records):
        emb = EmbeddingSet("s", [w for w, _ in records], [v for _, v in records])
        path = tmp_path_factory.mktemp("sidecars") / "v.txt"
        save_embedding_set(emb, path)
        saved = io._read_cache(*io._sidecars(path, io._digest(path)))
        words, matrix, spans, duplicates = io._parse(path)
        assert saved[0] == words == emb.words
        assert np.array_equal(saved[1].view(np.int64), matrix.view(np.int64))
        assert np.array_equal(saved[2], spans)
        assert saved[3] == duplicates == 0
        with pytest.MonkeyPatch.context() as m:
            m.setattr(io, "_parse", lambda p: pytest.fail(f"{p} was parsed"))
            warm = load_embedding_set(path)
        assert warm.words == words
        assert np.array_equal(warm.matrix.view(np.int64), matrix.view(np.int64))
        # a cold reload writes the same two files again
        written = [(p, p.read_bytes()) for p in sorted(path.parent.glob(".v.txt.*"))]
        for p, _ in written:
            p.unlink()
        load_embedding_set(path)
        assert [(p, p.read_bytes()) for p in sorted(path.parent.glob(".v.txt.*"))] == written
        assert len(written) == 2

    def test_peak_memory_is_well_below_the_matrix(self, tmp_path):
        # what the values read back as is appended to the .npy block by block
        rng = np.random.default_rng(2)
        emb = EmbeddingSet("mem", [f"w{i}" for i in range(20000)], rng.uniform(-1.0, 1.0, (20000, 100)))
        path = tmp_path / "mem.txt"
        tracemalloc.start()
        try:
            save_embedding_set(emb, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sidecars(path)) == 2
        assert peak < emb.matrix.nbytes / 2

    def test_unwritable_directory_still_saves(self, tmp_path, monkeypatch):
        # root ignores chmod, so the rename that would publish a sidecar fails instead
        def fail(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", fail)
        save_embedding_set(EmbeddingSet("s", ["a", "b"], [[0.5], [2.0]]), tmp_path / "v.txt")
        assert (tmp_path / "v.txt").read_bytes() == b"a 0.5\nb 2\n"
        assert sidecars(tmp_path / "v.txt") == []  # no temp file is left either

    def test_nearly_full_disk_gets_no_sidecars(self, tmp_path, monkeypatch):
        # at 500 bytes free the temp .npy is written, but not both sidecars
        emb = EmbeddingSet("s", ["a", "b"], [[0.5, 1.0], [2.0, 3.0]])
        for space, written in ((4 * emb.matrix.nbytes - 1, 0), (500, 0), (10 ** 6, 2)):
            monkeypatch.setattr(io.shutil, "disk_usage", lambda p: shutil._ntuple_diskusage(
                10 ** 12, 10 ** 12 - space, space))
            save_embedding_set(emb, tmp_path / "v.txt")
            assert (tmp_path / "v.txt").read_bytes() == b"a 0.5 1\nb 2 3\n"
            assert len(sidecars(tmp_path / "v.txt")) == written

    def test_saves_with_a_source_write_none(self, tmp_path):
        source = load_embedding_set(write(tmp_path, "a 0.500000 1\n"))
        save_embedding_set(EmbeddingSet("x", ["a", "b"], [[0.5, 1.0], [2.0, 3.0]]),
                           tmp_path / "out.txt", source=source)
        assert sidecars(tmp_path / "out.txt") == []


class TestSaveFromSource:
    """Rows equal to a loaded source's are copied from its file's text."""

    @staticmethod
    def extended(source):
        """``source`` plus one word it lacks, as an extended set."""
        matrix = np.vstack([source.matrix, np.full(source.dim, 9.0)])
        return EmbeddingSet("x", [*source.words, "zz"], matrix)

    @pytest.mark.parametrize("text, records", [
        # tabs, repeated and trailing spaces; the source's digits stay
        ("a\t0.500000  -1.25 \nb 0.100000\t\t2e-3\t \n", "a 0.500000 -1.25\nb 0.100000 2e-3\n"),
        ("a 0.5 1\r\nb 2 3\r\n", "a 0.5 1\nb 2 3\n"),
        ("a 0.5 1\rb 2 3\r", "a 0.5 1\nb 2 3\n"),
        ("a 0.5 1\rb 2 3", "a 0.5 1\nb 2 3\n"),
        ("2 2\n\na 0.5 1\n \n\n b 2 3\n", "a 0.5 1\nb 2 3\n"),
        ("\ufeff2 2\r\na 0.5 1\r\nb 2 3\r\n", "a 0.5 1\nb 2 3\n"),
        ("\ufeffa 0.5 1\nb 2 3\n", "a 0.5 1\nb 2 3\n"),
        ("a 0.5 1 \nb 2 3\na 7 7\n", "a 0.5 1\nb 2 3\n"),
        # every other character str.split() splits at, and a non-ASCII word
        ("a\x0b0.5 1\nb\x0c2 3\nc\x1c4 5\nd\x1d6 7\ne\x1e8 9\nf 1\x1f2\n",
         "a 0.5 1\nb 2 3\nc 4 5\nd 6 7\ne 8 9\nf 1 2\n"),
        ("caf\u00e9\u00a00.5\u30001\n\u2003b\u20292 3\x85\n", "caf\u00e9 0.5 1\nb 2 3\n"),
    ])
    def test_copied_records_are_single_spaced(self, tmp_path, monkeypatch, text, records):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        out = tmp_path / "out.txt"
        saved = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the duplicate's warning
            for load in ("cold", "warm"):
                source = load_embedding_set(path)
                save_embedding_set(self.extended(source), out, source=source)
                saved.append(out.read_bytes())
                refuse_parsing(monkeypatch)
        assert saved[0] == saved[1] == (records + "zz 9 9\n").encode("utf-8")
        monkeypatch.undo()
        back = load_embedding_set(out)
        assert back.words == [*source.words, "zz"]
        assert np.array_equal(back.matrix[:-1].view(np.int64), source.matrix.view(np.int64))

    @pytest.mark.parametrize("odd", [
        "w5\t5.50 -5e-3\n",  # a tab
        "w5 5.50 -5e-3\r\n",  # CRLF
        "w5  5.50 -5e-3\n",  # a doubled space
        " w5 5.50 -5e-3\n",  # a leading space
        "w5\t5.50  -5e-3\n",  # a tab and a doubled space: dim spaces all the same
        "w5 5.50 -5e-3\u3000\n",  # a trailing ideographic space after dim ASCII spaces
        "caf\u00e9 5.50 -5e-3\n",  # a non-ASCII word
    ])
    def test_each_block_of_copied_records_is_checked_as_a_whole(self, tmp_path, monkeypatch, odd):
        # four rows a block: the first and third blocks are single-spaced
        # ASCII, the second holds the odd line, and the source's last line
        # ends without LF
        monkeypatch.setattr(io, "_BLOCK_VALUES", 8)
        lines = [f"w{i} {i}.50 -{i}e-3\n" for i in range(11)] + ["w11 7 8"]
        lines[5] = odd
        path = tmp_path / "in.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        source = load_embedding_set(path)
        emb = EmbeddingSet("x", [*source.words[:6], "new", *source.words[6:]],
                           np.vstack([source.matrix[:6], [[0.25, -3.0]], source.matrix[6:]]))
        out = tmp_path / "out.txt"
        save_embedding_set(emb, out, source=source)
        # the oracle: every record's tokens joined by single spaces, one line at a time
        records = [" ".join(line.split()) + "\n" for line in lines]
        expected = "".join(records[:6]) + "new 0.25 -3\n" + "".join(records[6:])
        assert out.read_bytes() == expected.encode("utf-8")
        back = load_embedding_set(out)
        assert back.words == emb.words
        known = [i for i, w in enumerate(emb.words) if w != "new"]
        assert np.array_equal(back.matrix[known].view(np.int64), source.matrix.view(np.int64))

    @pytest.mark.parametrize("source_dim, dim", [(1, 3), (3, 1)])
    def test_source_of_another_dimension_refused_before_writing(self, tmp_path, source_dim, dim):
        # numpy broadcasting would let a row pass the bit-identity test and
        # copy a record with the source's value count
        source = load_embedding_set(write(tmp_path, "a" + " 0" * source_dim + "\n"))
        emb = EmbeddingSet("x", ["a"], np.zeros((1, dim)))
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=f"source has {source_dim} values per word, the set {dim}$"):
            save_embedding_set(emb, path, source=source)
        assert not path.exists()

    def test_changed_rows_are_formatted(self, tmp_path):
        source = load_embedding_set(write(tmp_path, "a 0.500000 1\nb 2.000000 3\n"))
        changed = EmbeddingSet("x", ["b", "a"], [[2.0, 3.0], [-0.0, 1.0]])
        save_embedding_set(changed, tmp_path / "out.txt", source=source)
        # -0.0 equals 0.0 but has other bits
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "b 2.000000 3\na -0 1\n"

    def test_source_edited_after_load_is_formatted(self, tmp_path):
        path = write(tmp_path, "a 0.500000 1\nb 2.000000 3\n")
        source = load_embedding_set(path)
        stat = path.stat()
        path.write_text("a 0.500000 1\nb 2.000000 4\n", encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        save_embedding_set(source, tmp_path / "out.txt", source=source)
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a 0.5 1\nb 2 3\n"

    def test_file_changed_while_parsed_is_not_copied_from(self, tmp_path, monkeypatch):
        # the spans are those of the parsed bytes, not of the bytes hashed first
        path = write(tmp_path, "a 1 2\nb 3 4\n")
        parse = io._parse

        def rewrite_then_parse(p):
            p.write_text("a 1.5 2\nb 3 4\n", encoding="utf-8")
            return parse(p)

        monkeypatch.setattr(io, "_parse", rewrite_then_parse)
        source = load_embedding_set(path)
        path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
        save_embedding_set(source, tmp_path / "out.txt", source=source)
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a 1.5 2\nb 3 4\n"

    def test_saving_over_the_source_formats(self, tmp_path):
        path = write(tmp_path, "a 0.500000 1\nb\t2.000000 3\n")
        source = load_embedding_set(path)
        save_embedding_set(self.extended(source), path, source=source)
        assert path.read_text(encoding="utf-8") == "a 0.5 1\nb 2 3\nzz 9 9\n"

    def test_source_deleted_after_load_is_formatted(self, tmp_path):
        path = write(tmp_path, "a 0.500000 1\nb 2.000000 3\n")
        source = load_embedding_set(path)
        path.unlink()
        save_embedding_set(self.extended(source), tmp_path / "out.txt", source=source)
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a 0.5 1\nb 2 3\nzz 9 9\n"

    def test_set_built_in_memory_is_formatted(self, tmp_path):
        source = EmbeddingSet("s", ["a"], [[0.5, 1.0]])
        save_embedding_set(self.extended(source), tmp_path / "out.txt", source=source)
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a 0.5 1\nzz 9 9\n"

    def test_peak_memory_is_well_below_the_output(self, tmp_path):
        # the source is read through a memory map and the output written
        # in blocks of rows: neither text is held whole
        rng = np.random.default_rng(3)
        matrix = rng.uniform(-1.0, 1.0, (6000, 100))
        path = tmp_path / "big.txt"
        path.write_text("".join(f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n"
                                for i, row in enumerate(matrix)), encoding="utf-8")
        source = load_embedding_set(path)
        emb = self.extended(source)
        source.index  # built once by align, before any save
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            save_embedding_set(emb, out, source=source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_bytes()[: path.stat().st_size] == path.read_bytes()
        assert peak < out.stat().st_size / 4


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

    def test_rejects_a_word_without_values(self):
        # saving such a set failed inside numpy; the loader never builds one
        with pytest.raises(ValueError, match=r"^matrix must hold at least 1 value per word, got shape \(2, 0\)$"):
            EmbeddingSet("x", ["a", "b"], np.zeros((2, 0)))

    def test_rejects_one_dimensional_matrix(self):
        with pytest.raises(ValueError, match=r"^matrix must be 2-dimensional, got shape \(2,\)$"):
            EmbeddingSet("x", ["a", "b"], [1.0, 2.0])

    def test_lookup(self):
        emb = EmbeddingSet("x", ["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(emb.row("b"), [0.0, 1.0])
