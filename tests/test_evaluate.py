import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaembed import evaluate
from metaembed.evaluate import (
    SEMANTIC,
    SYNTACTIC,
    AnalogyDataset,
    SimilarityDataset,
    answer_analogy,
    eval_analogy,
    eval_similarity,
    load_analogy_dataset,
    load_similarity_dataset,
    spearman,
)
from metaembed.io import EmbeddingSet
from metaembed.linalg import normalize_rows


def naive_spearman(xs, ys):
    """Independent oracle: O(n^2) average ranks plus the explicit
    Pearson formula."""
    def ranks(values):
        out = []
        for v in values:
            less = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out.append(less + (equal + 1) / 2.0)
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    return num / den


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_orderings(self):
        assert spearman([1, 2, 3], [5, 4, 3]) == -1.0

    def test_rank_formula_worked_example(self):
        # d^2 sums to 6, so rho = 1 - 6*6/(5*24) = 0.7
        assert spearman([1, 2, 3, 4, 5], [2, 3, 1, 4, 5]) == pytest.approx(0.7)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"^need two equal-length lists, got \(2,\) and \(3,\)$"):
            spearman([1, 2], [1, 2, 3])

    def test_matches_naive_oracle_with_ties(self):
        xs = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0]
        ys = [2.0, 1.0, 1.0, 5.0, 4.0, 4.0, 6.0]
        assert spearman(xs, ys) == pytest.approx(naive_spearman(xs, ys), abs=1e-12)

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 10, size=n).astype(float)
            ys = rng.normal(size=n)
            assert spearman(xs, ys) == pytest.approx(naive_spearman(xs, ys), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=3, max_size=20, unique=True),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_invariant_under_increasing_transform(self, xs, seed):
        xs = [float(x) for x in xs]
        ys = np.random.default_rng(seed).normal(size=len(xs)).tolist()
        if len(set(ys)) < 2:
            return
        base = spearman(xs, ys)
        transformed = [np.exp(0.1 * x) + 3.0 for x in xs]
        assert spearman(transformed, ys) == pytest.approx(base, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            spearman([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestEvalSimilarity:
    def toy_collection(self):
        return EmbeddingSet(
            "toy",
            ["cat", "dog", "car", "bus"],
            [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]],
        )

    def test_perfect_rank_agreement_scores_100(self):
        emb = self.toy_collection()
        ds = SimilarityDataset(
            "tiny",
            [("cat", "dog", 9.0), ("cat", "car", 1.0), ("dog", "bus", 4.0)],
        )
        result = eval_similarity(emb, ds)
        assert result.score == pytest.approx(100.0)
        assert result.oov_count == 0
        assert result.evaluated_count == 3

    def test_oov_pairs_skipped_and_counted(self):
        emb = self.toy_collection()
        ds = SimilarityDataset(
            "tiny",
            [
                ("cat", "dog", 9.0),
                ("cat", "unicorn", 5.0),
                ("dog", "bus", 4.0),
                ("griffin", "unicorn", 8.0),
            ],
        )
        result = eval_similarity(emb, ds)
        assert result.oov_count == 2
        assert result.evaluated_count == 2
        assert result.oov_count + result.evaluated_count == len(ds.pairs)

    def test_no_coverage_is_an_error(self):
        emb = self.toy_collection()
        ds = SimilarityDataset("none", [("x", "y", 1.0), ("p", "q", 2.0)])
        with pytest.raises(ValueError, match="0 of 2 pairs"):
            eval_similarity(emb, ds)

    def test_matches_independent_rank_correlation_oracle(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(20)]
        emb = EmbeddingSet("rand", words, rng.normal(size=(20, 6)))
        pairs = []
        for _ in range(40):
            i, j = rng.integers(0, 20, size=2)
            pairs.append((words[i], words[j], float(rng.uniform(0, 10))))
        ds = SimilarityDataset("rand", pairs)
        result = eval_similarity(emb, ds)

        normed = normalize_rows(emb.matrix)
        index = {w: k for k, w in enumerate(words)}
        model = [float(np.dot(normed[index[a]], normed[index[b]])) for a, b, _ in pairs]
        gold = [s for _, _, s in pairs]
        assert result.score == pytest.approx(naive_spearman(model, gold) * 100, abs=1e-9)

    def test_invariant_to_rescaling(self):
        emb = self.toy_collection()
        scaled = EmbeddingSet("toy", emb.words, emb.matrix * 37.5)
        ds = SimilarityDataset(
            "tiny", [("cat", "dog", 9.0), ("cat", "car", 1.0), ("dog", "bus", 4.0)]
        )
        assert eval_similarity(emb, ds).score == eval_similarity(scaled, ds).score

    def test_memory_scales_with_the_pairs_not_the_set(self):
        # 50k x 100 is 40 MB; normalizing every row would copy all of it
        rng = np.random.default_rng(2)
        words = [f"w{i:05d}" for i in range(50_000)]
        emb = EmbeddingSet("large", words, rng.normal(size=(50_000, 100)))
        pairs = [(words[i], words[j], float(k)) for k, (i, j) in
                 enumerate(rng.integers(0, 50_000, size=(20, 2)))]
        emb.index  # noqa: B018 -- build the cached word table before measuring
        tracemalloc.start()
        try:
            result = eval_similarity(emb, SimilarityDataset("few", pairs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.evaluated_count == 20
        assert peak < emb.matrix.nbytes / 100


def analogy_answer_oracle(emb, a, b, c):
    """Exhaustive scan over the vocabulary with explicit cosines."""
    normed = normalize_rows(emb.matrix)
    index = {w: i for i, w in enumerate(emb.words)}
    query = normed[index[b]] - normed[index[a]] + normed[index[c]]
    qnorm = np.linalg.norm(query)
    best_word, best_score = None, -np.inf
    for w in emb.words:
        if w in (a, b, c):
            continue
        score = float(np.dot(normed[index[w]], query) / qnorm) if qnorm else 0.0
        if score > best_score or (score == best_score and w < best_word):
            best_word, best_score = w, score
    return best_word


class TestAnswerAnalogy:
    def offset_collection(self):
        # queen placed exactly at king - man + woman (on unit vectors)
        man = np.array([1.0, 0.0])
        king = np.array([0.0, 1.0])
        woman = np.array([0.6, 0.8])
        queen = king - man + woman
        queen /= np.linalg.norm(queen)
        return EmbeddingSet(
            "royal",
            ["man", "king", "woman", "queen", "apple", "chair"],
            np.stack([man, king, woman, queen, [-1.0, 0.0], [0.0, -1.0]]),
        )

    def test_exact_offset_fixture(self):
        emb = self.offset_collection()
        assert answer_analogy(emb, "man", "king", "woman") == "queen"

    def test_never_returns_query_words(self):
        emb = self.offset_collection()
        for _ in range(3):
            answer = answer_analogy(emb, "man", "king", "king")
            assert answer not in {"man", "king"}

    def test_oov_query_word_rejected(self):
        emb = self.offset_collection()
        with pytest.raises(ValueError, match="dragon"):
            answer_analogy(emb, "man", "dragon", "woman")

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(2)
        words = [f"w{i:02d}" for i in range(50)]
        emb = EmbeddingSet("rand", words, rng.normal(size=(50, 8)))
        for _ in range(100):
            a, b, c = rng.choice(words, size=3, replace=False)
            answer = answer_analogy(emb, a, b, c)
            assert answer == analogy_answer_oracle(emb, a, b, c)
            assert answer not in {a, b, c}

    def test_average_filled_degenerate_ties(self):
        # words that share one vector tie exactly at cosine 1, so the
        # lexicographically first non-query word wins, whatever the row order
        shared = [0.5, 0.5]
        emb = EmbeddingSet(
            "filled",
            ["real2", "qq", "pp", "real1", "oo", "nn", "mm"],
            [[0.0, 1.0], shared, shared, [1.0, 0.0], shared, shared, shared],
        )
        expected = [("nn", "oo", "pp", "mm"), ("mm", "nn", "oo", "pp"),
                    ("qq", "mm", "nn", "oo"), ("mm", "oo", "nn", "pp")]
        for a, b, c, d in expected:
            assert answer_analogy(emb, a, b, c) == d
        results = eval_analogy(emb, AnalogyDataset([(*q, SEMANTIC) for q in expected]))
        assert results[SEMANTIC].score == 100.0
        assert results[SEMANTIC].evaluated_count == len(expected)

    def test_no_candidate_word_is_an_error(self):
        emb = EmbeddingSet("tiny", ["b", "a", "c"], np.eye(3))
        with pytest.raises(ValueError, match="no candidate word"):
            answer_analogy(emb, "a", "b", "c")
        with pytest.raises(ValueError, match="no candidate word"):
            eval_analogy(emb, AnalogyDataset([("a", "b", "c", "a", SEMANTIC)]))


class TestEvalAnalogy:
    def offset_dataset(self):
        return AnalogyDataset([
            ("man", "king", "woman", "queen", SEMANTIC),
            ("king", "man", "queen", "woman", SEMANTIC),
            ("man", "king", "woman", "queen", SYNTACTIC),
        ])

    def test_exact_offsets_score_100(self):
        emb = TestAnswerAnalogy().offset_collection()
        results = eval_analogy(emb, self.offset_dataset())
        assert results[SEMANTIC].score == 100.0
        assert results[SYNTACTIC].score == 100.0
        assert results["total"].score == 100.0
        assert results["total"].evaluated_count == 3

    def test_missing_answer_word_counts_oov(self):
        emb = TestAnswerAnalogy().offset_collection()
        ds = AnalogyDataset([
            ("man", "king", "woman", "empress", SEMANTIC),
            ("man", "king", "woman", "tsarina", SYNTACTIC),
        ])
        results = eval_analogy(emb, ds)
        assert results["total"].evaluated_count == 0
        assert results["total"].oov_count == 2
        assert results["total"].score == 0.0

    def test_counts_partition_dataset(self):
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(30)]
        emb = EmbeddingSet("rand", words, rng.normal(size=(30, 5)))
        questions = []
        for k in range(40):
            picks = list(rng.choice(words + ["zzz_missing"], size=4, replace=False))
            category = SEMANTIC if k % 2 else SYNTACTIC
            questions.append((*picks, category))
        ds = AnalogyDataset(questions)
        results = eval_analogy(emb, ds)
        for category in (SEMANTIC, SYNTACTIC):
            total = results[category].evaluated_count + results[category].oov_count
            assert total == ds.count(category)
        assert (
            results["total"].evaluated_count + results["total"].oov_count
            == len(questions)
        )

    def test_agrees_with_answer_analogy(self):
        rng = np.random.default_rng(4)
        words = [f"w{i:02d}" for i in range(25)]
        emb = EmbeddingSet("rand", words, rng.normal(size=(25, 4)))
        questions = []
        for _ in range(30):
            a, b, c = rng.choice(words, size=3, replace=False)
            d = answer_analogy(emb, a, b, c)
            questions.append((a, b, c, d, SEMANTIC))
        results = eval_analogy(emb, AnalogyDataset(questions))
        assert results[SEMANTIC].score == 100.0

    def test_score_block_shrinks_with_the_vocabulary(self):
        # 300 questions against 100k words: one 256-question block of
        # scores alone would take 205 MB
        rng = np.random.default_rng(5)
        n, n_questions = 100_000, 300
        matrix = rng.normal(size=(n, 8))
        abc = rng.choice(n - n_questions, size=(n_questions, 3))
        normed = normalize_rows(matrix)
        answers = np.arange(n - n_questions, n)
        matrix[answers] = normed[abc[:, 1]] - normed[abc[:, 0]] + normed[abc[:, 2]]
        words = [f"w{i:06d}" for i in range(n)]
        emb = EmbeddingSet("large", words, matrix)
        questions = [(*(words[i] for i in q), words[d], SEMANTIC) for q, d in zip(abc, answers)]
        emb.index  # noqa: B018 -- build the cached word table before measuring
        tracemalloc.start()
        try:
            results = eval_analogy(emb, AnalogyDataset(questions))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results[SEMANTIC].score == 100.0
        assert peak < 64e6


def scanned(monkeypatch, emb, abc):
    """The kept exhaustive scan's answers: no question is certified."""
    with monkeypatch.context() as m:
        m.setattr(evaluate, "_certified", lambda normed, abc: np.full(len(abc), -1))
        return evaluate._answers(emb, abc)


def count_certified(monkeypatch, every_block=True):
    """From now on, each call of ``_certified`` appends how many answers it
    proved; with ``every_block``, it also tries blocks that share no rows."""
    counts, certified = [], evaluate._certified
    if every_block:
        monkeypatch.setattr(evaluate, "_ROWS_PER_QUESTION", np.inf)

    def counted(normed, abc):
        answers = certified(normed, abc)
        counts.append(int(np.count_nonzero(answers >= 0)))
        return answers

    monkeypatch.setattr(evaluate, "_certified", counted)
    return counts


def relation_set(rng, n, dim, pairs):
    """A set of ``n`` shuffled words whose first ``2 * pairs`` rows are
    ``pairs`` (x, x + r + noise) pairs sharing one relation r, and every
    benchmark-shaped question over them: each offset pair with each other
    pair's first word."""
    matrix = rng.normal(size=(n, dim))
    relation = rng.normal(size=dim)
    matrix[1 : 2 * pairs : 2] = matrix[0 : 2 * pairs : 2] + relation + 0.3 * rng.normal(size=(pairs, dim))
    words = [f"w{i:04d}" for i in rng.permutation(n)]
    abc = np.array([[2 * i, 2 * i + 1, 2 * j] for i in range(pairs) for j in range(pairs) if i != j])
    return EmbeddingSet("relations", words, matrix), abc


class TestCertifiedAnswers:
    """Answers proved from a few candidates equal the exhaustive scan's."""

    @pytest.mark.parametrize("n, dim, seed", [(300, 2, 1), (300, 8, 2), (400, 50, 3), (2000, 16, 4)])
    def test_random_sets_match_the_scan(self, monkeypatch, n, dim, seed):
        rng = np.random.default_rng(seed)
        emb = EmbeddingSet("rand", [f"w{i}" for i in rng.permutation(n)], rng.normal(size=(n, dim)))
        abc = np.array([rng.choice(n, size=3, replace=False) for _ in range(600)])
        counts = count_certified(monkeypatch)
        answers = evaluate._answers(emb, abc)
        assert np.array_equal(answers, scanned(monkeypatch, emb, abc))
        assert counts[0] > 0
        assert not (answers[:, None] == abc).any()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_tie_heavy_sets_match_the_scan(self, monkeypatch, seed):
        # 300 words share 6 vectors, some exactly and some one ulp apart,
        # and are stored out of lexicographic order
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(6, 4))[rng.integers(0, 6, 300)]
        nudged = rng.random(matrix.shape) < 0.1
        matrix[nudged] = np.nextafter(matrix[nudged], np.inf)
        emb = EmbeddingSet("ties", [f"w{i:03d}" for i in rng.permutation(300)], matrix)
        abc = np.array([rng.choice(300, size=3, replace=False) for _ in range(500)])
        abc[:50, 2] = abc[:50, 1]  # questions whose c is b
        counts = count_certified(monkeypatch)
        assert np.array_equal(evaluate._answers(emb, abc), scanned(monkeypatch, emb, abc))
        assert counts[0] < len(abc)

    @pytest.mark.parametrize("block_floats, every_block", [
        (evaluate._BLOCK_FLOATS, False), (60 * 800, False), (5 * 800, True), (5 * 800, False)])
    def test_benchmark_shaped_questions_match_the_scan(self, monkeypatch, block_floats, every_block):
        # 40 pairs, 1,560 questions: 40 offsets and 40 c words, in blocks of
        # 1 to every distinct score row; a block of 5 rows holds one offset
        # and a c row per question, more rows than questions, so it goes to
        # the scan unless every block is tried
        emb, abc = relation_set(np.random.default_rng(7), 800, 20, 40)
        monkeypatch.setattr(evaluate, "_BLOCK_FLOATS", block_floats)
        counts = count_certified(monkeypatch, every_block)
        answers = evaluate._answers(emb, abc)
        if block_floats == 5 * 800 and not every_block:
            assert counts == [0]
        else:
            assert counts[0] > len(abc) // 2
        assert np.array_equal(answers, scanned(monkeypatch, emb, abc))
        questions = [(*(emb.words[i] for i in q), emb.words[q[2] + 1], SEMANTIC) for q in abc]
        scored = eval_analogy(emb, AnalogyDataset(questions))
        monkeypatch.setattr(evaluate, "_certified", lambda normed, abc: np.full(len(abc), -1))
        assert scored == eval_analogy(emb, AnalogyDataset(questions))

    def test_forced_fallback_matches_the_scan(self, monkeypatch):
        # with 2 candidates a row, many bounds do not clear
        emb, abc = relation_set(np.random.default_rng(8), 500, 12, 30)
        monkeypatch.setattr(evaluate, "_TOP_K", 2)
        counts = count_certified(monkeypatch)
        assert np.array_equal(evaluate._answers(emb, abc), scanned(monkeypatch, emb, abc))
        assert 0 < counts[0] < len(abc)

    @pytest.mark.parametrize("extra, certified", [(0, False), (1, True)])
    def test_small_vocabularies_take_the_scan(self, monkeypatch, extra, certified):
        n = 2 * evaluate._TOP_K + 3 + extra
        rng = np.random.default_rng(9)
        emb = EmbeddingSet("small", [f"w{i:02d}" for i in rng.permutation(n)], rng.normal(size=(n, 3)))
        abc = np.array([rng.choice(n, size=3, replace=False) for _ in range(200)])
        counts = count_certified(monkeypatch)
        assert np.array_equal(evaluate._answers(emb, abc), scanned(monkeypatch, emb, abc))
        assert (counts[0] > 0) == certified


class TestLoaders:
    def test_similarity_loader(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("cat dog 8.5\ncar bus 6.0\n\n", encoding="utf-8")
        ds = load_similarity_dataset(path)
        assert ds.name == "sim"
        assert ds.pairs == [("cat", "dog", 8.5), ("car", "bus", 6.0)]

    def test_loaders_skip_a_byte_order_mark(self, tmp_path):
        sim, questions = tmp_path / "sim.txt", tmp_path / "questions.txt"
        sim.write_text("\ufeffcat dog 8.5\n", encoding="utf-8")
        questions.write_text("\ufeff: family\nboy girl brother sister\n", encoding="utf-8")
        assert load_similarity_dataset(sim).pairs == [("cat", "dog", 8.5)]
        assert load_analogy_dataset(questions).questions == [
            ("boy", "girl", "brother", "sister", SEMANTIC)
        ]

    def test_similarity_loader_bad_line(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("cat dog 8.5\ncar 6.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_similarity_dataset(path)

    def test_similarity_loader_bad_score(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("cat dog high\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_similarity_dataset(path)

    def test_analogy_loader_sections_and_categories(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text(
            ": capital-common-countries\n"
            "athens greece baghdad iraq\n"
            "\n  \n"  # blank lines are skipped
            "athens greece bangkok thailand\n"
            ": family\n"
            "boy girl brother sister\n"
            ": gram1-adjective-to-adverb\n"
            "amazing amazingly apparent apparently\n"
            "calm calmly cheerful cheerfully\n"
            ": gram2-opposite\n"
            "acceptable unacceptable aware unaware\n",
            encoding="utf-8",
        )
        ds = load_analogy_dataset(path)
        assert ds.count(SEMANTIC) == 3
        assert ds.count(SYNTACTIC) == 3
        assert ds.questions[0] == ("athens", "greece", "baghdad", "iraq", SEMANTIC)
        assert ds.questions[3][4] == SYNTACTIC

    @pytest.mark.parametrize("load, text, error", [
        (load_similarity_dataset, "cat dog 8.5\ncar bus nan\n", "line 2: non-finite score"),
        (load_similarity_dataset, "\n \n", "no word pairs found"),
        (load_analogy_dataset, ": family\n\n: gram1-adjective-to-adverb\n", "no analogy questions found"),
    ])
    def test_loader_refuses_a_file_it_cannot_score(self, tmp_path, load, text, error):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load(path)

    def test_analogy_loader_requires_section_header(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text("athens greece baghdad iraq\n", encoding="utf-8")
        with pytest.raises(ValueError, match="before any"):
            load_analogy_dataset(path)

    def test_analogy_loader_bad_line(self, tmp_path):
        path = tmp_path / "questions.txt"
        path.write_text(": family\nboy girl brother\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_analogy_dataset(path)
