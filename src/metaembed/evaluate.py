"""Word-similarity and word-analogy evaluation.

Similarity scoring computes Spearman rank correlation (average ranks for
ties) between human judgements and the dot products of L2-normalized
vectors, reported as rho * 100.  Analogy questions "a is to b as c is
to ?" are answered by the vocabulary word closest to b - a + c in
cosine, excluding a, b, and c, breaking exact ties by lexicographic
word order; a question that leaves no other word raises ``ValueError``.
The answer comes from a few certified candidates (after the threshold
algorithm of Fagin, Lotem and Naor, 2003), or else from an exhaustive
scan.  Items involving any missing word are skipped and counted as OOV
rather than scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .io import EmbeddingSet, _non_finite_rows
from .linalg import normalize_rows

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"

# Floats in one block of scores (32 MB), and the scan's questions per product.
_BLOCK_FLOATS = 2**22
_ANALOGY_CHUNK = 256
# Candidates per score row, the certifying lead per unit of d + 4, the most
# score rows per question of a block worth certifying (0.70 was measured to
# be no faster than the scan), and the values an inner loop of _certified
# holds (peak RSS 88 MB against 122 MB unsliced, at 2,522 words).
_TOP_K = 32
_MARGIN = 16 * 2.0**-53
_ROWS_PER_QUESTION = 0.5
_SLICE_FLOATS = 2**16


@dataclass(frozen=True)
class SimilarityDataset:
    name: str
    pairs: list[tuple[str, str, float]]


@dataclass(frozen=True)
class AnalogyDataset:
    """Four-word questions tagged semantic or syntactic."""

    questions: list[tuple[str, str, str, str, str]]

    def count(self, category: str) -> int:
        return sum(1 for q in self.questions if q[4] == category)


@dataclass(frozen=True)
class EvalResult:
    score: float
    oov_count: int
    evaluated_count: int


def load_similarity_dataset(path, name: str | None = None) -> SimilarityDataset:
    """Read "word1 word2 score" lines."""
    path = Path(path)
    pairs = []
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'word1 word2 score'"
                )
            try:
                score = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric score") from None
            if not np.isfinite(score):
                raise ValueError(f"{path}: line {lineno}: non-finite score")
            pairs.append((parts[0], parts[1], score))
    if not pairs:
        raise ValueError(f"{path}: no word pairs found")
    return SimilarityDataset(name=name or path.stem, pairs=pairs)


def load_analogy_dataset(path) -> AnalogyDataset:
    """Read the sectioned four-words-per-line analogy format.

    Section headers are lines starting with ":"; sections whose name
    starts with "gram" are syntactic, all others semantic.
    """
    path = Path(path)
    questions = []
    category = None
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(":"):
                section = line[1:].strip()
                category = SYNTACTIC if section.startswith("gram") else SEMANTIC
                continue
            if category is None:
                raise ValueError(
                    f"{path}: line {lineno}: question before any ': section' header"
                )
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 words")
            questions.append((*parts, category))
    if not questions:
        raise ValueError(f"{path}: no analogy questions found")
    return AnalogyDataset(questions=questions)


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    s = np.sort(values)
    return (np.searchsorted(s, values, "left") + np.searchsorted(s, values, "right") + 1) / 2


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"need two equal-length lists, got {xs.shape} and {ys.shape}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 observations, got {len(xs)}")
    rx, ry = _ranks(xs), _ranks(ys)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise ValueError("zero variance in ranks")
    rho = float(np.corrcoef(rx, ry)[0, 1])
    return min(1.0, max(-1.0, rho))


def eval_similarity(emb: EmbeddingSet, dataset: SimilarityDataset) -> EvalResult:
    """Score ``emb`` against a similarity dataset.

    Words are looked up through the set's cached ``index``.  Pairs with
    either word missing are skipped and counted as OOV.  Only the
    covered pairs' rows are gathered and normalized.
    """
    index = emb.index
    rows, gold = [], []
    oov = 0
    for w1, w2, score in dataset.pairs:
        if w1 not in index or w2 not in index:
            oov += 1
            continue
        rows += [index[w1], index[w2]]
        gold.append(score)
    if len(gold) < 2:
        raise ValueError(
            f"dataset {dataset.name!r}: only {len(gold)} of {len(dataset.pairs)} "
            f"pairs covered; need at least 2"
        )
    normed = normalize_rows(emb.matrix[rows])
    model = [float(np.dot(u, v)) for u, v in zip(normed[0::2], normed[1::2])]
    rho = spearman(model, gold)
    return EvalResult(
        score=rho * 100.0, oov_count=oov, evaluated_count=len(model)
    )


def _answers(emb: EmbeddingSet, abc: np.ndarray) -> np.ndarray:
    """Row of the answer to each (a, b, c) row of ``abc``.

    Rows are scored in lexicographic word order, so the first maximum
    is the first word in that order among exact ties.  Raises
    ``ValueError`` when a question leaves no word outside a, b and c.
    Only the questions that ``_certified`` leaves open are scanned.
    """
    order = np.array(sorted(range(len(emb)), key=emb.words.__getitem__), dtype=np.int64)
    normed = normalize_rows(emb.matrix[order])
    abc = np.argsort(order)[abc]
    answers = _certified(normed, abc)
    todo = np.flatnonzero(answers < 0)
    size = max(1, min(_ANALOGY_CHUNK, _BLOCK_FLOATS // len(emb)))
    for start in range(0, len(todo), size):
        chunk = abc[todo[start : start + size]]
        ia, ib, ic = chunk.T
        scores = (normed[ib] - normed[ia] + normed[ic]) @ normed.T
        rows = np.arange(len(chunk))
        scores[rows[:, None], chunk] = -np.inf
        best = scores.argmax(axis=1)
        stuck = np.flatnonzero(scores[rows, best] == -np.inf)
        del scores  # freed before the next block is allocated
        if stuck.size:
            query = [emb.words[order[i]] for i in chunk[stuck[0]]]
            raise ValueError(f"no candidate word outside the query words {query}")
        answers[todo[start : start + len(chunk)]] = best
    return order[answers]


def _certified(normed: np.ndarray, abc: np.ndarray) -> np.ndarray:
    """The scan's answer to each (a, b, c) row of ``abc`` that a few
    candidates prove, else -1.

    A block's one product scores its distinct offsets t = b - a (rounded as
    the scan rounds them) and c rows against each row v: D = t.v with a and
    b masked (-inf), C = c.v with c masked.  The candidates are the top
    ``_TOP_K`` columns of both rows, scored E = D + C; any other word has E
    <= D' + C', the largest values outside them.  For unit rows, |t| <= 2,
    and a d-term dot product rounds within gamma = d u / (1 - d u) of its
    terms' summed magnitudes (u = 2**-53), so E is within 3 gamma + 3u of
    (t + c).v, the scan's fl(fl(t + c).v) within 3 gamma (1 + u) + 3u, and
    the two within eps ~ (6d + 6) u.  A pick leading the other candidates
    and D' + C' by more than 2 eps plus the comparison's own rounding, 4u,
    has the strictly largest scan score: ``_MARGIN * (d + 4)`` = (16d + 64) u
    > (12d + 16) u, with room for norms off 1 by a few d u.  The rest, and
    all of a set of non-finite rows or at most 2 ``_TOP_K`` + 3 words, go
    to the scan.  Questions go in offset order; a block needs a row per
    offset and at most one per question or c word, within ``_BLOCK_FLOATS``.
    A block pays only when its questions share those rows, which a large
    vocabulary's few rows per block prevent: one with more than
    ``_ROWS_PER_QUESTION`` rows per question is left to the scan.
    """
    n, d = normed.shape
    answers = np.full(len(abc), -1, dtype=np.int64)
    if n <= 2 * _TOP_K + 3 or _non_finite_rows(normed).size:
        return answers
    pairs, offset = np.unique(abc[:, 0] * n + abc[:, 1], return_inverse=True)
    by_offset = np.argsort(offset, kind="stable")
    sorted_offset = offset[by_offset]
    # growing[hi - 1] - growing[lo] + 2: the offset rows plus questions of [lo, hi)
    growing = sorted_offset + np.arange(len(abc))
    budget, c_words = max(2, _BLOCK_FLOATS // n), np.count_nonzero(np.bincount(abc[:, 2]))
    kth, cut, step = n - _TOP_K - 1, max(1, _SLICE_FLOATS // n), _SLICE_FLOATS // (2 * _TOP_K)
    hi = 0
    while hi < len(abc):
        lo = hi
        hi = max(lo + 1, np.searchsorted(growing, growing[lo] + budget - 2, "right"),
                 np.searchsorted(sorted_offset, sorted_offset[lo] + budget - 1 - c_words, "right"))
        block, first = by_offset[lo:hi], sorted_offset[lo]
        ab = pairs[first : sorted_offset[hi - 1] + 1]
        c_rows, c_row = np.unique(abc[block, 2], return_inverse=True)
        if len(ab) + len(c_rows) > _ROWS_PER_QUESTION * len(block):
            continue
        scores = np.concatenate([normed[ab % n] - normed[ab // n], normed[c_rows]]) @ normed.T
        d_rows, c_rows_at = np.arange(len(ab)), len(ab) + np.arange(len(c_rows))
        scores[np.r_[d_rows, d_rows, c_rows_at], np.r_[ab // n, ab % n, c_rows]] = -np.inf
        # per row: the column of the largest value outside the top k, then the top k
        top = np.empty((len(scores), _TOP_K + 1), dtype=np.int64)
        for s in range(0, len(scores), cut):
            top[s : s + cut] = np.argpartition(scores[s : s + cut], kth, axis=1)[:, kth:]
        outside, top = scores[np.arange(len(scores)), top[:, 0]], np.ascontiguousarray(top[:, 1:])
        pairs_of_rows = np.stack([offset[block] - first, c_row + len(ab)], axis=1)  # D row, C row
        for s in range(0, len(block), step):
            rows = pairs_of_rows[s : s + step]
            candidates = top[rows].reshape(len(rows), -1)
            e = np.take(scores, rows[:, :1] * n + candidates) + np.take(scores, rows[:, 1:] * n + candidates)
            best = e.argmax(axis=1)
            pick = np.take_along_axis(candidates, best[:, None], axis=1)[:, 0]
            lead = e[np.arange(len(e)), best] - _MARGIN * (d + 4)
            e[candidates == pick[:, None]] = -np.inf  # every copy of the pick
            sure = (lead > e.max(axis=1)) & (lead > outside[rows].sum(axis=1))
            answers[block[s : s + step][sure]] = pick[sure]
        del scores  # freed before the next block is allocated
    return answers


def answer_analogy(emb: EmbeddingSet, a: str, b: str, c: str) -> str:
    """Word of ``emb`` whose normalized vector is closest to b - a + c,
    never one of the three query words."""
    index = emb.index
    missing = [w for w in (a, b, c) if w not in index]
    if missing:
        raise ValueError(f"query words not in vocabulary: {missing}")
    return emb.words[_answers(emb, np.array([[index[a], index[b], index[c]]]))[0]]


def eval_analogy(emb: EmbeddingSet, dataset: AnalogyDataset) -> dict[str, EvalResult]:
    """Accuracy of ``emb`` per category plus the aggregate.

    A question counts as OOV (and is skipped) when any of its four
    words is missing.  Returns results keyed by "semantic",
    "syntactic", and "total".
    """
    count = len(dataset.questions)
    # the fifth entry of each row looks the category up and is dropped
    quads = np.fromiter(map(emb.index.get, chain.from_iterable(dataset.questions), repeat(-1)),
                        np.int64, 5 * count).reshape(count, 5)[:, :4]
    syntactic = np.fromiter((q[4] == SYNTACTIC for q in dataset.questions), bool, count)
    known = quads.min(axis=1) >= 0
    hits = np.zeros(count, dtype=bool)
    hits[known] = _answers(emb, quads[known, :3]) == quads[known, 3]

    def result(chosen: np.ndarray) -> EvalResult:
        evaluated = int(np.count_nonzero(chosen & known))
        score = 100.0 * int(np.count_nonzero(chosen & hits)) / evaluated if evaluated else 0.0
        oov_count = int(np.count_nonzero(chosen)) - evaluated
        return EvalResult(score=score, oov_count=oov_count, evaluated_count=evaluated)

    everything = np.ones(count, dtype=bool)
    return {SEMANTIC: result(~syntactic), SYNTACTIC: result(syntactic), "total": result(everything)}

