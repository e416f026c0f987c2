"""Word-similarity and word-analogy evaluation.

Similarity scoring computes Spearman rank correlation (average ranks for
ties) between human judgements and the dot products of L2-normalized
vectors, reported as rho * 100.  Analogy questions "a is to b as c is
to ?" are answered by the vocabulary word closest to b - a + c in
cosine, excluding a, b, and c, breaking exact ties by lexicographic
word order.  Items involving any missing word are skipped and counted
as OOV rather than scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import EmbeddingSet
from .linalg import normalize_rows

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"

_ANALOGY_CHUNK = 256  # questions scored per matrix product


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
    with open(path, encoding="utf-8") as f:
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
    with open(path, encoding="utf-8") as f:
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
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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
    either word missing are skipped and counted as OOV.
    """
    index = emb.index
    normed = normalize_rows(emb.matrix)
    model, gold = [], []
    oov = 0
    for w1, w2, score in dataset.pairs:
        if w1 not in index or w2 not in index:
            oov += 1
            continue
        model.append(float(np.dot(normed[index[w1]], normed[index[w2]])))
        gold.append(score)
    if len(model) < 2:
        raise ValueError(
            f"dataset {dataset.name!r}: only {len(model)} of {len(dataset.pairs)} "
            f"pairs covered; need at least 2"
        )
    rho = spearman(model, gold)
    return EvalResult(
        score=rho * 100.0, oov_count=oov, evaluated_count=len(model)
    )


def _best_excluding(
    scores: np.ndarray, words: list[str], exclude: tuple[int, ...]
) -> str:
    scores = scores.copy()
    scores[list(exclude)] = -np.inf
    best = scores.max()
    candidates = np.flatnonzero(scores == best)
    if len(candidates) == 1:
        return words[candidates[0]]
    return min(words[j] for j in candidates)


def answer_analogy(emb: EmbeddingSet, a: str, b: str, c: str) -> str:
    """Word of ``emb`` whose normalized vector is closest to b - a + c,
    never one of the three query words."""
    index = emb.index
    missing = [w for w in (a, b, c) if w not in index]
    if missing:
        raise ValueError(f"query words not in vocabulary: {missing}")
    normed = normalize_rows(emb.matrix)
    ia, ib, ic = index[a], index[b], index[c]
    query = normed[ib] - normed[ia] + normed[ic]
    return _best_excluding(normed @ query, emb.words, (ia, ib, ic))


def eval_analogy(emb: EmbeddingSet, dataset: AnalogyDataset) -> dict[str, EvalResult]:
    """Accuracy of ``emb`` per category plus the aggregate.

    A question counts as OOV (and is skipped) when any of its four
    words is missing.  Returns results keyed by "semantic",
    "syntactic", and "total".
    """
    index = emb.index
    normed = normalize_rows(emb.matrix)
    words = emb.words

    evaluable = []  # (ia, ib, ic, d word, category)
    counts = {SEMANTIC: [0, 0, 0], SYNTACTIC: [0, 0, 0]}  # correct, evaluated, oov
    for a, b, c, d, category in dataset.questions:
        if any(w not in index for w in (a, b, c, d)):
            counts[category][2] += 1
            continue
        evaluable.append((index[a], index[b], index[c], d, category))

    for start in range(0, len(evaluable), _ANALOGY_CHUNK):
        chunk = evaluable[start : start + _ANALOGY_CHUNK]
        queries = np.stack(
            [normed[ib] - normed[ia] + normed[ic] for ia, ib, ic, _, _ in chunk]
        )
        scores = queries @ normed.T
        for row, (ia, ib, ic, d, category) in zip(scores, chunk):
            answer = _best_excluding(row, words, (ia, ib, ic))
            counts[category][1] += 1
            if answer == d:
                counts[category][0] += 1

    def result(correct: int, evaluated: int, oov: int) -> EvalResult:
        score = 100.0 * correct / evaluated if evaluated else 0.0
        return EvalResult(score=score, oov_count=oov, evaluated_count=evaluated)

    sem, syn = counts[SEMANTIC], counts[SYNTACTIC]
    return {
        SEMANTIC: result(*sem),
        SYNTACTIC: result(*syn),
        "total": result(sem[0] + syn[0], sem[1] + syn[1], sem[2] + syn[2]),
    }
