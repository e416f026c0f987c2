"""Word-similarity and word-analogy evaluation.

Similarity scoring computes Spearman rank correlation (average ranks for
ties) between human judgements and the dot products of L2-normalized
vectors, reported as rho * 100.  Analogy questions "a is to b as c is
to ?" are answered by the vocabulary word closest to b - a + c in
cosine, excluding a, b, and c, breaking exact ties by lexicographic
word order; a question that leaves no other word raises ``ValueError``.
Items involving any missing word are skipped and counted as OOV rather
than scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import EmbeddingSet
from .linalg import normalize_rows

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"

# Questions scored per matrix product; fewer on a vocabulary above 2**14
# words, so that one block of scores holds at most 2**22 floats (32 MB).
_ANALOGY_CHUNK = 256


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


def _answers(emb: EmbeddingSet, abc: np.ndarray) -> np.ndarray:
    """Row of the answer to each (a, b, c) row of ``abc``.

    Rows are scored in lexicographic word order, so the first maximum
    is the first word in that order among exact ties.  Raises
    ``ValueError`` when a question leaves no word outside a, b and c.
    """
    order = np.array(sorted(range(len(emb)), key=emb.words.__getitem__), dtype=np.int64)
    normed = normalize_rows(emb.matrix[order])
    abc = np.argsort(order)[abc]
    answers = np.empty(len(abc), dtype=np.int64)
    size = max(1, min(_ANALOGY_CHUNK, 2**22 // len(emb)))
    for start in range(0, len(abc), size):
        chunk = abc[start : start + size]
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
        answers[start : start + len(chunk)] = best
    return order[answers]


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
    index = emb.index
    quads, syntactic, oov = [], [], {SEMANTIC: 0, SYNTACTIC: 0}
    for *question, category in dataset.questions:
        if any(w not in index for w in question):
            oov[category] += 1
            continue
        quads.append([index[w] for w in question])
        syntactic.append(category == SYNTACTIC)
    quads = np.array(quads, dtype=np.int64).reshape(-1, 4)
    syntactic = np.array(syntactic, dtype=bool)
    hits = _answers(emb, quads[:, :3]) == quads[:, 3]

    def result(hit: np.ndarray, oov_count: int) -> EvalResult:
        score = 100.0 * int(hit.sum()) / len(hit) if len(hit) else 0.0
        return EvalResult(score=score, oov_count=oov_count, evaluated_count=len(hit))

    return {
        SEMANTIC: result(hits[~syntactic], oov[SEMANTIC]),
        SYNTACTIC: result(hits[syntactic], oov[SYNTACTIC]),
        "total": result(hits, oov[SEMANTIC] + oov[SYNTACTIC]),
    }
