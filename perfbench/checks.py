"""Output checks and quality scores, computed independently of the program.

Checks return a list of problems (empty when the output is correct).
Scores compare the program's output with the generator's ground truth:
the latent cosines for similarity, the planted analogies, and the true
vectors of the words each set hides.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from gen import Inputs

CSV_HEADER = ["embedding", "dataset", "score", "oov_count", "evaluated"]
KNOWN_ROW_ATOL = 6e-7  # inputs are written with 6 decimals


def read_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse a ``word v1 ... vd`` file; raises ValueError when malformed."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{path.name}: missing final newline")
    words, values = [], []
    width = None
    for lineno, line in enumerate(lines[:-1], start=1):
        parts = line.split(" ")
        if width is None:
            width = len(parts)
        if len(parts) != width or width < 2:
            raise ValueError(f"{path.name}: line {lineno}: {len(parts)} fields, expected {width}")
        words.append(parts[0])
        values.extend(parts[1:])
    if not words:
        raise ValueError(f"{path.name}: empty")
    matrix = np.array(values, dtype=np.float64).reshape(len(words), width - 1)
    return words, matrix


def check_vectors(
    path: Path, words: list[str], dim: int, known: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[list[str], np.ndarray | None]:
    """Row words and order, dimension, finiteness, and (for extended sets)
    that known rows kept their input values.  ``known`` is (mask, true rows)."""
    if not path.is_file():
        return [f"{path.name}: missing"], None
    try:
        got_words, matrix = read_vectors(path)
    except ValueError as exc:
        return [str(exc)], None
    problems = []
    if got_words != words:
        problems.append(f"{path.name}: {len(got_words)} rows, expected the {len(words)}-word vocabulary in order")
    if matrix.shape[1] != dim:
        problems.append(f"{path.name}: dimension {matrix.shape[1]}, expected {dim}")
    if not np.isfinite(matrix).all():
        problems.append(f"{path.name}: non-finite values")
    if known is not None and not problems:
        mask, truth = known
        if not np.allclose(matrix[mask], truth[mask], rtol=0.0, atol=KNOWN_ROW_ATOL):
            problems.append(f"{path.name}: known rows differ from the input vectors")
    return problems, (matrix if not problems else None)


def check_sidecar(path: Path, keys: tuple[str, ...]) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{path.name}: not JSON ({exc})"]
    problems = [f"{path.name}: no {k!r}" for k in keys if k not in record]
    for k in keys:
        v = record.get(k)
        if isinstance(v, float) and not np.isfinite(v):
            problems.append(f"{path.name}: {k} is not finite")
    return problems


def check_csv(path: Path, expected: list[tuple[str, int]]) -> tuple[list[str], list[list[str]]]:
    """Header, one row per (dataset label, item count), and counts that add up."""
    if not path.is_file():
        return [f"{path.name}: missing"], []
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_HEADER:
        return [f"{path.name}: bad header"], []
    rows = rows[1:]
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} rows, expected {len(expected)}"], []
    problems = []
    for row, (label, size) in zip(rows, expected):
        if len(row) != len(CSV_HEADER):
            problems.append(f"{path.name}: row {row} has {len(row)} fields")
            continue
        try:
            score, oov, evaluated = float(row[2]), int(row[3]), int(row[4])
        except ValueError:
            problems.append(f"{path.name}: row {row} is not numeric")
            continue
        if row[1] != label or oov + evaluated != size or not np.isfinite(score):
            problems.append(f"{path.name}: row {row}, expected {label} over {size} items")
    return problems, rows


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the command wrote, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.suffix in (".txt", ".json", ".csv")
    }


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman correlation with average ranks for ties."""

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.bincount(inverse, weights=r) / counts)[inverse]

    return float(np.corrcoef(ranks(np.asarray(x)), ranks(np.asarray(y)))[0, 1])


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def similarity_scores(inputs: Inputs, words: list[str], matrix: np.ndarray) -> list[float]:
    """Spearman x 100 of output cosines against the gold scores (the latent
    cosines as written to the dataset files), per dataset."""
    index = {w: i for i, w in enumerate(words)}
    unit = _unit_rows(matrix)
    scores = []
    for pairs in inputs.similarity_pairs:
        model, gold = [], []
        for a, b, score in pairs:
            if a in index and b in index:
                model.append(unit[index[a]] @ unit[index[b]])
                gold.append(score)
        scores.append(100.0 * spearman(np.array(model), np.array(gold)))
    return scores


def analogy_counts(inputs: Inputs, words: list[str], matrix: np.ndarray) -> tuple[int, int]:
    """(correct, evaluated) over questions whose four words all have vectors.

    The answer is the word whose unit vector has the largest inner
    product with b - a + c, never a, b or c; ``words`` is sorted, so the
    first maximum is also the lexicographically smallest on a tie.
    """
    index = {w: i for i, w in enumerate(words)}
    quads = np.array(
        [[index[w] for w in q] for q in inputs.analogy_questions if all(w in index for w in q)],
        dtype=np.int64,
    ).reshape(-1, 4)
    unit = _unit_rows(matrix)
    gram = unit @ unit.T
    correct = 0
    for start in range(0, len(quads), 512):
        a, b, c, d = quads[start : start + 512].T
        scores = gram[b] - gram[a] + gram[c]
        rows = np.arange(len(a))
        scores[rows, a] = scores[rows, b] = scores[rows, c] = -np.inf
        correct += int((np.argmax(scores, axis=1) == d).sum())
    return correct, len(quads)


def fill_error(inputs: Inputs, extended: list[np.ndarray]) -> float:
    """Mean relative L2 error of filled rows against each set's true vectors."""
    errors = []
    for i, matrix in enumerate(extended):
        hidden = inputs.hidden(i)
        truth = inputs.true_vectors[i][hidden]
        errors.append(np.linalg.norm(matrix[hidden] - truth, axis=1) / np.linalg.norm(truth, axis=1))
    return float(np.concatenate(errors).mean())
