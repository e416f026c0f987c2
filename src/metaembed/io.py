"""Read and write word vector sets in the common plain-text formats.

Two on-disk layouts are supported:

* ``plain``  -- one record per line: ``word v1 v2 ... vd``
* ``header`` -- same records preceded by a ``"<count> <dim>"`` line

Tokens are opaque UTF-8 strings without internal whitespace; values are
written with 9 significant digits, so a save/load round trip preserves
matrices to better than 1e-8 for unit-scale vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

PLAIN = "plain"
HEADER = "header"
AUTO = "auto"
FORMATS = (PLAIN, HEADER)

# Fixed output precision; part of the round-trip contract.
VALUE_FORMAT = ".9g"


@dataclass(frozen=True)
class EmbeddingSet:
    """A named vocabulary with one dense real vector per word.

    ``matrix`` has one row per word, in the same order as ``words``.
    Instances are treated as immutable and are safe to share across
    threads.
    """

    name: str
    words: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {matrix.shape}")
        object.__setattr__(self, "words", list(self.words))
        object.__setattr__(self, "matrix", matrix)
        if len(self.words) == 0:
            raise ValueError("embedding set must contain at least one word")
        if matrix.shape[0] != len(self.words):
            raise ValueError(
                f"{len(self.words)} words but {matrix.shape[0]} matrix rows"
            )
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in embedding set")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def index(self) -> dict[str, int]:
        """Word to row index lookup."""
        return {w: i for i, w in enumerate(self.words)}

    def row(self, word: str) -> np.ndarray:
        return self.matrix[self.index[word]]

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self.words)


def _parse_header(parts: list[str]) -> tuple[int, int] | None:
    if len(parts) != 2:
        return None
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if count < 0 or dim <= 0:
        return None
    return count, dim


def load_embedding_set(path, fmt: str = AUTO, name: str | None = None) -> EmbeddingSet:
    """Load an embedding set from a text vector file.

    ``fmt`` is ``"plain"``, ``"header"``, or ``"auto"``; auto detection
    treats a two-integer first line as a header only when the stated
    count matches the number of remaining lines.  Words keep file order;
    duplicate words after the first occurrence are dropped and reported
    through a warning.  Malformed lines raise ``ValueError`` naming the
    offending line number.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    if fmt not in FORMATS + (AUTO,):
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS + (AUTO,)}")

    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    start = 0
    declared: tuple[int, int] | None = None
    if lines:
        maybe_header = _parse_header(lines[0].split())
        if fmt == HEADER:
            if maybe_header is None:
                raise ValueError(f"{path}: line 1: expected '<count> <dim>' header")
            declared = maybe_header
            start = 1
        elif fmt == AUTO and maybe_header is not None:
            count, _ = maybe_header
            if count == sum(1 for ln in lines[1:] if ln.strip()):
                declared = maybe_header
                start = 1

    words: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    line_numbers: list[int] = []
    duplicates = 0
    dim = declared[1] if declared else None

    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"{path}: line {lineno}: expected a word and {dim or 'at least 1'} values")
        word = parts[0]
        if dim is None:
            dim = len(parts) - 1
        if len(parts) - 1 != dim:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim} values, found {len(parts) - 1}"
            )
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if word in seen:
            duplicates += 1
            continue
        seen.add(word)
        words.append(word)
        rows.append(values)
        line_numbers.append(lineno)

    if not rows:
        raise ValueError(f"{path}: no vector records found")
    if declared is not None and declared[0] != len(rows) + duplicates:
        raise ValueError(
            f"{path}: header declares {declared[0]} records, found {len(rows) + duplicates}"
        )

    matrix = np.array(rows, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = line_numbers[int(np.flatnonzero(~finite)[0])]
        raise ValueError(f"{path}: line {bad}: non-finite value")
    if duplicates:
        warnings.warn(
            f"{path}: dropped {duplicates} duplicate word(s), kept first occurrences",
            stacklevel=2,
        )
    return EmbeddingSet(name=name, words=words, matrix=matrix)


def save_embedding_set(emb: EmbeddingSet, path, fmt: str = PLAIN) -> None:
    """Write ``emb`` to ``path`` in the given text format; a non-finite
    value raises ``ValueError`` naming its word before the file opens."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    bad = np.flatnonzero(~np.isfinite(emb.matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value for word {emb.words[bad[0]]!r}")
    path = Path(path)
    row_format = " ".join(["%" + VALUE_FORMAT] * emb.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if fmt == HEADER:
            f.write(f"{len(emb.words)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.matrix):
            f.write(f"{word} {row_format % tuple(row.tolist())}\n")
