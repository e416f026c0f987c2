"""Vocabulary alignment across embedding sets.

``align`` decides, once, which row of each set holds each word of the
union vocabulary.  Every construction that gathers rows across sets
(concatenation, both trainers, OOV filling) reads that one table
instead of looking words up itself.  A word counts as out-of-vocabulary
(OOV) for a set when it is missing from that set but covered by at
least one of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .io import EmbeddingSet


@dataclass(frozen=True)
class VocabAlignment:
    """Intersection/union bookkeeping for a fixed list of sets.

    ``rows[i, j]`` is the row of ``union[j]`` in set ``set_names[i]``,
    or -1 when that set lacks the word.  Both word lists are sorted
    lexicographically so that downstream training batches and outputs
    are deterministic.
    """

    set_names: list[str]
    intersection: list[str]
    union: list[str]
    rows: np.ndarray

    @property
    def presence(self) -> np.ndarray:
        """``presence[i, j]`` is True when set ``i`` contains ``union[j]``."""
        return self.rows >= 0

    @cached_property
    def _union_array(self) -> np.ndarray:
        return np.array(self.union, dtype=object)

    def rows_for(self, emb: EmbeddingSet) -> np.ndarray:
        """``emb``'s row of every union word (-1 where absent).

        Raises ``KeyError`` for a set name that was not aligned, and
        ``ValueError`` unless ``emb`` holds exactly the aligned words at
        the recorded rows.
        """
        try:
            rows = self.rows[self.set_names.index(emb.name)]
        except ValueError:
            raise KeyError(f"unknown set name {emb.name!r}") from None
        present = rows >= 0
        known = rows[present]
        if len(emb) != known.size or (
            np.array(emb.words, dtype=object)[known] != self._union_array[present]
        ).any():
            raise ValueError(
                f"set {emb.name!r} does not match its alignment: "
                f"aligned words missing, added or moved"
            )
        return rows


def align(sets: list[EmbeddingSet]) -> VocabAlignment:
    """Align the vocabularies of ``sets`` (at least two)."""
    if len(sets) < 2:
        raise ValueError(f"need at least 2 embedding sets, got {len(sets)}")
    names = [s.name for s in sets]
    if len(set(names)) != len(names):
        raise ValueError(f"embedding set names must be unique, got {names}")

    union = sorted(set().union(*(s.index for s in sets)))
    rows = np.empty((len(sets), len(union)), dtype=np.intp)
    for i, s in enumerate(sets):
        rows[i] = [s.index.get(w, -1) for w in union]
    shared = (rows >= 0).all(axis=0)
    intersection = [w for w, keep in zip(union, shared) if keep]
    return VocabAlignment(names, intersection, union, rows)
