"""Read and write word vector sets in the common plain-text format.

Each record is one line, ``word v1 v2 ... vd``.  Loading also accepts
a ``"<count> <dim>"`` first line, which it detects by its count, and
holds one float64 matrix plus the word list; saving writes records only.

Tokens are opaque, non-empty UTF-8 strings without whitespace; a
leading byte-order mark is skipped, so no word may begin with U+FEFF.
Saving refuses any other word, which the loader could not read back;
values are written with 9 significant digits, so a save/load round trip
preserves matrices to better than 1e-8 for unit-scale vectors.

The first load of a file writes two hidden sidecars beside it, keyed by
the sha256 of its bytes: the float64 matrix as ``.npy`` (8 bytes per
value) and the kept words; later loads of the same bytes memory-map the
matrix instead of parsing.  Sidecars of older content, and those of a
file that is saved over, are removed; any may be deleted.  A directory
that is unwritable, or whose disk would keep less than three times the
sidecars' size free, silently gets none.  Loaded matrices are read-only.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Fixed output precision; part of the round-trip contract.
VALUE_FORMAT = ".9g"
# Part of every sidecar key: bump it when parsing or the sidecar layout changes.
_CACHE_VERSION = 2


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


def load_embedding_set(path, name: str | None = None) -> EmbeddingSet:
    """Load an embedding set from a text vector file, or from its sidecars.

    A two-integer first line is a ``"<count> <dim>"`` header only when
    its count equals the number of non-empty lines after it.  The file
    is read twice: once to count records, then once more to parse each
    record straight into its row of a preallocated float64 matrix.
    Words keep file order; duplicate words after the first occurrence
    are parsed, then dropped and reported through a warning (on every
    load).  Malformed lines raise ``ValueError`` naming the line number.
    """
    path = Path(path)
    sidecars = _sidecars(path)
    cached = _read_cache(*sidecars)
    words, matrix, duplicates = cached or _parse(path)
    # the key is checked again, so a file changed while it was parsed is not
    # stored under the digest of its earlier bytes
    if cached is None and _sidecars(path) == sidecars:
        _write_cache(path, sidecars, words, matrix, duplicates)
    if duplicates:
        warnings.warn(
            f"{path}: dropped {duplicates} duplicate word(s), kept first occurrences",
            stacklevel=2,
        )
    matrix.flags.writeable = False
    return EmbeddingSet(name=path.stem if name is None else name, words=words, matrix=matrix)


def _sidecars(path: Path) -> tuple[Path, Path]:
    """The .npy and .words sidecar paths, keyed by the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    stem = f".{path.name}.{digest.hexdigest()}-v{_CACHE_VERSION}"
    return path.with_name(f"{stem}.npy"), path.with_name(f"{stem}.words")


def _read_cache(npy: Path, vocab: Path):
    """The stored (words, memory-mapped matrix, duplicates), or None when a
    sidecar is missing, truncated or disagrees with the other."""
    try:
        head, *words, tail = vocab.read_bytes().decode("utf-8").split("\n")
        count, duplicates = map(int, head.split())
        matrix = np.load(npy, mmap_mode="r")
    except (OSError, ValueError, EOFError):
        return None
    if tail or matrix.dtype != np.float64 or matrix.ndim != 2 or not count == len(words) == len(matrix):
        return None
    return words, matrix, duplicates


def _write_cache(path: Path, sidecars, words, matrix, duplicates) -> None:
    """Write both sidecars, then remove those of other keys.  Nothing is
    written when the disk would keep less than three times their size free,
    which leaves room for the command's own outputs; any ``OSError``, such
    as from a read-only directory, skips the rest silently."""
    text = "\n".join([f"{len(words)} {duplicates}", *words, ""]).encode("utf-8")
    try:
        if shutil.disk_usage(path.parent).free < 4 * (matrix.nbytes + len(text)):
            return
        for target, write in zip(sidecars, (lambda f: np.save(f, matrix), lambda f: f.write(text))):
            # written whole under a unique temp name, then renamed: no reader
            # sees half a sidecar (and the umask sets its mode, as for the text)
            tmp = path.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
            try:
                with open(tmp, "xb") as f:
                    write(f)
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
        _remove_sidecars(path, keep=[s.name for s in sidecars])
    except OSError:
        pass


def _remove_sidecars(path: Path, keep=()) -> None:
    """Remove the sidecars of ``path`` except those named in ``keep``; any
    ``OSError`` stops the removal silently."""
    pattern = re.compile(re.escape(f".{path.name}.") + r"[0-9a-f]{64}-v\d+\.(npy|words)")
    try:
        for other in os.listdir(path.parent):
            if pattern.fullmatch(other) and other not in keep:
                os.remove(path.parent / other)
    except OSError:
        pass


def _parse(path: Path):
    """The kept words, their float64 rows and the dropped-duplicate count."""
    with open(path, encoding="utf-8-sig") as f:
        first = f.readline()
        records = sum(1 for line in f if line.strip())
    header = _parse_header(first.split())
    if header is not None and header[0] == records:
        start, dim = 1, header[1]
        matrix = np.empty((records, dim))
    else:
        start, dim, matrix = 0, None, None
        records += bool(first.strip())

    words: list[str] = []
    seen: set[str] = set()
    line_numbers = np.empty(records, dtype=np.int64)
    duplicates = 0
    with open(path, encoding="utf-8-sig") as f:
        if start:
            f.readline()
        for lineno, line in enumerate(f, start=start + 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise ValueError(f"{path}: line {lineno}: expected a word and {dim or 'at least 1'} values")
            if matrix is None:
                dim = len(parts) - 1
                matrix = np.empty((records, dim))
            if len(parts) - 1 != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} values, found {len(parts) - 1}"
                )
            # A duplicate is parsed into the next free row, which the
            # next kept record overwrites.
            try:
                matrix[len(words)] = parts[1:]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            word = parts[0]
            if word in seen:
                duplicates += 1
                continue
            seen.add(word)
            line_numbers[len(words)] = lineno
            words.append(word)

    if not words:
        raise ValueError(f"{path}: no vector records found")
    matrix = matrix[: len(words)]
    # min and max propagate nan and reach any inf, without an n x d mask
    finite = np.isfinite(matrix.min(axis=1)) & np.isfinite(matrix.max(axis=1))
    if not finite.all():
        bad = line_numbers[int(np.flatnonzero(~finite)[0])]
        raise ValueError(f"{path}: line {bad}: non-finite value")
    return words, matrix, duplicates


def save_embedding_set(emb: EmbeddingSet, path) -> None:
    """Write ``emb`` to ``path`` as plain text, one record per line, and
    remove the sidecars of the file it replaces; an empty word, a word
    containing whitespace or beginning with U+FEFF, or a non-finite value
    raises ``ValueError`` naming the word before the file opens."""
    unreadable = next((w for w in emb.words if w.split() != [w] or w[0] == "\ufeff"), None)
    if unreadable is not None:
        raise ValueError(f"{path}: word {unreadable!r} is empty or contains whitespace "
                         "or a leading byte-order mark")
    bad = np.flatnonzero(~np.isfinite(emb.matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value for word {emb.words[bad[0]]!r}")
    _remove_sidecars(Path(path))  # they describe the bytes being replaced
    row_format = " ".join(["%" + VALUE_FORMAT] * emb.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for word, row in zip(emb.words, emb.matrix):
            f.write(f"{word} {row_format % tuple(row.tolist())}\n")
