"""Read and write word vector sets in the common plain-text format.

Each record is one line, ``word v1 v2 ... vd``.  Loading also accepts
a ``"<count> <dim>"`` first line, which it detects by its count, and
holds one float64 matrix plus the word list; saving writes records only.

Tokens are opaque, non-empty UTF-8 strings without whitespace; a file's
leading byte-order mark is skipped, so its first word may not begin with
U+FEFF.  Saving refuses any other word, which the loader could not read back.
A row that saving copies from its source file (see
``save_embedding_set``) keeps the source's digits (``0.500000`` stays
``0.500000``) and reloads bit for bit; every other row is written with 9
significant digits (``0.5``), so a save/load round trip preserves it to
better than 1e-8 for unit-scale vectors.

The first load of a file writes two hidden sidecars beside it, keyed by
the sha256 of its bytes: the float64 matrix as ``.npy`` (8 bytes per
value), and the kept words with their records' byte spans; later loads
of the same bytes memory-map the matrix instead of parsing.  Sidecars of
older content, and those of a file that is saved over, are removed; any
may be deleted.  A directory that is unwritable, or whose disk would
keep less than three times the sidecars' size free, silently gets none.
Loaded matrices are read-only.
"""

from __future__ import annotations

import codecs
import hashlib
import mmap
import os
import re
import shutil
import warnings
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

# Fixed output precision; part of the round-trip contract.
VALUE_FORMAT = ".9g"
# Part of every sidecar key: bump it when parsing or the sidecar layout changes.
_CACHE_VERSION = 3
# Values per block of rows that saving assembles before one write.
_BLOCK_VALUES = 1 << 15
# What keeps an ASCII line from being single-spaced tokens and one LF: what
# str.split() splits at, but for a space between tokens and the LF at the end.
_ODD_SPACING = (b"  ", b" \n", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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
    # For a loaded set, (file path, sha256 of the bytes parsed, spans), which
    # save_embedding_set reads from its ``source``; spans[i] holds the [start,
    # end) byte offsets of row i's line in the file, its line end included.
    _text: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def load_embedding_set(path, name: str | None = None) -> EmbeddingSet:
    """Load an embedding set from a text vector file, or from its sidecars.

    A two-integer first line is a ``"<count> <dim>"`` header only when
    its count equals the number of non-empty lines after it.  The file
    is read twice: once to count records, then once more to parse each
    record straight into its row of a preallocated float64 matrix.
    Words keep file order; duplicate words after the first occurrence
    are parsed, then dropped and reported through a warning (on every
    load).  Malformed lines raise ``ValueError`` naming the line number.
    The set keeps each record's byte span, for ``save_embedding_set``.
    """
    path = Path(path)
    digest = _digest(path)
    cached = _read_cache(*_sidecars(path, digest))
    words, matrix, spans, duplicates = cached or _parse(path)
    # the key is checked again, so a file changed while it was parsed is not
    # stored, or later copied from, under the digest of its earlier bytes
    if cached is None and _digest(path) == digest:
        _write_cache(path, digest, words, matrix, spans, duplicates)
    elif cached is None:
        spans = None
    if duplicates:
        warnings.warn(
            f"{path}: dropped {duplicates} duplicate word(s), kept first occurrences",
            stacklevel=2,
        )
    matrix.flags.writeable = False
    emb = EmbeddingSet(name=path.stem if name is None else name, words=words, matrix=matrix)
    if spans is not None:
        object.__setattr__(emb, "_text", (path.absolute(), digest, spans))
    return emb


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _sidecars(path: Path, digest: str) -> tuple[Path, Path]:
    """The .npy and .words sidecar paths of the bytes with sha256 ``digest``."""
    stem = f".{path.name}.{digest}-v{_CACHE_VERSION}"
    return path.with_name(f"{stem}.npy"), path.with_name(f"{stem}.words")


def _read_cache(npy: Path, vocab: Path):
    """The stored (words, memory-mapped matrix, spans, duplicates), or None
    when a sidecar is missing, truncated or disagrees with the other.  The
    .words sidecar holds a "<count> <duplicates>" line, one word a line,
    and a line of the spans' little-endian int64 bytes in hex."""
    try:
        head, *words, spans, tail = vocab.read_bytes().decode("utf-8").split("\n")
        count, duplicates = map(int, head.split())
        spans = np.frombuffer(bytes.fromhex(spans), dtype="<i8").reshape(-1, 2)
        matrix = np.load(npy, mmap_mode="r")
    except (OSError, ValueError, EOFError):
        return None
    if tail or matrix.dtype != np.float64 or matrix.ndim != 2 or not (
        count == len(words) == len(matrix) == len(spans)
    ):
        return None
    return words, matrix, spans, duplicates


def _write_cache(path: Path, digest: str, words, matrix, spans, duplicates) -> None:
    """Write both sidecars, then remove those of other keys.  Nothing is
    written when the disk would keep less than three times their size free,
    which leaves room for the command's own outputs; any ``OSError``, such
    as from a read-only directory, skips the rest silently."""
    hex_spans = spans.astype("<i8").tobytes().hex()
    text = "\n".join([f"{len(words)} {duplicates}", *words, hex_spans, ""]).encode("utf-8")
    sidecars = _sidecars(path, digest)
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


def _non_finite_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows holding a nan or an infinity.  min and max propagate nan
    and reach any infinity, without an n x d mask."""
    return np.flatnonzero(~(np.isfinite(matrix.min(axis=1)) & np.isfinite(matrix.max(axis=1))))


def _parse(path: Path):
    """The kept words, their float64 rows, their records' byte spans (see
    ``EmbeddingSet._text``) and the dropped-duplicate count."""
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        records = sum(1 for line in f if line.strip())
        # a line's UTF-8 size is its size in the file when LF ends every
        # line; otherwise newline="" keeps each line's own ending to count it
        newline = None if f.newlines in (None, "\n") else ""
    offset = len(codecs.BOM_UTF8) if first.startswith("\ufeff") else 0
    try:  # a "<count> <dim>" first line is a header when count records follow it
        count, dim = map(int, first[bool(offset):].split())
        header = count == records and dim > 0
    except ValueError:
        header = False
    matrix = np.empty((records, dim)) if header else None
    if not header:
        dim, records = None, records + 1  # the first line may be a record

    words: list[str] = []
    seen: set[str] = set()
    spans, line_numbers = array("q"), array("q")  # of each kept record
    duplicates = 0
    with open(path, encoding="utf-8-sig", newline=newline) as f:
        for lineno, line in enumerate(f, start=1):
            start = offset
            offset += len(line) if line.isascii() else len(line.encode("utf-8"))
            parts = line.split()
            if not parts or header and lineno == 1:
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
            words.append(word)
            line_numbers.append(lineno)
            spans.extend((start, offset))

    if not words:
        raise ValueError(f"{path}: no vector records found")
    matrix = matrix[: len(words)]
    bad = _non_finite_rows(matrix)
    if bad.size:
        raise ValueError(f"{path}: line {line_numbers[bad[0]]}: non-finite value")
    return words, matrix, np.frombuffer(spans, dtype=np.int64).reshape(-1, 2), duplicates


def save_embedding_set(emb: EmbeddingSet, path, source: EmbeddingSet | None = None) -> None:
    """Write ``emb`` to ``path`` as plain text, one record per line, and
    remove the sidecars of the file it replaces; an empty word, a word
    containing whitespace, a first word beginning with U+FEFF, or a non-finite
    value raises ``ValueError`` naming the word, and a ``source`` of another
    dimension one naming both dimensions, before the file opens.

    ``source`` is a loaded set of ``emb``'s dimension that ``emb`` extends.
    Each row of ``emb`` whose word ``source`` holds with bit-identical
    values is copied from the source file's record, its tokens joined by
    single spaces, as long as that file still holds the bytes it was
    loaded from and is not ``path``; every other row is formatted.  The source is read through a
    memory map and the output written in blocks of rows: neither text is
    held whole.
    """
    unreadable = next((w for w in emb.words if w.split() != [w]), None)
    if emb.words[0][:1] == "\ufeff":  # the loader strips a byte-order mark from this word alone
        unreadable = emb.words[0]
    if unreadable is not None:
        raise ValueError(f"{path}: word {unreadable!r} is empty or contains whitespace "
                         "or a leading byte-order mark")
    bad = _non_finite_rows(emb.matrix)
    if bad.size:
        raise ValueError(f"{path}: non-finite value for word {emb.words[bad[0]]!r}")
    if source is not None and source.dim != emb.dim:
        raise ValueError(f"{path}: source has {source.dim} values per word, the set {emb.dim}")
    path = Path(path)
    row_format = " ".join(["%" + VALUE_FORMAT] * emb.dim)
    step = max(1, _BLOCK_VALUES // emb.dim)
    data = _source_bytes(source, path)
    with nullcontext() if data is None else data:
        rows = np.full(len(emb), -1)  # each row's source row, or -1 to format it
        if data is not None:
            rows = np.fromiter((source.index.get(w, -1) for w in emb.words), np.intp, len(emb))
        _remove_sidecars(path)  # they describe the bytes being replaced
        with open(path, "wb") as f:
            for lo in range(0, len(emb), step):
                block, copy = emb.matrix[lo:lo + step], rows[lo:lo + step]
                spans = []
                if data is not None:
                    known = np.flatnonzero(copy >= 0)
                    same = block[known].view(np.int64) == source.matrix[copy[known]].view(np.int64)
                    copy[known[~same.all(axis=1)]] = -1
                    spans = source._text[2][copy[copy >= 0]].tolist()
                spans, values = iter(spans), iter(block[copy < 0].tolist())
                f.write(b"".join(
                    _single_spaced(data[slice(*next(spans))]) if row >= 0
                    else f"{word} {row_format % tuple(next(values))}\n".encode("utf-8")
                    for word, row in zip(emb.words[lo:lo + step], copy.tolist())
                ))


def _source_bytes(source: EmbeddingSet | None, path: Path) -> mmap.mmap | None:
    """The mapped bytes of the file ``source`` was loaded from, or None when
    it was not loaded from a file, that file's bytes changed since, or
    ``path`` is that file."""
    if source is None or source._text is None:
        return None
    text_path, digest, _ = source._text
    try:
        if path.exists() and os.path.samefile(path, text_path):
            return None
        with open(text_path, "rb") as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # gone, unreadable or empty
        return None
    if hashlib.sha256(data).hexdigest() == digest:
        return data
    data.close()
    return None


def _single_spaced(line: bytes) -> bytes:
    """``line``'s tokens, as str.split() finds them, joined by single spaces
    and ended by one LF."""
    if (line.isascii() and line.endswith(b"\n") and not line.startswith(b" ")
            and not any(s in line for s in _ODD_SPACING)):
        return line
    return (" ".join(line.decode("utf-8").split()) + "\n").encode("utf-8")
