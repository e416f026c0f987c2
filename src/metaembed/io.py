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
significant digits (``0.5``), byte for byte what ``"%.9g"`` writes, by a
numpy formatter (a row holding a value it cannot prove exact goes through
``%``), so a save/load round trip preserves it to better than 1e-8 for
unit-scale vectors.

The first load of a file, and a save without a source, write two hidden
sidecars beside it, keyed by the sha256 of its bytes: the float64 matrix
as ``.npy`` (8 bytes per value), and the kept words with their records'
byte spans (a save's equal those a parse would write); later loads of
the same bytes memory-map the matrix instead of parsing.  Sidecars of
older content, and those of a file that is saved over, are removed.  Any
may be deleted but none edited in place, as a loaded set maps its .npy
(metaembed only replaces a sidecar by renaming a new one over it).  A
directory that is unwritable, or whose disk would keep less than three
times the sidecars' size free, silently gets none.  Loaded matrices are
read-only.
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
from itertools import chain
from pathlib import Path

import numpy as np

# Fixed output precision; part of the round-trip contract.
VALUE_FORMAT = ".9g"
# Part of every sidecar key: bump it when parsing or the sidecar layout changes.
_CACHE_VERSION = 3
# Values per block of rows that saving assembles before one write: at 1 << 15
# the formatter's temporaries were mapped and faulted in anew each block, and
# at 1 << 12 the per-block work slowed copying source records by a fifth.
_BLOCK_VALUES = 1 << 14


def _slot_layout(e: int) -> list[int]:
    """How %.9g lays out a value of decimal exponent ``e`` in 16 bytes: the
    first digit's bit shift, the other eight digits' shift into the low and
    the high word, the masks of those before the point and of those kept
    when zero, the point, and the fixed bytes' low and high word."""
    fixed, first = -4 <= e <= 8, 6 if -4 <= e < 0 else 1  # the first digit's byte, after the sign
    split = (8 if e < 0 else e) if fixed else 0  # other digits right after the first
    below_one = (b"0." + b"0" * (-e - 1)).ljust(5, b"\0") if first == 6 else b""
    text = (b"\0" + below_one + b"0").ljust(11, b"\0") + (b"\0" * 4 if fixed else b"e%+03d" % e) + b" "
    text, mask = int.from_bytes(text, "little"), (1 << 8 * split) - 1
    return [8 * first, 8 * first + 8, 56 - 8 * first, mask, mask if fixed and e >= 0 else 0,
            ord(".") << 8 * split if split < 8 else 0, text & (1 << 64) - 1, text >> 64]


# Indexed by decimal exponent + _E0, for every finite float's exponent and
# one above: exponents -14 to 30 are written, |x| * _MUL / _DIV then in [1e8,
# 1e9) with both exact powers of ten; the others, _OUTSIDE, repeat the nearest.
_E0 = 324
_ROW = np.clip(np.arange(-_E0, 310), -14, 30) + 14
_OUTSIDE = _ROW != np.arange(-_E0, 310) + 14
_MUL, _DIV = np.array([[10 ** max(8 - e, 0), 10 ** max(e - 8, 0)] for e in range(-14, 31)],
                      dtype=float)[_ROW].T.copy()
_LAYOUT = list(np.array([_slot_layout(e) for e in range(-14, 31)], np.uint64)[_ROW].T.copy())


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
        if matrix.shape[1] == 0:  # the loader refuses a word without values too
            raise ValueError(f"matrix must hold at least 1 value per word, got shape {matrix.shape}")
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
    """Write both sidecars, then remove those of other keys.  ``matrix`` is
    the float64 matrix, or a temp .npy of it from ``_npy_temp`` to rename.
    Nothing is written when the disk would keep less than three times their
    size free (such a temp counting as free), which leaves room for the
    command's own outputs; any ``OSError``, such as from a read-only
    directory, skips the rest silently."""
    hex_spans = spans.astype("<i8").tobytes().hex()
    text = "\n".join([f"{len(words)} {duplicates}", *words, hex_spans, ""]).encode("utf-8")
    sidecars = _sidecars(path, digest)
    written = isinstance(matrix, Path)
    try:
        size = matrix.stat().st_size if written else matrix.nbytes
        if shutil.disk_usage(path.parent).free + written * size < 4 * (size + len(text)):
            return
        writers = (None if written else lambda f: np.save(f, matrix), lambda f: f.write(text))
        for target, write in zip(sidecars, writers):
            # written whole under a unique temp name, then renamed: no reader
            # sees half a sidecar (and the umask sets its mode, as for the text)
            tmp = matrix if write is None else path.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
            try:
                if write is not None:
                    with open(tmp, "xb") as f:
                        write(f)
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
        _remove_sidecars(path, keep=[s.name for s in sidecars])
    except OSError:
        pass


def _npy_temp(path: Path, shape: tuple[int, int]) -> Path | None:
    """A new temp file beside ``path`` holding ``np.save``'s header of a
    float64 matrix of ``shape``, for its rows to be appended; None when the
    disk has under four times its size free or cannot be written to."""
    tmp = path.with_name(f".{path.name}.npy.{os.urandom(6).hex()}.tmp")
    header = {"descr": "<f8", "fortran_order": False, "shape": shape}
    try:
        if shutil.disk_usage(path.parent).free >= 4 * 8 * shape[0] * shape[1]:
            with open(tmp, "xb") as f:
                np.lib.format.write_array_header_1_0(f, header)
            return tmp
    except OSError:
        tmp.unlink(missing_ok=True)
    return None


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


def _header_dim(line: str, records: int) -> int:
    """The dim of ``line`` as the header of ``records`` records, else 0."""
    try:
        count, dim = map(int, line.split())
    except ValueError:
        return 0
    return dim if count == records and dim > 0 else 0


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
    dim = _header_dim(first[bool(offset):], records)
    header = dim > 0
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
    containing whitespace, a first word beginning with U+FEFF or whose record
    would reload as a ``"<count> <dim>"`` header, or a non-finite value raises
    ``ValueError`` naming the word, and a ``source`` of another dimension one
    naming both dimensions, before the file opens.  Without a ``source``, it
    also writes the sidecars of the bytes written, so the next load maps them.

    ``source`` is a loaded set of ``emb``'s dimension that ``emb`` extends.
    Each row of ``emb`` whose word ``source`` holds with bit-identical
    values is copied from the source file's record, its tokens joined by
    single spaces, as long as that file still holds the bytes it was loaded
    from and is not ``path``; a block's records, or failing that each
    record, are copied verbatim when single-spaced ASCII already.  Every
    other row is formatted, byte for byte as ``"%.9g"`` would, by a numpy
    formatter, or by ``%`` when it holds a value the formatter cannot prove
    exact.  The source is read through a memory map and the output written
    in blocks of rows: neither text is held whole.
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
    step = max(1, _BLOCK_VALUES // emb.dim)
    data = _source_bytes(source, path)
    rows = np.full(len(emb), -1)  # each row's source row, or -1 to format it
    if data is not None:
        rows = np.fromiter((source.index.get(w, -1) for w in emb.words), np.intp, len(emb))
    # without a source, a temp .npy for what each written value reads back as
    npy = _npy_temp(path, emb.matrix.shape) if source is None else None

    def blocks():
        for lo in range(0, len(emb), step):
            block, copy = emb.matrix[lo:lo + step], rows[lo:lo + step]
            lines = []
            if data is not None:
                known = np.flatnonzero(copy >= 0)
                same = block[known].view(np.int64) == source.matrix[copy[known]].view(np.int64)
                copy[known[~same.all(axis=1)]] = -1
                lines = [data[a:b] for a, b in source._text[2][copy[copy >= 0]].tolist()]
                if not _single_spaced(b"".join(lines), len(lines), emb.dim):
                    lines = [line if _single_spaced(line, 1, emb.dim)
                             else (" ".join(line.decode("utf-8").split()) + "\n").encode("utf-8")
                             for line in lines]
            back = None if npy is None else np.empty(block.shape)
            lines, values = iter(lines), iter(_formatted(block[copy < 0], back))
            yield [next(lines) if row >= 0 else b"%s %s\n" % (word.encode("utf-8"), next(values))
                   for word, row in zip(emb.words[lo:lo + step], copy.tolist())], back

    try:
        with nullcontext() if data is None else data:
            pending = blocks()
            first = next(pending)
            if _header_dim(first[0][0].decode("utf-8"), len(emb) - 1):
                raise ValueError(f"{path}: word {emb.words[0]!r} would reload as the count of a "
                                 "'<count> <dim>' header")
            _remove_sidecars(path)  # they describe the bytes being replaced
            digest, sizes = hashlib.sha256(), array("q")
            with open(path, "wb") as f, nullcontext() if npy is None else open(npy, "ab") as g:
                for block, back in chain([first], pending):
                    text = b"".join(block)
                    f.write(text)
                    if npy is not None:  # the temp is on the file's own disk: its errors are the save's
                        digest.update(text)
                        sizes.extend(map(len, block))
                        g.write(back)
        if npy is not None:
            ends = np.cumsum(sizes)
            spans = np.stack([ends - np.frombuffer(sizes, np.int64), ends], axis=1)
            _write_cache(path, digest.hexdigest(), emb.words, npy, spans, 0)
    finally:
        if npy is not None:
            npy.unlink(missing_ok=True)


def _formatted(block: np.ndarray, back: np.ndarray | None = None) -> list[bytes]:
    """Each row of ``block`` (finite, at least one column) as ``"%.9g"``
    formats its values, joined by single spaces: each value's 16-byte slot is
    built with uint64 arithmetic, but a row holding a value whose digits that
    cannot prove, near a rounding tie or outside 1e-14 <= |x| < 1e31 but for
    0, goes through ``%``.  ``back``, if given, receives what each token
    parses as: digits n and exponent e give n * 10**(e - 8), one correctly
    rounded product or quotient of exact values; a ``%`` row is parsed."""
    if len(block) == 0:  # a block with every row copied
        return []
    x = block.ravel()
    a = np.abs(x)
    # off by one only within 1e-12 of a power of ten, where scaled rounds to
    # 1e8 or 1e9 either way; 0 reads as 1
    e = (np.log10(a + (a == 0)) + _E0).astype(np.intp)
    scaled = a * _MUL[e] / _DIV[e]  # the exact product correctly rounded, within 6e-8
    n = np.rint(scaled)
    inexact = np.abs(scaled - n) > 0.5 - 2.5e-7
    up = n >= 1e9  # rounded up a decade, or log10 put x one low; out-of-range x is inexact
    n[up] = 1e8
    e += up
    inexact |= _OUTSIDE[e]
    if back is not None:
        back[...] = np.copysign(n * _DIV[e] / _MUL[e], x).reshape(block.shape)
    first_shift, head_shift, head_back, split, least, point, fixed_low, fixed_high = (
        table[e] for table in _LAYOUT)
    # x // 10**8, x // 10**4, x // 100 and x // 10 as x * m >> k, exact for
    # these x; the last two within the 2- and 1-digit lanes of one word
    n = n.astype(np.uint64)
    first = n * 1441151881 >> 57
    rest = n - first * 10 ** 8
    digits = rest * 109951163 >> 40
    digits |= rest - digits * 10 ** 4 << 32
    q = digits * 10486 >> 20 & 0x0000007F0000007F
    digits = q | digits - q * 100 << 16
    q = digits * 103 >> 10 & 0x000F000F000F000F
    digits = q | digits - q * 10 << 8  # the other eight digits, one a byte
    kept = digits + 0x7F7F7F7F7F7F7F7F & 0x8080808080808080  # nonzero digits' top bits
    for shift in (8, 16, 32):
        kept |= kept >> shift
    kept = (kept >> 7) * 0xFF | least  # each digit up to the last nonzero one or the point
    digits = (digits | 0x3030303030303030) & kept
    lead = digits & split
    head = lead | point & kept  # a point when a kept digit follows it
    tail = digits ^ lead
    low = (x.view(np.uint64) >> 63) * ord("-") | first << first_shift | head << head_shift
    low |= tail << 24 | fixed_low
    high = (head >> head_back | tail >> 40 | fixed_high).reshape(block.shape)
    high[:, -1] ^= (ord(" ") ^ ord("\n")) << 56  # a row's last value ends it
    slots = np.stack([low, high.ravel()], axis=1).astype("<u8", copy=False)
    rows = slots.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    row_format = " ".join(["%" + VALUE_FORMAT] * block.shape[1])
    for r in np.flatnonzero(inexact.reshape(block.shape).any(axis=1)).tolist():
        rows[r] = (row_format % tuple(block[r].tolist())).encode("ascii")
        if back is not None:
            back[r] = list(map(float, rows[r].split()))
    return rows


def _single_spaced(text: bytes, records: int, dim: int) -> bool:
    """Whether ``text``, whole source records of dim + 1 tokens, is their
    tokens joined by single spaces, each record ended by one LF: ASCII with
    ``records * dim`` spaces, and no control character but ``records`` LFs."""
    chars = np.frombuffer(text, np.uint8)
    return (text.isascii() and np.count_nonzero(chars == 32) == records * dim
            and np.count_nonzero(chars < 32) == np.count_nonzero(chars == 10) == records)


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

