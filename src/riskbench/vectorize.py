"""Text vectorization: tokenizing, TF-IDF, embedding averages, cosine.

The TF-IDF weight for term t in a document is (n_t / N) * (1 + ln(k / k_t))
with n_t the in-document occurrences, N the document token count, k the
corpus document count, and k_t the number of documents containing t.
Natural log is used throughout.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
import warnings
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionError, MissingEmbeddingError, ParseError
from .report import file_digest
from .resources import check_shape, data_path, input_text, json_value

# numpy is imported inside the functions that use it, so that a command
# that does no array work starts without it
if TYPE_CHECKING:
    import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_WHITESPACE_RE = re.compile(r"\s+")

WORD_AVERAGE = "word_average"
PRECOMPUTED_SENTENCE = "precomputed_sentence"

# Snap tolerance for cosine values that are 1.0 up to float rounding;
# exactly repeated texts must score exactly 1.0.
_UNIT_EPS = 1e-12

# Below this norm the squared components are subnormal and lose bits, so
# cosine() rescales such vectors first; larger ones are computed as they are.
_TINY_NORM = 1e-150

# Parsed vector files are kept per content under the user cache directory.
# Bump the format when the entry layout or the parsers' results change;
# entries of any format count against the per-kind cap, so old ones age out.
_CACHE_FORMAT = 3
_CACHE_ENTRIES = 8
# an entry's last bytes: the byte length of its keys and the CRC-32 of
# every byte before this trailer
_CACHE_TRAILER = struct.Struct("<QI")

# One block of a score table holds at most this many bytes.
_BLOCK_BYTES = 16 << 20


def load_stopwords(path: str | Path) -> frozenset[str]:
    words = set()
    for line in input_text(Path(path).read_bytes(), str(path), "stop-word list").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    return load_stopwords(data_path("stopwords_en.txt"))


def tokenize(text: str, stop_words: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop stop words.

    Digits are kept so route designations like "I-73" survive as tokens.
    """
    return [
        token
        for token in (match.group(0).lower() for match in _TOKEN_RE.finditer(text))
        if token not in stop_words
    ]


def normalize_sentence(text: str) -> str:
    """Key normalization for sentence-vector lookups and text frequency."""
    return _WHITESPACE_RE.sub(" ", text.strip()).lower()


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: dict[str, int]
    document_frequency: dict[str, int]
    document_count: int


def tfidf_fit(documents: Sequence[Sequence[str]]) -> TfidfModel:
    """Count document frequencies over a tokenized corpus."""
    if not documents:
        raise ParseError("cannot fit a TF-IDF model on an empty document list")
    frequency: dict[str, int] = {}
    for doc in documents:
        for term in set(doc):
            frequency[term] = frequency.get(term, 0) + 1
    vocabulary = {term: index for index, term in enumerate(sorted(frequency))}
    return TfidfModel(
        vocabulary=vocabulary,
        document_frequency=frequency,
        document_count=len(documents),
    )


def tfidf_vector(model: TfidfModel, doc: Sequence[str]) -> np.ndarray:
    """A document's weights as a dense row over `model.vocabulary`; N counts
    every token, and out-of-vocabulary terms get no column."""
    import numpy as np
    if not doc:
        raise ParseError("cannot vectorize an empty document")
    total = len(doc)
    counts: dict[str, int] = {}
    for token in doc:
        if token in model.vocabulary:
            counts[token] = counts.get(token, 0) + 1
    row = np.zeros(len(model.vocabulary))
    for term, count in counts.items():
        idf = 1.0 + math.log(model.document_count / model.document_frequency[term])
        row[model.vocabulary[term]] = (count / total) * idf
    return row


def _snap_unit(value: float) -> float:
    if value >= 1.0 - _UNIT_EPS:
        return 1.0
    if value <= -1.0 + _UNIT_EPS:
        return -1.0
    return value


@dataclass(frozen=True, eq=False)
class KeyedUnits:
    """Texts embedded once per distinct embedding key.

    `ids[i]` is text i's key id (keys numbered in first-occurrence order),
    `units[k]` key k's unit vector and `all_oov[k]` whether key k has no
    vector in the space that scores it (a zero row). `missed[k]` flags the
    keys a sentence table misses; when any is missed, `fallback` holds every
    key's first text embedded by the backend's fallback (its `ids` run over
    this object's key ids), else it is None.
    """

    ids: np.ndarray
    units: np.ndarray
    all_oov: np.ndarray
    missed: np.ndarray
    fallback: "KeyedUnits | None" = None

    def scores(self, rows, cols) -> np.ndarray:
        """Cosines of the keys `rows` against the keys `cols` (id arrays or
        slices): in the primary space where both keys hit it, else in the
        fallback space, where each distinct fallback key is scored once."""
        import numpy as np
        table = cosine_table(self.units[rows], self.units[cols])
        if self.fallback is None:
            return table
        hit = ~self.missed
        fallback_rows, row_of = np.unique(self.fallback.ids[rows], return_inverse=True)
        fallback_cols, col_of = np.unique(self.fallback.ids[cols], return_inverse=True)
        fallback = self.fallback.scores(fallback_rows, fallback_cols)[row_of][:, col_of]
        return np.where(hit[rows][:, None] & hit[cols], table, fallback)

    def best(
        self, rows: np.ndarray, groups: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """For each key id in `rows` and each group of key ids, the position in
        the group of the row's best match and its cosine, as arrays of shape
        (len(rows), len(groups)); ties take the lowest position, and an empty
        group gives -1 and -inf.

        Each distinct row key is scored once against the distinct keys of all
        groups, in row blocks of at most `_BLOCK_BYTES`. A group's columns are
        its distinct keys in first-occurrence order, so an argmax takes the
        lowest position among tied keys, and equal keys, sharing a column, tie
        exactly on any BLAS kernel.
        """
        import numpy as np
        row_keys, row_of = np.unique(rows, return_inverse=True)
        # the groups' keys, sorted, from a mask: np.unique without a flag
        # imports numpy.ma, about 7 ms and 0.5 MB more per process
        used = np.zeros(len(self.units), dtype=bool)
        for group in groups:
            used[group] = True
        col_keys = np.flatnonzero(used)
        columns = []  # per group: its distinct keys' columns and first positions
        for group in groups:
            keys, first = np.unique(group, return_index=True)
            order = np.argsort(first)
            columns.append((np.searchsorted(col_keys, keys[order]), first[order]))
        positions = np.full((len(row_keys), len(columns)), -1, dtype=np.intp)
        scores = np.full((len(row_keys), len(columns)), -np.inf)
        cols = _run_or_ids(col_keys)
        step = max(1, _BLOCK_BYTES // (8 * max(len(col_keys), 1)))
        for low in range(0, len(row_keys), step):
            table = self.scores(_run_or_ids(row_keys[low:low + step]), cols)
            high = low + len(table)
            for group, (ids, first) in enumerate(columns):
                if len(ids):
                    best = table[:, ids].argmax(axis=1)
                    positions[low:high, group] = first[best]
                    scores[low:high, group] = table[np.arange(high - low), ids[best]]
            del table  # one block at a time: free it before the next is made
        if np.array_equal(rows, row_keys):  # distinct and sorted: no copy
            return positions, scores
        return positions[row_of], scores[row_of]


def _run_or_ids(keys: np.ndarray):
    """Sorted distinct key ids as a slice when they are one contiguous run, so
    that the units they index are a view and not a copy; else the ids."""
    if len(keys) and keys[-1] - keys[0] == len(keys) - 1:
        return slice(int(keys[0]), int(keys[-1]) + 1)
    return keys


def unit_rows(backend: "EmbeddingBackend", texts: Sequence[str]) -> KeyedUnits:
    """Embed each distinct key of the texts once, in first-occurrence order.

    Without a fallback, a missing sentence vector is reported for the first
    text that misses. With one, the missed keys are flagged instead and
    every key is embedded by the fallback too.
    """
    import numpy as np
    first: dict = {}  # key -> (key id, first text)
    ids = np.array([first.setdefault(embedding_key(backend, text), (len(first), text))[0]
                    for text in texts], dtype=np.intp)
    originals = [text for _, text in first.values()]
    matrix = np.zeros((len(originals), backend.dimension))
    all_oov = np.zeros(len(originals), dtype=bool)
    missed = np.zeros(len(originals), dtype=bool)
    for key, text in enumerate(originals):
        try:
            embedded = embed_text(backend, text)
        except MissingEmbeddingError:
            if backend.fallback is None:
                raise
            missed[key] = True
        else:
            matrix[key], all_oov[key] = embedded.vector, embedded.all_oov
    units = _unit_length(matrix)
    if not missed.any():
        return KeyedUnits(ids, units, all_oov, missed)
    fallback = unit_rows(backend.fallback, originals)
    all_oov[missed] = fallback.all_oov[fallback.ids[missed]]
    return KeyedUnits(ids, units, all_oov, missed, fallback)


def _unit_length(matrix: np.ndarray) -> np.ndarray:
    """The rows of a matrix scaled to unit length; zero rows stay zero."""
    import numpy as np
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def cosine_table(unit_a: np.ndarray, unit_b: np.ndarray) -> np.ndarray:
    """All pairwise cosines of two unit-row stacks, snapped at the unit."""
    import numpy as np
    scores = unit_a @ unit_b.T
    np.clip(scores, -1.0, 1.0, out=scores)
    scores[scores >= 1.0 - _UNIT_EPS] = 1.0
    scores[scores <= -1.0 + _UNIT_EPS] = -1.0
    return scores


def cosine(v, w) -> float:
    """Cosine similarity of two dense vectors; zero-norm operands yield 0.0
    by convention."""
    import numpy as np
    av = np.asarray(v, dtype=float)
    aw = np.asarray(w, dtype=float)
    if av.shape != aw.shape:
        raise DimensionError(f"dimension mismatch: {av.shape} vs {aw.shape}")
    norm_v = float(np.linalg.norm(av))
    norm_w = float(np.linalg.norm(aw))
    if min(norm_v, norm_w) < _TINY_NORM and av.any() and aw.any():
        return cosine(av / np.abs(av).max(), aw / np.abs(aw).max())
    if norm_v == 0.0 or norm_w == 0.0:
        return 0.0
    return _snap_unit(float(np.dot(av, aw)) / (norm_v * norm_w))


@dataclass(frozen=True)
class EmbeddingBackend:
    """Token-vector table (word_average) or sentence-vector table."""

    kind: str
    dimension: int
    word_table: dict[str, np.ndarray] = field(default_factory=dict)
    sentence_table: dict[str, np.ndarray] = field(default_factory=dict)
    stop_words: frozenset[str] = frozenset()
    digest: str = ""  # SHA-256 of the bytes the table was read from
    # embeds the texts a sentence table misses; pairs with such a text are
    # scored in the fallback's space
    fallback: "EmbeddingBackend | None" = None

    def __post_init__(self) -> None:
        if self.kind not in (WORD_AVERAGE, PRECOMPUTED_SENTENCE):
            raise ParseError(f"unknown backend kind {self.kind!r}")
        if self.dimension <= 0:
            raise ParseError("backend dimension must be positive")


@dataclass(frozen=True)
class EmbeddedText:
    vector: np.ndarray
    all_oov: bool = False


def embedding_key(backend: EmbeddingBackend, text: str) -> str | tuple[str, ...]:
    """What the backend embeds of a text: the normalized sentence for a
    sentence table, the sorted in-vocabulary tokens after stop words for word
    averages. Texts with equal keys embed to the same bits."""
    if backend.kind == PRECOMPUTED_SENTENCE:
        return normalize_sentence(text)
    return tuple(sorted(token for token in tokenize(text, backend.stop_words)
                        if token in backend.word_table))


def embed_text(backend: EmbeddingBackend, text: str) -> EmbeddedText:
    """Exact table lookup (precomputed) or the mean token vector (word_average),
    summed in key order."""
    import numpy as np
    key = embedding_key(backend, text)
    if backend.kind == PRECOMPUTED_SENTENCE:
        vector = backend.sentence_table.get(key)
        if vector is None:
            raise MissingEmbeddingError(f"no precomputed sentence vector for {text!r}")
        return EmbeddedText(vector=vector, all_oov=False)
    if not key:
        return EmbeddedText(vector=np.zeros(backend.dimension), all_oov=True)
    return EmbeddedText(vector=np.mean([backend.word_table[token] for token in key], axis=0))


def load_word_vectors(
    path: str | Path, stop_words: frozenset[str] | None = None
) -> EmbeddingBackend:
    """Read the textual interchange format: header line, then token + floats;
    a file that parses without a warning is cached by content."""
    return _load_vectors(Path(path), WORD_AVERAGE, stop_words)


def load_sentence_vectors(path: str | Path) -> EmbeddingBackend:
    """Read JSON-Lines {"text": ..., "vector": [...]} into a lookup table; a
    file that parses is cached by content. A sentence key is never
    tokenized, so the backend has no stop words."""
    return _load_vectors(Path(path), PRECOMPUTED_SENTENCE, frozenset())


def _load_vectors(path: Path, kind: str, stop_words: frozenset[str] | None) -> EmbeddingBackend:
    """A vector file's backend, from the cached keys and matrix of its bytes
    or from a parse of its lines, cached when clean; of repeated keys the last
    row wins. A hit hashes the file without holding it; a miss reads it whole
    and reports the digest of the bytes it parsed. Lines end at "\\n", "\\r\\n"
    or "\\r" only: a JSON string may hold U+2028 and the like, and in a word
    line they are whitespace."""
    digest = file_digest(path)
    cached = _cache_read(kind, digest)
    if cached is not None:
        keys, matrix = cached
        table = dict(zip(keys, matrix))
    if cached is None or len(table) != len(keys):  # no entry, or a foreign one
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        text = input_text(data, str(path))
        del data  # hold at most two copies of the file at once, as reading text does
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
        lines = text.split("\n")
        del text
        parse = _parse_word_file if kind == WORD_AVERAGE else _parse_sentence_file
        keys, matrix, clean = parse(path, lines)
        del lines  # free the text before the entry is written
        if clean:
            _cache_write(kind, digest, keys, matrix)
        table = dict(zip(keys, matrix))
    return EmbeddingBackend(
        kind=kind,
        dimension=matrix.shape[1],
        word_table=table if kind == WORD_AVERAGE else {},
        sentence_table=table if kind == PRECOMPUTED_SENTENCE else {},
        stop_words=default_stopwords() if stop_words is None else stop_words,
        digest=digest,
    )


def _parse_word_file(path: Path, lines: Sequence[str]) -> tuple[list[str], np.ndarray, bool]:
    """A word-vector file's tokens, the matrix of their vectors and whether it
    parsed without a warning: a file that warns is not cached, so that the
    warning repeats on every load."""
    if lines == [""]:  # what an empty text splits into
        raise ParseError(f"{path}: empty word-vector file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"{path}, line 1: header must be '<vocab_size> <dimension>'")
    try:
        declared, dimension = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"{path}, line 1: non-integer header field") from exc
    if dimension <= 0:
        raise ParseError(f"{path}, line 1: dimension must be positive")

    parsed = _parse_word_lines_bulk(path, lines, dimension)
    tokens, numbers, matrix = parsed or _parse_word_lines(path, lines, dimension)
    seen: set[str] = set()
    for number, token in zip(numbers, tokens):
        if token in seen:
            warnings.warn(f"{path}, line {number}: duplicate token {token!r}, last wins")
        seen.add(token)
    if declared != len(tokens):
        warnings.warn(f"{path}: header declares {declared} tokens, file holds {len(tokens)}")
    if not tokens:
        raise ParseError(f"{path}: word-vector file holds no vectors")
    return tokens, matrix, declared == len(tokens) == len(seen)


def _parse_word_lines(
    path: Path, lines: Sequence[str], dimension: int
) -> tuple[list[str], list[int], np.ndarray]:
    """Parse the data lines one by one with Python's float().

    This is the reference reader: it raises the ParseError for the first bad
    line and accepts every finite value float() reads. It returns the tokens,
    their line numbers and the matrix of their vectors, allocated once a line
    has held as many components as the header declares."""
    import numpy as np
    tokens: list[str] = []
    numbers: list[int] = []
    matrix = np.empty((0, dimension))
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dimension + 1:
            raise ParseError(
                f"{path}, line {number}: expected {dimension} components, got {len(parts) - 1}"
            )
        if not len(matrix):  # a row takes 2 * dimension + 1 characters or more
            matrix = np.empty((sum(map(len, lines)) // (2 * dimension + 1), dimension))
        try:
            matrix[len(tokens)] = [float(part) for part in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}, line {number}: non-numeric component") from exc
        if not np.isfinite(matrix[len(tokens)]).all():
            raise ParseError(f"{path}, line {number}: non-finite component")
        tokens.append(parts[0])
        numbers.append(number)
    matrix = matrix[: len(tokens)]
    matrix.setflags(write=False)
    return tokens, numbers, matrix


def _parse_word_lines_bulk(
    path: Path, lines: Sequence[str], dimension: int
) -> tuple[list[str], list[int], np.ndarray] | None:
    """Parse all data lines with numpy's C float parser into one matrix.

    Returns the tokens, their line numbers and the matrix, or None when any
    line is not plainly well formed (a short or long line, a component the C
    parser rejects, or no data at all); `_parse_word_lines` then gives the
    exact error or reads spellings only float() accepts, such as "1_0". Both
    parsers round correctly, so the values are bit-identical. A row with a
    non-finite component raises the ParseError that names its line.
    """
    import numpy as np
    tokens: list[str] = []
    rests: list[str] = []
    numbers: list[int] = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            return None
        tokens.append(parts[0])
        rests.append(parts[1])
        numbers.append(number)
    if not rests:
        return None
    try:
        matrix = np.loadtxt(rests, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (len(rests), dimension):
        return None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}, line {numbers[int(finite.argmin())]}: non-finite component")
    matrix.setflags(write=False)
    return tokens, numbers, matrix


_SENTENCE_RECORD = {"text": str, "vector": [float]}


def _parse_sentence_file(path: Path, lines: Sequence[str]) -> tuple[list[str], np.ndarray, bool]:
    """The normalized texts of a sentence-vector file's lines in first-occurrence
    order, the matrix of their vectors and True: a file that parses is clean."""
    import numpy as np
    table: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}, line {number}"
        record = json_value(line, where)
        check_shape(record, _SENTENCE_RECORD, where)
        vector = record["vector"]
        if dimension is None:
            dimension = len(vector)
            if dimension == 0:
                raise ParseError(f"{where}: empty vector")
            # a row takes 2 * dimension + 1 characters or more; unwritten rows take no memory
            matrix = np.empty((sum(map(len, lines)) // (2 * dimension + 1), dimension))
        elif len(vector) != dimension:
            raise ParseError(f"{where}: vector length {len(vector)} != expected {dimension}")
        key = normalize_sentence(record["text"])
        existing = table.get(key)
        if existing is not None and not np.array_equal(existing, vector):
            raise ParseError(
                f"{where}: duplicate text {record['text']!r} with differing vectors"
            )
        table.setdefault(key, matrix[len(table)])[:] = vector  # an equal repeat: last wins
    if dimension is None:
        raise ParseError(f"{path}: sentence-vector file holds no vectors")
    matrix = matrix[: len(table)]
    matrix.setflags(write=False)
    return list(table), matrix, True


# ----------------------------------------------------------- parse cache
#
# An entry is named by the kind, the format and the SHA-256 of the source
# bytes. It is a .npy file of the float64 matrix (one row per key; np.save
# starts the data at a 64-byte aligned offset), followed by the table's keys
# in order (UTF-8, joined by newlines; neither tokens nor normalized
# sentences contain a newline) and `_CACHE_TRAILER`. A hit maps the matrix
# read-only, so a command holds only the rows it reads; the CRC, the checks
# in `_cache_read` and the loader's table turn a torn or foreign entry into a
# miss. Entries are replaced whole, never written in place: a mapping stays valid.


def _cache_entry(kind: str, digest: str) -> Path | None:
    """$XDG_CACHE_HOME/riskbench/<entry>, else ~/.cache/riskbench; None without a home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: ignored, as the spec says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return Path(base, "riskbench", f"{kind}-v{_CACHE_FORMAT}-{digest}.npy")


def _crc32(handle, size: int) -> int:
    """The CRC-32 of a file's first `size` bytes, read in blocks through `read`:
    pages read this way do not count toward the process's memory, as pages of
    a mapping it touches do."""
    handle.seek(0)
    crc = 0
    for start in range(0, size, 1 << 20):
        crc = zlib.crc32(handle.read(min(size - start, 1 << 20)), crc)
    return crc


def _cache_read(kind: str, digest: str) -> tuple[list[str], np.ndarray] | None:
    """The cached keys and read-only mapped matrix of a digest, or None for a
    missing or invalid entry; the loader's table tells a repeated key."""
    import mmap

    import numpy as np
    entry = _cache_entry(kind, digest)
    if entry is None:
        return None
    try:
        with open(entry, "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            offset = handle.tell()
            size = os.fstat(handle.fileno()).st_size
            handle.seek(size - _CACHE_TRAILER.size)
            key_bytes, crc = _CACHE_TRAILER.unpack(handle.read(_CACHE_TRAILER.size))
            if (
                dtype != np.float64
                or fortran_order
                or len(shape) != 2
                or shape[1] < 1
                or offset + 8 * shape[0] * shape[1] + key_bytes + _CACHE_TRAILER.size != size
                or _crc32(handle, size - _CACHE_TRAILER.size) != crc
            ):
                return None
            handle.seek(size - _CACHE_TRAILER.size - key_bytes)
            keys = handle.read(key_bytes).decode("utf-8", "surrogatepass").split("\n")
            if len(keys) != shape[0]:
                return None
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError, struct.error):
        return None
    # a plain read-only ndarray over the mapping: its rows are cheap views
    return keys, np.frombuffer(mapping, dtype=np.float64, count=shape[0] * shape[1],
                               offset=offset).reshape(shape)


def _cache_write(kind: str, digest: str, keys: list[str], matrix: np.ndarray) -> None:
    """Store parsed keys and their matrix, then drop the oldest entries of the
    kind past the cap; nothing is stored, and nothing said, when the directory
    cannot be created or written."""
    import tempfile

    import numpy as np

    entry = _cache_entry(kind, digest)
    if entry is None:
        return
    encoded = "\n".join(keys).encode("utf-8", "surrogatepass")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(prefix=f".{kind}-", suffix=".tmp", dir=entry.parent)
    except OSError:
        return
    try:
        with os.fdopen(handle, "w+b") as out:
            np.save(out, matrix, allow_pickle=False)
            out.write(encoded)
            crc = _crc32(out, out.tell())
            out.write(_CACHE_TRAILER.pack(len(encoded), crc))
        # No fsync: an entry torn by a crash fails its CRC and is rewritten.
        os.replace(temp, entry)
    except OSError:
        return
    finally:
        with suppress(OSError):
            os.unlink(temp)  # already gone after a successful replace
    ages = []
    for other in entry.parent.glob(f"{kind}-*"):  # entries of every format
        with suppress(OSError):
            ages.append((other.stat().st_mtime_ns, other.name))
    for _, name in sorted(ages)[:-_CACHE_ENTRIES]:
        with suppress(OSError):
            os.unlink(entry.parent / name)
