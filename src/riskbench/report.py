"""Canonical report emission: sorted keys, 6-significant-digit floats.

Two runs over identical inputs must produce byte-identical files, so
reports carry no timestamps and float formatting is fixed. The canonical
text is what `json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=False)` prints once every float is rounded to 6 significant
digits, plus a trailing newline. A `PairRows` pair list is left out of that
text and streamed into its place in chunks, so a report with millions of
pairs is never held whole.

This module imports nothing from its package, so it can be loaded on its
own to re-check a report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import secrets
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

# Pair rows are formatted and written this many at a time.
_PAIR_CHUNK = 1 << 13


@dataclass(frozen=True)
class PairScore:
    a: str
    b: str
    score: float


@dataclass(frozen=True, eq=False)
class PairRows(Sequence[PairScore]):
    """Scored pairs as columns: pair i is (labels[source_rows[i]],
    labels[target_rows[i]], scores[i]), with numpy arrays for the columns.

    A read-only sequence of `PairScore`s, equal to another `PairRows` that
    holds the same pairs; a report writes the rows as a list of
    {"a", "b", "score"} objects without building one per pair.
    """

    labels: Sequence[str]
    source_rows: np.ndarray
    target_rows: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PairRows(self.labels, self.source_rows[index], self.target_rows[index],
                            self.scores[index])
        return PairScore(self.labels[int(self.source_rows[index])],
                         self.labels[int(self.target_rows[index])], float(self.scores[index]))

    def __iter__(self) -> Iterator[PairScore]:
        labels = self.labels
        for a, b, score in zip(self.source_rows.tolist(), self.target_rows.tolist(),
                               self.scores.tolist()):
            yield PairScore(labels[a], labels[b], score)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairRows):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def _rounded(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"reports must not contain non-finite floats: {value!r}")
    return float(f"{value:.6g}")


def _write_pair_rows(rows: PairRows, pad: str, write: Callable[[str], None]) -> None:
    """Write `rows` as the list of {"a", "b", "score"} objects that `json.dumps`
    would print at a line indented as `pad`, in chunks."""
    # numpy is imported here so that loading this module alone stays light
    import numpy as np

    if not len(rows):
        write("[]")
        return
    # A pair's text is heads[source] + middles[target] + tails[score code].
    # Scores are told apart by bit pattern, so that -0.0 and 0.0 stay apart.
    inner, field = pad + "  ", pad + "    "
    labels = [encode_basestring(label) for label in rows.labels]
    heads = np.array([f'{{{field}"a": {label},{field}"b": ' for label in labels], dtype=object)
    middles = np.array([f'{label},{field}"score": ' for label in labels], dtype=object)
    bits, codes = np.unique(np.ascontiguousarray(rows.scores, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    tails = np.array([f"{_rounded(score)!r}{inner}}}" for score in bits.view(np.float64).tolist()],
                     dtype=object)
    opening, separator = "[" + inner, "," + inner
    for low in range(0, len(codes), _PAIR_CHUNK):
        chunk = slice(low, low + _PAIR_CHUNK)
        texts = (heads[rows.source_rows[chunk]] + middles[rows.target_rows[chunk]]
                 + tails[codes[chunk]])
        write(opening + separator.join(texts.tolist()))
        opening = separator
    write(pad + "]")


def _write_canonical(payload: Any, write: Callable[[str], None]) -> None:
    """Hand the canonical JSON text of `payload` to `write`, in order, in pieces.

    Everything but the `PairRows` goes through `json.dumps` as one text, with
    a placeholder string in the place of each pair list; the pair lists are
    then written into those places. A non-finite float raises ValueError, in
    a pair list possibly after earlier pieces were written.
    """
    slots: list[PairRows] = []
    mark = f"PairRows-{secrets.token_hex(8)}-"

    def prepared(value: Any) -> Any:
        if isinstance(value, float):
            return _rounded(value)
        if isinstance(value, dict):
            return {str(key): prepared(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [prepared(item) for item in value]
        if isinstance(value, PairRows):
            slots.append(value)
            return f"{mark}{len(slots) - 1}"
        return value

    text = json.dumps(prepared(payload), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    # pieces alternate: text, slot number, text, ..., text
    pieces = re.split(f'"{mark}(\\d+)"', text)
    for at in range(1, len(pieces), 2):
        before = pieces[at - 1]
        write(before)
        line = before[before.rfind("\n") + 1:]
        _write_pair_rows(slots[int(pieces[at])], "\n" + " " * (len(line) - len(line.lstrip(" "))),
                         write)
    write(pieces[-1])


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed floats, trailing newline."""
    chunks: list[str] = []
    _write_canonical(payload, chunks.append)
    return "".join(chunks)


def file_digest(path: str | Path) -> str:
    """SHA-256 of a file's bytes, read in fixed-size blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that replaces `path` only when the block completes.

    The bytes go to a temporary file beside the target, which is renamed
    over it at the end; if the block raises, the temporary file is removed
    and whatever was at `path` stays as it was. A new file gets the mode a
    plain write gives it, and a replaced file keeps its mode. Missing parent
    directories are made; a symbolic link is written through. A path that
    exists and is not a regular file (/dev/null, a pipe such as /dev/stdout,
    a terminal) cannot be replaced, so it is opened and written in place.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as handle:
            yield handle
        return
    path = Path(os.path.realpath(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    # 0o666 under the umask, as open() creates files, not mkstemp's 0o600
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "wb") as handle:
            try:
                os.chmod(descriptor, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_report(payload: Any, path: str | Path) -> int:
    """Stream the canonical JSON form of a report to `path`, atomically; returns
    the byte count."""
    written = 0

    def write(text: str) -> None:
        nonlocal written
        written += handle.write(text.encode("utf-8"))

    with atomic_output(path) as handle:
        _write_canonical(payload, write)
    return written


def write_csv(path: str | Path, rows: Sequence[Sequence[Any]]) -> None:
    """Rows as a UTF-8 CSV with "\\n" line ends, written atomically."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    with atomic_output(path) as handle:
        handle.write(buffer.getvalue().encode("utf-8"))


def write_heatmap_csv(
    path: str | Path,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
    matrix: Sequence[Sequence[float | None]],
) -> None:
    """Rectangular CSV with id headers on both axes."""
    if len(matrix) != len(row_ids) or any(len(row) != len(col_ids) for row in matrix):
        raise ValueError("heatmap matrix shape does not match its headers")
    write_csv(path, [[""] + list(col_ids)] + [
        [row_id] + ["" if value is None else f"{value:.6g}" for value in row]
        for row_id, row in zip(row_ids, matrix)
    ])
