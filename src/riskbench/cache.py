"""The parse cache: what an earlier command parsed, kept per content.

An entry lives at $XDG_CACHE_HOME/riskbench/<kind>-<key>, else under
~/.cache/riskbench. Its last bytes are `TRAILER`, the CRC-32 of every byte
before it. Each kind owns only its byte layout; this module alone opens,
checks and writes an entry:

- `key(*parts)` is the SHA-256 of `repr(parts)`. Every key holds the
  `source_digest(*files)` of the code that lays out its bytes, and that
  alone says which code owns an entry: other code, another riskbench tree
  sharing the cache included, never reads it.
- `read(kind, key, decode)` returns `decode(handle, size)` for the bytes
  before the trailer. A missing entry, a failed CRC, a decode that returns
  None and one that raises one of `INVALID` are a miss and read None; any
  other exception is a bug and propagates.
- `store(kind, key, fill)` writes what `fill` writes to a temporary file in
  the cache directory and renames it over the entry, so a reader sees a whole
  entry or none; it is never written in place, so a mapping of it stays
  valid. It then keeps only the `ENTRIES` of its kind (`MEMOS` of the memo
  kind) last used, whatever code wrote them. Nothing is stored, and nothing
  said, when the directory cannot be written.
- A hit touches the entry's zero-byte `<kind>-<key>.used` marker, not the
  entry: the CRC memo is keyed by the entry's own times. An entry was last
  used at the later of its own and its marker's mtime. A memo hit touches no
  marker; `MEMOS` exceeds what any workflow reads. Markers count toward no
  kind's entries, and go with their entry.

What is learned of a regular file's bytes is kept in a memo entry keyed by
this module's source digest and the file's absolute path, device, inode,
size, mtime and ctime: the SHA-256 that `file_digest` returns, or that an
entry's CRC matched in `read`. A memo is trusted only when both of the
file's times are older than the memo's own write by more than
`MEMO_MARGIN_NS`, and it is written only when that holds already. A file
rewritten within one timestamp tick of being read can keep all of its stat
fields, so a file younger than the margin is read in full every time (git's
racy-timestamp rule).
"""

from __future__ import annotations

import functools
import os
import stat
import struct
import sys
import time
import zlib
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar

from . import report
from .errors import RiskbenchError

ENTRIES = 8
# memos kept: more than the distinct files and entries any one workflow reads
MEMOS = 256
# how much older than a memo's write a file's mtime and ctime must be for the
# memo to be trusted: well above any file system's timestamp granularity
MEMO_MARGIN_NS = 2_000_000_000
TRAILER = struct.Struct("<I")
# what a torn, foreign or invalid entry raises while it is decoded, the
# records' constructors included
INVALID = (OSError, EOFError, ValueError, TypeError, KeyError, AttributeError, struct.error,
           RiskbenchError)
# A scipy.special entry holds one little-endian float64.
_FLOAT = struct.Struct("<d")
# the suffix of an entry's last-use marker; no key ends with it
_USED = ".used"
# A memo entry holds the memo's write time in ns, little-endian, then its
# value in ASCII: a SHA-256 in hex, or nothing for a matched CRC.
_MEMO = "memo"
_WRITTEN = struct.Struct("<q")
T = TypeVar("T")


def entry_path(kind: str, key: str) -> Path | None:
    """$XDG_CACHE_HOME/riskbench/<kind>-<key>, else under ~/.cache/riskbench;
    None without a home. Neither kind nor key holds a "-"."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: ignored, as the spec says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return Path(base, "riskbench", f"{kind}-{key}")


def key(*parts) -> str:
    """The SHA-256 of `repr(parts)`, in hex."""
    from hashlib import sha256

    return sha256(repr(parts).encode()).hexdigest()


@functools.cache
def source_digest(*files: str) -> str:
    """The `key` of the SHA-256 of each source file's bytes, read once per
    process. An entry whose key holds it is never served to other code."""
    from hashlib import sha256

    return key(*(sha256(Path(name).read_bytes()).hexdigest() for name in files))


def file_digest(path: str | Path) -> str:
    """The SHA-256 of a file's bytes: a trusted memo's, else
    `report.file_digest`'s, memoized when the file is old enough."""
    try:
        status = os.stat(path)
    except OSError:  # raised again, as opening the file raises it
        return report.file_digest(path)
    memo = _memo_key("sha256", path, status)
    digest = None if memo is None else _recall(memo, status)
    if digest is None:
        digest = report.file_digest(path)
        if memo is not None:
            _remember(memo, status, digest)
    return digest


def _memo_key(purpose: str, path: str | Path, status: os.stat_result) -> str | None:
    """The memo key of what `purpose` learns of a regular file in its current
    state; None for any other file."""
    if not stat.S_ISREG(status.st_mode):
        return None
    return key(source_digest(__file__), purpose, os.path.abspath(path), status.st_dev,
               status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)


def _settled(status: os.stat_result, at_ns: int) -> bool:
    """Whether both of a file's times are older than `at_ns` by more than the margin."""
    return at_ns - max(status.st_mtime_ns, status.st_ctime_ns) > MEMO_MARGIN_NS


def _recall(memo: str, status: os.stat_result) -> str | None:
    """The value of a memo that is trusted for a file's `status`, or None."""
    record = read(_MEMO, memo, _decode_memo)
    if record is None or not _settled(status, record[0]):
        return None
    return record[1]


def _remember(memo: str, status: os.stat_result, value: str) -> None:
    """Store a memo of `value` if the file's times are already old enough."""
    now = time.time_ns()
    if _settled(status, now):
        store(_MEMO, memo, lambda out: out.write(_WRITTEN.pack(now) + value.encode()))


def _decode_memo(handle: BinaryIO, size: int) -> tuple[int, str] | None:
    if size < _WRITTEN.size:
        return None
    data = handle.read(size)
    return _WRITTEN.unpack_from(data)[0], data[_WRITTEN.size:].decode("ascii")


def _crc32(handle: BinaryIO, size: int) -> int:
    """The CRC-32 of a file's first `size` bytes, read in blocks through `read`:
    pages read this way do not count toward the process's memory, as pages of
    a mapping it touches do."""
    handle.seek(0)
    crc = 0
    for start in range(0, size, 1 << 20):
        crc = zlib.crc32(handle.read(min(size - start, 1 << 20)), crc)
    return crc


def checked_size(handle: BinaryIO, path: Path | None = None) -> int | None:
    """The byte count before the trailer of an open entry, or None when the
    entry is shorter than its trailer or fails its CRC. Given the entry's
    `path`, a match that a trusted memo records for the open file is not
    checked again, and a match is memoized when the file is old enough."""
    status = os.fstat(handle.fileno())
    size = status.st_size - TRAILER.size
    if size < 0:
        return None
    memo = None if path is None else _memo_key("crc32", path, status)
    if memo is not None and _recall(memo, status) is not None:
        return size
    crc = _crc32(handle, size)
    if TRAILER.unpack(handle.read(TRAILER.size)) != (crc,):
        return None
    if memo is not None:
        _remember(memo, status, "")
    return size


def read(kind: str, key: str, decode: Callable[[BinaryIO, int], T | None]) -> T | None:
    """What `decode` makes of an entry, or None for a miss."""
    entry = entry_path(kind, key)
    if entry is None:
        return None
    try:
        with open(entry, "rb") as handle:
            # a memo's own CRC is always checked: it is what a memo would record
            size = checked_size(handle, None if kind == _MEMO else entry)
            if size is None:
                return None
            handle.seek(0)
            value = decode(handle, size)
    except INVALID:
        return None
    if value is not None and kind != _MEMO:
        with suppress(OSError):
            entry.with_name(entry.name + _USED).touch()
    return value


def store(kind: str, key: str, fill: Callable[[BinaryIO], None]) -> None:
    """Store the entry that `fill` writes to an open binary file, then prune."""
    import tempfile

    entry = entry_path(kind, key)
    if entry is None:
        return
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(prefix=f".{kind}-", suffix=".tmp", dir=entry.parent)
    except OSError:
        return
    try:
        with os.fdopen(handle, "w+b") as out:
            fill(out)
            out.write(TRAILER.pack(_crc32(out, out.tell())))
        # No fsync: an entry torn by a crash fails its CRC and is rewritten.
        os.replace(temp, entry)
    except OSError:
        return
    finally:
        with suppress(OSError):
            os.unlink(temp)  # already gone after a successful replace
    entries: dict[str, int] = {}
    used: dict[str, int] = {}
    for other in entry.parent.glob(f"{kind}-*"):
        name = other.name.removesuffix(_USED)
        with suppress(OSError):
            (entries if name == other.name else used)[name] = other.stat().st_mtime_ns
    ages = sorted((max(mtime, used.get(name, mtime)), name) for name, mtime in entries.items())
    stale = {name for _, name in ages[:-(MEMOS if kind == _MEMO else ENTRIES)]}
    # each stale entry and its marker, and each marker whose entry is gone
    for name in [*stale, *(name + _USED for name in used if name in stale or name not in entries)]:
        with suppress(OSError):
            os.unlink(entry.parent / name)


def special(name: str, *args: float) -> float:
    """scipy.special's function `name` at `args`, as the float it returns.

    Importing scipy.special takes longer than a short command's own work, so
    while it is not loaded the value is kept in an entry keyed by this
    module's source digest, the scipy build (the source digest of its
    `version.py`, which holds its version and git revision, and the suffix of
    the compiled modules it loads, which names the interpreter, machine and
    OS), `name` and each argument's float.hex(), and a hit imports no scipy
    module: the build is found by `find_spec`. Once scipy.special is loaded
    the entry is skipped, so a loop of calls does no file I/O."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec

    digest = None
    spec = None if "scipy.special" in sys.modules else find_spec("scipy")
    if spec is not None:  # scipy is installed and scipy.special not loaded
        version = os.path.join(spec.submodule_search_locations[0], "version.py")
        build = (source_digest(version), EXTENSION_SUFFIXES[0])
        digest = key(source_digest(__file__), build, name, [float(arg).hex() for arg in args])
        value = read("special", digest, _decode_float)
        if value is not None:
            return value
    import scipy.special

    value = float(getattr(scipy.special, name)(*args))
    if digest is not None:
        store("special", digest, lambda out: out.write(_FLOAT.pack(value)))
    return value


def _decode_float(handle: BinaryIO, size: int) -> float | None:
    return _FLOAT.unpack(handle.read(size))[0] if size == _FLOAT.size else None
