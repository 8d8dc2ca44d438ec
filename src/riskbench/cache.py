"""The parse cache: what an earlier command parsed, kept per content.

An entry lives at $XDG_CACHE_HOME/riskbench/<kind>-v<format>-<key>, else
under ~/.cache/riskbench. Its last bytes are `TRAILER`, the CRC-32 of every
byte before it. Each kind owns only its byte layout; this module alone opens,
checks and writes an entry:

- `key(*parts)` is the SHA-256 of `repr(parts)`.
- `read(kind, format, key, decode)` returns `decode(handle, size)` for the
  bytes before the trailer. A missing entry, a failed CRC, a decode that
  returns None and one that raises one of `INVALID` are a miss and read None;
  any other exception is a bug and propagates.
- `store(kind, format, key, fill)` writes what `fill` writes to a temporary
  file in the cache directory and renames it over the entry, so a reader sees
  a whole entry or none; it is never written in place, so a mapping of it
  stays valid. It then deletes the entries of its kind in any other format,
  which are never read again, and keeps only the newest `ENTRIES` of its own.
  Nothing is stored, and nothing said, when the directory cannot be written.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar

from .errors import RiskbenchError

ENTRIES = 8
TRAILER = struct.Struct("<I")
# what a torn, foreign or invalid entry raises while it is decoded, the
# records' constructors included
INVALID = (OSError, EOFError, ValueError, TypeError, KeyError, AttributeError, struct.error,
           RiskbenchError)
# A scipy.special entry holds one little-endian float64. Bump the format when
# its layout or its key changes.
_SPECIAL_FORMAT = 1
_FLOAT = struct.Struct("<d")
T = TypeVar("T")


def entry_path(kind: str, format: int, key: str) -> Path | None:
    """$XDG_CACHE_HOME/riskbench/<kind>-v<format>-<key>, else under
    ~/.cache/riskbench; None without a home. Neither kind nor key holds a "-"."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: ignored, as the spec says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return Path(base, "riskbench", f"{kind}-v{format}-{key}")


def key(*parts) -> str:
    """The SHA-256 of `repr(parts)`, in hex."""
    from hashlib import sha256

    return sha256(repr(parts).encode()).hexdigest()


def _crc32(handle: BinaryIO, size: int) -> int:
    """The CRC-32 of a file's first `size` bytes, read in blocks through `read`:
    pages read this way do not count toward the process's memory, as pages of
    a mapping it touches do."""
    handle.seek(0)
    crc = 0
    for start in range(0, size, 1 << 20):
        crc = zlib.crc32(handle.read(min(size - start, 1 << 20)), crc)
    return crc


def checked_size(handle: BinaryIO) -> int | None:
    """The byte count before the trailer of an open entry, or None when the
    entry is shorter than its trailer or fails its CRC."""
    size = os.fstat(handle.fileno()).st_size - TRAILER.size
    if size < 0:
        return None
    crc = _crc32(handle, size)
    return size if TRAILER.unpack(handle.read(TRAILER.size)) == (crc,) else None


def read(kind: str, format: int, key: str,
         decode: Callable[[BinaryIO, int], T | None]) -> T | None:
    """What `decode` makes of an entry, or None for a miss."""
    entry = entry_path(kind, format, key)
    if entry is None:
        return None
    try:
        with open(entry, "rb") as handle:
            size = checked_size(handle)
            if size is None:
                return None
            handle.seek(0)
            return decode(handle, size)
    except INVALID:
        return None


def store(kind: str, format: int, key: str, fill: Callable[[BinaryIO], None]) -> None:
    """Store the entry that `fill` writes to an open binary file, then prune."""
    import tempfile

    entry = entry_path(kind, format, key)
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
    ages = []
    for other in entry.parent.glob(f"{kind}-*"):
        with suppress(OSError):
            if other.name.startswith(f"{kind}-v{format}-"):
                ages.append((other.stat().st_mtime_ns, other.name))
            else:  # another format, or a name from before formats were named
                os.unlink(other)
    for _, other in sorted(ages)[:-ENTRIES]:
        with suppress(OSError):
            os.unlink(entry.parent / other)


def special(name: str, *args: float) -> float:
    """scipy.special's function `name` at `args`, as the float it returns.

    Importing scipy.special takes longer than a short command's own work, so
    while it is not loaded the value is kept in an entry keyed by the scipy
    build (version, git revision and the suffix of the compiled modules it
    loads, which names the interpreter, machine and OS), `name` and each
    argument's float.hex(), and a hit does not import it. A top-level
    `import scipy` does not load scipy.special. Once it is loaded the entry is
    skipped, so a loop of calls does no file I/O."""
    digest = None
    if "scipy.special" not in sys.modules:
        from importlib.machinery import EXTENSION_SUFFIXES

        import scipy

        build = (scipy.__version__, scipy.version.git_revision, EXTENSION_SUFFIXES[0])
        digest = key(_SPECIAL_FORMAT, build, name, [float(arg).hex() for arg in args])
        value = read("special", _SPECIAL_FORMAT, digest, _decode_float)
        if value is not None:
            return value
    import scipy.special

    value = float(getattr(scipy.special, name)(*args))
    if digest is not None:
        store("special", _SPECIAL_FORMAT, digest, lambda out: out.write(_FLOAT.pack(value)))
    return value


def _decode_float(handle: BinaryIO, size: int) -> float | None:
    return _FLOAT.unpack(handle.read(size))[0] if size == _FLOAT.size else None
