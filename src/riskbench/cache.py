"""The parse cache: what an earlier command parsed, kept per content.

An entry lives at $XDG_CACHE_HOME/riskbench/<kind>-<name>, else under
~/.cache/riskbench. Its last bytes are `TRAILER`, the CRC-32 of every byte
before it. An entry is written to a temporary file in the cache directory and
renamed over its name, so a reader sees a whole entry or none; it is never
written in place, so a mapping of it stays valid. After each write only the
newest `ENTRIES` entries of the kind are kept. Nothing is stored, and nothing
said, when the directory cannot be created or written.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable

ENTRIES = 8
TRAILER = struct.Struct("<I")


def entry_path(kind: str, name: str) -> Path | None:
    """$XDG_CACHE_HOME/riskbench/<kind>-<name>, else ~/.cache/riskbench; None
    without a home. A kind holds no "-"."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: ignored, as the spec says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return Path(base, "riskbench", f"{kind}-{name}")


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


def write(entry: Path, fill: Callable[[BinaryIO], None]) -> None:
    """Store at an `entry_path` the entry that `fill` writes to an open binary
    file, then drop the oldest entries of its kind past the cap."""
    import tempfile

    kind = entry.name.partition("-")[0]
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
    for other in entry.parent.glob(f"{kind}-*"):  # entries of every format
        with suppress(OSError):
            ages.append((other.stat().st_mtime_ns, other.name))
    for _, other in sorted(ages)[:-ENTRIES]:
        with suppress(OSError):
            os.unlink(entry.parent / other)
