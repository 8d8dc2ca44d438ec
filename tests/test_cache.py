"""The parse cache's one read path and one store path, driven with a toy kind.

Every kind (vector tables, corpora, scipy values) reads and stores through
`cache.read` and `cache.store`, so the rule that turns a bad entry into a
miss is tested here once, with a decoder that returns the entry's bytes.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from riskbench import cache
from riskbench.errors import CorpusError, RiskbenchError

KIND, FORMAT, KEY = "toy", 1, "k.bin"
DATA = b"twelve bytes"


@pytest.fixture
def home(tmp_path, monkeypatch):
    """A private, empty cache home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _entry():
    return cache.entry_path(KIND, FORMAT, KEY)


def _bytes(handle, size):
    return handle.read(size)


def _store(data=DATA):
    cache.store(KIND, FORMAT, KEY, lambda out: out.write(data))


def test_a_stored_entry_reads_back(home):
    _store()
    assert _entry() == home / "riskbench" / f"{KIND}-v{FORMAT}-{KEY}"
    assert _entry().read_bytes() == DATA + cache.TRAILER.pack(zlib.crc32(DATA))
    assert cache.read(KIND, FORMAT, KEY, _bytes) == DATA
    assert cache.read(KIND, FORMAT + 1, KEY, _bytes) is None
    assert list(_entry().parent.iterdir()) == [_entry()]


def test_the_key_is_the_sha256_of_the_parts_repr():
    import hashlib

    parts = (1, "tag", ["a", "b"], [0.5], None)
    assert cache.key(*parts) == hashlib.sha256(repr(parts).encode()).hexdigest()
    assert cache.key(1, "tag") != cache.key(1, "tag", None)


def _damage(entry, how):
    data = entry.read_bytes()
    if how == "missing":
        entry.unlink()
    elif how == "shorter-than-its-trailer":
        entry.write_bytes(data[: cache.TRAILER.size - 1])
    elif how == "truncated":
        entry.write_bytes(data[:-1])
    elif how == "flipped-byte":
        entry.write_bytes(data[:3] + bytes([data[3] ^ 0xFF]) + data[4:])
    else:
        entry.unlink()
        entry.mkdir()


@pytest.mark.parametrize("how", [
    "missing", "shorter-than-its-trailer", "truncated", "flipped-byte", "directory"])
def test_a_bad_entry_is_a_miss(home, how):
    _store()
    _damage(_entry(), how)
    decoded = []
    assert cache.read(KIND, FORMAT, KEY, lambda *args: decoded.append(args)) is None
    assert decoded == []  # the decoder never sees an entry that fails its frame


def test_a_decode_that_returns_none_is_a_miss(home):
    _store()
    assert cache.read(KIND, FORMAT, KEY, lambda handle, size: None) is None


# what a torn, foreign or invalid entry raises in a decoder; CorpusError is a
# RiskbenchError that the records' constructors raise
@pytest.mark.parametrize("error", [
    OSError, EOFError, ValueError, TypeError, KeyError, AttributeError, struct.error,
    RiskbenchError, CorpusError,
], ids=lambda error: error.__name__)
def test_a_decode_that_raises_an_invalid_error_is_a_miss(home, error):
    _store()

    def decode(handle, size):
        handle.read(size)
        raise error("a foreign entry")

    assert cache.read(KIND, FORMAT, KEY, decode) is None


def test_a_decode_bug_propagates(home):
    # a miss would hide it as a re-parse on every run
    _store()
    with pytest.raises(ZeroDivisionError):
        cache.read(KIND, FORMAT, KEY, lambda handle, size: size / 0)


@pytest.mark.parametrize("how", ["home-is-a-file", "entry-is-a-directory", "fill-fails"])
def test_a_store_that_cannot_write_says_nothing_and_leaves_no_temp_file(
        tmp_path, monkeypatch, capfd, how):
    home = tmp_path / "cache"
    fill = lambda out: out.write(DATA)  # noqa: E731
    if how == "home-is-a-file":
        home.write_bytes(b"")
    elif how == "entry-is-a-directory":
        (home / "riskbench" / f"{KIND}-v{FORMAT}-{KEY}").mkdir(parents=True)
    else:
        def fill(out):
            out.write(DATA)
            raise OSError("disk full")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    cache.store(KIND, FORMAT, KEY, fill)
    assert capfd.readouterr() == ("", "")
    assert cache.read(KIND, FORMAT, KEY, _bytes) is None
    if how != "home-is-a-file":
        assert [path.name for path in (home / "riskbench").iterdir()] == (
            [f"{KIND}-v{FORMAT}-{KEY}"] if how == "entry-is-a-directory" else [])


def test_without_a_home_nothing_is_read_or_stored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    monkeypatch.setenv("HOME", "relative")  # a relative home is no home
    monkeypatch.chdir(tmp_path)
    assert _entry() is None
    _store()
    assert cache.read(KIND, FORMAT, KEY, _bytes) is None
    assert list(tmp_path.iterdir()) == []
