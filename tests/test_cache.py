"""The parse cache's one read path and one store path, driven with a toy kind.

Every kind (vector tables, corpora, scipy values) reads and stores through
`cache.read` and `cache.store`, so the rule that turns a bad entry into a
miss is tested here once, with a decoder that returns the entry's bytes.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
import zlib

import pytest

from riskbench import cache, report
from riskbench.errors import CorpusError, RiskbenchError

KIND, KEY = "toy", "k.bin"
DATA = b"twelve bytes"


@pytest.fixture
def home(tmp_path, monkeypatch):
    """A private, empty cache home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _entry():
    return cache.entry_path(KIND, KEY)


def _bytes(handle, size):
    return handle.read(size)


def _store(data=DATA):
    cache.store(KIND, KEY, lambda out: out.write(data))


def test_a_stored_entry_reads_back(home):
    _store()
    assert _entry() == home / "riskbench" / f"{KIND}-{KEY}"
    assert _entry().read_bytes() == DATA + cache.TRAILER.pack(zlib.crc32(DATA))
    assert list(_entry().parent.iterdir()) == [_entry()]
    assert cache.read(KIND, KEY, _bytes) == DATA
    # the hit touched the entry's marker of last use, a new empty file
    marker = _entry().with_name(f"{_entry().name}.used")
    assert sorted(_entry().parent.iterdir()) == [_entry(), marker]
    assert marker.read_bytes() == b""


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
    assert cache.read(KIND, KEY, lambda *args: decoded.append(args)) is None
    assert decoded == []  # the decoder never sees an entry that fails its frame


def test_a_decode_that_returns_none_is_a_miss(home):
    _store()
    assert cache.read(KIND, KEY, lambda handle, size: None) is None


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

    assert cache.read(KIND, KEY, decode) is None


def test_a_decode_bug_propagates(home):
    # a miss would hide it as a re-parse on every run
    _store()
    with pytest.raises(ZeroDivisionError):
        cache.read(KIND, KEY, lambda handle, size: size / 0)


@pytest.mark.parametrize("how", ["home-is-a-file", "entry-is-a-directory", "fill-fails"])
def test_a_store_that_cannot_write_says_nothing_and_leaves_no_temp_file(
        tmp_path, monkeypatch, capfd, how):
    home = tmp_path / "cache"
    fill = lambda out: out.write(DATA)  # noqa: E731
    if how == "home-is-a-file":
        home.write_bytes(b"")
    elif how == "entry-is-a-directory":
        (home / "riskbench" / f"{KIND}-{KEY}").mkdir(parents=True)
    else:
        def fill(out):
            out.write(DATA)
            raise OSError("disk full")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    cache.store(KIND, KEY, fill)
    assert capfd.readouterr() == ("", "")
    assert cache.read(KIND, KEY, _bytes) is None
    if how != "home-is-a-file":
        assert [path.name for path in (home / "riskbench").iterdir()] == (
            [f"{KIND}-{KEY}"] if how == "entry-is-a-directory" else [])


def _store_aged(keys):
    """Store an entry under each key, each one second older than the next."""
    for age, key in enumerate(keys):
        cache.store("demo", key, lambda out: out.write(DATA))
        os.utime(cache.entry_path("demo", key), ns=(0, (1_000_000 + age) * 10**9))


def test_a_store_keeps_the_entry_last_read_however_old(home):
    keys = [f"k{index}" for index in range(cache.ENTRIES)]
    _store_aged(keys)
    for _ in range(5):
        assert cache.read("demo", "k0", _bytes) == DATA
    cache.store("demo", "new", lambda out: out.write(DATA))
    assert cache.read("demo", "k0", _bytes) == DATA
    assert cache.read("demo", "k1", _bytes) is None  # the least recently used went


def test_markers_count_toward_no_kind_and_go_with_their_entry(home):
    keys = [f"k{index}" for index in range(cache.ENTRIES)]
    _store_aged(keys)
    root = home / "riskbench"
    for key in keys:  # a marker for each entry, k1's older than k2 itself
        (root / f"demo-{key}.used").touch()
    os.utime(root / "demo-k1.used", ns=(0, 1_000_001_500_000_000))
    for key in keys[2:]:
        os.utime(root / f"demo-{key}.used", ns=(0, 1_000_000 * 10**9))
    (root / "demo-gone.used").touch()  # the marker of an entry that another store deleted
    cache.store("demo", "new", lambda out: out.write(DATA))
    kept = ["k0", *keys[2:], "new"]
    assert sorted(path.name for path in root.iterdir()) == sorted(
        [*(f"demo-{key}" for key in kept), *(f"demo-{key}.used" for key in keys if key != "k1")])


def test_without_a_home_nothing_is_read_or_stored(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    monkeypatch.setenv("HOME", "relative")  # a relative home is no home
    monkeypatch.chdir(tmp_path)
    assert _entry() is None
    _store()
    assert cache.read(KIND, KEY, _bytes) is None
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ memos
#
# A memo is trusted only for a file older than `MEMO_MARGIN_NS`; the tests
# that need an old file shrink the margin and wait it out, which keeps it far
# above the file system's timestamp granularity.

SETTLE_S = 0.1


def _settle(monkeypatch):
    """Make every file written so far old enough for a memo."""
    monkeypatch.setattr(cache, "MEMO_MARGIN_NS", 50_000_000)
    time.sleep(SETTLE_S)


@pytest.fixture
def reads(monkeypatch):
    """One "sha256" per `report.file_digest` call, and one "crc32" per
    `cache._crc32` call that checks a stored file other than a memo entry (a
    few dozen bytes, always checked); a store computes its CRC on a file
    descriptor."""
    calls = []
    digest, crc32 = report.file_digest, cache._crc32

    def counted_crc32(handle, size):
        if isinstance(handle.name, str) and not os.path.basename(handle.name).startswith("memo-"):
            calls.append("crc32")
        return crc32(handle, size)

    monkeypatch.setattr(report, "file_digest",
                        lambda path: calls.append("sha256") or digest(path))
    monkeypatch.setattr(cache, "_crc32", counted_crc32)
    return calls


def _memos(home):
    return sorted((home / "riskbench").glob("memo-*"))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_an_old_file_is_hashed_once(home, reads, tmp_path, monkeypatch):
    path = tmp_path / "input.txt"
    path.write_bytes(b"some input")
    _settle(monkeypatch)
    assert [cache.file_digest(path) for _ in range(3)] == [_sha256(path)] * 3
    assert reads == ["sha256"]
    assert len(_memos(home)) == 1


def test_a_file_younger_than_the_margin_is_hashed_every_time_and_not_memoized(
        home, reads, tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"some input")
    assert [cache.file_digest(path) for _ in range(2)] == [_sha256(path)] * 2
    assert reads == ["sha256", "sha256"]
    assert _memos(home) == []
    path.write_bytes(b"same length")  # a same-size rewrite in the same second
    assert cache.file_digest(path) == _sha256(path)


@pytest.mark.parametrize("change", ["same-size-rewrite", "touch", "rename-over"])
def test_a_changed_file_is_hashed_again(home, reads, tmp_path, monkeypatch, change):
    path = tmp_path / "input.txt"
    path.write_bytes(b"some input")
    _settle(monkeypatch)
    before = path.stat()
    assert cache.file_digest(path) == _sha256(path)
    if change == "same-size-rewrite":  # within a second, with the old mtime restored
        path.write_bytes(b"SOME INPUT")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    elif change == "touch":
        os.utime(path)
    else:  # a new file of the same size and mtime renamed over the old one
        other = tmp_path / "other.txt"
        other.write_bytes(b"some other")
        os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(other, path)
    assert path.stat().st_size == before.st_size
    assert cache.file_digest(path) == _sha256(path)
    assert reads == ["sha256", "sha256"]


def test_a_damaged_memo_is_a_miss(home, reads, tmp_path, monkeypatch):
    path = tmp_path / "input.txt"
    path.write_bytes(b"some input")
    _settle(monkeypatch)
    cache.file_digest(path)
    [memo] = _memos(home)
    data = memo.read_bytes()
    memo.write_bytes(data[:10] + bytes([data[10] ^ 0xFF]) + data[11:])  # a digest byte
    assert cache.file_digest(path) == _sha256(path)
    assert reads == ["sha256", "sha256"]
    assert memo.read_bytes()[8:-4] == data[8:-4] == _sha256(path).encode()  # rewritten


def test_an_unwritable_cache_hashes_every_time_and_says_nothing(
        tmp_path, monkeypatch, capfd, reads):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = tmp_path / "input.txt"
    path.write_bytes(b"some input")
    _settle(monkeypatch)
    assert [cache.file_digest(path) for _ in range(2)] == [_sha256(path)] * 2
    assert reads == ["sha256", "sha256"]
    assert capfd.readouterr() == ("", "")


def test_more_files_than_entries_per_kind_stay_memoized(home, reads, tmp_path, monkeypatch):
    paths = [tmp_path / f"input{i}.txt" for i in range(cache.ENTRIES + 4)]
    for path in paths:
        path.write_bytes(path.name.encode())
    _settle(monkeypatch)
    for _ in range(2):
        assert [cache.file_digest(path) for path in paths] == [_sha256(p) for p in paths]
    assert reads == ["sha256"] * len(paths)


def test_an_old_entry_is_checked_once_and_corrupted_in_place_is_a_miss(
        home, reads, monkeypatch):
    _store()
    _settle(monkeypatch)
    assert [cache.read(KIND, KEY, _bytes) for _ in range(3)] == [DATA] * 3
    assert reads == ["crc32"]
    before = _entry().stat()
    with open(_entry(), "r+b") as handle:  # in place, with the old mtime restored
        handle.seek(3)
        handle.write(bytes([DATA[3] ^ 0xFF]))
    os.utime(_entry(), ns=(before.st_atime_ns, before.st_mtime_ns))
    assert cache.read(KIND, KEY, _bytes) is None
    assert reads == ["crc32", "crc32"]


def test_a_reload_of_an_old_word_file_neither_hashes_nor_checks(
        home, reads, tmp_path, monkeypatch):
    from riskbench import vectorize

    path = tmp_path / "w.txt"
    path.write_text("2 3\nfoo 1.0 0.0 0.0\nbar 0.0 1.0 0.5\n", encoding="utf-8")
    first = vectorize.load_word_vectors(path)  # a miss: parses and stores the entry
    _settle(monkeypatch)
    vectorize.load_word_vectors(path)  # memoizes the digest and the entry's CRC
    del reads[:]
    again = vectorize.load_word_vectors(path)
    assert reads == []
    assert again.digest == first.digest == _sha256(path)
    assert {token: row.tolist() for token, row in again.word_table.items()} == {
        "foo": [1.0, 0.0, 0.0], "bar": [0.0, 1.0, 0.5]}


def test_the_source_digest_is_the_key_of_each_file_sha256(tmp_path):
    files = [tmp_path / "a.py", tmp_path / "b.py"]
    for path in files:
        path.write_text(path.name, encoding="utf-8")
    assert cache.source_digest(*map(str, files)) == cache.key(*map(_sha256, files))
