from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from riskbench import vectorize
from riskbench.errors import DimensionError, MissingEmbeddingError, ParseError
from riskbench.resources import data_path
from riskbench.vectorize import (
    EmbeddingBackend,
    cosine,
    embed_text,
    load_sentence_vectors,
    load_word_vectors,
    normalize_sentence,
    tfidf_fit,
    tfidf_vector,
    tokenize,
    unit_rows,
)

from .conftest import toy_backend


# ----------------------------------------------------------- tokenize


def test_tokenize_lowercase_split():
    assert tokenize("Utility Relocations") == ["utility", "relocations"]


def test_tokenize_stop_words():
    assert tokenize("Delay in the ROW acquisition", frozenset({"in", "the"})) == [
        "delay",
        "row",
        "acquisition",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_digits_drops_punctuation():
    assert tokenize("I-73 / SR 37 (segment)") == ["i", "73", "sr", "37", "segment"]


# ----------------------------------------------------------- tf-idf


def test_tfidf_fit_counts():
    model = tfidf_fit([["a", "b"], ["b"]])
    assert model.document_count == 2
    assert model.document_frequency == {"a": 1, "b": 2}
    assert sorted(model.vocabulary.values()) == [0, 1]


def test_tfidf_fit_single_document():
    model = tfidf_fit([["x", "y", "x"]])
    assert model.document_count == 1
    assert model.document_frequency == {"x": 1, "y": 1}


def test_tfidf_fit_empty_corpus():
    with pytest.raises(ParseError):
        tfidf_fit([])


def test_tfidf_vector_hand_values():
    model = tfidf_fit([["a", "b"], ["b"]])
    vector = tfidf_vector(model, ["a", "a", "b"])
    assert vector.shape == (2,)
    assert vector[model.vocabulary["a"]] == pytest.approx((2 / 3) * (1 + math.log(2)))
    assert vector[model.vocabulary["b"]] == pytest.approx(1 / 3)


def test_tfidf_vector_ubiquitous_term_keeps_tf():
    model = tfidf_fit([["a"], ["a"]])
    vector = tfidf_vector(model, ["a", "a", "z"])
    # k_t = k so the log term vanishes; N still counts the OOV token
    assert vector.tolist() == [pytest.approx(2 / 3)]


def test_tfidf_vector_all_oov():
    model = tfidf_fit([["a"]])
    assert tfidf_vector(model, ["z", "q"]).tolist() == [0.0]


def test_tfidf_vector_empty_doc():
    model = tfidf_fit([["a"]])
    with pytest.raises(ParseError):
        tfidf_vector(model, [])


def test_tfidf_weights_non_negative():
    docs = [["a", "b", "c"], ["a", "b"], ["a"]]
    model = tfidf_fit(docs)
    for doc in docs:
        assert (tfidf_vector(model, doc) >= 0).all()


# ----------------------------------------------------------- cosine


def test_cosine_identity():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == 1.0


def test_cosine_orthogonal():
    assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0


def test_cosine_hand_value():
    assert cosine((1, 2, 3), (4, 5, 6)) == pytest.approx(32 / math.sqrt(14 * 77), abs=1e-9)


def test_cosine_zero_norm_convention():
    assert cosine((0.0, 0.0), (1.0, 2.0)) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionError):
        cosine((1.0, 0.0), (1.0, 0.0, 0.0))


def test_cosine_of_tiny_vectors_keeps_precision():
    # squares of these components are subnormal (or zero) before rescaling
    v = [0.0, 4.142467035308623e-156, 4.142467035308623e-156]
    w = [0.0, 0.0, 1.0]
    assert cosine(v, w) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert cosine([x * 0.00390625 for x in v], w) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert cosine([1e-170, 0.0], [1e-170, 1e-170]) == pytest.approx(math.sqrt(0.5), abs=1e-15)


@given(
    v=st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
    w=st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@example(v=[5e-324, 0.0, 0.0], w=[1.0, 0.0, 0.0], scale=0.5)
@example(v=[5e-324, 1e-323, 0.0], w=[1.0, 0.0, 0.0], scale=0.5)
def test_cosine_symmetry_and_scale_invariance(v, w, scale):
    assert cosine(v, w) == pytest.approx(cosine(w, v), abs=1e-12)
    scaled = [scale * x for x in v]
    if any(v) and not any(scaled):
        # scaling rounded every subnormal component to zero: the zero vector scores 0.0
        assert cosine(scaled, w) == 0.0
    elif all(math.isclose(y / scale, x, rel_tol=1e-9) for x, y in zip(v, scaled)):
        assert cosine(scaled, w) == pytest.approx(cosine(v, w), abs=1e-9)
    # else rounding a subnormal component turned the vector, so only the range holds
    assert -1.0 <= cosine(v, w) <= 1.0
    assert -1.0 <= cosine(scaled, w) <= 1.0


# ----------------------------------------------------------- embeddings


def test_embed_single_token():
    backend = toy_backend({"alpha": [1.0, 2.0]})
    out = embed_text(backend, "Alpha")
    assert np.allclose(out.vector, [1.0, 2.0])
    assert not out.all_oov


def test_embed_mean_of_two():
    backend = toy_backend({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    assert np.allclose(embed_text(backend, "a b").vector, [0.5, 0.5])


def test_embed_all_oov_flag():
    backend = toy_backend({"a": [1.0, 0.0]})
    out = embed_text(backend, "zzz qqq")
    assert out.all_oov
    assert np.allclose(out.vector, [0.0, 0.0])


def test_embed_order_invariant():
    backend = toy_backend({"a": [1.0, 0.5], "b": [0.0, 1.0], "c": [2.0, -1.0]})
    assert np.allclose(
        embed_text(backend, "a b c").vector, embed_text(backend, "c a b").vector
    )


def test_embed_respects_stop_words():
    backend = toy_backend({"a": [1.0, 0.0], "the": [0.0, 1.0]}, frozenset({"the"}))
    assert np.allclose(embed_text(backend, "the a").vector, [1.0, 0.0])


def test_unit_rows_embeds_each_distinct_text_once(reference_backend, monkeypatch):
    texts = [
        "unknown utilities encountered during excavation",
        "right of way acquisition delays",
        "unknown utilities encountered during excavation",
        "zzqx qqzz",
        "design changes on structures",
        "right of way acquisition delays",
        "zzqx qqzz",
        "unknown utilities encountered during excavation",
    ]
    # Row by row, as every text was embedded before the dedupe.
    matrix = np.stack([embed_text(reference_backend, text).vector for text in texts])
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    expected = matrix / np.where(norms == 0.0, 1.0, norms)

    embedded = []
    original = vectorize.embed_text

    def counting(backend, text):
        embedded.append(text)
        return original(backend, text)

    monkeypatch.setattr(vectorize, "embed_text", counting)
    got = unit_rows(reference_backend, texts)
    assert embedded == list(dict.fromkeys(texts))
    rows = got.units[got.ids]
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_unit_rows_missing_sentence_names_first_missing_text():
    backend = EmbeddingBackend(
        kind="precomputed_sentence",
        dimension=2,
        sentence_table={"known": np.array([1.0, 0.0])},
    )
    with pytest.raises(MissingEmbeddingError, match="'gone'"):
        unit_rows(backend, ["known", "gone", "known", "lost", "gone"])


def test_keyed_units_score_sentence_misses_in_the_fallback_space():
    from dataclasses import replace

    from .conftest import VARIANTS, unit_matrix, variant_backend

    word = variant_backend()
    sentence = EmbeddingBackend(kind="precomputed_sentence", dimension=2, sentence_table={
        "delta alpha": np.array([1.0, 0.0]), "alpha beta gamma": np.array([0.6, 0.8])})
    texts = ["delta alpha", VARIANTS[1], VARIANTS[0], VARIANTS[2]]  # hit, miss, hit, miss
    assert unit_rows(replace(sentence, fallback=word), texts[::2]).fallback is None
    keyed = unit_rows(replace(sentence, fallback=word), texts)
    assert keyed.missed.tolist() == [False, True, False, True]
    assert keyed.fallback.ids.tolist() == [0, 1, 1, 1]
    table = keyed.scores(keyed.ids, keyed.ids)
    words = unit_matrix(word, texts)
    for i, j in np.ndindex(table.shape):
        expected = 0.6 if {i, j} == {0, 2} else float(words[i] @ words[j])
        if i == j or {i, j} <= {1, 2, 3}:
            expected = 1.0
        assert table[i, j] == pytest.approx(expected, abs=1e-12)
    # the two misses share one fallback key, so they score in the same bits
    assert table[0, 1] == table[0, 3] and table[1, 0] == table[3, 0]
    assert keyed.best(keyed.ids[:1], [keyed.ids[1:]])[0].tolist() == [[0]]
    with pytest.raises(MissingEmbeddingError, match="'Gamma, beta; alpha.'"):
        unit_rows(sentence, texts)


@pytest.mark.parametrize("block_bytes", [vectorize._BLOCK_BYTES, 8])
def test_best_takes_each_groups_lowest_tied_position(monkeypatch, block_bytes):
    """`best` against an argmax over each group's positions in the table of
    distinct keys (whose GEMM shape may round differently): ties take the
    lowest position, a repeated row gets one
    answer, an all-OOV text scores 0.0 everywhere, so its best match is the
    group's first position, and an empty group gives -1 and -inf."""
    from .conftest import VARIANTS, variant_backend

    monkeypatch.setattr(vectorize, "_BLOCK_BYTES", block_bytes)
    texts = ["delta", *VARIANTS, "alpha", "delta alpha", "zzqx", "beta gamma", "delta"]
    keyed = unit_rows(variant_backend(), texts)
    table = keyed.scores(slice(None), slice(None))
    groups = [slice(0, 5), slice(3, 3), slice(2, 10), slice(7, 8)]
    rows = keyed.ids[::-1]
    positions, scores = keyed.best(rows, [keyed.ids[group] for group in groups])
    assert positions.shape == scores.shape == (len(texts), len(groups))
    for row, key in enumerate(rows.tolist()):
        for column, group in enumerate(groups):
            candidates = table[key, keyed.ids[group]]
            if len(candidates):
                assert positions[row, column] == candidates.argmax()
                assert scores[row, column] == pytest.approx(candidates.max(), abs=1e-12)
            else:
                assert (positions[row, column], scores[row, column]) == (-1, -math.inf)
    assert positions[0, 0] == 0 and positions[5, 0] == 1  # "delta"; a variant
    assert scores[2].tolist() == [0.0, -math.inf, 0.0, 0.0]  # "zzqx", all-OOV
    assert positions[2].tolist() == [0, -1, 0, 0]
    assert keyed.best(rows, [])[0].shape == (len(texts), 0)


# ----------------------------------------------------------- word vector files


def test_load_word_vectors_basic(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("2 3\nfoo 1.0 0.0 0.0\nbar 0.0 1.0 0.0\n")
    backend = load_word_vectors(path)
    assert backend.dimension == 3
    assert set(backend.word_table) == {"foo", "bar"}


def test_load_word_vectors_dimension_300(tmp_path):
    path = tmp_path / "w300.txt"
    components = " ".join(["0.1"] * 300)
    path.write_text(f"1 300\nword {components}\n")
    assert load_word_vectors(path).dimension == 300


def test_load_word_vectors_short_line_names_line(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 3\nfoo 1.0 0.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_word_vectors(path)


def test_load_word_vectors_non_numeric(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 2\nfoo 1.0 oops\n")
    with pytest.raises(ParseError, match="non-numeric"):
        load_word_vectors(path)


def test_load_word_vectors_duplicate_last_wins(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("2 2\nfoo 1.0 0.0\nfoo 0.0 1.0\n")
    with pytest.warns(UserWarning, match="duplicate token"):
        backend = load_word_vectors(path)
    assert np.allclose(backend.word_table["foo"], [0.0, 1.0])


def test_load_word_vectors_bad_header(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("3\nfoo 1.0\n")
    with pytest.raises(ParseError, match="header"):
        load_word_vectors(path)


# The bulk parser (numpy's C float parser) must give what the per-line
# reference reader gives: the same table bit for bit, the same warnings and
# the same ParseError. A load served by the parse cache must give what the
# parse gave, and a file that warns or fails is never cached, so it warns or
# fails again on every load.


def _load_outcome(path, loader=load_word_vectors):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            backend = loader(path)
        except ParseError as exc:
            return None, [str(w.message) for w in caught], str(exc)
    table = backend.word_table or backend.sentence_table
    return table, [str(w.message) for w in caught], None


def _entries(tmp_path):
    return sorted((tmp_path / "cache" / "riskbench").glob("*.npy"))


def _no_parse(*args):
    raise AssertionError("a cache hit must not parse")


def _cold_warm_reference(path, monkeypatch, tmp_path, cached):
    """Loads with an empty cache, with the cache that load left (a hit that
    runs no parser when `cached`, else a parse again), and through the
    per-line reader with nothing to hit."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cold = _load_outcome(path)
    with monkeypatch.context() as patch:
        if cached:
            patch.setattr(vectorize, "_parse_word_file", _no_parse)
        warm = _load_outcome(path)
    assert len(_entries(tmp_path)) == int(cached)
    with monkeypatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        patch.setattr(vectorize, "_parse_word_lines_bulk", lambda *args: None)
        reference = _load_outcome(path)
    return cold, warm, reference


def _takes_bulk_path(path, dimension):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return vectorize._parse_word_lines_bulk(Path(path), lines, dimension) is not None


def _assert_same_tables(bulk, reference):
    """`bulk`, a loaded table, is read-only and holds `reference`'s bits."""
    assert list(bulk) == list(reference)
    for token, vector in reference.items():
        assert not bulk[token].flags.writeable, token
        assert bulk[token].dtype == vector.dtype
        assert bulk[token].shape == vector.shape
        assert np.array_equal(bulk[token].view(np.int64), vector.view(np.int64)), token


def _write_300d(path, rng):
    formats = ("{!r}", "{:.6f}", "{:.8e}", "{:.3g}")
    lines = ["120 300"]
    for row in range(120):
        values = rng.normal(0.0, 0.3, 300)
        values[row % 300] = -0.0
        fmt = formats[row % len(formats)]
        lines.append(f"tok{row} " + " ".join(fmt.format(float(x)) for x in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_word_vectors_bulk_matches_reference_on_bundled_file(tmp_path, monkeypatch):
    path = data_path("embeddings", "reference_word_vectors.txt")
    assert _takes_bulk_path(path, 32)
    bulk, hit, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=True)
    _assert_same_tables(bulk[0], reference[0])
    _assert_same_tables(hit[0], bulk[0])
    assert bulk[1:] == hit[1:] == reference[1:] == ([], None)


def test_load_word_vectors_bulk_matches_reference_on_300d_file(tmp_path, monkeypatch):
    path = tmp_path / "w300.txt"
    _write_300d(path, np.random.default_rng(3))
    assert _takes_bulk_path(path, 300)
    bulk, hit, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=True)
    _assert_same_tables(bulk[0], reference[0])
    _assert_same_tables(hit[0], bulk[0])
    assert bulk[1:] == hit[1:] == reference[1:] == ([], None)


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("2 3\nfoo 1.0 0.0 0.0\nbar 1.0 0.0\n", 3, "expected 3 components, got 2"),
        ("2 3\nfoo 1.0 0.0 0.0\nbar 1.0 0.0 0.0 5.0\n", 3, "expected 3 components, got 4"),
        ("2 3\nfoo 1.0 0.0 0.0\nbar\n", 3, "expected 3 components, got 0"),
        ("2 2\nfoo 1.0 0.0 0.0\nbar 0.0 1.0 0.0\n", 2, "expected 2 components, got 3"),
        ("2 3\nfoo 1.0 0.0 0.0\nbar 1.0 x 0.0\n", 3, "non-numeric component"),
        ("3 2\nfoo 1 2\n\n   \n\t\nbar 1 2 3\nbaz 1 2\n", 6, "expected 2 components, got 3"),
        ("3 2\n\nfoo 1 2\n\nbar 1 2\nbaz 1 two\n", 6, "non-numeric component"),
        ("3 2\nfoo 1 2\n\nbar 1 nan\nbaz inf 2\n", 4, "non-finite component"),
        ("2 2\nfoo 1 2\nbar -inf 2\n", 3, "non-finite component"),
        ("3 2\nfoo 1_0 2\nbar NaN 1\nbaz 1 inf\n", 3, "non-finite component"),
        ("3 2\nfoo 1 +1e500\nbar 1 2\nbaz 1_0 2\n", 2, "non-finite component"),
    ],
    ids=["short", "extra", "token-only", "all-too-long", "non-numeric", "after-blanks",
         "non-numeric-after-blanks", "nan", "-inf", "nan-after-1_0", "overflow-before-1_0"],
)
def test_load_word_vectors_bulk_raises_reference_error(tmp_path, monkeypatch, body, line, message):
    path = tmp_path / "w.txt"
    path.write_text(body, encoding="utf-8")
    bulk, again, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=False)
    assert bulk == again == reference
    assert bulk[2] == f"{path}, line {line}: {message}"


def test_load_word_vectors_bulk_duplicates_and_header_count(tmp_path, monkeypatch):
    path = tmp_path / "w.txt"
    path.write_text(
        "5 2\nfoo 1 0\nbar 0 1\n\nfoo 2 0\nbaz 1 1\nfoo 3 0\nbar 0 4\n", encoding="utf-8"
    )
    assert _takes_bulk_path(path, 2)
    bulk, again, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=False)
    _assert_same_tables(bulk[0], reference[0])
    _assert_same_tables(again[0], bulk[0])
    assert bulk[1:] == again[1:] == reference[1:]
    assert bulk[1] == [
        f"{path}, line 5: duplicate token 'foo', last wins",
        f"{path}, line 7: duplicate token 'foo', last wins",
        f"{path}, line 8: duplicate token 'bar', last wins",
        f"{path}: header declares 5 tokens, file holds 6",
    ]
    assert bulk[0]["foo"].tolist() == [3.0, 0.0]
    assert bulk[0]["bar"].tolist() == [0.0, 4.0]


@pytest.mark.parametrize(
    "body, warning",
    [
        ("3 2\nfoo 3 0\nbar 0 4\n", ": header declares 3 tokens, file holds 2"),
        ("3 2\nfoo 1 0\nbar 0 4\nfoo 3 0\n", ", line 4: duplicate token 'foo', last wins"),
    ],
    ids=["header-only", "duplicates-only"],
)
def test_load_word_vectors_warning_alone_is_not_cached(tmp_path, monkeypatch, body, warning):
    path = tmp_path / "w.txt"
    path.write_text(body, encoding="utf-8")
    bulk, again, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=False)
    _assert_same_tables(again[0], bulk[0])
    assert bulk[1:] == again[1:] == reference[1:] == ([f"{path}{warning}"], None)
    assert bulk[0]["foo"].tolist() == [3.0, 0.0]


def test_load_word_vectors_accepts_python_float_spellings(tmp_path, monkeypatch):
    path = tmp_path / "w.txt"
    path.write_text("3 2\nfoo 1_0 -0.0\nbar -1E-3 2.5\nbaz +1e5 .5\n", encoding="utf-8")
    # only the per-line reader takes "1_0"; what it reads is cached like any clean parse
    bulk, again, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=True)
    _assert_same_tables(bulk[0], reference[0])
    _assert_same_tables(again[0], bulk[0])
    assert bulk[1:] == again[1:] == reference[1:] == ([], None)
    assert bulk[0]["foo"][0] == 10.0 and bulk[0]["bar"][0] == -0.001


@pytest.mark.parametrize("dimension", [100_000_000_000, 100_000_000])
def test_load_word_vectors_sizes_nothing_by_the_header(tmp_path, monkeypatch, dimension):
    # a matrix sized by the header alone would be 2.4 GB or more; the first
    # data line already shows the header is wrong
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "w.txt"
    path.write_text(f"2 {dimension}\nfoo 1 2\nbar 3 4\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as caught:
            load_word_vectors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"{path}, line 2: expected {dimension} components, got 2"
    assert peak < 16 << 20  # the digest reads the file in 1 MiB blocks


@pytest.mark.parametrize("loader, first", [
    (load_word_vectors, "1 100000\nwide 1_0" + " 0" * 99_999),  # "1_0": the per-line reader
    (load_sentence_vectors, json.dumps({"text": "wide", "vector": [0] * 100_000})),
], ids=["words", "sentences"])
def test_a_wide_row_among_blank_lines_takes_memory_by_the_text(tmp_path, monkeypatch, loader,
                                                              first):
    # a matrix with room for a row per line would take 160 GB
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "wide.txt"
    path.write_text(first + "\n" * 200_000, encoding="utf-8")
    tracemalloc.start()
    try:
        table, caught, error = _load_outcome(path, loader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (caught, error) == ([], None)
    assert list(table) == ["wide"] and table["wide"].shape == (100_000,)
    assert peak < 64 << 20


def test_load_word_vectors_breaks_lines_at_line_feeds_only(tmp_path, monkeypatch):
    # "\r\n" and a lone "\r" end a line; the other characters str.splitlines()
    # breaks at are whitespace inside a line, as str.split() reads them
    path = tmp_path / "w.txt"
    path.write_text("3 2\r\nfoo\x0b1\x0c2\rbar\x1c3\x1d4\x1e\n"
                    "baz\x855\u20286\u2029\r\n", encoding="utf-8", newline="")
    cold, hit, reference = _cold_warm_reference(path, monkeypatch, tmp_path, cached=True)
    _assert_same_tables(cold[0], reference[0])
    _assert_same_tables(hit[0], cold[0])
    assert cold[1:] == hit[1:] == reference[1:] == ([], None)
    assert {token: vector.tolist() for token, vector in cold[0].items()} == {
        "foo": [1.0, 2.0], "bar": [3.0, 4.0], "baz": [5.0, 6.0]}


# ----------------------------------------------------------- sentence vector files


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_sentence_vectors_reads_no_stop_words(tmp_path, monkeypatch):
    # a sentence key is never tokenized, so a data directory without the
    # bundled stop-word list still loads the table
    path = data_path("embeddings", "reference_sentence_vectors.jsonl")
    monkeypatch.setenv("RISKBENCH_DATA", str(tmp_path))
    backend = load_sentence_vectors(path)
    assert len(backend.sentence_table) == 74
    assert backend.stop_words == frozenset()


def test_load_sentence_vectors_768(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_jsonl(path, [{"text": f"text {i}", "vector": [0.1] * 768} for i in range(3)])
    backend = load_sentence_vectors(path)
    assert backend.dimension == 768
    assert len(backend.sentence_table) == 3


def test_load_sentence_vectors_duplicate_identical_ok(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_jsonl(path, [
        {"text": "Utility  relocation ", "vector": [1.0, 2.0]},
        {"text": "utility relocation", "vector": [1.0, 2.0]},
    ])
    backend = load_sentence_vectors(path)
    assert len(backend.sentence_table) == 1


def test_load_sentence_vectors_duplicate_differing(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "s.jsonl"
    _write_jsonl(path, [
        {"text": "same", "vector": [1.0]},
        {"text": "Same", "vector": [2.0]},
    ])
    for _ in range(2):
        with pytest.raises(ParseError, match="differing"):
            load_sentence_vectors(path)
    assert _entries(tmp_path) == []


def test_load_sentence_vectors_keeps_a_raw_line_separator_in_a_string(tmp_path, monkeypatch):
    # JSON allows a raw U+2028 in a string; str.splitlines() would break there
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "s2028.jsonl"
    path.write_text('{"text": "utility\u2028relocation delays", "vector": [1.0, 0.0]}\n'
                    '{"text": "permit delay", "vector": [0.0, 1.0]}\n', encoding="utf-8")
    table, caught, error = _load_outcome(path, load_sentence_vectors)
    assert (caught, error) == ([], None)
    assert {key: vector.tolist() for key, vector in table.items()} == {
        "utility relocation delays": [1.0, 0.0], "permit delay": [0.0, 1.0]}


def test_load_sentence_vectors_int_past_the_digit_limit(tmp_path):
    from .test_corpus import LONG_INT

    path = tmp_path / "s.jsonl"
    path.write_text(f'{{"text": "a", "vector": [{LONG_INT}]}}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r"s.jsonl, line 1: not valid JSON \(Exceeds the limit"):
        load_sentence_vectors(path)


def test_load_sentence_vectors_mixed_dimensions(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "s.jsonl"
    _write_jsonl(path, [
        {"text": "a", "vector": [0.1] * 768},
        {"text": "b", "vector": [0.1] * 767},
    ])
    for _ in range(2):
        with pytest.raises(ParseError, match="length"):
            load_sentence_vectors(path)
    assert _entries(tmp_path) == []


@pytest.mark.parametrize("component, message", [
    pytest.param("NaN", "vector[1] must be a finite number, got nan",
                 id="NaN-non-finite vector component"),
    pytest.param("-Infinity", "vector[1] must be a finite number, got -inf",
                 id="-Infinity-non-finite vector component"),
    pytest.param("1e999", "vector[1] must be a finite number, got inf",
                 id="1e999-non-finite vector component"),
    pytest.param("true", "vector[1] must be a finite number, got True",
                 id="true-non-numeric vector component"),
])
def test_load_sentence_vectors_rejects_non_finite_and_bool(tmp_path, monkeypatch, component,
                                                           message):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "s.jsonl"
    path.write_text('{"text": "a", "vector": [0.5, 1]}\n'
                    f'{{"text": "b", "vector": [0.5, {component}]}}\n', encoding="utf-8")
    for _ in range(2):
        outcome = _load_outcome(path, load_sentence_vectors)
        assert outcome == (None, [], f"{path}, line 2: {message}")
    assert _entries(tmp_path) == []


def test_load_sentence_vectors_cache_hit_matches_parse(tmp_path, monkeypatch):
    path = data_path("embeddings", "reference_sentence_vectors.jsonl")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    parsed = _load_outcome(path, load_sentence_vectors)
    with monkeypatch.context() as patch:
        patch.setattr(vectorize, "_parse_sentence_file", _no_parse)
        hit = _load_outcome(path, load_sentence_vectors)
    assert len(_entries(tmp_path)) == 1
    _assert_same_tables(hit[0], parsed[0])
    assert parsed[1:] == hit[1:] == ([], None)


def _reference_sentence_table(path):
    """The per-line reading: one array per line, the last of equal texts kept."""
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            vector = np.array([float(x) for x in record["vector"]], dtype=float)
            table[normalize_sentence(str(record["text"]))] = vector
    return table


def test_load_sentence_vectors_matches_per_line_reading(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "s.jsonl"
    rng = np.random.default_rng(7)
    records = [{"text": f"text {i}", "vector": rng.normal(0.0, 0.3, 5).tolist()} for i in range(6)]
    records.insert(2, {"text": "Text  1", "vector": records[1]["vector"]})  # equal duplicate
    records.append({"text": "signed zero", "vector": [0.0, 1.0, 2, 3, 4]})
    records.append({"text": "SIGNED ZERO", "vector": [-0.0, 1.0, 2, 3, 4]})  # equal, last wins
    path.write_text("\n".join(json.dumps(r) for r in records[:4]) + "\n\n  \n"
                    + "\n".join(json.dumps(r) for r in records[4:]) + "\n")
    reference = _reference_sentence_table(path)
    parsed = _load_outcome(path, load_sentence_vectors)
    with monkeypatch.context() as patch:
        patch.setattr(vectorize, "_parse_sentence_file", _no_parse)
        hit = _load_outcome(path, load_sentence_vectors)
    assert len(reference) == 7
    _assert_same_tables(parsed[0], reference)
    _assert_same_tables(hit[0], reference)
    assert math.copysign(1.0, parsed[0]["signed zero"][0]) == -1.0


@pytest.mark.parametrize("loader, body", [
    (load_word_vectors, "1 2\ncafé 0.5 0.25\n"),
    (load_sentence_vectors, '{"text": "café", "vector": [0.5, 0.25]}\n'),
])
def test_non_utf8_vector_file_names_the_file(tmp_path, monkeypatch, loader, body):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "latin1.txt"
    path.write_bytes(body.encode("latin-1"))
    for _ in range(2):
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
            loader(path)
    assert _entries(tmp_path) == []


def test_sentence_lookup_miss_names_text(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_jsonl(path, [{"text": "known", "vector": [1.0, 0.0]}])
    backend = load_sentence_vectors(path)
    assert np.allclose(embed_text(backend, " KNOWN ").vector, [1.0, 0.0])
    with pytest.raises(MissingEmbeddingError, match="mystery"):
        embed_text(backend, "mystery")


def test_normalize_sentence():
    assert normalize_sentence("  Utility \t Relocation  ") == "utility relocation"


# ----------------------------------------------------------- parse cache


def test_session_cache_lies_in_a_tmp_dir(cache_home, tmp_path_factory, tmp_path):
    assert cache_home.is_relative_to(tmp_path_factory.getbasetemp())
    path = tmp_path / "w.txt"
    path.write_text("1 2\nsession 1 2\n", encoding="utf-8")
    entry = vectorize._cache_entry("word_average", load_word_vectors(path).digest)
    assert entry.parent == cache_home / "riskbench"
    assert entry.is_file()


def _damage(entry, how):
    if how == "truncated":
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    elif how == "flipped-byte":  # a matrix byte: only the stored CRC-32 can tell
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.write_bytes(bytes(data))
    elif how == "garbage":
        entry.write_bytes(b"not a cache entry\n" * 64)
    elif how == "lone-array":
        with open(entry, "wb") as out:
            np.save(out, np.zeros((3, 2)))
    else:
        # an entry the cache's own writer makes, CRC and all, that breaks one rule
        kind, _, digest = entry.stem.split("-")
        keys, matrix = vectorize._cache_read(kind, digest)
        matrix = np.array(matrix)
        if how == "wrong-dtype":
            matrix = matrix.astype(np.float32)
        elif how == "wrong-row-count":
            matrix = matrix[:-1]
        elif how == "duplicate-keys":
            keys = ["tok0"] * len(matrix)
        vectorize._cache_write(kind, digest, keys, matrix)


@pytest.mark.parametrize(
    "how",
    [
        "truncated", "flipped-byte", "garbage", "lone-array",
        "wrong-dtype", "wrong-row-count", "duplicate-keys",
    ],
)
def test_invalid_cache_entry_is_a_miss_and_rewritten(tmp_path, monkeypatch, how):
    path = tmp_path / "w300.txt"
    _write_300d(path, np.random.default_rng(5))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    parsed = _load_outcome(path)
    [entry] = _entries(tmp_path)
    _damage(entry, how)
    # the cache reader returns an entry's repeated keys; the loader's table tells them
    cached = vectorize._cache_read("word_average", entry.stem.split("-")[2])
    assert cached is None or how == "duplicate-keys"
    parses = []
    original = vectorize._parse_word_file
    with monkeypatch.context() as patch:
        patch.setattr(vectorize, "_parse_word_file", lambda *a: parses.append(1) or original(*a))
        reparsed = _load_outcome(path)
    assert parses == [1]
    with monkeypatch.context() as patch:
        patch.setattr(vectorize, "_parse_word_file", _no_parse)
        hit = _load_outcome(path)
    # a miss and a hit give bit-identical, read-only tables
    for outcome in (parsed, reparsed, hit):
        _assert_same_tables(outcome[0], parsed[0])
        assert outcome[1:] == ([], None)
    assert _entries(tmp_path) == [entry]


# Prints the process's peak resident set (VmHWM, in kB); with a word file
# argument it first loads that file and embeds a few texts. numpy is imported
# either way, so that both processes start alike.
_PEAK_SCRIPT = """
import sys

import numpy

from riskbench import vectorize

if len(sys.argv) > 1:
    backend = vectorize.load_word_vectors(sys.argv[1])
    vectorize.unit_rows(backend, ["tok1 tok2 tok3", "tok10 tok4000", "tok4999"])
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_cache_hit_holds_only_the_rows_it_reads(tmp_path):
    rows, dimension = 5000, 300
    path = tmp_path / "w.txt"
    matrix = np.random.default_rng(8).normal(0.0, 0.3, (rows, dimension))
    path.write_text(f"{rows} {dimension}\n" + "".join(
        f"tok{i} " + " ".join(f"{x:.6f}" for x in row) + "\n" for i, row in enumerate(matrix)),
        encoding="utf-8")
    src = str(Path(vectorize.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path / "cache"))

    def peak_bytes(*args):
        result = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *args], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        return int(result.stdout) * 1024

    peak_bytes(str(path))  # a miss: parses the file and writes the entry
    assert len(_entries(tmp_path)) == 1
    baseline, hit = peak_bytes(), peak_bytes(str(path))
    assert hit - baseline < rows * dimension * 8 / 2


def test_unusable_cache_dir_still_loads(tmp_path, monkeypatch):
    path = tmp_path / "w300.txt"
    _write_300d(path, np.random.default_rng(6))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    expected = _load_outcome(path)
    [entry] = _entries(tmp_path)
    # an entry path taken by a directory can be neither read nor replaced
    entry.unlink()
    entry.mkdir()
    assert _load_outcome(path)[1:] == ([], None)
    assert sorted(entry.parent.iterdir()) == [entry]  # no temp file left behind
    # a cache home that is a file: the cache dir cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for _ in range(2):
        outcome = _load_outcome(path)
        _assert_same_tables(outcome[0], expected[0])
        assert outcome[1:] == ([], None)


def test_changed_source_byte_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "w.txt"
    path.write_text("2 3\nfoo 1.0 0.0 0.0\nbar 0.0 1.0 0.0\n", encoding="utf-8")
    first = load_word_vectors(path)
    path.write_text("2 3\nfoo 1.0 0.0 0.0\nbar 0.0 1.0 0.5\n", encoding="utf-8")
    second = load_word_vectors(path)
    assert second.word_table["bar"].tolist() == [0.0, 1.0, 0.5]
    assert first.digest != second.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(_entries(tmp_path)) == 2


def test_cache_keeps_the_newest_entries_per_kind(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    sentences = tmp_path / "s.jsonl"
    _write_jsonl(sentences, [{"text": "kept", "vector": [1.0]}])
    load_sentence_vectors(sentences)
    names = []
    for i in range(vectorize._CACHE_ENTRIES + 2):
        path = tmp_path / f"w{i}.txt"
        path.write_text(f"1 2\nw{i} {i} 1\n", encoding="utf-8")
        entry = vectorize._cache_entry("word_average", load_word_vectors(path).digest)
        os.utime(entry, ns=(i * 10**9, i * 10**9))  # strictly ordered ages
        names.append(entry.name)
    kinds = [entry.name.split("-")[0] for entry in _entries(tmp_path)]
    assert kinds.count("precomputed_sentence") == 1
    kept = [entry.name for entry in _entries(tmp_path) if entry.name.startswith("word_average-")]
    assert kept == sorted(names[2:])


# ----------------------------------------------------------- oracle equivalence

def brute_force_tfidf_cosine(docs, d1, d2):
    """Direct evaluation of the score formulas, term by term."""
    k = len(docs)
    vocabulary = sorted({t for doc in docs for t in doc})
    k_t = {t: sum(1 for doc in docs if t in doc) for t in vocabulary}

    def weights(doc):
        return {
            t: (doc.count(t) / len(doc)) * (1 + math.log(k / k_t[t]))
            for t in set(doc)
            if t in k_t
        }

    wa, wb = weights(d1), weights(d2)
    dot = sum(wa[t] * wb.get(t, 0.0) for t in wa)
    na = math.sqrt(sum(x * x for x in wa.values()))
    nb = math.sqrt(sum(x * x for x in wb.values()))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def test_tfidf_cosine_matches_brute_force():
    import random

    rng = random.Random(20240817)
    alphabet = ["a", "b", "c", "d", "e", "f", "g"]
    for _ in range(20):
        docs = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(2, 5))
        ]
        model = tfidf_fit(docs)
        for i in range(len(docs)):
            for j in range(len(docs)):
                expected = brute_force_tfidf_cosine(docs, docs[i], docs[j])
                actual = cosine(tfidf_vector(model, docs[i]), tfidf_vector(model, docs[j]))
                assert actual == pytest.approx(expected, abs=1e-9)
