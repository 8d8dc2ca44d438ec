from __future__ import annotations

import os

import numpy as np
import pytest

from riskbench.corpus import Assessment, RegisterSnapshot, RiskItem
from riskbench.resources import data_path
from riskbench.vectorize import (
    EmbeddingBackend,
    cosine_table,
    default_stopwords,
    embed_text,
    load_word_vectors,
)


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """Keep the embedding parse cache out of the user's home for the whole session.

    Set through os.environ, before any session fixture loads vectors, so that
    CLI subprocesses inherit it too.
    """
    home = tmp_path_factory.mktemp("xdg-cache")
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(home)
    yield home
    if previous is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(scope="session")
def stopwords():
    return default_stopwords()


@pytest.fixture(scope="session")
def reference_backend(cache_home):
    return load_word_vectors(data_path("embeddings", "reference_word_vectors.txt"))


@pytest.fixture(scope="session")
def expost_manifest():
    return data_path("fixtures", "expost", "manifest.json")


def make_item(risk_id, name, probability=None, cost=None, schedule=None, **kwargs):
    return RiskItem(
        risk_id=risk_id,
        name=name,
        assessment=Assessment(
            probability_band=probability, cost_band=cost, schedule_band=schedule
        ),
        **kwargs,
    )


def make_register(*names, ordinal=0):
    return RegisterSnapshot(
        ordinal=ordinal,
        items=tuple(make_item(f"r{i}", name) for i, name in enumerate(names)),
    )


def unit_matrix(backend, texts) -> np.ndarray:
    """The per-text reference path: every text embedded on its own, as a unit row."""
    matrix = np.array([embed_text(backend, text).vector for text in texts], dtype=float)
    matrix = matrix.reshape(len(texts), backend.dimension)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def best_against(unit_a, unit_b):
    """Row-wise argmax cosine of unit_a into unit_b; ties take the lowest index."""
    scores = cosine_table(unit_a, unit_b)
    indices = scores.argmax(axis=1)
    return indices, scores[np.arange(len(indices)), indices]


def toy_backend(table: dict[str, list[float]], stop_words=frozenset()) -> EmbeddingBackend:
    """Hand-built word table for tests with exact vectors."""
    dim = len(next(iter(table.values())))
    return EmbeddingBackend(
        kind="word_average",
        dimension=dim,
        word_table={k: np.array(v, dtype=float) for k, v in table.items()},
        stop_words=stop_words,
    )


def assert_same_text(actual, expected, what="texts"):
    """Assert that two texts (or byte strings) are equal. A failure gives their
    lengths and the first line that differs, by number and from both sides,
    where pytest's own diff of two reports of megabytes can run for minutes."""
    if actual == expected:
        return
    left, right = actual.splitlines(), expected.splitlines()
    number = next((n for n, (a, b) in enumerate(zip(left, right)) if a != b),
                  min(len(left), len(right)))
    sides = [repr(lines[number])[:200] if number < len(lines) else "no line"
             for lines in (left, right)]
    pytest.fail(f"{what} differ: lengths {len(actual)} and {len(expected)}; first at line "
                f"{number + 1}:\n  actual:   {sides[0]}\n  expected: {sides[1]}", pytrace=False)


# Texts with one embedding key under `variant_backend`: they differ in case,
# punctuation, a stop word, an out-of-vocabulary token and word order. Summed
# in text order, their three token vectors round to different bits, so ties
# among them show whether equal keys share one vector.
VARIANTS = ("alpha beta gamma", "Gamma, beta; alpha.", "the beta gamma alpha",
            "gamma zzqx alpha beta")


def variant_backend() -> EmbeddingBackend:
    return toy_backend({"alpha": [0.4, 0.2, 0.1], "beta": [0.6, 0.3, 0.7],
                        "gamma": [0.2, 0.9, 0.4], "delta": [0.2, 0.6, 0.9]}, frozenset({"the"}))
