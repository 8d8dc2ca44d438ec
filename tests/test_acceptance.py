"""Acceptance suite: one test per release criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskbench.cli import main
from riskbench.lifecycle import RatioSet, RiskTransition, accepts, hotelling_t2
from riskbench.rbs import coverage, default_rbs
from riskbench.resources import data_path
from riskbench.similarity import evaluation_similarity
from riskbench.template import EvalCounts, group_risks
from riskbench.vectorize import cosine, load_word_vectors, tfidf_fit, tfidf_vector

from .conftest import assert_same_text, make_register
from .test_similarity import corpus_of, project_of
from .test_vectorize import brute_force_tfidf_cosine

WORD_VECTORS = str(data_path("embeddings", "reference_word_vectors.txt"))
MANIFEST = str(data_path("fixtures", "expost", "manifest.json"))


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


# --------------------------------------------------------------- criterion 1

TABLE_12 = {
    "A": (16, 19, 19),
    "B": (21, 17, 19),
    "C": (41, 9, 2),
    "D": (12, 1, 18),
    "E": (5, 2, 25),
    "Overall": (95, 48, 83),
}

TABLE_13 = {
    "A": (45.7, 45.7, 45.7),
    "B": (55.3, 52.5, 53.8),
    "C": (82.0, 95.3, 88.2),
    "D": (92.3, 40.0, 55.8),
    "E": (71.4, 16.7, 27.0),
    "Overall": (66.4, 53.4, 59.2),
}


def test_criterion_1_recall_precision_f1_table():
    start = time.perf_counter()
    for project, (tp, fn, fp) in TABLE_12.items():
        counts = EvalCounts.from_counts(tp, fn, fp)
        recall, precision, f1 = TABLE_13[project]
        assert counts.recall * 100 == pytest.approx(recall, abs=0.1), project
        assert counts.precision * 100 == pytest.approx(precision, abs=0.1), project
        assert counts.f1 * 100 == pytest.approx(f1, abs=0.1), project
    assert time.perf_counter() - start < 1.0
    report("1 (recall/precision/F1 table)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_ratio_worked_example():
    start = time.perf_counter()
    ratios = RatioSet.from_counts(
        initial_identified=43,
        initial_realized=39,
        construction_identified=103,
        construction_realized=68,
    )
    assert ratios.initial_realization == pytest.approx(0.91, abs=0.005)
    assert ratios.further_realized == pytest.approx(0.66, abs=0.005)
    assert ratios.new_item == pytest.approx(0.71, abs=0.005)
    assert ratios.total_realization == pytest.approx(0.73, abs=0.005)
    assert ratios.initial_efficiency == pytest.approx(0.36, abs=0.005)
    assert time.perf_counter() - start < 1.0
    report("2 (ratio worked example)")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_pooled_fixture_ratios(tmp_path):
    out = tmp_path / "ratios.json"
    start = time.perf_counter()
    assert main(["lifecycle", "ratios", "--manifest", MANIFEST, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    pooled = json.loads(out.read_text())["result"]["pooled"]
    assert pooled["total_realization"] == pytest.approx(0.646, abs=0.01)
    assert pooled["initial_realization"] == pytest.approx(0.561, abs=0.01)
    assert pooled["further_realized"] == pytest.approx(0.730, abs=0.01)
    assert pooled["new_item"] == pytest.approx(0.504, abs=0.01)
    assert pooled["initial_efficiency"] == pytest.approx(0.430, abs=0.01)
    assert elapsed < 1.0
    report("3 (pooled fixture ratios)")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_evaluation_similarity_grid():
    for x1 in range(1, 6):
        for x2 in range(1, 6):
            assert evaluation_similarity(x1, x2) == (1 - abs(x1 - x2) / 4) * 100
            assert evaluation_similarity(x1, x2) in {0.0, 25.0, 50.0, 75.0, 100.0}
    report("4 (Likert distance grid)")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_automaton_language():
    start = time.perf_counter()
    oracle = re.compile("^gc*(?:oc*)?k$")
    letter = {
        RiskTransition.GENERATE: "g",
        RiskTransition.OCCUR: "o",
        RiskTransition.CONTINUE: "c",
        RiskTransition.CLOSE: "k",
    }
    checked = accepted = 0
    for length in range(1, 8):
        for word in itertools.product(list(RiskTransition), repeat=length):
            expected = bool(oracle.match("".join(letter[t] for t in word)))
            assert accepts(list(word)) is expected, word
            checked += 1
            accepted += int(expected)
    assert checked == sum(4**n for n in range(1, 8))
    assert accepted > 0
    assert time.perf_counter() - start < 5.0
    report(f"5 (automaton language, {checked} words)")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_tfidf_cosine_oracle():
    rng = random.Random(61_2026)
    alphabet = [f"w{i}" for i in range(9)]
    for trial in range(20):
        docs = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(2, 5))
        ]
        model = tfidf_fit(docs)
        vectors = [tfidf_vector(model, doc) for doc in docs]
        for i in range(len(docs)):
            for j in range(len(docs)):
                expected = brute_force_tfidf_cosine(docs, docs[i], docs[j])
                assert cosine(vectors[i], vectors[j]) == pytest.approx(
                    expected, abs=1e-9
                ), (trial, i, j)
    report("6 (TF-IDF/cosine oracle, 20 corpora)")


# --------------------------------------------------------------- criterion 7

TOPIC_WORDS = {
    "utilities": ["utility", "relocation", "conflicts", "coordination", "municipalities"],
    "row": ["right", "way", "acquisition", "parcel", "corridor"],
    "geo": ["soil", "geotechnical", "subsurface", "foundation", "excavation"],
    "environmental": ["wetlands", "permits", "hazardous", "contaminated", "noise"],
    "procurement": ["market", "contract", "bids", "procurement", "claims"],
}


def _random_corpus(rng: random.Random):
    projects = []
    for p in range(rng.randint(2, 4)):
        names = []
        for _ in range(rng.randint(2, 8)):
            topic = rng.choice(list(TOPIC_WORDS))
            words = rng.sample(TOPIC_WORDS[topic], rng.randint(2, 4))
            if rng.random() < 0.3:
                words.append(rng.choice(["delays", "issues", "potential", "additional"]))
            names.append(" ".join(words))
        projects.append(project_of(make_register(*names), f"p{p}"))
    return corpus_of(*projects)


def test_criterion_7_grouping_properties():
    backend = load_word_vectors(WORD_VECTORS)
    rng = random.Random(7_2026)
    thresholds = (0.4, 0.55, 0.7, 0.85, 0.95)
    for trial in range(50):
        corpus = _random_corpus(rng)
        projects = list(corpus.projects)
        total = sum(len(p.register.items) for p in projects)
        counts = []
        for threshold in thresholds:
            groups = group_risks(projects, backend, threshold)
            # partition: every risk in exactly one group
            refs = [ref for group in groups for ref in group.member_refs]
            assert len(refs) == total, trial
            assert len(set(refs)) == total, trial
            counts.append(len(groups))
        # raising the threshold never decreases the group count
        assert counts == sorted(counts), (trial, counts)
    report("7 (grouping partition + monotonicity, 50 corpora)")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_hotelling_oracle():
    group_a = [[-0.10, 0.17], [-0.05, 0.02], [0.02, 0.30], [-0.20, 0.12], [0.04, 0.25]]
    group_b = [[0.22, -0.04], [0.15, 0.03], [0.30, -0.12], [0.28, 0.08]]

    a = np.asarray(group_a)
    b = np.asarray(group_b)
    na, nb = len(a), len(b)
    nu = na + nb - 2
    pooled_var = ((na - 1) * a.var(0, ddof=1) + (nb - 1) * b.var(0, ddof=1)) / nu
    za, zb = a / np.sqrt(pooled_var), b / np.sqrt(pooled_var)
    cov = ((na - 1) * np.cov(za, rowvar=False) + (nb - 1) * np.cov(zb, rowvar=False)) / nu
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inverse = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = za.mean(0) - zb.mean(0)
    expected = na * nb / (na + nb) * float(d @ inverse @ d)

    result = hotelling_t2(group_a, group_b)
    assert result.t_squared == pytest.approx(expected, abs=1e-9)

    shift = a.mean(0) - b.mean(0)
    equal_mean_b = [[x + shift[0], y + shift[1]] for x, y in group_b]
    zero = hotelling_t2(group_a, equal_mean_b)
    assert zero.t_squared == pytest.approx(0.0, abs=1e-9)
    report("8 (Hotelling 2x2 oracle)")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_rbs_bundle_and_coverage():
    rbs = default_rbs()
    assert len(rbs.categories) == 11
    assert rbs.item_count == 70

    backend = load_word_vectors(WORD_VECTORS)
    verbatim = [
        "Environmental permitting and requirements",
        "Utility relocation",
        "Right of way acquisition issues",
        "Design changes",
        "Market condition",
        "Traffic growth",
        "Construction safety",
        "Labor disruptions",
    ]
    nonsense = ["zzqx vvrm kqpl", "xjwv qqzz pfff"]
    register = make_register(*(verbatim + nonsense))
    for threshold in (1e-9, 0.1, 0.5, 0.6, 0.9, 1.0):
        result = coverage(rbs, register, backend, threshold)
        assert result.coverage_fraction == pytest.approx(0.8), threshold
    report("9 (RBS bundle integrity + 0.8 coverage)")


# --------------------------------------------------------------- criterion 10


def _run_pipeline(out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    template = out_dir / "template.json"
    commands = [
        ["ingest", "--manifest", MANIFEST, "--out", str(out_dir / "ingest.json")],
        [
            "similarity", "docs", "--manifest", MANIFEST,
            "--heatmap", str(out_dir / "docs_heatmap.csv"),
            "--out", str(out_dir / "similarity_docs.json"),
        ],
        [
            "similarity", "risks", "--manifest", MANIFEST,
            "--embeddings", WORD_VECTORS,
            "--heatmap", str(out_dir / "risks_heatmap.csv"),
            "--out", str(out_dir / "similarity_risks.json"),
        ],
        [
            "similarity", "pooling", "--manifest", MANIFEST,
            "--embeddings", WORD_VECTORS,
            "--out", str(out_dir / "similarity_pooling.json"),
        ],
        [
            "similarity", "evaluation", "--manifest", MANIFEST,
            "--embeddings", WORD_VECTORS,
            "--out", str(out_dir / "similarity_evaluation.json"),
        ],
        [
            "template", "build", "--manifest", MANIFEST,
            "--embeddings", WORD_VECTORS,
            "--filter", "delivery=DBB", "--sort", "prevalence", "--top", "30",
            "--out", str(template),
        ],
        ["lifecycle", "ratios", "--manifest", MANIFEST, "--out", str(out_dir / "ratios.json")],
        ["lifecycle", "styles", "--manifest", MANIFEST, "--out", str(out_dir / "styles.json")],
        [
            "rbs", "coverage", "--manifest", MANIFEST,
            "--embeddings", WORD_VECTORS,
            "--out", str(out_dir / "coverage.json"),
        ],
    ]
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == 0, argv
    assert main([
        "template", "eval", "--template", str(template),
        "--register", str(data_path("fixtures", "expost", "registers", "p04_s0.csv")),
        "--embeddings", WORD_VECTORS,
        "--out", str(out_dir / "template_eval.json"),
    ]) == 0
    assert main([
        "rbs", "cooccur", "--coverage", str(out_dir / "coverage.json"),
        "--out", str(out_dir / "cooccurrence.csv"),
    ]) == 0
    return sorted(out_dir.iterdir())


def test_criterion_10_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    assert [p.name for p in first] == [p.name for p in second]
    assert len(first) == 13
    for left, right in zip(first, second):
        assert_same_text(left.read_bytes(), right.read_bytes(), left.name)
    report("10 (byte-identical pipeline reruns)")
