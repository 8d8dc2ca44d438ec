from __future__ import annotations

import functools
import itertools
import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest

from riskbench.corpus import (
    Assessment,
    Corpus,
    ProjectRecord,
    Qualitative,
    RegisterSnapshot,
    RiskItem,
    SizeBand,
)
from riskbench import cache, similarity, vectorize
from riskbench.errors import CorpusError, EmptyReportError, StatTestError
from riskbench.rbs import coverage, load_rbs
from riskbench.report import PairRows
from riskbench.similarity import (
    directional_mean_matrix,
    document_similarity,
    evaluation_level_report,
    evaluation_similarity,
    match_registers,
    pooling_similarity,
    qualitative_match,
    score_histogram,
    two_sample_t_test,
)
from riskbench.template import (
    build_template,
    classify_risk,
    evaluate_template,
    group_risks,
    load_categories,
)
from riskbench.vectorize import (
    EmbeddingBackend,
    cosine,
    cosine_table,
    embed_text,
    embedding_key,
    load_word_vectors,
    normalize_sentence,
    tokenize,
    unit_rows,
)

from .conftest import (
    VARIANTS,
    best_against,
    make_item,
    make_register,
    toy_backend,
    unit_matrix,
    variant_backend,
)
from .test_vectorize import brute_force_tfidf_cosine


def project_of(register, project_id="p", delivery="DB", **kwargs):
    defaults = dict(
        jurisdiction="CA",
        delivery_method=delivery,
        project_type="Highway",
        size_band=SizeBand.UNDER_500M,
        contract_value_musd=None,
        award_year=None,
    )
    defaults.update(kwargs)
    return ProjectRecord(project_id=project_id, snapshots=(register,), **defaults)


def corpus_of(*projects):
    return Corpus(projects=tuple(projects))


# ------------------------------------------------------ document level


def test_document_similarity_identical_registers():
    reg = make_register("utility relocation", "design changes")
    corpus = corpus_of(project_of(reg, "a"), project_of(reg, "b"))
    report = document_similarity(corpus, group_by=None)
    assert len(report["pairs"]) == 1
    assert report["pairs"][0].score == 1.0


def test_document_similarity_disjoint_vocabulary():
    corpus = corpus_of(
        project_of(make_register("utility relocation"), "a"),
        project_of(make_register("wetlands mitigation"), "b"),
    )
    report = document_similarity(corpus, group_by=None)
    assert report["pairs"][0].score == 0.0


def test_document_similarity_matches_brute_force(stopwords):
    texts = [
        "utility relocation delays construction",
        "utility conflicts during construction",
        "wetlands permits and mitigation",
        "and the of it",  # empty after stop words
        "wetlands permits and mitigation",
    ]
    corpus = corpus_of(
        *(project_of(make_register(text), f"p{i}") for i, text in enumerate(texts))
    )
    report = document_similarity(corpus, stop_words=stopwords, group_by=None)
    docs = [tokenize(text, stopwords) for text in texts]
    assert docs[3] == []
    expected = {
        (f"p{i}", f"p{j}"): brute_force_tfidf_cosine(docs, docs[i], docs[j])
        for i, j in itertools.combinations(range(len(docs)), 2)
    }
    assert [(pair.a, pair.b) for pair in report["pairs"]] == list(expected)
    for pair in report["pairs"]:
        assert pair.score == pytest.approx(expected[(pair.a, pair.b)], abs=1e-9)
        if "p3" in (pair.a, pair.b):
            assert pair.score == 0.0
    assert {(p.a, p.b): p.score for p in report["pairs"]}[("p2", "p4")] == 1.0
    assert report["aggregates"]["mean"] == pytest.approx(
        sum(expected.values()) / len(expected), abs=1e-9
    )


def test_document_similarity_needs_two_projects():
    corpus = corpus_of(project_of(make_register("anything"), "solo"))
    with pytest.raises(EmptyReportError):
        document_similarity(corpus)


def test_document_similarity_group_means_and_test():
    regs = {
        "a1": make_register("utility relocation delays"),
        "a2": make_register("utility relocation conflicts"),
        "a3": make_register("utility coordination"),
        "b1": make_register("wetlands permits"),
        "b2": make_register("wetlands species"),
        "b3": make_register("wetlands mitigation"),
    }
    corpus = corpus_of(
        *(project_of(reg, pid, delivery="DB" if pid.startswith("a") else "P3")
          for pid, reg in regs.items())
    )
    report = document_similarity(corpus, group_by="delivery_method")
    groups = report["aggregates"]["group_means"]
    assert set(groups) == {"DB", "P3"}
    assert groups["DB"]["count"] == 3 and groups["P3"]["count"] == 3
    assert report["test"] is not None
    assert report["metadata"]["weighting"] == "pair"


def test_report_mean_equals_pair_mean_invariant():
    corpus = corpus_of(
        project_of(make_register("utility relocation"), "a"),
        project_of(make_register("utility conflicts"), "b"),
        project_of(make_register("design changes"), "c"),
    )
    report = document_similarity(corpus, group_by=None)
    assert report["aggregates"]["mean"] == pytest.approx(
        sum(p.score for p in report["pairs"]) / len(report["pairs"]), abs=1e-9
    )


# ------------------------------------------------------ best match


def best_match(risk, candidates, backend):
    """(target risk_id, score) of the kernel's best match of one risk."""
    keyed = unit_rows(backend, [risk.name, *(c.name for c in candidates)])
    indices, scores = keyed.best(keyed.ids[:1], [keyed.ids[1:]])
    return candidates[int(indices[0, 0])].risk_id, float(scores[0, 0])


def test_best_match_exact_name(reference_backend):
    risk = make_item("s", "Contractor delays and default")
    candidates = [
        make_item("c0", "Utility relocation"),
        make_item("c1", "Contractor delays and default"),
    ]
    target, score = best_match(risk, candidates, reference_backend)
    assert target == "c1"
    assert score == 1.0


def test_best_match_near_duplicate_wins(reference_backend):
    risk = make_item("s", "Utility relocation may not happen in time")
    candidates = [
        make_item("c0", "Wetlands and endangered species"),
        make_item("c1", "Utility relocation may not happen on time"),
        make_item("c2", "Design changes on structures"),
    ]
    target, score = best_match(risk, candidates, reference_backend)
    assert target == "c1"
    assert score > 0.9


def test_best_match_single_candidate_forced():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    target, score = best_match(make_item("s", "alpha"), [make_item("c", "beta")], backend)
    assert target == "c"
    assert score == 0.0


def test_best_match_tie_breaks_lowest_index():
    backend = toy_backend({"alpha": [1.0, 0.0]})
    candidates = [make_item("first", "alpha"), make_item("second", "alpha")]
    target, score = best_match(make_item("s", "alpha"), candidates, backend)
    assert target == "first"


def test_best_match_all_oov_scores_zero_against_first():
    backend = toy_backend({"alpha": [1.0, 0.0]})
    target, score = best_match(make_item("s", "zzz"), [make_item("c0", "alpha")], backend)
    assert target == "c0"
    assert score == 0.0


def test_best_match_argmax_exhaustive_rescan(reference_backend):
    pool = make_register(
        "utility relocation delays",
        "right of way acquisition delays",
        "design changes on structures",
        "wetlands and endangered species mitigation",
        "market condition impacts on bids",
        "traffic growth below forecast",
    )
    for name in ("third party utility relocation", "additional right of way required"):
        risk = make_item("s", name)
        target, score = best_match(risk, list(pool.items), reference_backend)
        source = embed_text(reference_backend, name).vector
        rescan = [
            cosine(source, embed_text(reference_backend, c.name).vector)
            for c in pool.items
        ]
        assert score == pytest.approx(max(rescan), abs=1e-12)
        assert all(score >= s - 1e-12 for s in rescan)


# ------------------------------------------------------ pairwise / pooling


def test_pairwise_self_similarity_is_one(reference_backend):
    reg = make_register("utility relocation delays", "design changes on structures")
    corpus = corpus_of(project_of(reg, "a"), project_of(reg, "b"))
    _, matrix = directional_mean_matrix(corpus, reference_backend)
    assert matrix[0][1] == matrix[1][0] == 1.0


def test_pairwise_single_item_register():
    backend = toy_backend({"alpha": [1.0, 0.1], "beta": [0.9, 0.2]})
    corpus = corpus_of(project_of(make_register("alpha"), "a"),
                       project_of(make_register("beta", "alpha beta"), "b"))
    a_to_b = [pair for pair in match_registers(corpus, backend) if pair.a.startswith("a:")]
    assert len(a_to_b) == 1
    _, matrix = directional_mean_matrix(corpus, backend)
    assert matrix[0][1] == a_to_b[0].score


def test_pairwise_two_by_two_hand_built():
    backend = toy_backend({
        "alpha": [1.0, 0.0],
        "beta": [0.0, 1.0],
        "gamma": [1.0, 1.0],
        "delta": [1.0, -1.0],
    })
    corpus = corpus_of(project_of(make_register("alpha", "beta"), "a"),
                       project_of(make_register("gamma", "delta"), "b"))
    # cosine(alpha,gamma)=cos(beta,gamma)=1/sqrt(2); cos(alpha,delta)=1/sqrt(2); cos(beta,delta)=-1/sqrt(2)
    _, matrix = directional_mean_matrix(corpus, backend)
    expected = 1 / math.sqrt(2)
    assert matrix[0][1] == pytest.approx(expected, abs=1e-9)
    a_to_b = [pair for pair in match_registers(corpus, backend) if pair.a.startswith("a:")]
    assert [p.b for p in a_to_b] == ["b:r0", "b:r0"]


def test_pairwise_directional_asymmetry():
    backend = toy_backend({
        "alpha": [1.0, 0.0],
        "beta": [0.0, 1.0],
        "mix": [1.0, 1.0],
    })
    reg_b = make_register("mix")
    _, matrix = directional_mean_matrix(
        corpus_of(project_of(make_register("alpha", "beta"), "a"), project_of(reg_b, "b")),
        backend)
    assert matrix[0][1] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert matrix[1][0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    _, matrix = directional_mean_matrix(
        corpus_of(project_of(make_register("alpha", "mix"), "c"), project_of(reg_b, "b")),
        backend)
    assert matrix[0][1] != matrix[1][0]  # unequal register sizes need not agree


def test_pooling_verbatim_duplicate_scores_one(reference_backend):
    shared = "utility relocation delays"
    corpus = corpus_of(
        project_of(make_register(shared, "design changes on structures"), "p0"),
        project_of(make_register(shared), "p1"),
        project_of(make_register("wetlands and endangered species mitigation"), "p2"),
    )
    result = pooling_similarity(corpus, reference_backend)
    assert result["level"] == "pooling"
    assert [row["project_id"] for row in result["projects"]] == ["p0", "p1", "p2"]
    # r0's verbatim copy in p1 scores 1.0; r1 has none
    assert result["projects"][0]["histogram"]["exact_1.0"] == 1
    assert result["projects"][1]["histogram"]["exact_1.0"] == 1


def test_pooling_orthogonal_fraction_zero():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    corpus = corpus_of(
        project_of(make_register("alpha"), "p0"),
        project_of(make_register("beta"), "p1"),
    )
    result = pooling_similarity(corpus, backend)
    assert [row["fraction_at_least_0.5"] for row in result["projects"]] == [0.0, 0.0]
    assert result["mean_fraction_at_least_0.5"] == 0.0


def test_pooling_five_project_fraction_matches_brute_force(reference_backend):
    names = [
        ["utility relocation delays", "design changes on structures"],
        ["utility coordination with municipalities", "noise mitigation requirements"],
        ["right of way acquisition delays"],
        ["market condition impacts on bids", "delays in procurement"],
        ["traffic growth below forecast"],
    ]
    corpus = corpus_of(
        *(project_of(make_register(*texts), f"p{i}") for i, texts in enumerate(names))
    )
    target = corpus.projects[0]
    row = pooling_similarity(corpus, reference_backend)["projects"][0]
    pool = [
        item.name
        for project in corpus.projects[1:]
        for item in project.register.items
    ]
    expected = []
    for item in target.register.items:
        source = embed_text(reference_backend, item.name).vector
        expected.append(
            max(
                cosine(source, embed_text(reference_backend, name).vector)
                for name in pool
            )
        )
    assert row["mean"] == pytest.approx(sum(expected) / len(expected), abs=1e-12)
    assert row["histogram"] == score_histogram(expected)
    fraction = sum(1 for s in expected if s >= 0.5) / len(expected)
    assert row["fraction_at_least_0.5"] == pytest.approx(fraction)


def test_pooling_single_project_corpus(reference_backend):
    corpus = corpus_of(project_of(make_register("alpha"), "p0"))
    with pytest.raises(EmptyReportError, match="at least 2 projects"):
        pooling_similarity(corpus, reference_backend)


def test_pooling_empty_register_names_the_project(reference_backend):
    corpus = corpus_of(
        project_of(make_register("alpha"), "p0"),
        project_of(RegisterSnapshot(0, ()), "p1"),
    )
    with pytest.raises(EmptyReportError, match="project 'p1' has an empty ex-ante register"):
        pooling_similarity(corpus, reference_backend)


def _pooling_oracle(corpus, backend, use_description):
    """Per project: embed its register and its pool (the other projects'
    items) apart, best-match, and summarize the best scores as the
    `similarity pooling` payload row does."""
    rows = []
    for project in corpus.projects:
        pool = [
            item.matching_text(use_description)
            for other in corpus.projects
            if other.project_id != project.project_id
            for item in other.register.items
        ]
        texts = [i.matching_text(use_description) for i in project.register.items]
        _, scores = best_against(unit_matrix(backend, texts), unit_matrix(backend, pool))
        best = scores.tolist()
        rows.append({
            "project_id": project.project_id,
            "mean": sum(best) / len(best),
            "fraction_at_least_0.5": sum(1 for s in best if s >= 0.5) / len(best),
            "histogram": score_histogram(best),
        })
    return rows


def printed(score):
    """A score as a report prints it (6 significant digits)."""
    return f"{score:.6g}"


def assert_same_target(keys, row, oracle_row, score, oracle_score):
    """The match table may pick another target than the per-pair oracle only
    where the oracle's BLAS tie-break went to a later text with the same
    embedding key."""
    assert printed(score) == printed(oracle_score)
    if row != oracle_row:
        assert row < oracle_row and keys[row] == keys[oracle_row]


@pytest.mark.parametrize("use_description", [False, True])
def test_pooling_corpus_pass_equals_per_project_embedding(
    expost_manifest, reference_backend, use_description
):
    from riskbench.corpus import load_corpus

    corpus = load_corpus(expost_manifest)
    assert_pooling_matches_oracle(corpus, reference_backend, use_description)


def pooling_printed(result):
    """Each pooling row with its mean as a report prints it."""
    return [{**row, "mean": printed(row["mean"])} for row in result["projects"]]


def assert_pooling_matches_oracle(corpus, backend, use_description=False):
    result = pooling_similarity(corpus, backend, use_description)
    expected = _pooling_oracle(corpus, backend, use_description)
    assert pooling_printed(result) == pooling_printed({"projects": expected})
    fractions = [row["fraction_at_least_0.5"] for row in expected]
    assert result["mean_fraction_at_least_0.5"] == sum(fractions) / len(fractions)


def test_score_histogram_bands():
    bins = score_histogram([0.2, 0.5, 0.55, 0.65, 0.75, 0.85, 1.0])
    assert bins == {
        "below_0.5": 1,
        "0.5_to_0.6": 2,
        "0.6_to_0.7": 1,
        "0.7_to_0.8": 1,
        "0.8_to_1.0": 1,
        "exact_1.0": 1,
    }


def _histogram_oracle(scores):
    """The histogram rule written as one comparison per cut point."""
    bins = dict.fromkeys(("below_0.5", "0.5_to_0.6", "0.6_to_0.7", "0.7_to_0.8", "0.8_to_1.0",
                          "exact_1.0"), 0)
    for score in scores:
        if score >= 1.0:
            bins["exact_1.0"] += 1
        elif score >= 0.8:
            bins["0.8_to_1.0"] += 1
        elif score >= 0.7:
            bins["0.7_to_0.8"] += 1
        elif score >= 0.6:
            bins["0.6_to_0.7"] += 1
        elif score >= 0.5:
            bins["0.5_to_0.6"] += 1
        else:
            bins["below_0.5"] += 1
    return bins


# each cut point, the float just below it, 1.0 and the score of an empty pool
HISTOGRAM_EDGES = [-math.inf, -1.0, 0.0,
                   *(x for cut in (0.5, 0.6, 0.7, 0.8, 1.0) for x in (math.nextafter(cut, 0), cut))]


def test_score_histogram_matches_the_oracle_at_each_edge():
    for scores in ([score] for score in HISTOGRAM_EDGES):
        assert list(score_histogram(scores).items()) == list(_histogram_oracle(scores).items())
    assert score_histogram(HISTOGRAM_EDGES) == _histogram_oracle(HISTOGRAM_EDGES)


# ------------------------------------------------------ evaluation level


def test_evaluation_similarity_grid():
    assert evaluation_similarity(3, 3) == 100.0
    assert evaluation_similarity(1, 5) == 0.0
    assert evaluation_similarity(2, 4) == 50.0
    for x1 in range(1, 6):
        for x2 in range(1, 6):
            value = evaluation_similarity(x1, x2)
            assert value == evaluation_similarity(x2, x1)
            assert value in {0.0, 25.0, 50.0, 75.0, 100.0}


def test_evaluation_similarity_out_of_range():
    with pytest.raises(CorpusError):
        evaluation_similarity(0, 3)
    with pytest.raises(CorpusError):
        evaluation_similarity(1, 6)


def test_qualitative_match():
    assert qualitative_match(Qualitative.HIGH, Qualitative.HIGH) == 100.0
    assert qualitative_match(Qualitative.HIGH, Qualitative.LOW) == 0.0
    assert qualitative_match(Qualitative.MEDIUM, Qualitative.MEDIUM) == 100.0
    with pytest.raises(CorpusError):
        qualitative_match(Qualitative.UNSET, Qualitative.HIGH)


def _eval_corpus():
    def item(rid, name, p, c, s):
        return RiskItem(
            risk_id=rid,
            name=name,
            assessment=Assessment(
                probability_band=p,
                cost_band=c,
                schedule_band=s,
                qualitative_cost=Qualitative.HIGH if p * c >= 15 else Qualitative.LOW,
                qualitative_schedule=Qualitative.HIGH if p * s >= 15 else Qualitative.LOW,
            ),
        )

    reg_a = RegisterSnapshot(0, (
        item("a1", "utility relocation delays", 4, 4, 2),
        item("a2", "design changes on structures", 2, 3, 5),
    ))
    reg_b = RegisterSnapshot(0, (
        item("b1", "utility relocation delays", 4, 2, 2),
        item("b2", "design changes on structures", 3, 3, 1),
    ))
    return corpus_of(project_of(reg_a, "A"), project_of(reg_b, "B"))


def test_evaluation_level_identical_assessments(reference_backend):
    reg = RegisterSnapshot(0, (
        RiskItem(
            risk_id="x1",
            name="utility relocation delays",
            assessment=Assessment(
                probability_band=3, cost_band=3, schedule_band=3,
                qualitative_cost=Qualitative.MEDIUM,
                qualitative_schedule=Qualitative.MEDIUM,
            ),
        ),
    ))
    corpus = corpus_of(project_of(reg, "A"), project_of(reg, "B"))
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    report = evaluation_level_report(matches, corpus, thresholds=(0.5,))
    table = report["aggregates"]["by_threshold"]["0.5"]
    assert table["probability"] == 100.0
    assert table["cost"] == 100.0
    assert table["schedule"] == 100.0
    assert table["probability_cost_qualitative"] == 100.0
    assert table["probability_schedule_qualitative"] == 100.0


def test_evaluation_level_hand_averaged(reference_backend):
    corpus = _eval_corpus()
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    report = evaluation_level_report(matches, corpus, thresholds=(0.5,))
    table = report["aggregates"]["by_threshold"]["0.5"]
    # four directional matches: a1<->b1 and a2<->b2 both ways
    assert table["match_count"] == 4
    assert table["probability"] == pytest.approx((100 + 75 + 100 + 75) / 4)
    assert table["cost"] == pytest.approx((50 + 100 + 50 + 100) / 4)
    assert table["schedule"] == pytest.approx((100 + 0 + 100 + 0) / 4)
    # a1 HIGH vs b1 LOW, a2 LOW vs b2 LOW, both directions
    assert table["probability_cost_qualitative"] == pytest.approx((0 + 100 + 0 + 100) / 4)
    assert table["probability_schedule_qualitative"] == pytest.approx(100.0)


def test_evaluation_level_zero_survivors_raises(reference_backend):
    corpus = _eval_corpus()
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    with pytest.raises(EmptyReportError, match="1.01"):
        evaluation_level_report(matches, corpus, thresholds=(0.5, 1.01))


def test_evaluation_threshold_filter_is_monotone(reference_backend):
    corpus = _eval_corpus()
    matches = match_registers(corpus, reference_backend, min_score=0.0)
    counts = []
    for threshold in (0.0, 0.5, 0.9, 1.0):
        counts.append(sum(1 for score in matches.scores if score >= threshold))
    assert counts == sorted(counts, reverse=True)


def test_evaluation_skips_unset_bands(reference_backend):
    reg_a = RegisterSnapshot(0, (
        RiskItem("a1", "utility relocation delays",
                 assessment=Assessment(probability_band=3)),
    ))
    reg_b = RegisterSnapshot(0, (
        RiskItem("b1", "utility relocation delays",
                 assessment=Assessment(probability_band=5)),
    ))
    corpus = corpus_of(project_of(reg_a, "A"), project_of(reg_b, "B"))
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    table = evaluation_level_report(matches, corpus, thresholds=(0.5,))["aggregates"][
        "by_threshold"
    ]["0.5"]
    assert table["probability"] == pytest.approx(50.0)
    assert table["cost"] is None
    assert table["schedule"] is None


# ------------------------------------------------------ match table


def _variant(rng, text):
    """The text with its words shuffled, some upper-cased, and maybe a stop
    word, an out-of-vocabulary token and a trailing punctuation mark added:
    under word averages it has the text's embedding key."""
    words = text.split()
    rng.shuffle(words)
    words = [word.upper() if rng.random() < 0.3 else word for word in words]
    for extra in ("the", "zzqx"):
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), extra)
    return " ".join(words) + rng.choice(("", ".", "!", "?"))


def write_dense_corpus(root, seed=7, projects=16, risks=100, recur=10, words=240, dim=300,
                       variants=False):
    """A seeded corpus whose names each recur about `recur` times, and a dense
    word file for its vocabulary. Dense vectors make the scores of two copies
    of one text depend on where a BLAS kernel computes them, which the
    near one-hot bundled vectors never do. With `variants`, each recurrence
    is a variant of its text (see `_variant`), and an RBS file and a category
    file over the same texts and their variants are written too."""
    rng = random.Random(seed)
    vocab = [f"term{i:03d}" for i in range(words)]
    vectors = np.random.default_rng(seed).standard_normal((words, dim))
    lines = [f"{words} {dim}"] + [
        word + " " + " ".join("%.6f" % x for x in row) for word, row in zip(vocab, vectors.tolist())
    ]
    (root / "words.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    distinct = set()
    while len(distinct) < projects * risks // recur:
        distinct.add(" ".join(rng.sample(vocab, rng.randint(2, 4))))
    texts = sorted(distinct) * recur
    rng.shuffle(texts)
    if variants:
        texts = [_variant(rng, text) for text in texts]
        items = sorted(distinct)[:24]
        rbs = [(*items[4 * c:4 * c + 4], _variant(rng, items[4 * c])) for c in range(6)]
        (root / "rbs.json").write_text(json.dumps({"categories": [
            {"name": f"c{c}", "items": [{"text": text, "frequency": 1} for text in group]}
            for c, group in enumerate(rbs)]}))
        (root / "categories.json").write_text(json.dumps({"categories": [
            {"name": name, "description": description}
            for name, description in zip(("k0", "k1", "k2", "K0"),
                                         (*items[:3], _variant(rng, items[0])))]}))
    (root / "registers").mkdir()
    header = "risk_id,name,description,category,probability,cost_impact,schedule_impact,status,snapshot"
    meta = []
    for p in range(projects):
        rows = [header] + [
            f"p{p:02d}-R{i:03d},{texts[p * risks + i]},,,"
            + ",".join(str(rng.randint(1, 5)) for _ in range(3)) + ",Reg,0"
            for i in range(risks)
        ]
        (root / "registers" / f"p{p:02d}.csv").write_text("\n".join(rows) + "\n")
        meta.append({
            "id": f"p{p:02d}", "jurisdiction": "CA", "delivery_method": ("DBB", "DB", "P3")[p % 3],
            "project_type": "Highway", "size_band": "under_500M", "contract_value_musd": None,
            "award_year": None,
            "registers": [{"ordinal": 0, "label": "year 0", "path": f"registers/p{p:02d}.csv"}],
        })
    (root / "manifest.json").write_text(json.dumps({"projects": meta}, indent=2))
    return root / "manifest.json", root / "words.txt"


@pytest.fixture(scope="module")
def dense_inputs(tmp_path_factory):
    return write_dense_corpus(tmp_path_factory.mktemp("dense"))


@pytest.fixture(scope="module")
def dense_corpus(dense_inputs):
    from riskbench.corpus import load_corpus

    manifest, words = dense_inputs
    return load_corpus(manifest), load_word_vectors(words)


@pytest.fixture(scope="module")
def fixture_corpus(expost_manifest, reference_backend):
    from riskbench.corpus import load_corpus

    return load_corpus(expost_manifest), reference_backend


@pytest.fixture(params=["fixture", "dense"])
def corpus_and_backend(request):
    return request.getfixturevalue(f"{request.param}_corpus")


def _per_pair_oracle(corpus, backend, use_description=False):
    """The per-pair path: each register embedded apart, every ordered pair of
    non-empty registers best-matched with its own `best_against` product.
    Rows (source, target) number the corpus's ex-ante items in order."""
    registers = [p.register for p in corpus.projects]
    units = [unit_matrix(backend, [i.matching_text(use_description) for i in r.items])
             for r in registers]
    starts = np.cumsum([0] + [len(r.items) for r in registers])
    result = {}
    for i, j in itertools.permutations(range(len(registers)), 2):
        if len(units[i]) and len(units[j]):
            indices, scores = best_against(units[i], units[j])
            result[i, j] = (indices + starts[j], scores)
    return result


def _loop_by_threshold(corpus, matches, thresholds):
    """The per-match loop that evaluation reports were computed with."""
    items = [item for p in corpus.projects for item in p.register.items]
    table = {}
    for threshold in thresholds:
        surviving = [(a, b) for a, b, score in zip(
            matches.source_rows, matches.target_rows, matches.scores) if score >= threshold]
        if not surviving:
            raise EmptyReportError(f"no matches with cosine similarity >= {threshold}")
        metrics = {key: [] for key in ("probability", "cost", "schedule",
                                        "probability_cost_qualitative",
                                        "probability_schedule_qualitative")}
        for a, b in surviving:
            x, y = items[a].assessment, items[b].assessment
            for key, name in (("probability", "probability_band"), ("cost", "cost_band"),
                              ("schedule", "schedule_band")):
                if getattr(x, name) is not None and getattr(y, name) is not None:
                    metrics[key].append(evaluation_similarity(getattr(x, name), getattr(y, name)))
            for key, name in (("probability_cost_qualitative", "qualitative_cost"),
                              ("probability_schedule_qualitative", "qualitative_schedule")):
                if Qualitative.UNSET not in (getattr(x, name), getattr(y, name)):
                    metrics[key].append(qualitative_match(getattr(x, name), getattr(y, name)))
        table[f"{threshold:g}"] = {
            "match_count": len(surviving),
            **{key: sum(v) / len(v) if v else None for key, v in metrics.items()},
        }
    return table


def _keys(corpus, backend, use_description=False):
    return [embedding_key(backend, i.matching_text(use_description))
            for p in corpus.projects for i in p.register.items]


@pytest.mark.parametrize("use_description", [False, True])
def test_match_registers_agrees_with_per_pair_oracle(corpus_and_backend, use_description):
    corpus, backend = corpus_and_backend
    keys = _keys(corpus, backend, use_description)
    oracle = _per_pair_oracle(corpus, backend, use_description)
    matches = match_registers(corpus, backend, min_score=-1.0, use_description=use_description)
    assert isinstance(matches, PairRows)
    assert matches.labels == [f"{p.project_id}:{i.risk_id}"
                              for p in corpus.projects for i in p.register.items]
    starts = np.cumsum([0] + [len(p.register.items) for p in corpus.projects])
    expected_sources = np.concatenate([np.arange(starts[i], starts[i + 1]) for i, _ in oracle])
    assert len(matches) == len(expected_sources)
    assert matches.source_rows.tolist() == expected_sources.tolist()
    expected_targets = np.concatenate([rows for rows, _ in oracle.values()])
    expected_scores = np.concatenate([scores for _, scores in oracle.values()])
    for row, oracle_row, score, oracle_score in zip(
        matches.target_rows.tolist(), expected_targets.tolist(),
        matches.scores.tolist(), expected_scores.tolist(),
    ):
        assert_same_target(keys, row, oracle_row, score, oracle_score)
    kept = match_registers(corpus, backend, min_score=0.5, use_description=use_description)
    keep = matches.scores >= 0.5
    assert kept.source_rows.tolist() == matches.source_rows[keep].tolist()
    assert kept.target_rows.tolist() == matches.target_rows[keep].tolist()


def test_match_table_is_a_small_frozen_value(fixture_corpus):
    import dataclasses

    matches = match_registers(*fixture_corpus, min_score=0.5)
    assert len(matches) == len(matches.source_rows) == len(matches.target_rows) > 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        matches.scores = matches.scores[:1]
    # a PairRows compares and hashes by the pairs it holds
    again = match_registers(*fixture_corpus, min_score=0.5)
    assert matches == again and hash(matches) == hash(again)
    assert matches != match_registers(*fixture_corpus, min_score=0.9)


def test_directional_matrix_agrees_with_per_pair_oracle(corpus_and_backend):
    corpus, backend = corpus_and_backend
    ids, matrix = directional_mean_matrix(corpus, backend)
    oracle = _per_pair_oracle(corpus, backend)
    assert ids == [p.project_id for p in corpus.projects]
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            if i == j:
                assert value == 1.0
            elif (i, j) in oracle:
                assert printed(value) == printed(float(oracle[i, j][1].mean()))
            else:
                assert value is None


def test_dense_pooling_agrees_with_per_project_oracle(dense_corpus):
    assert_pooling_matches_oracle(*dense_corpus)


@pytest.mark.parametrize("group_by", [None, "delivery_method", "project_id"])
def test_evaluation_aggregates_equal_the_per_match_loop(corpus_and_backend, group_by):
    corpus, backend = corpus_and_backend
    thresholds = (0.0, 0.5, 0.7, 0.8)
    matches = match_registers(corpus, backend, min_score=0.0)
    report = evaluation_level_report(matches, corpus, thresholds)
    assert report["pairs"] is matches and report["level"] == "evaluation"
    assert "by_group" not in report
    assert report["aggregates"]["by_threshold"] == _loop_by_threshold(corpus, matches, thresholds)
    labels = [f"{p.project_id}:{i.risk_id}" for p in corpus.projects for i in p.register.items]
    assert [(p.a, p.b, p.score) for p in report["pairs"]] == [
        (labels[a], labels[b], score) for a, b, score in zip(
            matches.source_rows.tolist(), matches.target_rows.tolist(), matches.scores.tolist())
    ]
    if group_by is None:
        return
    groups = {p.project_id: getattr(p, group_by) for p in corpus.projects}
    owner = [p.project_id for p in corpus.projects for _ in p.register.items]
    expected = {}
    for name in sorted(set(groups.values())):
        inside = np.array([groups[owner[a]] == name and groups[owner[b]] == name
                           for a, b in zip(matches.source_rows, matches.target_rows)], dtype=bool)
        subset = PairRows(matches.labels, matches.source_rows[inside],
                          matches.target_rows[inside], matches.scores[inside])
        try:
            if not len(subset):
                raise EmptyReportError("no matches to evaluate")
            expected[name] = _loop_by_threshold(corpus, subset, thresholds)
        except EmptyReportError as exc:
            expected[name] = {"skipped": str(exc)}
    grouped = evaluation_level_report(matches, corpus, thresholds, group_by)
    assert grouped["by_group"] == expected
    assert grouped["aggregates"]["by_threshold"] == report["aggregates"]["by_threshold"]


def test_identical_texts_tie_to_the_first_row():
    backend = toy_backend({"alpha": [1.0, 0.2], "beta": [0.3, 1.0]})
    corpus = corpus_of(
        project_of(make_register("alpha"), "p0"),
        project_of(make_register("beta", "beta", "alpha beta", "beta"), "p1"),
        project_of(make_register("beta", "Beta"), "p2"),
    )
    matches = match_registers(corpus, backend, min_score=-1.0)
    # p0 -> p1 prefers "alpha beta"; every copy of "beta" ties with row 1
    assert matches.target_rows.tolist()[:2] == [3, 5]
    # both of p2's risks have a verbatim copy in the pool
    assert pooling_similarity(corpus, backend)["projects"][2]["mean"] == 1.0
    # texts with one embedding key tie as identical texts do
    backend = variant_backend()
    corpus = corpus_of(
        project_of(make_register("delta alpha"), "p0"),
        project_of(make_register("delta", *VARIANTS), "p1"),
        project_of(make_register(*reversed(VARIANTS)), "p2"),
    )
    matches = match_registers(corpus, backend, min_score=-1.0)
    assert matches.target_rows.tolist()[:2] == [2, 6]
    assert len(set(matches.scores.tolist()[:2])) == 1


@pytest.fixture(scope="module")
def variant_inputs(tmp_path_factory):
    """A dense corpus of text variants with its RBS and categories, and two
    backends: its word vectors, and a sentence table that misses every other
    distinct sentence, with the word vectors as its fallback."""
    from riskbench.corpus import load_corpus

    root = tmp_path_factory.mktemp("variant-inputs")
    manifest, words = write_dense_corpus(root, projects=8, risks=60, recur=6, variants=True)
    corpus, rbs = load_corpus(manifest), load_rbs(root / "rbs.json")
    categories = load_categories(root / "categories.json")
    words = load_word_vectors(words)
    texts = [*(i.name for p in corpus.projects for i in p.register.items),
             *(item.text for _, item in rbs.flat_items()),
             *(f"{c.name} {c.description}" for c in categories.categories)]
    keys = sorted({normalize_sentence(text) for text in texts})[::2]
    vectors = np.random.default_rng(3).standard_normal((len(keys), 16))
    sentence = EmbeddingBackend(kind="precomputed_sentence", dimension=16,
                                sentence_table=dict(zip(keys, vectors)), fallback=words)
    return corpus, rbs, categories, {"words": words, "sentence": sentence}


def _template_counts(corpus, rbs, categories, backend):
    template = build_template(group_risks(corpus.projects[:6], backend), top_n=20)
    return [evaluate_template(template, p.register, backend, 0.5) for p in corpus.projects[6:]]


# Each caller of KeyedUnits.best, as (corpus, rbs, categories, backend) ->
# its matches, with scores as a report prints them.
BEST_CALLERS = {
    "match_registers": lambda corpus, rbs, categories, backend: [
        (p.a, p.b, printed(p.score)) for p in match_registers(corpus, backend, -1.0)],
    "pooling_similarity": lambda corpus, rbs, categories, backend: pooling_printed(
        pooling_similarity(corpus, backend)),
    "directional_mean_matrix": lambda corpus, rbs, categories, backend: [
        [score if score is None else printed(score) for score in row]
        for row in directional_mean_matrix(corpus, backend)[1]],
    "rbs.coverage": lambda corpus, rbs, categories, backend: [
        (row.best_item, printed(row.score), row.used_fallback) for p in corpus.projects
        for row in coverage(rbs, p.register, backend).rows],
    "classify_risk": lambda corpus, rbs, categories, backend: [
        (label.label, printed(label.score)) for label in classify_risk(
            [i.name for p in corpus.projects for i in p.register.items], categories, backend)],
    "evaluate_template": _template_counts,
}


@pytest.mark.parametrize("space", ["words", "sentence"])
@pytest.mark.parametrize("caller", sorted(BEST_CALLERS))
def test_small_score_blocks_give_the_same_matches(monkeypatch, variant_inputs, caller, space):
    corpus, rbs, categories, backends = variant_inputs
    run = functools.partial(BEST_CALLERS[caller], corpus, rbs, categories, backends[space])
    calls = []
    monkeypatch.setattr(vectorize, "cosine_table",
                        lambda a, b: calls.append(len(a)) or cosine_table(a, b))
    whole, whole_calls = run(), len(calls)
    # one row per block, then 210 scores per block: 2 rows against the 80
    # keys of the word space, 70 against its 3 category keys
    for block_bytes in (8, 8 * 210):
        monkeypatch.setattr(vectorize, "_BLOCK_BYTES", block_bytes)
        calls.clear()
        assert run() == whole
        assert len(calls) > whole_calls


def test_reports_do_not_depend_on_blas_threads(dense_inputs, tmp_path):
    from .test_cli import fresh_python

    root = tmp_path / "variants"
    root.mkdir()
    variants = write_dense_corpus(root, projects=8, risks=60, recur=6, variants=True)
    inputs = {corpus: ["--manifest", str(manifest), "--embeddings", str(words)]
              for corpus, (manifest, words) in (("dense", dense_inputs), ("variants", variants))}
    commands = {f"{corpus}-{mode}": ["similarity", mode, *inputs[corpus]]
                for corpus in inputs for mode in ("evaluation", "risks", "pooling")}
    commands["variants-template"] = ["template", "build", *inputs["variants"],
                                     "--categories", str(root / "categories.json")]
    commands["variants-coverage"] = ["rbs", "coverage", *inputs["variants"],
                                     "--rbs", str(root / "rbs.json")]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        runs = [[*argv, "--out", str(out / f"{name}.json")] for name, argv in commands.items()]
        script = (
            "import sys\n"
            "from riskbench.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    if main(argv):\n"
            "        sys.exit(1)\n"
        )
        result = fresh_python("-c", script, OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        outputs[threads] = {name: (out / f"{name}.json").read_bytes() for name in commands}
    for name in commands:
        assert outputs["1"][name] == outputs["2"][name], name


# ------------------------------------------------------ t-test


def test_t_test_identical_groups():
    result = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_t_test_welch_matches_scipy():
    from scipy import stats

    a = [0.61, 0.72, 0.55, 0.69, 0.64]
    b = [0.45, 0.52, 0.49, 0.57]
    mine = two_sample_t_test(a, b)
    ref = stats.ttest_ind(a, b, equal_var=False)
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    # Over a grid of (t, df), from |t| near 0 to far tails and df from 1 to
    # hundreds, the p-value is exactly the one scipy.stats gives.
    rng = np.random.default_rng(7)
    for na, nb in ((2, 2), (2, 3), (5, 4), (12, 30), (200, 150)):
        for shift in (0.0, 0.01, 0.3, 1.0, 3.0, 10.0, 40.0):
            group_a = rng.normal(0.0, 1.0, na).tolist()
            group_b = rng.normal(shift, 2.0, nb).tolist()
            mine = two_sample_t_test(group_a, group_b)
            expected = 2.0 * float(stats.t.sf(abs(mine.statistic), mine.degrees_of_freedom))
            assert mine.p_value == min(expected, 1.0)


def test_t_test_p_value_monotone_in_mean_gap():
    base = [0.0, 1.0, 2.0, 3.0, 4.0]
    p_values = []
    for shift in (0.5, 1.0, 2.0, 4.0, 8.0):
        shifted = [x + shift for x in base]
        p_values.append(two_sample_t_test(base, shifted).p_value)
    assert p_values == sorted(p_values, reverse=True)


# ------------------------------------------------- kept scipy.special values

T_GROUPS = ([0.61, 0.72, 0.55, 0.69, 0.64], [0.45, 0.52, 0.49, 0.57])


def fresh_value(call: str, cache_home) -> tuple[float, bool]:
    """The float of `call`, an expression over `two_sample_t_test` and
    `hotelling_t2`, evaluated in a fresh interpreter whose parse cache is at
    `cache_home`, and whether that interpreter loaded scipy.special. The
    interpreter must print nothing else."""
    from .test_cli import fresh_python

    script = (
        "import sys\n"
        "from riskbench.lifecycle import hotelling_t2\n"
        "from riskbench.similarity import two_sample_t_test\n"
        f"value = {call}\n"
        "print(value.hex(), 'scipy.special' in sys.modules)\n"
    )
    result = fresh_python("-c", script, XDG_CACHE_HOME=str(cache_home))
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    value, loaded = result.stdout.split()
    return float.fromhex(value), loaded == "True"


def special_key(name: str, args: tuple[float, ...], version: str | None = None) -> str:
    """The key of `cache.special(name, *args)`'s entry under this scipy build,
    or under one whose version.py has the source digest `version`."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec

    scipy = find_spec("scipy").submodule_search_locations[0]
    version = version or cache.source_digest(str(Path(scipy, "version.py")))
    return cache.key(cache.source_digest(cache.__file__), (version, EXTENSION_SUFFIXES[0]), name,
                     [float(arg).hex() for arg in args])


def store_special(key: str, data: bytes) -> Path:
    """Store `data` as the special entry `key`; its path."""
    cache.store("special", key, lambda out: out.write(data))
    return cache.entry_path("special", key)


def test_t_test_p_value_is_kept_for_a_fresh_process(tmp_path):
    call = f"two_sample_t_test(*{T_GROUPS!r}).p_value"
    expected = two_sample_t_test(*T_GROUPS).p_value
    assert fresh_value(call, tmp_path) == (expected, True)  # a miss stores the value
    [entry] = (tmp_path / "riskbench").iterdir()
    assert entry.name.startswith("special-")
    stored = entry.stat().st_mtime_ns
    assert fresh_value(call, tmp_path) == (expected, False)  # a hit does not import scipy.special
    # and touches only the entry's marker of last use
    marker = entry.with_name(f"{entry.name}.used")
    assert sorted((tmp_path / "riskbench").iterdir()) == [entry, marker]
    assert entry.stat().st_mtime_ns == stored


def test_each_special_argument_tuple_has_its_own_entry(tmp_path):
    other = (T_GROUPS[0], [*T_GROUPS[1][:-1], 0.60])  # another statistic and df
    calls = [(f"two_sample_t_test(*{groups!r}).p_value", two_sample_t_test(*groups).p_value)
             for groups in (T_GROUPS, other)]
    assert calls[0][1] != calls[1][1]
    for call, expected in calls:  # each miss stores its own entry
        assert fresh_value(call, tmp_path) == (expected, True)
    assert len(list((tmp_path / "riskbench").iterdir())) == 2
    for call, expected in calls:  # and each hit reads its own value
        assert fresh_value(call, tmp_path) == (expected, False)


@pytest.mark.parametrize("how", ["truncated", "flipped-bit", "garbage", "16-byte", "other-scipy"])
def test_invalid_special_entry_is_a_miss_and_rewritten(tmp_path, monkeypatch, how):
    import scipy.special

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    result = two_sample_t_test(*T_GROUPS)
    args = (result.degrees_of_freedom, -abs(result.statistic))
    tail = float(scipy.special.stdtr(*args))
    entry = cache.entry_path("special", special_key("stdtr", args))
    if how == "other-scipy":  # a wrong value, stored under another scipy version
        other = store_special(special_key("stdtr", args, "0" * 64), struct.pack("<d", 0.25))
    else:
        store_special(special_key("stdtr", args),
                      struct.pack("<d", tail) * (2 if how == "16-byte" else 1))
        data = entry.read_bytes()
        entry.write_bytes({"truncated": data[:6],
                           "flipped-bit": data[:3] + bytes([data[3] ^ 0x10]) + data[4:],
                           "garbage": b"not a cache entry\n",
                           "16-byte": data}[how])
    assert fresh_value(f"two_sample_t_test(*{T_GROUPS!r}).p_value", tmp_path) == (
        2.0 * tail, True)
    with open(entry, "rb") as handle:  # rewritten
        assert cache.checked_size(handle) == 8
        handle.seek(0)
        assert struct.unpack("<d", handle.read(8)) == (tail,)
    if how == "other-scipy":
        assert sorted((tmp_path / "riskbench").iterdir()) == sorted([entry, other])


def test_t_test_preconditions():
    with pytest.raises(StatTestError):
        two_sample_t_test([1.0], [1.0, 2.0])
    with pytest.raises(StatTestError):
        two_sample_t_test([2.0, 2.0], [3.0, 3.0])
