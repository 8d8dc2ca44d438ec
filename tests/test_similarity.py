from __future__ import annotations

import math

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
from riskbench.errors import CorpusError, EmptyReportError, StatTestError
from riskbench.similarity import (
    document_similarity,
    evaluation_level_report,
    evaluation_similarity,
    match_registers,
    pairwise_risk_similarity,
    pooling_similarity,
    qualitative_match,
    score_histogram,
    two_sample_t_test,
)
from riskbench.vectorize import best_against, cosine, embed_text, tokenize, unit_rows

from .conftest import make_item, make_register, toy_backend
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
    return Corpus(projects=tuple(projects), manifest_path="<test>")


# ------------------------------------------------------ document level


def test_document_similarity_identical_registers():
    reg = make_register("utility relocation", "design changes")
    corpus = corpus_of(project_of(reg, "a"), project_of(reg, "b"))
    report = document_similarity(corpus, group_by=None)
    assert len(report.pairs) == 1
    assert report.pairs[0].score == 1.0


def test_document_similarity_disjoint_vocabulary():
    corpus = corpus_of(
        project_of(make_register("utility relocation"), "a"),
        project_of(make_register("wetlands mitigation"), "b"),
    )
    report = document_similarity(corpus, group_by=None)
    assert report.pairs[0].score == 0.0


def test_document_similarity_three_registers_matches_brute_force(stopwords):
    texts = [
        "utility relocation delays construction",
        "utility conflicts during construction",
        "wetlands permits and mitigation",
    ]
    corpus = corpus_of(
        *(project_of(make_register(text), f"p{i}") for i, text in enumerate(texts))
    )
    report = document_similarity(corpus, stop_words=stopwords, group_by=None)
    docs = [tokenize(text, stopwords) for text in texts]
    expected = {
        ("p0", "p1"): brute_force_tfidf_cosine(docs, docs[0], docs[1]),
        ("p0", "p2"): brute_force_tfidf_cosine(docs, docs[0], docs[2]),
        ("p1", "p2"): brute_force_tfidf_cosine(docs, docs[1], docs[2]),
    }
    assert len(report.pairs) == 3
    for pair in report.pairs:
        assert pair.score == pytest.approx(expected[(pair.a, pair.b)], abs=1e-9)
    assert report.aggregates["mean"] == pytest.approx(
        sum(expected.values()) / 3, abs=1e-9
    )


def test_document_similarity_needs_two_projects():
    corpus = corpus_of(project_of(make_register("anything"), "solo"))
    with pytest.raises(EmptyReportError):
        document_similarity(corpus)


def test_document_similarity_accepts_prefitted_model(stopwords):
    from riskbench.similarity import project_document_tokens
    from riskbench.vectorize import tfidf_fit

    corpus = corpus_of(
        project_of(make_register("utility relocation"), "a"),
        project_of(make_register("utility conflicts"), "b"),
    )
    model = tfidf_fit([project_document_tokens(p, stopwords) for p in corpus.projects])
    prefit = document_similarity(corpus, model, stop_words=stopwords, group_by=None)
    refit = document_similarity(corpus, stop_words=stopwords, group_by=None)
    assert prefit.pairs == refit.pairs


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
    groups = report.aggregates["group_means"]
    assert set(groups) == {"DB", "P3"}
    assert groups["DB"]["count"] == 3 and groups["P3"]["count"] == 3
    assert report.test is not None
    assert report.metadata["weighting"] == "pair"


def test_report_mean_equals_pair_mean_invariant():
    corpus = corpus_of(
        project_of(make_register("utility relocation"), "a"),
        project_of(make_register("utility conflicts"), "b"),
        project_of(make_register("design changes"), "c"),
    )
    report = document_similarity(corpus, group_by=None)
    assert report.aggregates["mean"] == pytest.approx(
        sum(p.score for p in report.pairs) / len(report.pairs), abs=1e-9
    )


# ------------------------------------------------------ best match


def best_match(risk, candidates, backend):
    """(target risk_id, score) of the kernel's best match of one risk."""
    indices, scores = best_against(
        unit_rows(backend, [risk.name]), unit_rows(backend, [c.name for c in candidates])
    )
    return candidates[int(indices[0])].risk_id, float(scores[0])


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
    report = pairwise_risk_similarity(reg, reg, reference_backend)
    assert report.aggregates["mean"] == 1.0


def test_pairwise_single_item_register():
    backend = toy_backend({"alpha": [1.0, 0.1], "beta": [0.9, 0.2]})
    reg_a = make_register("alpha")
    reg_b = make_register("beta", "alpha beta")
    report = pairwise_risk_similarity(reg_a, reg_b, backend)
    assert len(report.pairs) == 1
    assert report.aggregates["mean"] == report.pairs[0].score


def test_pairwise_two_by_two_hand_built():
    backend = toy_backend({
        "alpha": [1.0, 0.0],
        "beta": [0.0, 1.0],
        "gamma": [1.0, 1.0],
        "delta": [1.0, -1.0],
    })
    reg_a = make_register("alpha", "beta")
    reg_b = make_register("gamma", "delta")
    # cosine(alpha,gamma)=cos(beta,gamma)=1/sqrt(2); cos(alpha,delta)=1/sqrt(2); cos(beta,delta)=-1/sqrt(2)
    report = pairwise_risk_similarity(reg_a, reg_b, backend)
    expected = 1 / math.sqrt(2)
    assert report.aggregates["mean"] == pytest.approx(expected, abs=1e-9)
    assert [p.b for p in report.pairs] == ["r0", "r0"]


def test_pairwise_directional_asymmetry():
    backend = toy_backend({
        "alpha": [1.0, 0.0],
        "beta": [0.0, 1.0],
        "mix": [1.0, 1.0],
    })
    reg_a = make_register("alpha", "beta")
    reg_b = make_register("mix")
    a_to_b = pairwise_risk_similarity(reg_a, reg_b, backend).aggregates["mean"]
    b_to_a = pairwise_risk_similarity(reg_b, reg_a, backend).aggregates["mean"]
    assert a_to_b == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert b_to_a == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    reg_c = make_register("alpha", "mix")
    c_to_b = pairwise_risk_similarity(reg_c, reg_b, backend).aggregates["mean"]
    b_to_c = pairwise_risk_similarity(reg_b, reg_c, backend).aggregates["mean"]
    assert c_to_b != b_to_c  # unequal register sizes need not agree


def test_pairwise_empty_register_error(reference_backend):
    empty = RegisterSnapshot(0, None, ())
    with pytest.raises(EmptyReportError):
        pairwise_risk_similarity(empty, make_register("x"), reference_backend)


def test_pooling_verbatim_duplicate_scores_one(reference_backend):
    shared = "utility relocation delays"
    corpus = corpus_of(
        project_of(make_register(shared, "design changes on structures"), "p0"),
        project_of(make_register(shared), "p1"),
        project_of(make_register("wetlands and endangered species mitigation"), "p2"),
    )
    report = pooling_similarity(corpus, reference_backend)[0]
    scores = {p.a: p.score for p in report.pairs}
    assert scores["r0"] == 1.0
    assert report.metadata["pool_size"] == 2


def test_pooling_orthogonal_fraction_zero():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    corpus = corpus_of(
        project_of(make_register("alpha"), "p0"),
        project_of(make_register("beta"), "p1"),
    )
    report = pooling_similarity(corpus, backend)[0]
    assert report.aggregates["fraction_at_least_0.5"] == 0.0


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
    report = pooling_similarity(corpus, reference_backend)[0]
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
    assert [p.score for p in report.pairs] == pytest.approx(expected, abs=1e-12)
    fraction = sum(1 for s in expected if s >= 0.5) / len(expected)
    assert report.aggregates["fraction_at_least_0.5"] == pytest.approx(fraction)


def test_pooling_single_project_corpus(reference_backend):
    corpus = corpus_of(project_of(make_register("alpha"), "p0"))
    with pytest.raises(EmptyReportError, match="at least 2 projects"):
        pooling_similarity(corpus, reference_backend)


def test_pooling_empty_register_names_the_project(reference_backend):
    corpus = corpus_of(
        project_of(make_register("alpha"), "p0"),
        project_of(RegisterSnapshot(0, None, ()), "p1"),
    )
    with pytest.raises(EmptyReportError, match="project 'p1' has an empty ex-ante register"):
        pooling_similarity(corpus, reference_backend)


def _pooling_oracle(corpus, backend, use_description):
    """Per project: embed its register and its pool apart, then best-match."""
    reports = []
    for project in corpus.projects:
        pool = [
            (other.project_id, item)
            for other in corpus.projects
            if other.project_id != project.project_id
            for item in other.register.items
        ]
        texts = [i.matching_text(use_description) for i in project.register.items]
        indices, scores = best_against(
            unit_rows(backend, texts),
            unit_rows(backend, [i.matching_text(use_description) for _, i in pool]),
        )
        reports.append([
            (item.risk_id, f"{pool[int(j)][0]}:{pool[int(j)][1].risk_id}", float(score))
            for item, j, score in zip(project.register.items, indices, scores)
        ])
    return reports


@pytest.mark.parametrize("use_description", [False, True])
def test_pooling_corpus_pass_equals_per_project_embedding(
    expost_manifest, reference_backend, use_description
):
    from riskbench.corpus import load_corpus

    corpus = load_corpus(expost_manifest)
    expected = _pooling_oracle(corpus, reference_backend, use_description)
    for jobs in (1, 3):
        reports = pooling_similarity(corpus, reference_backend, use_description, jobs=jobs)
        assert [r.metadata["project_id"] for r in reports] == [
            p.project_id for p in corpus.projects
        ]
        assert [[(p.a, p.b, p.score) for p in r.pairs] for r in reports] == expected
        assert [r.metadata["pool_size"] for r in reports] == [
            sum(len(o.register.items) for o in corpus.projects) - len(p.register.items)
            for p in corpus.projects
        ]


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

    reg_a = RegisterSnapshot(0, None, (
        item("a1", "utility relocation delays", 4, 4, 2),
        item("a2", "design changes on structures", 2, 3, 5),
    ))
    reg_b = RegisterSnapshot(0, None, (
        item("b1", "utility relocation delays", 4, 2, 2),
        item("b2", "design changes on structures", 3, 3, 1),
    ))
    return corpus_of(project_of(reg_a, "A"), project_of(reg_b, "B"))


def test_evaluation_level_identical_assessments(reference_backend):
    reg = RegisterSnapshot(0, None, (
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
    table = report.aggregates["by_threshold"]["0.5"]
    assert table["probability"] == 100.0
    assert table["cost"] == 100.0
    assert table["schedule"] == 100.0
    assert table["probability_cost_qualitative"] == 100.0
    assert table["probability_schedule_qualitative"] == 100.0


def test_evaluation_level_hand_averaged(reference_backend):
    corpus = _eval_corpus()
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    report = evaluation_level_report(matches, corpus, thresholds=(0.5,))
    table = report.aggregates["by_threshold"]["0.5"]
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
        counts.append(sum(1 for m in matches if m.score >= threshold))
    assert counts == sorted(counts, reverse=True)


def test_evaluation_skips_unset_bands(reference_backend):
    reg_a = RegisterSnapshot(0, None, (
        RiskItem("a1", "utility relocation delays",
                 assessment=Assessment(probability_band=3)),
    ))
    reg_b = RegisterSnapshot(0, None, (
        RiskItem("b1", "utility relocation delays",
                 assessment=Assessment(probability_band=5)),
    ))
    corpus = corpus_of(project_of(reg_a, "A"), project_of(reg_b, "B"))
    matches = match_registers(corpus, reference_backend, min_score=0.5)
    table = evaluation_level_report(matches, corpus, thresholds=(0.5,)).aggregates[
        "by_threshold"
    ]["0.5"]
    assert table["probability"] == pytest.approx(50.0)
    assert table["cost"] is None
    assert table["schedule"] is None


# ------------------------------------------------------ t-test


def test_t_test_identical_groups():
    result = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_t_test_pooled_hand_case():
    result = two_sample_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], variant="pooled")
    assert result.statistic == pytest.approx(-1.0, abs=1e-12)
    assert result.degrees_of_freedom == 8
    assert 0 < result.p_value < 1


def test_t_test_welch_matches_scipy():
    from scipy import stats

    a = [0.61, 0.72, 0.55, 0.69, 0.64]
    b = [0.45, 0.52, 0.49, 0.57]
    mine = two_sample_t_test(a, b, variant="welch")
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
            for variant in ("welch", "pooled"):
                mine = two_sample_t_test(group_a, group_b, variant=variant)
                expected = 2.0 * float(
                    stats.t.sf(abs(mine.statistic), mine.degrees_of_freedom))
                assert mine.p_value == min(expected, 1.0)


def test_t_test_p_value_monotone_in_mean_gap():
    base = [0.0, 1.0, 2.0, 3.0, 4.0]
    p_values = []
    for shift in (0.5, 1.0, 2.0, 4.0, 8.0):
        shifted = [x + shift for x in base]
        p_values.append(two_sample_t_test(base, shifted).p_value)
    assert p_values == sorted(p_values, reverse=True)


def test_t_test_preconditions():
    with pytest.raises(StatTestError):
        two_sample_t_test([1.0], [1.0, 2.0])
    with pytest.raises(StatTestError):
        two_sample_t_test([2.0, 2.0], [3.0, 3.0])
    with pytest.raises(StatTestError):
        two_sample_t_test([1.0, 2.0], [1.0, 2.0], variant="bayes")
