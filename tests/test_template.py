from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from riskbench.corpus import RegisterSnapshot, load_corpus
from riskbench.errors import TemplateError
from riskbench.template import (
    Category,
    CategorySet,
    EvalCounts,
    FilterCriteria,
    GroupMember,
    build_template,
    classify_risk,
    default_categories,
    evaluate_template,
    filter_projects,
    group_risks,
    parse_filter,
    summarize_group,
)

from .conftest import VARIANTS, make_register, toy_backend, variant_backend
from .test_similarity import corpus_of, project_of


# --------------------------------------------------------------- filtering


def test_filter_empty_criteria_selects_all(expost_manifest):
    corpus = load_corpus(expost_manifest)
    assert filter_projects(corpus, FilterCriteria()) == list(corpus.projects)


def test_filter_dbb_on_table19_fixture(expost_manifest):
    corpus = load_corpus(expost_manifest)
    selected = filter_projects(corpus, FilterCriteria(delivery_method="DBB"))
    assert [p.project_id for p in selected] == ["2", "3", "4", "5", "6", "8", "9"]


def test_filter_conjunction(expost_manifest):
    corpus = load_corpus(expost_manifest)
    with pytest.warns(UserWarning, match="bias"):
        selected = filter_projects(
            corpus, FilterCriteria(delivery_method="DB", project_type="Highway")
        )
    assert [p.project_id for p in selected] == ["1", "10"]


def test_filter_empty_result_warns(expost_manifest):
    corpus = load_corpus(expost_manifest)
    with pytest.warns(UserWarning, match="bias"):
        selected = filter_projects(corpus, FilterCriteria(jurisdiction="ZZ"))
    assert selected == []


def test_parse_filter_string():
    criteria = parse_filter("type=Highway,size=over_1B,delivery=all")
    assert criteria.project_type == "Highway"
    assert criteria.size_band == "over_1B"
    assert criteria.delivery_method is None
    with pytest.raises(TemplateError):
        parse_filter("grade=A")


# --------------------------------------------------------------- grouping


def test_group_risks_orthogonal_singletons():
    backend = toy_backend({
        "alpha": [1.0, 0.0, 0.0],
        "beta": [0.0, 1.0, 0.0],
        "gamma": [0.0, 0.0, 1.0],
    })
    corpus = corpus_of(project_of(make_register("alpha", "beta", "gamma"), "p0"))
    groups = group_risks(list(corpus.projects), backend, threshold=0.7)
    assert len(groups) == 3
    assert all(len(group.member_refs) == 1 for group in groups)


def test_group_risks_verbatim_copies_single_group():
    backend = toy_backend({"alpha": [1.0, 0.0]})
    projects = [project_of(make_register("alpha"), f"p{i}") for i in range(4)]
    groups = group_risks(projects, backend, threshold=0.7)
    assert len(groups) == 1
    assert len(groups[0].member_refs) == 4
    assert groups[0].prevalence == 1.0


def test_group_risks_prevalence_fraction():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    projects = [
        project_of(make_register("alpha"), "p0"),
        project_of(make_register("alpha", "beta"), "p1"),
        project_of(make_register("beta"), "p2"),
    ]
    groups = group_risks(projects, backend, threshold=0.7)
    by_text = {g.representative_text: g for g in groups}
    assert by_text["alpha"].prevalence == pytest.approx(2 / 3)
    assert by_text["beta"].prevalence == pytest.approx(2 / 3)


def test_group_risks_partition_property(reference_backend, expost_manifest):
    corpus = load_corpus(expost_manifest)
    projects = list(corpus.projects)[:4]
    total = sum(len(p.register.items) for p in projects)
    groups = group_risks(projects, reference_backend, threshold=0.7)
    assert sum(len(g.member_refs) for g in groups) == total
    seen = set()
    for group in groups:
        for ref in group.member_refs:
            assert ref not in seen
            seen.add(ref)
    assert len(seen) == total


def test_group_risks_members_meet_threshold(reference_backend, expost_manifest):
    from riskbench.vectorize import cosine, embed_text

    corpus = load_corpus(expost_manifest)
    projects = list(corpus.projects)[:3]
    threshold = 0.7
    groups = group_risks(projects, reference_backend, threshold=threshold)
    texts = {
        (p.project_id, item.risk_id): item.name
        for p in projects
        for item in p.register.items
    }
    for group in groups:
        seed_project, seed_risk = group.member_refs[0]
        seed_vector = embed_text(reference_backend, texts[(seed_project, seed_risk)]).vector
        for ref in group.member_refs[1:]:
            member_vector = embed_text(reference_backend, texts[ref]).vector
            assert cosine(seed_vector, member_vector) >= threshold - 1e-12


def _group_oracle(projects, backend, threshold, use_description=False):
    """Greedy seed grouping one row at a time: each open row, in corpus order,
    seeds a group that every later open row meeting the threshold joins."""
    from riskbench.vectorize import normalize_sentence, unit_rows

    items = [(project.project_id, item) for project in projects for item in project.register.items]
    texts = [item.matching_text(use_description) for _, item in items]
    members = [GroupMember(project_id, item.risk_id, normalize_sentence(text),
                           item.assessment.probability_band, item.assessment.cost_band,
                           item.assessment.schedule_band)
               for (project_id, item), text in zip(items, texts)]
    keyed = unit_rows(backend, texts)
    assigned = [False] * len(members)
    groups = []
    for seed in range(len(members)):
        if assigned[seed]:
            continue
        assigned[seed] = True
        bucket = [members[seed]]
        if seed + 1 < len(members):
            scores = keyed.scores(keyed.ids[seed : seed + 1], slice(None))[0]
            for offset, score in enumerate(scores[keyed.ids[seed + 1 :]].tolist()):
                later = seed + 1 + offset
                if not assigned[later] and score >= threshold:
                    assigned[later] = True
                    bucket.append(members[later])
        groups.append(summarize_group(bucket, len(projects)))
    return groups


def _assert_groups_match_oracle(projects, backend, threshold, use_description=False):
    groups = group_risks(projects, backend, threshold=threshold, use_description=use_description)
    assert groups == _group_oracle(projects, backend, threshold, use_description)
    return groups


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.7, 0.99, 1.0, 1.01])
def test_group_risks_matches_oracle_on_fixture(expost_manifest, reference_backend, threshold):
    projects = list(load_corpus(expost_manifest).projects)
    for use_description in (False, True):
        _assert_groups_match_oracle(projects, reference_backend, threshold, use_description)


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.7, 1.0, 1.01])
def test_group_risks_matches_oracle_with_all_oov_and_repeated_texts(threshold):
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.6, 0.8]})
    projects = [
        project_of(make_register("zzqx", "alpha", "qqq vvv", "alpha", "beta"), "p0"),
        project_of(make_register("Alpha.", "zzqx", "beta", "beta alpha", "qqq vvv"), "p1"),
        project_of(make_register("zzqx", "zzqx", "alpha beta"), "p2"),
    ]
    groups = _assert_groups_match_oracle(projects, backend, threshold)
    # an all-OOV seed meets no threshold above 0, not even against its own text
    oov = [g for g in groups if g.representative_text in ("zzqx", "qqq vvv")]
    assert (threshold > 0) == all(len(g.member_refs) == 1 for g in oov)


@pytest.mark.parametrize("threshold", [0.0, 0.7, 0.99, 1.01])
def test_group_risks_matches_oracle_on_sentence_table_with_fallback(
    expost_manifest, reference_backend, threshold
):
    from dataclasses import replace

    from riskbench.resources import data_path
    from riskbench.vectorize import load_sentence_vectors

    sentence = load_sentence_vectors(data_path("embeddings", "reference_sentence_vectors.jsonl"))
    backend = replace(sentence, fallback=reference_backend)
    projects = list(load_corpus(expost_manifest).projects)
    projects.append(project_of(make_register(
        "utility relocation delays", "a risk text nobody precomputed", "zzqx vvrm",
        "utility relocation delays"), "extra"))
    _assert_groups_match_oracle(projects, backend, threshold)


_WORDS = ("alpha", "beta", "gamma", "delta", "the", "zzqx")


@given(
    registers=st.lists(
        st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
                 max_size=6),
        min_size=1, max_size=4),
    threshold=st.one_of(st.sampled_from([-1.0, 0.0, 0.7, 0.99, 1.0, 1.01]),
                        st.floats(-1.0, 1.01)),
)
def test_group_risks_matches_oracle_property(registers, threshold):
    projects = [project_of(make_register(*names), f"p{i}") for i, names in enumerate(registers)]
    _assert_groups_match_oracle(projects, variant_backend(), threshold)


# --------------------------------------------------------------- summarize


def _member(pid, rid, text, p=None, c=None, s=None):
    return GroupMember(
        project_id=pid,
        risk_id=rid,
        text=text,
        probability_band=p,
        cost_band=c,
        schedule_band=s,
    )


def test_summarize_group_most_frequent_text_wins():
    members = (
        [_member("p1", f"a{i}", "utility relocation at overcrossings") for i in range(4)]
        + [_member("p2", f"b{i}", "utility relocation may not happen on time") for i in range(3)]
        + [_member("p3", f"c{i}",
                   "construction impacts due to lack of right of way and timely utility relocation")
           for i in range(7)]
    )
    group = summarize_group(members, selected_project_count=31)
    assert group.representative_text == (
        "construction impacts due to lack of right of way and timely utility relocation"
    )
    assert len(group.member_refs) == 14
    assert group.source_projects == 3
    assert group.prevalence == pytest.approx(3 / 31)


def test_summarize_group_tie_breaks_lexicographically():
    members = [_member("p1", "a", "beta text"), _member("p2", "b", "alpha text")]
    group = summarize_group(members, selected_project_count=2)
    assert group.representative_text == "alpha text"


def test_summarize_singleton():
    group = summarize_group([_member("p1", "a", "only text", p=4, c=2, s=1)], 5)
    assert group.representative_text == "only text"
    assert group.avg_probability_band == 4
    assert group.prevalence == pytest.approx(1 / 5)


def test_summarize_skips_unset_bands():
    members = [
        _member("p1", "a", "text", p=4, c=2),
        _member("p2", "b", "text", p=2),
        _member("p3", "c", "text"),
    ]
    group = summarize_group(members, 3)
    assert group.avg_probability_band == pytest.approx(3.0)
    assert group.avg_cost_band == pytest.approx(2.0)
    assert group.avg_schedule_band is None


# --------------------------------------------------------------- classify


def test_classify_right_of_way(reference_backend):
    [result] = classify_risk(
        ["Additional right of way required"], default_categories(), reference_backend
    )
    assert result.label == "right of way"
    assert result.score > 0.5


def test_classify_geotechnical_over_design(reference_backend):
    from riskbench.vectorize import cosine, embed_text

    categories = default_categories()
    text = "Potential changes to geotechnical design for foundations"
    [result] = classify_risk([text], categories, reference_backend)
    assert result.label == "structure and geotechnical"
    source = embed_text(reference_backend, text).vector
    ranked = sorted(
        (
            (
                cosine(
                    source,
                    embed_text(reference_backend, f"{c.name} {c.description}").vector,
                ),
                c.name,
            )
            for c in categories.categories
        ),
        reverse=True,
    )
    assert ranked[1][1] == "design"


def test_classify_verbatim_label_scores_one(reference_backend):
    categories = default_categories()
    utilities = next(c for c in categories.categories if c.name == "utilities")
    text = f"{utilities.name} {utilities.description}".strip()
    [result] = classify_risk([text], categories, reference_backend)
    assert result.label == "utilities"
    assert result.score == 1.0


def test_classify_all_oov_flagged(reference_backend):
    categories = default_categories()
    [result] = classify_risk(["zzqx vvrm"], categories, reference_backend)
    assert result.all_oov
    assert result.score == 0.0
    assert result.label == categories.categories[0].name


def test_classify_empty_list(reference_backend):
    assert classify_risk([], default_categories(), reference_backend) == []


def test_classify_tie_goes_to_earliest_category():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    categories = CategorySet((Category("beta"), Category("alpha"), Category("alpha alpha")))
    labels = [r.label for r in classify_risk(["alpha", "beta", "zzz"], categories, backend)]
    assert labels == ["alpha", "beta", "beta"]
    # categories whose texts share one embedding key tie to the earliest
    backend = variant_backend()
    categories = CategorySet(tuple(Category(text) for text in ("delta", *VARIANTS)))
    sources = ["delta alpha", "alpha", "gamma delta", "beta", "alpha gamma"]
    results = classify_risk(sources, categories, backend)
    assert [r.label for r in results] == [VARIANTS[0], VARIANTS[0], "delta", VARIANTS[0],
                                          VARIANTS[0]]
    for text, result in zip(sources, results):
        assert result.score == pytest.approx(_classify_oracle(text, categories, backend)[1],
                                             abs=1e-12)


def _classify_oracle(text, categories, backend):
    """The per-pair loop: dense cosine against each category, strict > keeps the first."""
    from riskbench.vectorize import cosine, embed_text

    source = embed_text(backend, text)
    best_index, best_score = 0, -math.inf
    for index, category in enumerate(categories.categories):
        target = embed_text(backend, f"{category.name} {category.description}".strip())
        score = cosine(source.vector, target.vector)
        if score > best_score:
            best_index, best_score = index, score
    return categories.categories[best_index].name, best_score, source.all_oov


def test_classify_batch_equals_per_pair_loop_on_fixture_groups(
    expost_manifest, reference_backend
):
    corpus = load_corpus(expost_manifest)
    categories = default_categories()
    groups = group_risks(list(corpus.projects), reference_backend)
    texts = [g.representative_text for g in groups] + ["zzqx vvrm"]
    results = classify_risk(texts, categories, reference_backend)
    assert len(results) == len(texts)
    for text, result in zip(texts, results):
        label, score, all_oov = _classify_oracle(text, categories, reference_backend)
        assert (result.label, result.all_oov) == (label, all_oov)
        assert result.score == pytest.approx(score, abs=1e-12)


# --------------------------------------------------------------- template build


def test_build_template_sorts_by_prevalence():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    projects = (
        [project_of(make_register("alpha"), f"a{i}") for i in range(9)]
        + [project_of(make_register("beta"), "b0")]
    )
    groups = group_risks(projects, backend, threshold=0.7)
    template = build_template(groups, "prevalence", top_n=30)
    assert [e.text for e in template.entries] == ["alpha", "beta"]
    assert template.entries[0].prevalence == pytest.approx(0.9)
    assert template.entries[0].rank == 1


def test_build_template_no_truncation_when_top_n_large():
    backend = toy_backend({"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
    groups = group_risks([project_of(make_register("alpha", "beta"), "p0")], backend)
    template = build_template(groups, "prevalence", top_n=50)
    assert len(template.entries) == 2


def test_build_template_truncates():
    backend = toy_backend({
        "alpha": [1, 0, 0], "beta": [0, 1, 0], "gamma": [0, 0, 1],
    })
    groups = group_risks([project_of(make_register("alpha", "beta", "gamma"), "p0")], backend)
    template = build_template(groups, "prevalence", top_n=2)
    assert len(template.entries) == 2


def test_build_template_sort_keys_disagree():
    members_a = [_member("p1", "a", "high cost risk", p=3, c=5, s=1)]
    members_b = [_member("p1", "b", "high schedule risk", p=3, c=1, s=5),
                 _member("p2", "b2", "high schedule risk", p=3, c=1, s=5)]
    group_a = summarize_group(members_a, 2)
    group_b = summarize_group(members_b, 2)
    by_cost = build_template([group_a, group_b], "cost", top_n=10)
    by_prevalence = build_template([group_a, group_b], "prevalence", top_n=10)
    by_schedule = build_template([group_a, group_b], "schedule", top_n=10)
    assert [e.text for e in by_cost.entries] == ["high cost risk", "high schedule risk"]
    assert [e.text for e in by_prevalence.entries] == ["high schedule risk", "high cost risk"]
    assert [e.text for e in by_schedule.entries] == ["high schedule risk", "high cost risk"]


def test_build_template_unassessed_groups_sort_last_under_cost():
    assessed = summarize_group([_member("p1", "a", "assessed", p=1, c=1, s=1)], 1)
    unassessed = summarize_group([_member("p1", "b", "bare")], 1)
    template = build_template([unassessed, assessed], "cost", top_n=10)
    assert [e.text for e in template.entries] == ["assessed", "bare"]


def test_build_template_rejects_bad_inputs():
    group = summarize_group([_member("p1", "a", "text")], 1)
    with pytest.raises(TemplateError):
        build_template([], "prevalence", 10)
    with pytest.raises(TemplateError):
        build_template([group], "prevalence", 0)
    with pytest.raises(TemplateError):
        build_template([group], "magnitude", 10)


def test_template_round_trips_through_dict():
    from riskbench.template import RiskTemplate

    group = summarize_group([_member("p1", "a", "text", p=2, c=3, s=4)], 2)
    template = build_template([group], "prevalence", 10, FilterCriteria(size_band="over_1B"), 2)
    assert RiskTemplate.from_dict(template.to_dict()) == template


# --------------------------------------------------------------- evaluation


def test_eval_counts_table_rows():
    row_a = EvalCounts.from_counts(16, 19, 19)
    assert row_a.recall == pytest.approx(0.457, abs=5e-4)
    assert row_a.precision == pytest.approx(0.457, abs=5e-4)
    assert row_a.f1 == pytest.approx(0.457, abs=5e-4)
    row_d = EvalCounts.from_counts(12, 1, 18)
    assert row_d.recall == pytest.approx(0.923, abs=5e-4)
    assert row_d.precision == pytest.approx(0.400, abs=5e-4)
    assert row_d.f1 == pytest.approx(0.558, abs=5e-4)


def test_eval_counts_perfect_template():
    perfect = EvalCounts.from_counts(10, 0, 0)
    assert perfect.recall == 1.0
    assert perfect.precision == 1.0
    assert perfect.f1 == 1.0


@given(
    tp=st.integers(min_value=0, max_value=500),
    fn=st.integers(min_value=0, max_value=500),
    fp=st.integers(min_value=0, max_value=500),
)
def test_eval_counts_f1_identity(tp, fn, fp):
    counts = EvalCounts.from_counts(tp, fn, fp)
    if counts.precision is not None and counts.recall is not None:
        p, r = counts.precision, counts.recall
        if p + r > 0:
            assert counts.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def _template_backend():
    return toy_backend({
        "alpha": [1.0, 0.0, 0.0],
        "beta": [0.0, 1.0, 0.0],
        "gamma": [0.0, 0.0, 1.0],
        "alphaish": [0.9, 0.1, 0.0],
    })


def test_evaluate_template_counts():
    backend = _template_backend()
    groups = group_risks([project_of(make_register("alpha", "beta", "gamma"), "p0")], backend)
    template = build_template(groups, "prevalence", 10)
    register = make_register("alphaish", "beta beta", "zzz")
    counts = evaluate_template(template, register, backend, label_threshold=0.6)
    # alphaish -> alpha (cos ~0.99); "beta beta" -> beta (1.0); zzz all-OOV -> FN
    assert counts.tp == 2
    assert counts.fn == 1
    assert counts.fp == 1  # gamma never chosen
    assert counts.tp + counts.fn == len(register.items)
    assert counts.fp <= len(template.entries)


def test_evaluate_template_fp_counts_unchosen_even_when_fn_matches_them():
    backend = toy_backend({
        "alpha": [1.0, 0.0],
        "nearalpha": [0.95, 0.4],
    })
    groups = group_risks([project_of(make_register("alpha", "nearalpha"), "p0")], backend, 0.99)
    template = build_template(groups, "prevalence", 10)
    register = make_register("nearalpha")
    counts = evaluate_template(template, register, backend, label_threshold=1.01)
    # the lone risk best-matches an entry but below threshold: FN, both entries FP
    assert (counts.tp, counts.fn, counts.fp) == (0, 1, 2)


def test_evaluate_template_entries_with_one_key_tie_to_the_first():
    backend = variant_backend()
    template = build_template(
        group_risks([project_of(make_register(*VARIANTS), "p0")], backend, 1.01), top_n=10)
    assert [e.text for e in template.entries] == sorted(v.lower() for v in VARIANTS)
    register = make_register("delta alpha", "alpha", "gamma", "alpha gamma", "beta delta")
    counts = evaluate_template(template, register, backend, label_threshold=0.0)
    # every risk chooses the first entry, so the other three are false positives
    assert (counts.tp, counts.fn, counts.fp) == (5, 0, 3)


def test_evaluate_template_empty_inputs():
    backend = _template_backend()
    groups = group_risks([project_of(make_register("alpha"), "p0")], backend)
    template = build_template(groups, "prevalence", 10)
    with pytest.raises(TemplateError):
        evaluate_template(template, RegisterSnapshot(0, ()), backend)
