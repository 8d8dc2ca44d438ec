from __future__ import annotations

import itertools
import json
from dataclasses import replace

import pytest

from riskbench.errors import EmptyReportError, MissingEmbeddingError, RbsError
from riskbench.rbs import (
    Rbs,
    RbsCategory,
    RbsItem,
    cooccurrence,
    coverage,
    default_rbs,
    load_rbs,
    summarize_coverage,
)
from riskbench.resources import data_path
from riskbench.vectorize import load_sentence_vectors

from .conftest import VARIANTS, make_register, toy_backend, variant_backend


# ----------------------------------------------------------------- loading


def test_bundled_rbs_shape():
    rbs = default_rbs()
    assert len(rbs.categories) == 11
    assert rbs.item_count == 70


def test_bundled_rbs_first_row_frequency():
    rbs = default_rbs()
    first = rbs.categories[0].items[0]
    assert first.text == "Environmental permitting and requirements"
    assert first.report_frequency == 10


def test_rbs_duplicate_item_rejected():
    with pytest.raises(RbsError, match="duplicate item"):
        Rbs((
            RbsCategory("A", (RbsItem("same text", 1),)),
            RbsCategory("B", (RbsItem("same text", 2),)),
        ))


def test_rbs_empty_category_rejected():
    with pytest.raises(RbsError, match="no items"):
        Rbs((RbsCategory("A", ()),))


def test_rbs_frequency_validation():
    with pytest.raises(RbsError, match="frequency"):
        Rbs((RbsCategory("A", (RbsItem("text", 0),)),))


def test_load_rbs_file(tmp_path):
    path = tmp_path / "rbs.json"
    path.write_text(json.dumps({
        "categories": [
            {"name": "A", "items": [{"text": "one", "frequency": 2}]},
        ]
    }))
    rbs = load_rbs(path)
    assert rbs.item_count == 1


def test_riskbench_data_env_overrides_bundle(tmp_path, monkeypatch):
    (tmp_path / "rbs_table21.json").write_text(json.dumps({
        "categories": [
            {"name": "Only", "items": [{"text": "lone item", "frequency": 1}]},
        ]
    }))
    monkeypatch.setenv("RISKBENCH_DATA", str(tmp_path))
    rbs = default_rbs()
    assert len(rbs.categories) == 1
    with pytest.raises(FileNotFoundError):
        data_path("stopwords_en.txt")


# ----------------------------------------------------------------- coverage


def small_rbs():
    return Rbs((
        RbsCategory("CatA", (RbsItem("alpha", 1), RbsItem("beta", 1))),
        RbsCategory("CatB", (RbsItem("gamma", 2),)),
    ))


def small_backend():
    return toy_backend({
        "alpha": [1.0, 0.0, 0.0],
        "beta": [0.0, 1.0, 0.0],
        "gamma": [0.0, 0.0, 1.0],
        "alphaish": [0.9, 0.44, 0.0],
    })


def test_coverage_verbatim_item_scores_one(reference_backend):
    rbs = default_rbs()
    register = make_register("Right of way acquisition issues")
    report = coverage(rbs, register, reference_backend)
    row = report.rows[0]
    assert row.score == 1.0
    assert row.covered
    assert row.best_item == "Right of way acquisition issues"
    assert row.best_category == "Right of Way"


def test_coverage_security_requirements_below_threshold(reference_backend):
    register = make_register("Security requirements")
    report = coverage(default_rbs(), register, reference_backend)
    row = report.rows[0]
    assert not row.covered
    assert row.score == pytest.approx(0.44, abs=0.1)


def test_coverage_unreachable_threshold():
    report = coverage(small_rbs(), make_register("alpha", "beta"), small_backend(), 1.01)
    assert report.coverage_fraction == 0.0


def test_coverage_threshold_zero_covers_everything():
    register = make_register("alpha", "zzz oov")
    report = coverage(small_rbs(), register, small_backend(), 0.0)
    assert report.coverage_fraction == 1.0


def test_coverage_monotone_in_threshold():
    register = make_register("alpha", "alphaish", "gamma", "zzz")
    fractions = [
        coverage(small_rbs(), register, small_backend(), t).coverage_fraction
        for t in (0.0, 0.3, 0.6, 0.9, 1.0, 1.01)
    ]
    assert fractions == sorted(fractions, reverse=True)


def test_coverage_argmax_is_exhaustively_best(reference_backend):
    from riskbench.vectorize import cosine, embed_text

    rbs = default_rbs()
    register = make_register(
        "third party utility relocation",
        "excavation operation",
        "subsurface conditions",
        "traffic and revenue",
    )
    report = coverage(rbs, register, reference_backend)
    flat = rbs.flat_items()
    for row, risk in zip(report.rows, register.items):
        source = embed_text(reference_backend, risk.name).vector
        best = max(
            cosine(source, embed_text(reference_backend, item.text).vector)
            for _, item in flat
        )
        assert row.score == pytest.approx(best, abs=1e-12)


def test_coverage_items_with_one_key_tie_to_the_first():
    backend = variant_backend()
    rbs = Rbs((RbsCategory("A", (RbsItem("delta", 1),)),
               RbsCategory("B", tuple(RbsItem(text, 1) for text in VARIANTS))))
    register = make_register("delta alpha", "alpha", "gamma delta", "beta", "alpha gamma")
    report = coverage(rbs, register, backend, 0.6)
    assert [row.best_item for row in report.rows] == [
        VARIANTS[0], VARIANTS[0], "delta", VARIANTS[0], VARIANTS[0]]
    expected = _coverage_oracle(rbs, register, backend, 0.6, None)
    assert [row.score for row in report.rows] == pytest.approx([e[1] for e in expected], abs=1e-12)


def test_coverage_impact_means_split():
    from .conftest import make_item
    from riskbench.corpus import RegisterSnapshot

    register = RegisterSnapshot(0, (
        make_item("r0", "alpha", cost=4, schedule=2),
        make_item("r1", "zzz oov", cost=1, schedule=1),
    ))
    report = coverage(small_rbs(), register, small_backend(), 0.6)
    assert report.impact_means["covered"]["cost_band"] == pytest.approx(4.0)
    assert report.impact_means["not_covered"]["cost_band"] == pytest.approx(1.0)


def test_coverage_category_agreement_uses_register_labels():
    from .conftest import make_item
    from riskbench.corpus import RegisterSnapshot

    register = RegisterSnapshot(0, (
        make_item("r0", "alpha", category_label="CATA"),   # agrees (case folded)
        make_item("r1", "beta", category_label="CatB"),    # disagrees
        make_item("r2", "gamma"),                          # unlabeled: excluded
    ))
    report = coverage(small_rbs(), register, small_backend(), 0.6)
    assert report.category_agreement == pytest.approx(0.5)
    unlabeled = coverage(
        small_rbs(),
        RegisterSnapshot(0, (make_item("r0", "alpha"),)),
        small_backend(),
        0.6,
    )
    assert unlabeled.category_agreement is None


def _to_dict_oracle(report):
    """The report object with every key spelled out, as the schema stood
    before `to_dict` copied the report's and each row's fields."""
    return {
        "project_id": report.project_id,
        "threshold": report.threshold,
        "coverage_fraction": report.coverage_fraction,
        "histogram": report.histogram,
        "category_fractions": [
            {"category": entry["category"], "fraction": entry["fraction"]}
            for entry in report.category_fractions
        ],
        "impact_means": report.impact_means,
        "category_agreement": report.category_agreement,
        "rows": [
            {
                "risk_id": row.risk_id,
                "best_item": row.best_item,
                "best_category": row.best_category,
                "score": row.score,
                "covered": row.covered,
                "used_fallback": row.used_fallback,
            }
            for row in report.rows
        ],
    }


def _assert_to_dict_matches_oracle(report):
    payload = report.to_dict()
    assert payload == _to_dict_oracle(report)
    assert list(map(type, payload["rows"][0].values())) == [str, str, str, float, bool, bool]
    payload["rows"][0]["covered"] = "changed"
    assert report.to_dict() == _to_dict_oracle(report)  # the copy does not write through


def test_to_dict_matches_key_by_key_oracle_on_fixture(expost_manifest, reference_backend):
    from riskbench.corpus import load_corpus

    sentence = load_sentence_vectors(data_path("embeddings", "reference_sentence_vectors.jsonl"))
    with_fallback = replace(sentence, fallback=reference_backend)
    fell_back = 0
    for project in load_corpus(expost_manifest).projects:
        for backend in (reference_backend, with_fallback):
            report = coverage(default_rbs(), project.register, backend, 0.6, project.project_id)
            _assert_to_dict_matches_oracle(report)
            fell_back += sum(row.used_fallback for row in report.rows)
    assert fell_back > 0


def test_to_dict_matches_key_by_key_oracle_with_labels_unset_bands_and_oov():
    from .conftest import make_item
    from riskbench.corpus import RegisterSnapshot

    register = RegisterSnapshot(0, (
        make_item("r0", "alpha", cost=4, category_label="CatA"),
        make_item("r1", "zzz qqq", schedule=3, category_label="CatB"),   # every word OOV
        make_item("r2", "gamma", category_label="cata"),
        make_item("r3", "beta"),
    ))
    report = coverage(small_rbs(), register, small_backend(), 0.6, "p")
    assert report.rows[1].score == 0.0 and not report.rows[1].covered
    assert report.impact_means == {"covered": {"cost_band": 4.0, "schedule_band": None},
                                   "not_covered": {"cost_band": None, "schedule_band": 3.0}}
    assert report.category_agreement == pytest.approx(0.5)
    _assert_to_dict_matches_oracle(report)


def test_coverage_empty_register():
    from riskbench.corpus import RegisterSnapshot

    with pytest.raises(EmptyReportError):
        coverage(small_rbs(), RegisterSnapshot(0, ()), small_backend())


def test_coverage_sentence_backend_with_fallback(reference_backend):
    sentence = load_sentence_vectors(
        data_path("embeddings", "reference_sentence_vectors.jsonl")
    )
    register = make_register(
        "utility relocation delays",        # present in the sentence table
        "pile driving noise and vibration", # RBS text, present
        "a risk text nobody precomputed",   # falls back to word average
    )
    report = coverage(default_rbs(), register, replace(sentence, fallback=reference_backend))
    assert not report.rows[0].used_fallback
    assert report.rows[2].used_fallback
    assert report.rows[1].score == 1.0


def test_coverage_sentence_backend_without_fallback_raises():
    sentence = load_sentence_vectors(
        data_path("embeddings", "reference_sentence_vectors.jsonl")
    )
    with pytest.raises(MissingEmbeddingError):
        coverage(default_rbs(), make_register("nobody precomputed this"), sentence)


# ----------------------------------------------------------------- distribution


def _overall(reports):
    return summarize_coverage(small_rbs(), reports, 0.6)["overall"]


def test_category_distribution_single_category():
    register = make_register("alpha", "beta")
    report = coverage(small_rbs(), register, small_backend(), 0.6)
    assert _overall([report])["category_distribution"] == [{"category": "CatA", "fraction": 1.0}]


def test_category_distribution_two_to_one():
    reports = [coverage(small_rbs(), make_register(*names), small_backend(), 0.6)
               for names in (("alpha", "gamma"), ("beta", "zzz"))]
    overall = _overall(reports)
    assert (overall["risks"], overall["covered"], overall["coverage_fraction"]) == (4, 3, 0.75)
    assert overall["category_distribution"] == [
        {"category": "CatA", "fraction": pytest.approx(2 / 3)},
        {"category": "CatB", "fraction": pytest.approx(1 / 3)},
    ]


def test_category_distribution_no_covered_risks():
    report = coverage(small_rbs(), make_register("zzz"), small_backend(), 0.6)
    assert _overall([report]) == {"risks": 1, "covered": 0, "coverage_fraction": 0.0,
                                  "category_distribution": []}
    assert _overall([])["coverage_fraction"] is None


def test_category_fractions_sum_to_one():
    register = make_register("alpha", "beta", "gamma", "alphaish")
    report = coverage(small_rbs(), register, small_backend(), 0.5)
    assert sum(f["fraction"] for f in report.category_fractions) == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------- co-occurrence


def _report_for(covered_names, project_id):
    register = make_register(*covered_names)
    return coverage(small_rbs(), register, small_backend(), 0.6, project_id=project_id)


def _pair_counts(reports):
    """{(a, b): count} over both orders of every pair, read from cooccurrence()."""
    rows = cooccurrence([r.covered_items() for r in reports], small_rbs())
    return {**{(a, b): count for a, b, count in rows}, **{(b, a): count for a, b, count in rows}}


def test_cooccurrence_two_projects_sharing_pair():
    reports = [
        _report_for(["alpha", "beta"], "p0"),
        _report_for(["alpha", "beta"], "p1"),
    ]
    counts = _pair_counts(reports)
    assert counts["alpha", "beta"] == 2
    assert counts["alpha", "gamma"] == 0


def test_cooccurrence_uncovered_items_have_zero_rows():
    reports = [_report_for(["alpha"], "p0"), _report_for(["alpha"], "p1")]
    counts = _pair_counts(reports)
    assert counts["beta", "gamma"] == 0
    assert set(counts.values()) == {0}  # no pair is covered in any one project


def test_cooccurrence_matches_set_intersection_oracle():
    projects = {
        "p0": ["alpha", "beta"],
        "p1": ["alpha", "gamma"],
        "p2": ["alpha", "beta", "gamma"],
        "p3": ["gamma"],
    }
    reports = [_report_for(names, pid) for pid, names in projects.items()]
    counts = _pair_counts(reports)
    item_names = ["alpha", "beta", "gamma"]
    for a, b in itertools.combinations(item_names, 2):
        expected = sum(1 for names in projects.values() if a in names and b in names)
        assert counts[a, b] == expected


def test_cooccurrence_symmetry():
    reports = [_report_for(["alpha", "beta", "gamma"], "p0")]
    rows = cooccurrence([r.covered_items() for r in reports], small_rbs())
    # each unordered pair once, its texts in RBS file order
    assert [(a, b) for a, b, _ in rows] == [
        ("alpha", "beta"), ("alpha", "gamma"), ("beta", "gamma")]


def test_cooccurrence_pairs_descending():
    reports = [
        _report_for(["alpha", "beta", "gamma"], "p0"),
        _report_for(["alpha", "beta"], "p1"),
    ]
    rows = cooccurrence([r.covered_items() for r in reports], small_rbs())
    assert rows[0] == ("alpha", "beta", 2)
    counts = [count for _, _, count in rows]
    assert counts == sorted(counts, reverse=True)


def test_cooccurrence_empty():
    with pytest.raises(EmptyReportError):
        cooccurrence([], small_rbs())


def test_cooccurrence_pairs_descending_lists_every_pair():
    rows = cooccurrence([["gamma"], ["alpha", "gamma", "alpha"]], small_rbs())
    assert rows == [("alpha", "gamma", 1), ("alpha", "beta", 0), ("beta", "gamma", 0)]


def test_cooccurrence_unknown_item_raises():
    with pytest.raises(RbsError, match="'delta' is not in the RBS"):
        cooccurrence([["alpha"], ["beta", "delta"]], small_rbs())


# ------------------------------------------------- coverage against its oracle
#
# coverage() scores the whole register in one table per backend. The
# reference below is the per-risk loop it replaced: each text embedded on its
# own (None where the primary table misses it), each risk scored in its own
# 1 x items product, the fallback score used for a pair whose risk or item
# the primary table misses.


def _coverage_oracle(rbs, register, backend, threshold, fallback_backend):
    import numpy as np

    from riskbench.vectorize import cosine_table, embed_text

    def unit(vector):
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector

    def try_embed(b, text):
        try:
            return embed_text(b, text).vector
        except MissingEmbeddingError:
            if fallback_backend is None:
                raise
            return None

    flat = rbs.flat_items()
    primary = [try_embed(backend, item.text) for _, item in flat]
    primary_ok = np.array([v is not None for v in primary])
    primary_units = np.stack([
        unit(v) if v is not None else np.zeros(backend.dimension) for v in primary
    ])
    if fallback_backend is not None:
        fallback_units = np.stack([
            unit(embed_text(fallback_backend, item.text).vector) for _, item in flat
        ])
    rows = []
    for risk in register.items:
        own = try_embed(backend, risk.name)
        if fallback_backend is not None:
            fallback_scores = cosine_table(
                unit(embed_text(fallback_backend, risk.name).vector)[None, :], fallback_units
            )[0]
        if own is not None:
            scores = cosine_table(unit(own)[None, :], primary_units)[0]
            if fallback_backend is not None:
                scores = np.where(primary_ok, scores, fallback_scores)
        else:
            scores = fallback_scores
        best = int(scores.argmax())
        rows.append((flat[best][1].text, float(scores[best]),
                     float(scores[best]) >= threshold, own is None))
    return rows


def _sentence_backend_without(texts):
    from riskbench.vectorize import normalize_sentence

    full = load_sentence_vectors(data_path("embeddings", "reference_sentence_vectors.jsonl"))
    dropped = {normalize_sentence(t) for t in texts}
    return replace(full, sentence_table={
        k: v for k, v in full.sentence_table.items() if k not in dropped
    })


@pytest.mark.parametrize("missing", ["none", "register text", "rbs item", "both"])
def test_coverage_equals_per_risk_loop_on_fixture(expost_manifest, reference_backend, missing):
    from riskbench.corpus import load_corpus

    rbs = default_rbs()
    corpus = load_corpus(expost_manifest)
    item = "Right of way acquisition issues"
    texts = {"none": [], "register text": ["utility relocation delays"],
             "rbs item": [item], "both": ["utility relocation delays", item]}[missing]
    sentence = _sentence_backend_without(texts)
    fell_back = 0
    for project in corpus.projects:
        report = coverage(rbs, project.register, replace(sentence, fallback=reference_backend),
                          0.6, project.project_id)
        expected = _coverage_oracle(rbs, project.register, sentence, 0.6, reference_backend)
        for row, (best_item, score, covered, used_fallback) in zip(report.rows, expected):
            assert (row.best_item, row.covered, row.used_fallback) == (
                best_item, covered, used_fallback)
            assert row.score == pytest.approx(score, abs=1e-12)
        assert len(report.rows) == len(expected)
        fell_back += sum(row.used_fallback for row in report.rows)
    assert fell_back > 0
    # with the word backend alone, every pair is scored in one space
    for project in corpus.projects[:3]:
        report = coverage(rbs, project.register, reference_backend, 0.6)
        expected = _coverage_oracle(rbs, project.register, reference_backend, 0.6, None)
        assert [(r.best_item, r.covered) for r in report.rows] == [e[:1] + e[2:3] for e in expected]
        assert [r.score for r in report.rows] == pytest.approx([e[1] for e in expected], abs=1e-12)


def test_coverage_without_fallback_names_the_first_missing_rbs_item():
    item = default_rbs().flat_items()[3][1].text
    sentence = _sentence_backend_without([item, "utility relocation delays"])
    register = make_register("utility relocation delays", "nobody precomputed this")
    with pytest.raises(MissingEmbeddingError, match=f"vector for {item!r}"):
        coverage(default_rbs(), register, sentence)
    register_only = _sentence_backend_without(["utility relocation delays"])
    with pytest.raises(MissingEmbeddingError, match="vector for 'nobody precomputed this'"):
        coverage(default_rbs(), make_register("nobody precomputed this", "zzz"), register_only)
