from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import riskbench
from riskbench.corpus import (
    BANDS,
    REGISTER_CSV_COLUMNS,
    Assessment,
    Corpus,
    ProjectRecord,
    Qualitative,
    RegisterSnapshot,
    SizeBand,
    band_for,
    band_mean,
    default_scale_config,
    fill_qualitative,
    load_corpus,
    load_scale_config,
    normalize_assessment,
    parse_register,
)
from riskbench.errors import CorpusError, NormalizeError, ParseError

CSV_HEADER = "risk_id,name,description,category,probability,cost_impact,schedule_impact,status,snapshot\n"


def test_parse_csv_two_rows_in_order():
    data = (CSV_HEADER + "u1,Utility relocation,,,,,,,\nd1,Design changes,,,,,,,\n").encode()
    snapshot = parse_register(data, "csv")
    assert [item.name for item in snapshot.items] == ["Utility relocation", "Design changes"]
    assert [item.risk_id for item in snapshot.items] == ["u1", "d1"]


def test_parse_csv_empty_name_names_row():
    data = (CSV_HEADER + "u1,Utility relocation,,,,,,,\nd1,   ,,,,,,,\n").encode()
    with pytest.raises(ParseError, match="row 3"):
        parse_register(data, "csv")


def test_parse_csv_duplicate_risk_id():
    data = (CSV_HEADER + "u1,A,,,,,,,\nu1,B,,,,,,,\n").encode()
    with pytest.raises(ParseError, match="duplicate risk_id"):
        parse_register(data, "csv")


def test_parse_csv_missing_required_column():
    with pytest.raises(ParseError, match="risk_id"):
        parse_register(b"name\nfoo\n", "csv")


def test_parse_csv_band_and_raw_values():
    data = (CSV_HEADER + "r1,A,,,3,0.25,2.0,,\n").encode()
    item = parse_register(data, "csv").items[0]
    assert item.assessment.probability_band == 3
    assert item.assessment.raw_cost == 0.25
    assert item.assessment.raw_schedule == 2.0


def test_parse_csv_band_out_of_range():
    data = (CSV_HEADER + "r1,A,,,7,,,,\n").encode()
    with pytest.raises(ParseError, match="outside 1..5"):
        parse_register(data, "csv")
    items = [{"risk_id": "r0", "name": "B"}, {"risk_id": "r1", "name": "A", "probability": 9}]
    with pytest.raises(ParseError, match=r"^r\.json, item 1: probability band 9 outside 1\.\.5$"):
        parse_register(json.dumps({"items": items}).encode(), "json", source="r.json")


def test_parse_csv_mixed_snapshot_column():
    data = (CSV_HEADER + "r1,A,,,,,,,0\nr2,B,,,,,,,1\n").encode()
    with pytest.raises(ParseError, match="mixed"):
        parse_register(data, "csv")


def test_parse_json_35_items():
    items = [{"risk_id": f"r{i}", "name": f"risk {i}"} for i in range(35)]
    snapshot = parse_register(json.dumps({"items": items}).encode(), "json")
    assert len(snapshot.items) == 35


def test_parse_json_int_is_band_float_is_raw():
    payload = {"items": [{"risk_id": "r1", "name": "A", "probability": 1, "cost_impact": 1.0}]}
    item = parse_register(json.dumps(payload).encode(), "json").items[0]
    assert item.assessment.probability_band == 1
    assert item.assessment.raw_cost == 1.0


def test_parse_unknown_format():
    with pytest.raises(ParseError, match="unknown register format"):
        parse_register(b"", "xml")


def test_band_for_boundaries():
    cfg = default_scale_config()
    assert band_for(0.0, cfg.probability_band_edges) == 1
    assert band_for(1.0, cfg.probability_band_edges) == 5
    # value exactly at an edge stays in the lower band (upper-inclusive)
    assert band_for(0.5, cfg.probability_band_edges) == 3
    assert band_for(0.005, cfg.cost_band_edges) == 2


def band_for_loop(value, edges):
    """The reference band_for: the first edge the value does not exceed, else 5."""
    for index, edge in enumerate(edges):
        if value <= edge:
            return index + 1
    return 5


def _edges_and_neighbours(edges):
    return [x for edge in edges
            for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))]


_DEFAULT_EDGES = [getattr(default_scale_config(), label) for label in
                  ("probability_band_edges", "cost_band_edges", "schedule_band_edges")]
ascending_edges = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=4, unique=True).map(lambda e: tuple(sorted(e)))


@given(edges=st.one_of(st.sampled_from(_DEFAULT_EDGES), ascending_edges), data=st.data())
def test_band_for_matches_the_loop(edges, data):
    value = data.draw(st.one_of(
        st.floats(),  # finite, ±inf and nan
        st.sampled_from(_edges_and_neighbours(edges)),
        st.integers(-2, 20),
    ))
    assert band_for(value, edges) == band_for_loop(value, edges)


@pytest.mark.parametrize("edges", _DEFAULT_EDGES)
def test_band_for_every_edge_and_the_infinities(edges):
    for value in (*_edges_and_neighbours(edges), math.inf, -math.inf, math.nan):
        assert band_for(value, edges) == band_for_loop(value, edges)
    assert [band_for(edge, edges) for edge in edges] == [1, 2, 3, 4]


@pytest.mark.parametrize("bands, message", [
    ((0, None, None), "probability_band must be in 1..5, got 0"),
    ((3, 6, None), "cost_band must be in 1..5, got 6"),
    ((None, 2, 1.5), "schedule_band must be in 1..5, got 1.5"),
    ((math.nan, 7, None), "probability_band must be in 1..5, got nan"),
    ((1, math.inf, None), "cost_band must be in 1..5, got inf"),
    ((1, 2, -math.inf), "schedule_band must be in 1..5, got -inf"),
    (([3], None, None), "probability_band must be in 1..5, got [3]"),
    ((1, {2: 2}, [3]), "cost_band must be in 1..5, got {2: 2}"),
    (("3", None, None), "probability_band must be in 1..5, got '3'"),
])
def test_assessment_names_the_first_bad_band(bands, message):
    with pytest.raises(CorpusError) as excinfo:
        Assessment(*bands)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("bands", [(None, None, None), (1, 5, None), (3.0, True, 2)])
def test_assessment_accepts_bands_equal_to_1_to_5(bands):
    assessment = Assessment(*bands)
    assert (assessment.probability_band, assessment.cost_band, assessment.schedule_band) == bands


# a set band, or none; 3.0 and True are accepted as bands equal to 3 and 1
BAND_VALUES = st.sampled_from([None, *BANDS, 3.0, True])


@given(st.lists(st.tuples(BAND_VALUES, BAND_VALUES, BAND_VALUES), max_size=8))
def test_band_mean_matches_each_engines_own_mean(triples):
    assessments = [Assessment(*bands) for bands in triples]
    # a template group's band average, one band field at a time
    for name in ("probability_band", "cost_band", "schedule_band"):
        present = [v for a in assessments if (v := getattr(a, name)) is not None]
        expected = sum(present) / len(present) if present else None
        assert repr(band_mean(assessments, name)) == repr(expected)
    # a coverage report's impact means
    cost = [a.cost_band for a in assessments if a.cost_band is not None]
    schedule = [a.schedule_band for a in assessments if a.schedule_band is not None]
    for name, bands in (("cost_band", cost), ("schedule_band", schedule)):
        assert repr(band_mean(assessments, name)) == repr(
            sum(bands) / len(bands) if bands else None)


@pytest.mark.parametrize("field, value", [
    ("raw_cost", math.inf), ("raw_cost", math.nan), ("raw_cost", -math.inf),
    ("raw_schedule", math.inf), ("raw_schedule", math.nan), ("raw_schedule", -math.inf),
])
def test_non_finite_raw_impact_is_rejected(field, value):
    with pytest.raises(CorpusError) as excinfo:
        Assessment(**{field: value})
    assert str(excinfo.value) == f"{field} must be a finite number, got {value!r}"
    key = {"raw_cost": "cost_impact", "raw_schedule": "schedule_impact"}[field]
    items = [{"risk_id": "r0", "name": "B"}, {"risk_id": "r1", "name": "A", key: value}]
    with pytest.raises(ParseError) as excinfo:
        parse_register(json.dumps({"items": items}).encode(), "json", source="r.json")
    assert str(excinfo.value) == f"r.json, item 1: {field} must be a finite number, got {value!r}"


def test_normalize_probability_extremes():
    cfg = default_scale_config()
    low = normalize_assessment(Assessment(raw_probability=0.0), None, cfg)
    high = normalize_assessment(Assessment(raw_probability=1.0), None, cfg)
    assert low.probability_band == 1
    assert high.probability_band == 5


def test_normalize_cost_at_edge():
    cfg = default_scale_config()
    out = normalize_assessment(Assessment(raw_cost=5.0), 1000.0, cfg)
    assert out.cost_band == 2


def test_normalize_requires_project_value_for_cost():
    cfg = default_scale_config()
    with pytest.raises(NormalizeError, match="project value"):
        normalize_assessment(Assessment(raw_cost=1.0), None, cfg)


def test_normalize_nothing_to_normalize():
    cfg = default_scale_config()
    with pytest.raises(NormalizeError):
        normalize_assessment(Assessment(probability_band=3), None, cfg)


def test_normalize_fills_qualitative_from_matrix():
    cfg = default_scale_config()
    out = normalize_assessment(
        Assessment(raw_probability=0.95, cost_band=4, schedule_band=1), None, cfg
    )
    assert out.probability_band == 5
    assert out.qualitative_cost is Qualitative.HIGH  # 5*4 = 20 >= 15
    assert out.qualitative_schedule is Qualitative.LOW  # 5*1 = 5 < 6


@given(
    a=st.floats(min_value=0, max_value=1),
    b=st.floats(min_value=0, max_value=1),
)
def test_normalize_probability_monotone(a, b):
    cfg = default_scale_config()
    if a > b:
        a, b = b, a
    band_a = normalize_assessment(Assessment(raw_probability=a), None, cfg).probability_band
    band_b = normalize_assessment(Assessment(raw_probability=b), None, cfg).probability_band
    assert band_a <= band_b
    assert 1 <= band_a <= 5 and 1 <= band_b <= 5


@given(
    months=st.floats(min_value=0, max_value=100),
    cost=st.floats(min_value=0, max_value=1000),
)
def test_normalize_bands_always_in_range(months, cost):
    cfg = default_scale_config()
    out = normalize_assessment(
        Assessment(raw_schedule=months, raw_cost=cost), 1000.0, cfg
    )
    assert out.schedule_band in (1, 2, 3, 4, 5)
    assert out.cost_band in (1, 2, 3, 4, 5)


def test_assessment_band_validation():
    with pytest.raises(CorpusError):
        Assessment(probability_band=0)
    with pytest.raises(CorpusError):
        Assessment(raw_probability=1.5)


def test_size_band_consistency():
    assert SizeBand.for_value(166) is SizeBand.UNDER_500M
    assert SizeBand.for_value(814) is SizeBand.M500_TO_1B
    assert SizeBand.for_value(4922) is SizeBand.OVER_1B


def test_load_corpus_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"projects": []}')
    corpus = load_corpus(manifest)
    assert corpus.projects == ()


def test_load_corpus_missing_register_names_path(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "under_500M",
            "registers": [{"ordinal": 0, "path": "nope.csv"}],
        }]
    }))
    with pytest.raises(CorpusError, match="nope.csv"):
        load_corpus(manifest)


def test_load_corpus_size_band_inconsistency(tmp_path):
    register = tmp_path / "r.csv"
    register.write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "under_500M",
            "contract_value_musd": 2000,
            "registers": [{"ordinal": 0, "path": "r.csv"}],
        }]
    }))
    with pytest.raises(CorpusError, match="size_band"):
        load_corpus(manifest)


def test_load_corpus_table19_fixture(expost_manifest):
    corpus = load_corpus(expost_manifest)
    assert [p.project_id for p in corpus.projects] == [str(i) for i in range(1, 12)]
    project_1 = corpus.projects[0]
    assert len(project_1.snapshots) == 5
    assert len(project_1.register.items) == 32  # ex-ante register


def test_load_corpus_normalizes_raw_values(tmp_path):
    register = tmp_path / "r.csv"
    register.write_text(CSV_HEADER + "r1,A,,,0.95,12.0,4.0,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "projects": [{
            "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
            "project_type": "Highway", "size_band": "over_1B",
            "contract_value_musd": 1200,
            "registers": [{"ordinal": 0, "path": "r.csv"}],
        }]
    }))
    item = load_corpus(manifest).projects[0].register.items[0]
    assert item.assessment.probability_band == 5
    assert item.assessment.cost_band == 3  # 12/1200 is exactly the 1% edge
    assert item.assessment.schedule_band == 3  # 4 months -> (3, 6]
    assert item.assessment.qualitative_cost is Qualitative.HIGH


def test_load_scale_config_round_trip(tmp_path):
    cfg = default_scale_config()
    path = tmp_path / "scales.json"
    path.write_text(json.dumps({
        "probability_band_edges": list(cfg.probability_band_edges),
        "cost_band_edges": list(cfg.cost_band_edges),
        "schedule_band_edges": list(cfg.schedule_band_edges),
        "risk_matrix": {f"{p},{i}": q.value for (p, i), q in cfg.risk_matrix.items()},
    }))
    assert load_scale_config(path) == cfg


# ----------------------------------------------------------- manifest faults


def _project(**overrides):
    entry = {
        "id": "p1", "jurisdiction": "CA", "delivery_method": "DB",
        "project_type": "Highway", "size_band": "under_500M",
        "registers": [{"ordinal": 0, "path": "r.csv"}],
    }
    entry.update(overrides)
    return entry


# a JSON integer past Python's limit on int-to-text digits, which json.loads
# rejects with a ValueError that is not a JSONDecodeError
LONG_INT = "1" * (sys.get_int_max_str_digits() + 1)
MANIFEST_FAULTS = {
    "int past the digit limit": (
        f'{{"projects": [{LONG_INT}]}}', "not valid JSON (Exceeds the limit"),
    "register without path": (
        json.dumps({"projects": [_project(), _project(id="p2", registers=[{"ordinal": 0}])]}),
        "projects[1].registers[0].path is missing",
    ),
    "register not an object": (
        json.dumps({"projects": [_project(registers=["r.csv"])]}),
        "projects[0].registers[0] must be an object, got 'r.csv'",
    ),
    "project not an object": (
        json.dumps({"projects": ["p1"]}), "projects[0] must be an object, got 'p1'"),
    "registers not a list": (
        json.dumps({"projects": [_project(registers={"path": "r.csv"})]}),
        "projects[0].registers must be an array, got {'path': 'r.csv'}",
    ),
    "not utf-8": (
        json.dumps({"projects": [_project(jurisdiction="Québec")]}, ensure_ascii=False),
        "not valid UTF-8",
    ),
    "ordinal a string": (
        json.dumps({"projects": [_project(registers=[{"ordinal": "0", "path": "r.csv"}])]}),
        "projects[0].registers[0].ordinal must be an integer, got '0'",
    ),
    "ordinal a bool": (
        json.dumps({"projects": [_project(registers=[{"ordinal": True, "path": "r.csv"}])]}),
        "projects[0].registers[0].ordinal must be an integer, got True",
    ),
    "ordinal negative": (
        json.dumps({"projects": [_project(), _project(
            id="p2", registers=[{"ordinal": -1, "path": "r.csv"}])]}),
        "project 1, register 0: 'ordinal' must be a non-negative integer",
    ),
    "contract value a string": (
        json.dumps({"projects": [_project(contract_value_musd="12")]}),
        "projects[0].contract_value_musd must be a finite number or null, got '12'",
    ),
    "contract value a bool": (
        json.dumps({"projects": [_project(contract_value_musd=False)]}),
        "projects[0].contract_value_musd must be a finite number or null, got False",
    ),
    "contract value NaN": (
        json.dumps({"projects": [_project(contract_value_musd=12), _project(
            id="p2", contract_value_musd=math.nan)]}),
        "projects[1].contract_value_musd must be a finite number or null, got nan",
    ),
    "contract value Infinity": (
        json.dumps({"projects": [_project(contract_value_musd=math.inf)]}),
        "projects[0].contract_value_musd must be a finite number or null, got inf",
    ),
    "award year a string": (
        json.dumps({"projects": [_project(award_year="2013")]}),
        "projects[0].award_year must be an integer or null, got '2013'",
    ),
    "award year a float": (
        json.dumps({"projects": [_project(award_year=2013.0)]}),
        "projects[0].award_year must be an integer or null, got 2013.0",
    ),
    "id a list": (
        json.dumps({"projects": [_project(id=["x"])]}),
        "projects[0].id must be a string, got ['x']",
    ),
    "id empty": (
        json.dumps({"projects": [_project(), _project(id="")]}),
        "project 1: 'id' must be a non-empty string, not ''",
    ),
    "id missing": (
        json.dumps({"projects": [{"size_band": "under_500M", "registers": []}]}),
        "projects[0].id is missing",
    ),
    "project type a number": (
        json.dumps({"projects": [_project(project_type=3)]}),
        "projects[0].project_type must be a string, got 3",
    ),
    "jurisdiction null": (
        json.dumps({"projects": [_project(jurisdiction=None)]}),
        "projects[0].jurisdiction must be a string, got None",
    ),
    "delivery method an object": (
        json.dumps({"projects": [_project(delivery_method={"a": 1})]}),
        "projects[0].delivery_method must be a string, got {'a': 1}",
    ),
    "size band a list": (
        json.dumps({"projects": [_project(size_band=["over_1B"])]}),
        "projects[0].size_band must be a string, got ['over_1B']",
    ),
}


def write_manifest_fault(directory: Path, fault: str) -> Path:
    (directory / "r.csv").write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = directory / "manifest.json"
    text, _ = MANIFEST_FAULTS[fault]
    manifest.write_bytes(text.encode("latin-1" if fault == "not utf-8" else "utf-8"))
    return manifest


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_load_corpus_manifest_fault_is_a_parse_error(tmp_path, fault):
    manifest = write_manifest_fault(tmp_path, fault)
    with pytest.raises(ParseError) as excinfo:
        load_corpus(manifest)
    assert str(excinfo.value).startswith(f"{manifest}")
    assert MANIFEST_FAULTS[fault][1] in str(excinfo.value)


def test_manifest_value_types_that_load(tmp_path):
    (tmp_path / "r.csv").write_text(CSV_HEADER + "r1,A,,,,,,,\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(contract_value_musd=12, award_year=None),
        _project(id="p2", contract_value_musd=12.5, award_year=2013,
                 registers=[{"ordinal": 3, "path": "r.csv"}]),
    ]}))
    corpus = load_corpus(manifest)
    assert [p.contract_value_musd for p in corpus.projects] == [12, 12.5]
    assert [p.award_year for p in corpus.projects] == [None, 2013]
    assert corpus.projects[1].register.ordinal == 3


@pytest.mark.parametrize("field, value, kind", [
    ("risk_id", 5, "a string"),
    ("name", ["A"], "a string"),
    ("description", 1.5, "a string or null"),
    ("category", {"a": 1}, "a string or null"),
    ("status", True, "a string or null"),
    ("probability", "high", "numeric"),
    ("cost_impact", True, "numeric"),
])
def test_json_register_text_field_types(tmp_path, field, value, kind):
    record = {"risk_id": "r1", "name": "A", "description": None, "category": "c",
              "status": None, field: value}
    data = json.dumps({"items": [{"risk_id": "r0", "name": "B"}, record]}).encode()
    # the shape names a text field by its JSON path; `_row` names a measure by its item
    where = (f"<register>, item 1: {field}" if kind == "numeric"
             else f"<register>: items[1].{field}")
    expected = f"{where} must be {kind}, got {value!r}"
    with pytest.raises(ParseError) as excinfo:
        parse_register(data, "json")
    assert str(excinfo.value) == expected
    (tmp_path / "r.json").write_bytes(data)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(registers=[{"ordinal": 0, "path": "r.json"}])]}))
    with pytest.raises(ParseError) as excinfo:
        load_corpus(manifest)
    assert str(excinfo.value) == expected.replace("<register>", str(tmp_path / "r.json"))


def test_json_register_int_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^<register>: not valid JSON \(Exceeds the limit"):
        parse_register(f'{{"items": [{LONG_INT}]}}'.encode(), "json")


def test_load_corpus_keeps_digests_of_the_bytes_parsed(expost_manifest):
    corpus = load_corpus(expost_manifest)
    manifest = json.loads(Path(expost_manifest).read_text(encoding="utf-8"))
    paths = [r["path"] for p in manifest["projects"] for r in p["registers"]]
    assert list(corpus.digests) == ["manifest", *paths]
    base = Path(expost_manifest).parent
    for key, digest in corpus.digests.items():
        source = Path(expost_manifest) if key == "manifest" else base / key
        assert digest == hashlib.sha256(source.read_bytes()).hexdigest()
    # digests are not part of a corpus's value
    assert corpus == replace(corpus, digests={})
    assert hash(corpus) == hash(replace(corpus, digests={}))


# --------------------------------------------------- loader against its oracle
#
# load_corpus parses each register once and builds each item already
# normalized. The reference below is the composition it replaces: the public
# parse_register, then normalize_assessment (raw values present) or
# fill_qualitative per item, then a snapshot with the manifest's ordinal. The
# generated inputs may carry a `label`, which both ignore. Both must give the
# same corpus or raise the same error. parse_register rejects a non-finite raw
# cost or schedule, as the loader does, so the reference applies that rule too.


def reference_load(manifest_path) -> Corpus:
    cfg = default_scale_config()
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    projects = []
    for index, entry in enumerate(manifest["projects"]):
        value = entry.get("contract_value_musd")
        snapshots = []
        for register in entry.get("registers", []):
            path = manifest_path.parent / register["path"]
            fmt = "json" if path.suffix.lower() == ".json" else "csv"
            snapshot = parse_register(path.read_bytes(), fmt, source=str(path))
            items = []
            for item in snapshot.items:
                a = item.assessment
                try:
                    if a.raw_probability is None and a.raw_cost is None and a.raw_schedule is None:
                        a = fill_qualitative(a, cfg)
                    else:
                        a = normalize_assessment(a, value, cfg)
                except NormalizeError as exc:
                    raise CorpusError(f"{path}:{item.risk_id}: {exc}") from exc
                items.append(replace(item, assessment=a))
            snapshots.append(RegisterSnapshot(
                ordinal=register.get("ordinal", snapshot.ordinal),
                items=tuple(items),
            ))
        try:
            projects.append(ProjectRecord(
                project_id=entry["id"],
                jurisdiction=entry.get("jurisdiction", ""),
                delivery_method=entry.get("delivery_method", ""),
                project_type=entry.get("project_type", ""),
                size_band=SizeBand(entry["size_band"]),
                contract_value_musd=value,
                award_year=entry.get("award_year"),
                snapshots=tuple(sorted(snapshots, key=lambda s: s.ordinal)),
            ))
        except CorpusError as exc:
            raise CorpusError(f"{manifest_path}, project {index}: {exc}") from exc
    ids = [project.project_id for project in projects]
    for index, project_id in enumerate(ids):
        if project_id in ids[:index]:
            raise CorpusError(f"{manifest_path}, project {index}: duplicate project_id {project_id!r}")
    return Corpus(projects=tuple(projects))


def _outcome(load, manifest):
    """The loaded corpus's repr (NaN never equals itself), or the error raised."""
    try:
        return repr(load(manifest)), None
    except (ParseError, CorpusError) as exc:
        return None, (type(exc).__name__, str(exc))


def _pick(draw, usual, rare):
    """One of the usual values, or about one draw in 32 one of the rare ones."""
    return draw(st.sampled_from(rare if draw(st.integers(0, 31)) == 13 else usual))


# Cells on and next to the default band edges (probability 0.1/0.3/0.5/0.7;
# cost 0.1/0.5/1/5% of a 1000 M$ contract; schedule 1/3/6/12 months), bands,
# "3" against "3.0", extremes and blanks; the rare ones fail to parse or to
# normalize somewhere.
PROBABILITY_CELLS = (
    ["", "1", "3", "5", "3.0", " 2 ", "0.1", "0.10", "0.3", "0.5", "0.7", "0.70000001", "0.95",
     "1.0", "0.0", "1e-300"],
    [" ", "0", "7", "1.5", "nan", "inf", "x"],
)
IMPACT_CELLS = (
    ["", "1", "4", "3.0", "1.0", "5.0", "10.0", "50.0", "50.000001", "6.0", "12.0", "0.5",
     "1e-300", "1e3"],
    ["0", "8", "inf", "nan", "-inf", "x"],
)
TEXT_CELLS = (["", "Utility relocation", "  design changes ", "right of way, delays"], [" "])
STATUS_CELLS = (["", "Reg", "Hap", " Clo "], ["closed"])
SNAPSHOT_CELLS = (["", "0", " 0"], ["1", "-1", "a"])
NAME_CELLS = (TEXT_CELLS[0][1:], ["", " "])


@st.composite
def csv_registers(draw) -> bytes:
    extra = draw(st.lists(st.sampled_from([*REGISTER_CSV_COLUMNS, "extra"]), max_size=9))
    required = [c for c in ("risk_id", "name") if _pick(draw, [True], [False])]
    header = draw(st.permutations(required + extra))
    lines = [header]
    for number in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 8)) == 0:
            lines.append([])  # a blank line
            continue
        cells = {
            "risk_id": _pick(draw, [f"r{number}"], ["", " ", "r0"]),
            "name": _pick(draw, *NAME_CELLS),
            "description": _pick(draw, *TEXT_CELLS),
            "category": _pick(draw, *TEXT_CELLS),
            "probability": _pick(draw, *PROBABILITY_CELLS),
            "cost_impact": _pick(draw, *IMPACT_CELLS),
            "schedule_impact": _pick(draw, *IMPACT_CELLS),
            "status": _pick(draw, *STATUS_CELLS),
            "snapshot": _pick(draw, *SNAPSHOT_CELLS),
            "extra": "x",
        }
        row = [cells[name] for name in header]
        cut = _pick(draw, [0], [-2, -1, 1, 2])  # short rows and extra columns
        row = row[:cut] if cut < 0 else row + ["spare"] * cut
        lines.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return buffer.getvalue().encode("utf-8")


JSON_PROBABILITIES = ([None, 1, 3, 5, 0.1, 0.5, 0.7, 0.0, 1.0, 1e-300], [0, 7, 1.5, float("nan"), True, "3"])
JSON_IMPACTS = (
    [None, 1, 3, 5, 1.0, 3.0, 5.0, 50.0, 1e-300],
    [0, 7, float("inf"), float("nan"), float("-inf"), True, "3"],
)


@st.composite
def json_registers(draw) -> bytes:
    items = []
    for number in range(draw(st.integers(0, 5))):
        record = {
            "risk_id": _pick(draw, [f"r{number}"], ["", "r0"]),
            "name": _pick(draw, *NAME_CELLS),
            "description": _pick(draw, [None, *TEXT_CELLS[0]], TEXT_CELLS[1]),
            "category": _pick(draw, [None, *TEXT_CELLS[0]], TEXT_CELLS[1]),
            "status": _pick(draw, [None, *STATUS_CELLS[0]], STATUS_CELLS[1]),
            "probability": _pick(draw, *JSON_PROBABILITIES),
            "cost_impact": _pick(draw, *JSON_IMPACTS),
            "schedule_impact": _pick(draw, *JSON_IMPACTS),
        }
        dropped = draw(st.lists(st.sampled_from(sorted(record)), unique=True, max_size=3))
        if "risk_id" in dropped or "name" in dropped:
            dropped = _pick(draw, [[]], [dropped])
        items.append({key: value for key, value in record.items() if key not in dropped})
    payload = {"items": items}
    if draw(st.booleans()):
        payload["ordinal"] = _pick(draw, [0, 1, 2], [-1])
    if draw(st.booleans()):
        payload["label"] = draw(st.sampled_from(["year 0", None]))
    return json.dumps(payload).encode("utf-8")


@st.composite
def manifests(draw) -> tuple[dict, dict[str, bytes]]:
    files: dict[str, bytes] = {}
    projects = []
    for index in range(draw(st.integers(1, 2))):
        value = _pick(draw, [1000, 1000.0, 250.5], [None, 0])
        registers = []
        for ordinal in range(_pick(draw, [1, 2], [0, 3])):
            fmt = draw(st.sampled_from(["csv", "json"]))
            name = f"p{index}_s{ordinal}.{fmt}"
            files[name] = draw(csv_registers() if fmt == "csv" else json_registers())
            register = {"path": name}
            if _pick(draw, [True], [False]):
                register["ordinal"] = ordinal
            if draw(st.booleans()):
                register["label"] = f"year {ordinal}"
            registers.append(register)
        projects.append({
            "id": f"p{index}",
            "size_band": SizeBand.for_value(value if value is not None else 1).value,
            "contract_value_musd": value,
            "registers": registers,
        })
    return {"projects": projects}, files


@settings(deadline=None)
@given(case=manifests())
def test_load_corpus_matches_parse_then_normalize(case):
    manifest, files = case
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            Path(directory, name).write_bytes(data)
        path = Path(directory, "manifest.json")
        path.write_text(json.dumps(manifest))
        assert _outcome(load_corpus, path) == _outcome(reference_load, path)


def test_load_corpus_matches_parse_then_normalize_on_fixture(expost_manifest):
    corpus = load_corpus(expost_manifest)
    assert corpus == reference_load(expost_manifest)
    assert repr(corpus) == repr(reference_load(expost_manifest))


def test_loaded_records_are_slotted(expost_manifest):
    corpus = load_corpus(expost_manifest)
    project = corpus.projects[0]
    item = project.snapshots[-1].items[-1]
    for record in (corpus, project, project.snapshots[-1], item, item.assessment):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, None)
        # a frozen slotted class has no room for a new attribute; Python 3.11
        # reports it as a TypeError from the frozen __setattr__'s super() call
        with pytest.raises((AttributeError, TypeError)):
            record.note = "x"
        with pytest.raises(TypeError):
            weakref.ref(record)


def test_load_corpus_keeps_one_object_per_distinct_text(tmp_path):
    (tmp_path / "a.csv").write_text(
        CSV_HEADER + "r1,Utility relocation,Late permits,design,0.5,-0.0,1.0,Reg,0\n"
        "r2,Design changes,,design,0.5,0.0,1.0,Reg,0\n")
    (tmp_path / "b.csv").write_text(
        CSV_HEADER + "r1, Utility relocation ,Late permits,design,0.5,0.0,-0.0, Reg,1\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": [
        _project(contract_value_musd=100, registers=[{"path": "a.csv"}, {"path": "b.csv"}]),
        _project(id="p2", contract_value_musd=100, registers=[{"path": "b.csv"}]),
    ]}))
    corpus = load_corpus(manifest)
    assert corpus == reference_load(manifest)
    (r1, r2), (later,) = (s.items for s in corpus.projects[0].snapshots)
    other = corpus.projects[1].register.items[0]
    for text in ("risk_id", "name", "description", "category_label", "status_note"):
        assert getattr(r1, text) is getattr(later, text) is getattr(other, text)
    assert r1.category_label is r2.category_label
    # numbers are never shared by equality: each -0.0 keeps its sign
    assert [math.copysign(1, value) for value in (
        r1.assessment.raw_cost, r2.assessment.raw_cost, later.assessment.raw_schedule)] == [-1, 1, -1]


_PEAK_SCRIPT = """
import hashlib
import sys

from riskbench import corpus

if len(sys.argv) > 1:
    loaded = corpus.load_corpus(sys.argv[1])
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_loaded_corpus_peak_per_row(tmp_path):
    # yearly snapshots that repeat each risk's id, name, category and status,
    # with raw values distinct per row
    projects, snapshots, risks = 6, 5, 400
    names = [f"risk {a} near {b} during works" for a in range(30) for b in range(10)]
    categories = ["design", "construction", "utilities", "right-of-way", "environment",
                  "third party", "management"]
    entries = []
    for p in range(projects):
        registers = []
        for s in range(snapshots):
            rows = (f"p{p}-R{r:04d},{names[(p + r) % len(names)]},,{categories[r % 7]},"
                    f"0.{(r * 7 + s) % 1000:03d},{(p * r + s) % 997 / 100:.2f},"
                    f"{(r + s * 13) % 1200 / 100:.2f},{('Reg', 'Hap', 'Clo')[s % 3]},{s}\n"
                    for r in range(risks))
            (tmp_path / f"p{p}_s{s}.csv").write_text(CSV_HEADER + "".join(rows))
            registers.append({"path": f"p{p}_s{s}.csv"})
        entries.append(_project(id=f"p{p}", contract_value_musd=600, size_band="500M_to_1B",
                                registers=registers))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"projects": entries}))
    src = str(Path(riskbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def peak_bytes(*args):
        result = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *args], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        return int(result.stdout) * 1024

    baseline, loaded = peak_bytes(), peak_bytes(str(manifest))
    # about 680 bytes a row with a __dict__ per record and a str per cell,
    # about 310 with slotted records and one str per distinct text
    assert (loaded - baseline) / (projects * snapshots * risks) < 450


def _one_register_manifest(directory: Path, rows: str, value=None) -> Path:
    (directory / "r.csv").write_text(CSV_HEADER + rows)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"projects": [_project(contract_value_musd=value)]}))
    return manifest


@pytest.mark.parametrize("rows, error, message", [
    # the whole file parses before any row normalizes
    ("r1,A,,,,1.0,,,\nr2,B,,,7,,,,\n", ParseError, "r.csv, row 3: probability band 7 outside 1..5"),
    ("r1,A,,,,1.0,,,\nr2,B,,,,,,,\n", CorpusError,
     "r.csv:r1: a positive project value is required to normalize a raw cost impact"),
    # within a row: measures, then risk_id, then name, then the raw
    # probability, cost and schedule
    (",A,,,x,,,,\n", ParseError, "r.csv, row 2: probability value 'x' is not numeric"),
    (",A,,,1,0,,,\n", ParseError, "r.csv, row 2: cost_impact band 0 outside 1..5"),
    (" , ,,,1.5,,,,\n", ParseError, "r.csv, row 2: missing risk_id"),
    ("r1, ,,,1.5,,,,\n", ParseError, "r.csv, row 2: risk 'r1' has an empty name"),
    ("r1,A,,,1.5,,,,\n", ParseError,
     "r.csv, row 2: raw_probability must be a fraction in [0, 1], got 1.5"),
    (" ,A,,,,nan,,,\n", ParseError, "r.csv, row 2: missing risk_id"),
    ("r1,A,,,1.5,inf,,,\n", ParseError,
     "r.csv, row 2: raw_probability must be a fraction in [0, 1], got 1.5"),
    ("r1,A,,,,nan,,,\n", ParseError, "r.csv, row 2: raw_cost must be a finite number, got nan"),
    ("r1,A,,,,inf,-inf,,\n", ParseError,
     "r.csv, row 2: raw_cost must be a finite number, got inf"),
    ("r1,A,,,,,-inf,,\n", ParseError,
     "r.csv, row 2: raw_schedule must be a finite number, got -inf"),
    # rows parse before the snapshot column is checked
    ("r1,A,,,,,,,0\nr2,B,,,,,,,1\nr3,C,,,9,,,,\n", ParseError,
     "r.csv, row 4: probability band 9 outside 1..5"),
    ("r1,A,,,,,,,-1\n", ParseError, "r.csv: snapshot column must be >= 0, got -1"),
])
def test_load_corpus_error_precedence(tmp_path, rows, error, message):
    manifest = _one_register_manifest(tmp_path, rows)
    with pytest.raises(error) as excinfo:
        load_corpus(manifest)
    assert type(excinfo.value) is error
    assert str(excinfo.value).endswith(message)
    assert _outcome(reference_load, manifest)[1] == (error.__name__, str(excinfo.value))
