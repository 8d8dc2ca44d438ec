"""Canonical data model for projects, registers, and risk assessments.

Registers arrive as CSV or JSON files listed in a manifest; parsing
preserves file order and normalization fills Likert bands and the
qualitative High/Medium/Low levels from raw measurements.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from . import cache, resources
from .errors import CorpusError, NormalizeError, ParseError
from .resources import (check_shape, csv_rows, is_finite, is_int, is_number, json_value,
                        read_json_checked)

REGISTER_CSV_COLUMNS = (
    "risk_id",
    "name",
    "description",
    "category",
    "probability",
    "cost_impact",
    "schedule_impact",
    "status",
    "snapshot",
)


class Qualitative(str, Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"
    UNSET = "Unset"


class SizeBand(str, Enum):
    UNDER_500M = "under_500M"
    M500_TO_1B = "500M_to_1B"
    OVER_1B = "over_1B"

    @classmethod
    def for_value(cls, contract_value_musd: float) -> "SizeBand":
        if contract_value_musd < 500:
            return cls.UNDER_500M
        if contract_value_musd <= 1000:
            return cls.M500_TO_1B
        return cls.OVER_1B


def _check_raw_values(probability: float | None, cost: float | None,
                      schedule: float | None) -> None:
    """A raw probability is a fraction in [0, 1]; raw cost and schedule are finite."""
    if probability is not None and not 0.0 <= probability <= 1.0:
        raise CorpusError(f"raw_probability must be a fraction in [0, 1], got {probability!r}")
    if cost is not None and not math.isfinite(cost):
        raise CorpusError(f"raw_cost must be a finite number, got {cost!r}")
    if schedule is not None and not math.isfinite(schedule):
        raise CorpusError(f"raw_schedule must be a finite number, got {schedule!r}")


# the Likert bands a probability or an impact takes
BANDS = (1, 2, 3, 4, 5)
_BAND_FIELDS = ("probability_band", "cost_band", "schedule_band")
# every valid (probability, cost, schedule) band triple, unset bands included
_BAND_TRIPLES = frozenset(product((None, *BANDS), repeat=3))


@dataclass(frozen=True, slots=True)
class Assessment:
    """One risk's evaluation: 1-5 Likert bands plus optional raw values."""

    probability_band: int | None = None
    cost_band: int | None = None
    schedule_band: int | None = None
    qualitative_cost: Qualitative = Qualitative.UNSET
    qualitative_schedule: Qualitative = Qualitative.UNSET
    raw_probability: float | None = None
    raw_cost: float | None = None
    raw_schedule: float | None = None

    def __post_init__(self) -> None:
        bands = (self.probability_band, self.cost_band, self.schedule_band)
        try:
            valid = bands in _BAND_TRIPLES
        except TypeError:  # an unhashable band
            valid = False
        if not valid:  # name the first band that is not unset or 1..5
            for label, band in zip(_BAND_FIELDS, bands):
                if band is not None and band not in BANDS:
                    raise CorpusError(f"{label} must be in 1..5, got {band!r}")
        _check_raw_values(self.raw_probability, self.raw_cost, self.raw_schedule)


def band_mean(bands: Iterable[int | None]) -> float | None:
    """The mean of the set bands, summed in their order; None when none is set."""
    present = [band for band in bands if band is not None]
    return sum(present) / len(present) if present else None


def _matching_texts(names, descriptions, use_description: bool) -> list[str]:
    """Each name, or "name description" when `use_description` and the description are set."""
    return [f"{n} {d}" if use_description and d else n for n, d in zip(names, descriptions)]


@dataclass(frozen=True, slots=True)
class RiskItem:
    risk_id: str
    name: str
    description: str | None = None
    category_label: str | None = None
    assessment: Assessment = field(default_factory=Assessment)
    status_note: str | None = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise CorpusError(f"risk {self.risk_id!r} has an empty name")

    def matching_text(self, use_description: bool = False) -> str:
        return _matching_texts((self.name,), (self.description,), use_description)[0]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RegisterSnapshot:
    """One register as one tuple per field of its RiskItems and their
    Assessments, in `_row`'s order, None where unset. Equal snapshots have
    equal ordinals and items; `items` builds the records on first access."""

    ordinal: int
    risk_ids: tuple[str, ...]
    names: tuple[str, ...]
    descriptions: tuple[str | None, ...]
    category_labels: tuple[str | None, ...]
    status_notes: tuple[str | None, ...]
    probability_bands: tuple[int | None, ...]
    cost_bands: tuple[int | None, ...]
    schedule_bands: tuple[int | None, ...]
    qualitative_costs: tuple[str, ...]
    qualitative_schedules: tuple[str, ...]
    raw_probabilities: tuple[float | None, ...]
    raw_costs: tuple[float | None, ...]
    raw_schedules: tuple[float | None, ...]
    _items: tuple[RiskItem, ...] | None = field(compare=False)

    def __init__(self, ordinal: int, items: Iterable[RiskItem] = ()) -> None:
        items = tuple(items)  # a row is a record's texts, its status, then its assessment's fields
        rows = [(*r[:4], r[5], *r[4]) for r in map(astuple, items)]
        _fill(self, ordinal, tuple(zip(*rows)), items)

    @property
    def items(self) -> tuple[RiskItem, ...]:
        if self._items is None:  # threads that race here build equal tuples
            object.__setattr__(self, "_items", tuple(map(_record, *_columns_of(self))))
        return self._items

    def matching_texts(self, use_description: bool = False) -> list[str]:
        """Each row's `RiskItem.matching_text`, read from the columns."""
        return _matching_texts(self.names, self.descriptions, use_description)

    def __repr__(self) -> str:
        return f"RegisterSnapshot(ordinal={self.ordinal!r}, items={self.items!r})"


_COLUMNS = tuple(f.name for f in fields(RegisterSnapshot)[1:-1])
_columns_of = attrgetter(*_COLUMNS)


def _record(r, n, d, c, st, p, cb, sb, qc, qs, rp, rc, rs) -> RiskItem:
    return RiskItem(r, n, d, c, Assessment(p, cb, sb, _LEVEL[qc], _LEVEL[qs], rp, rc, rs), st)


def _fill(snapshot: RegisterSnapshot, ordinal: int, columns: tuple[tuple, ...], items) -> None:
    """Check a snapshot's columns once each, and set them. A failed check
    raises what the record constructors raise for the first row they reject,
    then what a bad ordinal or the first duplicate risk_id raises."""
    columns = columns or ((),) * len(_COLUMNS)  # no rows transpose to no columns
    ids, names, _, _, _, pb, cb, sb, qc, qs, p, c, s = columns
    if len(set(map(len, columns))) != 1:
        raise CorpusError(f"snapshot {ordinal} has columns of unequal lengths")
    # filter(None, ...) skips unset raw values, and zeros, which pass every check;
    # a sum of finite values that overflows only sends the rows to the constructors
    if not (math.isfinite(sum(filter(None, p + c + s)))
            and 0.0 <= min(filter(None, p), default=0.0)
            and max(filter(None, p), default=0.0) <= 1.0
            and set(pb + cb + sb) <= {None, *BANDS} and set(qc + qs) <= _LEVEL.keys()
            and all(map(str.strip, names))):
        for row in zip(*columns):
            _record(*row)
    if ordinal < 0:
        raise CorpusError(f"snapshot ordinal must be >= 0, got {ordinal}")
    if len(set(ids)) < len(ids):
        duplicate = next(risk_id for n, risk_id in enumerate(ids) if risk_id in ids[:n])
        raise CorpusError(f"duplicate risk_id {duplicate!r} in snapshot {ordinal}")
    for name, value in zip(("ordinal", *_COLUMNS, "_items"), (ordinal, *columns, items)):
        object.__setattr__(snapshot, name, value)


@dataclass(frozen=True, slots=True)
class ProjectRecord:
    project_id: str
    jurisdiction: str
    delivery_method: str
    project_type: str
    size_band: SizeBand
    contract_value_musd: float | None
    award_year: int | None
    snapshots: tuple[RegisterSnapshot, ...]

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise CorpusError(f"project {self.project_id!r} has no snapshots")
        ordinals = [s.ordinal for s in self.snapshots]
        if any(b <= a for a, b in zip(ordinals, ordinals[1:])):
            raise CorpusError(
                f"project {self.project_id!r} snapshot ordinals must strictly increase: {ordinals}"
            )
        if self.contract_value_musd is not None:
            expected = SizeBand.for_value(self.contract_value_musd)
            if expected is not self.size_band:
                raise CorpusError(
                    f"project {self.project_id!r} size_band {self.size_band.value} "
                    f"inconsistent with contract value {self.contract_value_musd} M$ "
                    f"(expected {expected.value})"
                )

    @property
    def register(self) -> RegisterSnapshot:
        """The earliest (ex-ante) snapshot, used by the text analytics."""
        return self.snapshots[0]


@dataclass(frozen=True, slots=True)
class Corpus:
    projects: tuple[ProjectRecord, ...]
    # SHA-256 of the bytes parsed: "manifest", then each register by its
    # manifest path, in manifest order. Not part of equality.
    digests: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for project in self.projects:
            if project.project_id in seen:
                raise CorpusError(f"duplicate project_id {project.project_id!r}")
            seen.add(project.project_id)


_BAND_EDGES = ("probability_band_edges", "cost_band_edges", "schedule_band_edges")
_LEVELS = (Qualitative.HIGH, Qualitative.MEDIUM, Qualitative.LOW)
# each level by its value, the form rows and cache entries hold
_LEVEL = {level.value: level for level in Qualitative}
_UNSET = Qualitative.UNSET.value


@dataclass(frozen=True)
class ScaleConfig:
    """Band edges and risk matrix used to normalize raw assessments.

    Edges are upper-inclusive: a value in (edge[i-1], edge[i]] maps to band
    i+1 (0-indexed intervals), with the first interval closed at its lower
    end. Cost edges are fractions of contract value; schedule edges are
    months.
    """

    probability_band_edges: tuple[float, float, float, float]
    cost_band_edges: tuple[float, float, float, float]
    schedule_band_edges: tuple[float, float, float, float]
    risk_matrix: dict[tuple[int, int], Qualitative]

    def __post_init__(self) -> None:
        for label in _BAND_EDGES:
            edges = getattr(self, label)
            if (len(edges) != 4 or not all(map(is_finite, edges))
                    or any(b <= a for a, b in zip(edges, edges[1:]))):
                raise CorpusError(f"{label} must be 4 strictly ascending finite numbers: {edges}")
        for p, i in product(BANDS, repeat=2):
            if self.risk_matrix.get((p, i)) not in _LEVELS:
                raise CorpusError(f"risk_matrix has no High, Medium or Low for bands ({p}, {i})")


def default_scale_config() -> ScaleConfig:
    matrix = {}
    for p, i in product(BANDS, repeat=2):
        if p * i >= 15:
            level = Qualitative.HIGH
        elif p * i >= 6:
            level = Qualitative.MEDIUM
        else:
            level = Qualitative.LOW
        matrix[(p, i)] = level
    return ScaleConfig(
        probability_band_edges=(0.10, 0.30, 0.50, 0.70),
        cost_band_edges=(0.001, 0.005, 0.01, 0.05),
        schedule_band_edges=(1.0, 3.0, 6.0, 12.0),
        risk_matrix=matrix,
    )


# every "p,i" key of a scales file's risk_matrix, with its band pair
_MATRIX_KEYS = {f"{p},{i}": (p, i) for p, i in product(BANDS, repeat=2)}
_SCALES = {**{label: [float] for label in _BAND_EDGES}, "risk_matrix": {str: str}}


def load_scale_config(path: str | Path) -> ScaleConfig:
    raw = read_json_checked(path, "scale config", _SCALES)
    matrix = {}
    for key, value in raw["risk_matrix"].items():
        if key not in _MATRIX_KEYS:
            raise ParseError(f"{path}: risk_matrix key {key!r} is not \"p,i\" with p and i in 1..5")
        matrix[_MATRIX_KEYS[key]] = Qualitative(value) if value in _LEVELS else None
    try:
        return ScaleConfig(*(tuple(raw[label]) for label in _BAND_EDGES), risk_matrix=matrix)
    except CorpusError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def band_for(value: float, edges: Sequence[float]) -> int:
    """Map a raw value onto 1..5 using the 4 strictly ascending,
    upper-inclusive band edges of a ScaleConfig; NaN, below no edge, is 5."""
    if value != value:
        return 5
    return bisect_left(edges, value) + 1


def normalize_assessment(
    raw: Assessment,
    project_value: float | None,
    cfg: ScaleConfig,
) -> Assessment:
    """Fill Likert bands from raw values and qualitative levels from bands."""
    if (
        raw.raw_probability is None
        and raw.raw_cost is None
        and raw.raw_schedule is None
    ):
        raise NormalizeError("no raw probability, cost, or schedule value to normalize")
    p, c, s, cost, schedule, *raw_values = _assessment(cfg, project_value, *astuple(raw))
    return Assessment(p, c, s, Qualitative(cost), Qualitative(schedule), *raw_values)


def _assessment(
    cfg: ScaleConfig,
    project_value: float | None,
    probability_band: int | None,
    cost_band: int | None,
    schedule_band: int | None,
    qualitative_cost: str,
    qualitative_schedule: str,
    raw_probability: float | None,
    raw_cost: float | None,
    raw_schedule: float | None,
) -> tuple:
    """The normalization rule: a raw value sets its band, then each unset
    level comes from the risk matrix at (probability, impact). Takes and
    returns an Assessment's fields in order, each level as its value."""
    if raw_probability is not None:
        probability_band = band_for(raw_probability, cfg.probability_band_edges)
    if raw_cost is not None:
        if project_value is None or project_value <= 0:
            raise NormalizeError(
                "a positive project value is required to normalize a raw cost impact"
            )
        cost_band = band_for(raw_cost / project_value, cfg.cost_band_edges)
    if raw_schedule is not None:
        schedule_band = band_for(raw_schedule, cfg.schedule_band_edges)
    if probability_band is not None:
        if qualitative_cost == _UNSET and cost_band is not None:
            qualitative_cost = cfg.risk_matrix[(probability_band, cost_band)].value
        if qualitative_schedule == _UNSET and schedule_band is not None:
            qualitative_schedule = cfg.risk_matrix[(probability_band, schedule_band)].value
    return (probability_band, cost_band, schedule_band, qualitative_cost, qualitative_schedule,
            raw_probability, raw_cost, raw_schedule)


def _value_or_none(text: str | None) -> str | None:
    return None if text is None else (text.strip() or None)


def _band(value: int, column: str, where: str) -> int:
    """An integer measure cell's Likert band."""
    if value not in BANDS:
        raise ParseError(f"{where}: {column} band {value} outside 1..5")
    return value


def _parse_measure(raw: str | None, column: str, where: str) -> tuple[int | None, float | None]:
    """Split a CSV measure cell into (band, raw_value).

    Integer literals 1..5 are Likert bands; any other numeric value is a raw
    measurement (write raw values with a decimal point to disambiguate).
    """
    text = _value_or_none(raw)
    if text is None:
        return None, None
    if "." not in text:  # int() rejects every text with a point
        try:
            band = int(text)
        except ValueError:
            pass
        else:
            return _band(band, column, where), None
    try:
        return None, float(text)
    except ValueError as exc:
        raise ParseError(f"{where}: {column} value {text!r} is not numeric") from exc


def _row(fields: list, measure, where: str, seen: set[str]) -> tuple:
    """Check one row, its fields in REGISTER_CSV_COLUMNS order: the measures,
    then risk_id, then name, then the raw values, then that risk_id is new.

    Returns the row as written: its risk_id, name, description, category and
    status, then its Assessment's fields in order, each level as its value.
    """
    risk_id, name, description, category, probability, cost, schedule, status, _ = fields
    (p, raw_p), (c, raw_c), (s, raw_s) = (
        measure(probability, "probability", where),
        measure(cost, "cost_impact", where),
        measure(schedule, "schedule_impact", where),
    )
    if not risk_id or not risk_id.strip():
        raise ParseError(f"{where}: missing risk_id")
    if not name or not name.strip():
        raise ParseError(f"{where}: risk {risk_id!r} has an empty name")
    try:
        _check_raw_values(raw_p, raw_c, raw_s)
    except CorpusError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    risk_id = risk_id.strip()
    if risk_id in seen:
        raise ParseError(f"{where}: duplicate risk_id {risk_id!r}")
    seen.add(risk_id)
    return (
        risk_id, name.strip(), _value_or_none(description), _value_or_none(category),
        _value_or_none(status), p, c, s, _UNSET, _UNSET, raw_p, raw_c, raw_s,
    )


def _csv_rows(data: bytes, source: str) -> tuple[list[tuple], int]:
    rows: list[tuple] = []
    seen: set[str] = set()
    snapshot_values: set[str] = set()
    for where, fields in csv_rows(data, source, REGISTER_CSV_COLUMNS, ("risk_id", "name")):
        rows.append(_row(fields, _parse_measure, where, seen))
        marker = _value_or_none(fields[-1])
        if marker is not None:
            snapshot_values.add(marker)

    ordinal = 0
    if snapshot_values:
        if len(snapshot_values) > 1:
            raise ParseError(
                f"{source}: snapshot column holds mixed values {sorted(snapshot_values)}"
            )
        try:
            ordinal = int(next(iter(snapshot_values)))
        except ValueError as exc:
            raise ParseError(f"{source}: snapshot column is not an integer") from exc
        if ordinal < 0:
            raise ParseError(f"{source}: snapshot column must be >= 0, got {ordinal}")
    return rows, ordinal


# a JSON register, or its bare items array; `_row` reads the measures
_REGISTER_ITEM = {"risk_id?": str, "name?": str,
                  **{f"{key}?": (str, None) for key in ("description", "category", "status")}}
_REGISTER = {"items": [_REGISTER_ITEM], "ordinal?": int}


def _json_rows(data: bytes, source: str) -> tuple[list[tuple], int]:
    payload = json_value(data, source)
    bare = isinstance(payload, list)
    check_shape(payload, [_REGISTER_ITEM] if bare else _REGISTER, source)
    if bare:
        payload = {"items": payload}

    def measure(value, key: str, where: str) -> tuple[int | None, float | None]:
        if value is None:
            return None, None
        if is_int(value):
            return _band(value, key, where), None
        if is_number(value):
            return None, value
        raise ParseError(f"{where}: {key} must be numeric, got {value!r}")

    rows: list[tuple] = []
    seen: set[str] = set()
    for index, record in enumerate(payload["items"]):
        where = f"{source}, item {index}"
        rows.append(_row([record.get(name) for name in REGISTER_CSV_COLUMNS], measure, where, seen))
    ordinal = payload.get("ordinal", 0)
    if ordinal < 0:
        raise ParseError(f"{source}: ordinal must be a non-negative integer")
    return rows, ordinal


def _register_rows(data: bytes, fmt: str, source: str) -> tuple[list[tuple], int]:
    """Parse a whole register into checked rows and its ordinal."""
    if fmt == "csv":
        return _csv_rows(data, source)
    if fmt == "json":
        return _json_rows(data, source)
    raise ParseError(f"unknown register format {fmt!r} (expected csv or json)")


def parse_register(data: bytes, fmt: str, source: str = "<register>") -> RegisterSnapshot:
    """Parse CSV or JSON register bytes into a snapshot, preserving order.

    Assessments hold the values as written: nothing is normalized.
    """
    rows, ordinal = _register_rows(data, fmt, source)
    return _snapshot(ordinal, _shared(rows, {}.setdefault))


def _shared(rows: list[tuple], share) -> tuple[tuple, ...]:
    """The columns of rows as `_row` returns them (none for no rows), with
    each text the object that `share(text, text)` returns."""
    columns = tuple(zip(*rows))
    return tuple(tuple(map(share, column, column)) for column in columns[:5]) + columns[5:]


def _snapshot(ordinal: int, columns: tuple[tuple, ...]) -> RegisterSnapshot:
    """The snapshot of `_shared`'s columns, normalized or not. It builds no record."""
    snapshot = object.__new__(RegisterSnapshot)
    _fill(snapshot, ordinal, columns, None)
    return snapshot


def _register_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def load_register(path: str | Path) -> RegisterSnapshot:
    """Parse one register file as written: JSON by a .json suffix, else CSV."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise CorpusError(f"register file not found: {path}") from exc
    return parse_register(data, _register_format(path), source=str(path))


_MANIFEST = {"projects": [{
    "id": str,
    **{f"{key}?": str for key in ("jurisdiction", "delivery_method", "project_type", "size_band")},
    "contract_value_musd?": (float, None),
    "award_year?": (int, None),
    "registers?": [{"path": str, "ordinal?": int}],
}]}


def load_corpus(manifest_path: str | Path, scales: ScaleConfig | None = None) -> Corpus:
    """Load every project and register listed in a manifest, in file order.

    Each register is parsed whole before any of its rows is normalized, and
    its snapshot holds the normalized rows as columns; no RiskItem is built
    until a snapshot's `items` is read. Equal texts (risk ids, names,
    descriptions, categories, statuses) are one str object across the corpus.
    The corpus keeps the SHA-256 of every file it parsed. A load that returns
    is stored in the parse cache under the digests of its files and the scale
    config. A later load of the same bytes runs the same loop over the
    manifest, with each register's columns read from the entry instead of
    parsed, and checked again.
    """
    from hashlib import sha256

    cfg = scales or default_scale_config()
    manifest_path = Path(manifest_path)
    try:
        data = manifest_path.read_bytes()
    except FileNotFoundError as exc:
        raise CorpusError(f"manifest not found: {manifest_path}") from exc
    digests = {"manifest": sha256(data).hexdigest()}
    manifest = json_value(data, str(manifest_path))
    check_shape(manifest, _MANIFEST, str(manifest_path))
    build = partial(_corpus, manifest_path, manifest, digests)

    # each register's bytes, or the error reading it raised, read once here
    # and parsed in this order; a load with an unreadable register raises
    base = manifest_path.parent
    files: deque[bytes | OSError] = deque()
    ordered = [digests["manifest"]]
    for project in manifest["projects"]:
        for register in project.get("registers", []):
            try:  # os.path, not pathlib: a Path costs about 10 µs a register
                with open(os.path.join(base, register["path"]), "rb") as handle:
                    files.append(handle.read())
            except OSError as exc:
                files.append(exc)
                continue
            digests[register["path"]] = sha256(files[-1]).hexdigest()
            ordered.append(digests[register["path"]])
    key = None
    if len(ordered) == len(files) + 1:
        matrix = [cfg.risk_matrix[pair].value for pair in product(BANDS, repeat=2)]
        edges = [getattr(cfg, label) for label in _BAND_EDGES]
        key = cache.key(sys.implementation.cache_tag,
                        cache.source_digest(__file__, resources.__file__), ordered, edges, matrix)
        key += ".marshal"
        corpus = cache.read("corpus", key, lambda handle, size: _from_entry(handle, size, build))
        if corpus is not None:
            return corpus

    share = {}.setdefault  # one object per distinct text in this load

    def parsed(project_id: str, value: float | None, register: dict) -> tuple[int, tuple]:
        path = base / register["path"]
        data = files.popleft()
        if isinstance(data, FileNotFoundError):
            raise CorpusError(f"project {project_id!r}: register file not found: {path}") from data
        if isinstance(data, OSError):
            raise data
        source = str(path)
        rows, ordinal = _register_rows(data, _register_format(path), source)
        normalized = []
        for row in rows:
            try:
                normalized.append(row[:5] + _assessment(cfg, value, *row[5:]))
            except NormalizeError as exc:
                raise CorpusError(f"{source}:{row[0]}: {exc}") from exc
        return register.get("ordinal", ordinal), _shared(normalized, share)

    corpus = build(parsed)
    if key is not None:
        cache.store("corpus", key, lambda out: _encode_corpus(out, corpus))
    return corpus


def _corpus(manifest_path: Path, manifest: dict, digests: dict[str, str], registers) -> Corpus:
    """The corpus of a checked manifest, with each register's final ordinal
    and normalized `_shared` columns from `registers(project_id, value,
    register)`, called in manifest order."""
    projects: list[ProjectRecord] = []
    for index, entry in enumerate(manifest["projects"]):
        where = f"{manifest_path}, project {index}"
        project_id = entry["id"]
        if not project_id:
            raise ParseError(f"{where}: 'id' must be a non-empty string, not {project_id!r}")
        value = entry.get("contract_value_musd")
        snapshots: list[RegisterSnapshot] = []
        for number, register in enumerate(entry.get("registers", [])):
            if register.get("ordinal", 0) < 0:
                raise ParseError(
                    f"{where}, register {number}: 'ordinal' must be a non-negative integer"
                )
            snapshots.append(_snapshot(*registers(project_id, value, register)))
        try:
            size_band = SizeBand(entry.get("size_band"))
        except ValueError as exc:
            raise CorpusError(
                f"{where}: project {project_id!r} has unknown size_band {entry.get('size_band')!r}"
            ) from exc
        try:
            projects.append(ProjectRecord(
                project_id=project_id,
                jurisdiction=entry.get("jurisdiction", ""),
                delivery_method=entry.get("delivery_method", ""),
                project_type=entry.get("project_type", ""),
                size_band=size_band,
                contract_value_musd=value,
                award_year=entry.get("award_year"),
                snapshots=tuple(sorted(snapshots, key=lambda s: s.ordinal)),
            ))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
    try:
        return Corpus(projects=tuple(projects), digests=digests)
    except CorpusError as exc:  # a duplicate project_id: name its second entry
        ids = [project.project_id for project in projects]
        index = next(i for i, project_id in enumerate(ids) if project_id in ids[:i])
        raise CorpusError(f"{manifest_path}, project {index}: {exc}") from exc


# ------------------------------------------------------- corpus cache entries
#
# A corpus entry's key is the `cache.key` of the interpreter, the
# `cache.source_digest` of this module and `resources` (the code that parses
# and lays out the entry), the digests of the manifest and of each register in
# manifest order, and the scale config's band edges and risk matrix, with
# ".marshal". It holds the marshal bytes of one list: each snapshot's ordinal
# and normalized `_COLUMNS`, in the records' order. marshal is the format of
# Python's own bytecode cache; the key names the interpreter that wrote it. It
# writes a text object once and refers back to it after that, so a hit's texts
# are shared as the parse's were. A hit runs the parse's loop over the
# manifest, which gives every project field, with each register's columns the
# next in the list, checked as a parse's are, and builds no record: the list
# comes sorted by ordinal, not in manifest order, and the loop sorts it too.
# The source digest in the key means an entry is never served to other code,
# so a change of layout needs no other step.


def _encode_corpus(out: BinaryIO, corpus: Corpus) -> None:
    """Write the list of `corpus`'s snapshots, as above."""
    out.write(marshal.dumps([(snapshot.ordinal, _columns_of(snapshot))
                             for project in corpus.projects for snapshot in project.snapshots]))


def _from_entry(handle: BinaryIO, size: int, build) -> Corpus | None:
    """`build(registers)` with each register the next snapshot of an entry's
    `size` bytes; None when a snapshot is left unread."""
    snapshots = deque(marshal.loads(handle.read(size)))

    def registers(*_) -> tuple[int, tuple]:
        if not snapshots:
            raise EOFError("the entry holds fewer snapshots than the manifest has registers")
        return snapshots.popleft()

    corpus = build(registers)
    return None if snapshots else corpus
