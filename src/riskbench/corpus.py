"""Canonical data model for projects, registers, and risk assessments.

Registers arrive as CSV or JSON files listed in a manifest; parsing
preserves file order and normalization fills Likert bands and the
qualitative High/Medium/Low levels from raw measurements.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusError, NormalizeError, ParseError
from .resources import (check_shape, input_text, is_finite, is_int, is_number, json_value,
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


def _check_ordinal(ordinal: int) -> None:
    if ordinal < 0:
        raise CorpusError(f"snapshot ordinal must be >= 0, got {ordinal}")


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


def band_mean(assessments: Iterable[Assessment], name: str) -> float | None:
    """The mean of the assessments' set `name` bands, summed in their
    order; None when none is set."""
    bands = [band for a in assessments if (band := getattr(a, name)) is not None]
    return sum(bands) / len(bands) if bands else None


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
        if use_description and self.description:
            return f"{self.name} {self.description}"
        return self.name


@dataclass(frozen=True, slots=True)
class RegisterSnapshot:
    ordinal: int
    items: tuple[RiskItem, ...]

    def __post_init__(self) -> None:
        _check_ordinal(self.ordinal)
        seen: set[str] = set()
        for item in self.items:
            if item.risk_id in seen:
                raise CorpusError(
                    f"duplicate risk_id {item.risk_id!r} in snapshot {self.ordinal}"
                )
            seen.add(item.risk_id)


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
    return _assessment(cfg, project_value, **asdict(raw))


def fill_qualitative(assessment: Assessment, cfg: ScaleConfig) -> Assessment:
    """Derive unset High/Medium/Low levels from available band pairs."""
    return _assessment(cfg, None, **asdict(assessment), bands_from_raw=False)


def _assessment(
    cfg: ScaleConfig,
    project_value: float | None,
    probability_band: int | None,
    cost_band: int | None,
    schedule_band: int | None,
    raw_probability: float | None,
    raw_cost: float | None,
    raw_schedule: float | None,
    qualitative_cost: Qualitative = Qualitative.UNSET,
    qualitative_schedule: Qualitative = Qualitative.UNSET,
    bands_from_raw: bool = True,
) -> Assessment:
    """The normalization rule: a raw value sets its band (when bands_from_raw),
    then each unset level comes from the risk matrix at (probability, impact)."""
    if bands_from_raw:
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
        if qualitative_cost is Qualitative.UNSET and cost_band is not None:
            qualitative_cost = cfg.risk_matrix[(probability_band, cost_band)]
        if qualitative_schedule is Qualitative.UNSET and schedule_band is not None:
            qualitative_schedule = cfg.risk_matrix[(probability_band, schedule_band)]
    return Assessment(
        probability_band, cost_band, schedule_band, qualitative_cost, qualitative_schedule,
        raw_probability, raw_cost, raw_schedule,
    )


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

    Returns (risk_id, name, description, category, status, measures), with
    measures the three bands, then the three raw values.
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
        _value_or_none(status), (p, c, s, raw_p, raw_c, raw_s),
    )


def _csv_rows(data: bytes, source: str) -> tuple[list[tuple], int]:
    reader = csv.reader(io.StringIO(input_text(data, source)))
    header = next(reader, [])
    for required in ("risk_id", "name"):
        if required not in header:
            raise ParseError(f"{source}: header is missing required column {required!r}")
    # As in csv.DictReader: the last column of a repeated name wins, and a
    # column the header lacks or a short row does not reach reads as None
    # (index `width` of the row padded below).
    width = len(header)
    column = {name: index for index, name in enumerate(header)}
    positions = [column.get(name, width) for name in REGISTER_CSV_COLUMNS]

    rows: list[tuple] = []
    seen: set[str] = set()
    snapshot_values: set[str] = set()
    for cells in reader:
        if not cells:
            continue  # a blank line
        if len(cells) != width:
            cells = (cells + [None] * width)[:width]
        cells.append(None)
        fields = [cells[index] for index in positions]
        rows.append(_row(fields, _parse_measure, f"{source}, row {reader.line_num}", seen))
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
    items = []
    for risk_id, name, description, category, status, (p, c, s, raw_p, raw_c, raw_s) in rows:
        assessment = Assessment(p, c, s, raw_probability=raw_p, raw_cost=raw_c, raw_schedule=raw_s)
        items.append(RiskItem(risk_id, name, description, category, assessment, status))
    return RegisterSnapshot(ordinal=ordinal, items=tuple(items))


def _register_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def load_register(path: str | Path) -> RegisterSnapshot:
    """Parse one register file as written: JSON by a .json suffix, else CSV."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"register file not found: {path}")
    return parse_register(path.read_bytes(), _register_format(path), source=str(path))


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
    each RiskItem is built once, already normalized. Equal texts (risk ids,
    names, descriptions, categories, statuses) are one str object across the
    corpus. The corpus keeps the SHA-256 of every file it parsed.
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

    base = manifest_path.parent
    share = {}.setdefault  # one object per distinct text in this load
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
            path = base / register["path"]
            try:
                data = path.read_bytes()
            except FileNotFoundError as exc:
                raise CorpusError(
                    f"project {project_id!r}: register file not found: {path}"
                ) from exc
            digests[register["path"]] = sha256(data).hexdigest()
            source = str(path)
            rows, ordinal = _register_rows(data, _register_format(path), source)
            items = []
            for risk_id, name, description, category, status, measures in rows:
                try:
                    assessment = _assessment(cfg, value, *measures)
                except NormalizeError as exc:
                    raise CorpusError(f"{source}:{risk_id}: {exc}") from exc
                items.append(RiskItem(
                    share(risk_id, risk_id), share(name, name), share(description, description),
                    share(category, category), assessment, share(status, status),
                ))
            snapshots.append(RegisterSnapshot(register.get("ordinal", ordinal), tuple(items)))
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
