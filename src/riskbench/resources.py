"""Bundled data files and checked reads of input files.

RISKBENCH_DATA overrides the packaged data directory.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

from .errors import ParseError

_ENV_VAR = "RISKBENCH_DATA"


def data_root() -> Path:
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path(str(resources.files("riskbench").joinpath("data")))


def data_path(*parts: str) -> Path:
    path = data_root().joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"bundled data file not found: {path}")
    return path


def read_text_checked(path: str | Path, what: str) -> str:
    """The text of a UTF-8 input file; ParseError naming the file otherwise."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} is not valid UTF-8 ({exc})") from exc


def csv_text(data: bytes, source: str) -> str:
    """A CSV file's text, without the UTF-8 byte-order mark that spreadsheets
    write first; ParseError naming `source` when it is not valid UTF-8, with
    the position counted in the file's bytes."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not valid UTF-8 ({exc})") from exc


def read_json_checked(path: str | Path, what: str):
    """The JSON value of a UTF-8 input file; ParseError naming the file, and
    for invalid JSON the decoder's line and column, otherwise."""
    text = read_text_checked(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ParseError(f"{path}: {what} is not valid JSON ({exc})") from exc
