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


def input_text(data: bytes, source: str, what: str = "") -> str:
    """An input file's text, without the UTF-8 byte-order mark that
    spreadsheets and some editors write first; every input is decoded here.
    When it is not valid UTF-8, ParseError names `source`, then `what` the
    file holds if given, and the position counted in the file's bytes."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        subject = f"{what} is " if what else ""
        raise ParseError(f"{source}: {subject}not valid UTF-8 ({exc})") from exc


def read_text_checked(path: str | Path, what: str) -> str:
    """The text of a UTF-8 input file, with universal newlines as a
    text-mode read gives, so that JSON error positions count lines the same."""
    text = input_text(Path(path).read_bytes(), str(path), what)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json_checked(path: str | Path, what: str):
    """The JSON value of a UTF-8 input file; ParseError naming the file, and
    for invalid JSON the decoder's line and column, otherwise."""
    text = read_text_checked(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ParseError(f"{path}: {what} is not valid JSON ({exc})") from exc
