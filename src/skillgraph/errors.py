"""Exception hierarchy shared across the package, and the text readers that
turn undecodable or malformed input files into those errors."""
from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator


class SkillGraphError(Exception):
    """Base class for all user-facing errors."""


class IngestError(SkillGraphError):
    """Malformed or inconsistent corpus input."""


class GraphError(SkillGraphError):
    """Graph construction or invariant violation."""


class CommunityError(SkillGraphError):
    """Flow computation or community detection failure."""


class QueryError(SkillGraphError):
    """Invalid or unresolvable ranking query."""


class EvalError(SkillGraphError):
    """Judgment/metric input problem."""


class ConfigError(SkillGraphError):
    """Bad pipeline configuration."""


def read_text(path: str | Path, error: type[SkillGraphError]) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read, or bytes that
    do not decode, raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def csv_rows(path: str | Path, error: type[SkillGraphError]) -> Iterator[list[str]]:
    """The rows of the UTF-8 CSV file at ``path``; text that does not decode
    or parse (say, a field over the csv module's size limit) raises ``error``."""
    reader = csv.reader(io.StringIO(read_text(path, error)))
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None
