"""Exception hierarchy shared across the package, and the one codec for every
text file the package writes or reads, whose numbers ``parse_number`` reads.

Every artifact is UTF-8 text written without newline translation. Tables are
CSV with ``\\n`` line ends; a row holding a ``\\r`` has every field quoted, so
that the row reads back intact. Readers open files with ``newline=""``, as the
csv module expects, so a quoted ``\\r`` stays a ``\\r`` and ``\\r\\n`` line ends
still parse. Undecodable or malformed input raises the caller's error class.
Readers decode a block at a time and writers write a piece at a time, so no
copy of a whole file is held: a large transient buffer, once freed, raises
the C allocator's threshold for mapping blocks of its own, and how much free
memory the heap then keeps resident varies from run to run.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence


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
    """The UTF-8 text of ``path``, line ends untranslated; a file that cannot
    be read, or bytes that do not decode, raise ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


_BLOCK = 1 << 15  # characters a reader decodes at a time


def _csv_lines(path: str | Path, error: type[SkillGraphError]) -> list[str]:
    """The lines of ``path`` opened as ``read_text`` opens it, each with its
    line end, as the csv module reads them; no whole-file string is held. A
    read or decode error raises what ``read_text`` would."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return list(f)
    except (OSError, UnicodeDecodeError):
        read_text(path, error)  # the whole file's error, at its byte offset
        raise


def iter_lines(path: str | Path, error: type[SkillGraphError]) -> Iterator[str]:
    """The lines of ``read_text(path, error).splitlines()``, decoded a block
    at a time and given one by one. A read or decode error raises what
    ``read_text`` would, when the lines before it have been given."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rest = ""
            while block := f.read(_BLOCK):
                text = rest + block
                lines = text.splitlines()
                # a last line that may go on in the next block, or end in a \r
                # that pairs with a \n there, is split again with that block
                last = text[-1]
                if last == "\r":
                    rest = lines.pop() + last
                elif last.splitlines() == [""]:  # a line end
                    rest = ""
                else:
                    rest = lines.pop()
                yield from lines
            yield from rest.splitlines()
    except (OSError, UnicodeDecodeError):
        read_text(path, error)  # the whole file's error, at its byte offset
        raise


def csv_rows(path: str | Path, header: Sequence[str],
             error: type[SkillGraphError]) -> Iterator[list[str]]:
    """The data rows of the UTF-8 CSV file at ``path``, whose first row must
    be ``header`` and every other row as wide. A bad header or row width, or
    text that does not decode or parse (say, a field over the csv module's
    size limit) raises ``error``; data rows are numbered from 1."""
    reader = csv.reader(_csv_lines(path, error))
    try:
        first = next(reader, None)
        if first is None:
            raise error(f"{path}: missing header row")
        if first != list(header):
            raise error(f"{path}: bad header {first!r}, expected {list(header)!r}")
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise error(f"{path}: row {i}: expected {len(header)} fields, got {len(row)}")
            yield row
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None


# how a message names a value that is not of the kind read (``is not an int``)
KIND_WORDS = {int: "an int", float: "a float", bool: "a boolean"}


def parse_number(text: str, kind: type[int] | type[float]) -> int | float | None:
    """``text`` as a ``kind``, or None unless it is ASCII digits after an optional
    ``-`` (an int) or ASCII float notation with no ``_`` and no surrounding
    whitespace (a float). Callers check range and finiteness."""
    plain = text.removeprefix("-").isdigit() if kind is int else (
        "_" not in text and text == text.strip())
    try:
        return kind(text) if plain and text.isascii() else None
    except ValueError:  # not float notation, or past int()'s digit limit
        return None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends untranslated."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """``write_text(path, "".join(lines))``, written a piece at a time: no
    copy of the whole file is held, in text or in bytes."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(lines)


class _Echo:
    """A file whose ``write`` returns the line, so that ``writerow`` of a
    csv writer on it returns the formatted row."""

    def write(self, line: str) -> str:
        return line


def csv_lines(header: Sequence[object], rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """``header`` and ``rows`` as CSV lines, each ending in ``\\n``.

    Fields are quoted only where needed, except that a row holding a ``\\r``
    is written with every field quoted: the csv module leaves a ``\\r`` bare
    when it is not part of the line terminator, and a bare one splits the
    row when read back.
    """
    minimal = csv.writer(_Echo(), lineterminator="\n")
    quote_all = csv.writer(_Echo(), lineterminator="\n", quoting=csv.QUOTE_ALL)
    yield minimal.writerow(header)
    for row in rows:
        line = minimal.writerow(row)
        yield quote_all.writerow(row) if "\r" in line else line


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """``csv_lines`` as one text."""
    return "".join(csv_lines(header, rows))
