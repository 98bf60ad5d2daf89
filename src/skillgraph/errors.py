"""Exception hierarchy shared across the package, and the one codec for every
text file the package writes or reads, whose numbers ``parse_number`` reads.

Every artifact is UTF-8 text written without newline translation. Tables are
CSV with ``\\n`` line ends; a row holding a ``\\r`` has every field quoted, so
that the row reads back intact. Readers open files with ``newline=""``, as the
csv module expects, so a quoted ``\\r`` stays a ``\\r`` and ``\\r\\n`` line ends
still parse. Undecodable or malformed input raises the caller's error class.
Readers read a line at a time and writers write a piece at a time, so no
copy of a whole file is held (``read_text`` gives one whole, for a JSON
document): a large transient buffer, once freed, raises the C allocator's
threshold for mapping blocks of its own, and how much free memory the heap
then keeps resident varies from run to run. A reader checks each row or
line as it is read, inside ``read_through``: a check that fails first reads
the rest of the file, so that an undecodable byte or a malformed row
anywhere in it is still raised first, as when the whole file was read before
any check.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar


T = TypeVar("T")


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


def _csv_lines(path: str | Path, error: type[SkillGraphError]) -> Iterator[str]:
    """The lines of ``path`` opened as ``read_text`` opens it, each with its
    line end (``\\n``, ``\\r`` or ``\\r\\n``), given one by one as the csv
    module reads them. A read or decode error raises what ``read_text``
    would, when the lines before it have been given."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            yield from f
    except (OSError, UnicodeDecodeError):
        read_text(path, error)  # the whole file's error, at its byte offset
        raise


def iter_lines(path: str | Path, error: type[SkillGraphError]) -> Iterator[str]:
    """The lines of ``read_text(path, error).splitlines()``, given one by one,
    and its error when the lines before it have been given. Each line of
    ``_csv_lines`` ends at a line end, and the text layer never splits a
    ``\\r\\n``, so splitting each one apart finds the line ends that
    ``str.splitlines`` finds in the whole text."""
    for line in _csv_lines(path, error):
        yield from line.splitlines()


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


@contextmanager
def read_through(items: Iterator[T]) -> Iterator[Iterator[T]]:
    """``items``, for a reader to check one at a time as they are read. A
    check that fails first reads the rest of ``items``, so that a read,
    decode or parse error further on is raised in its place, as when every
    item was read before any was checked."""
    try:
        yield items
    except SkillGraphError:
        for _item in items:
            pass
        raise


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
