"""Number formatting and grammar, the one CSV reader and writer, the one JSON writer.

Scores print at 6 decimal places and rate coefficients at 9
significant digits so golden-file comparisons are portable across
platforms; a score of magnitude 1e15 or more prints as JSON spells it
(``9.010201290907242e+305``), not in hundreds of digits.  JSON output
keeps full double precision instead.

Every CSV the package reads goes through :func:`read_csv`, and every
CSV it writes through :func:`write_csv`: one header check, one row
arity check, one line numbering, and one dialect (``\\n`` line ends).
Every JSON document it writes goes through :func:`json_text`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO, Iterable, Iterator, Sequence

from .errors import InputError


def fmt_score(x: float) -> str:
    """Scores, masses, areas, ratios: 6 decimal places, or JSON's spelling from 1e15 up."""
    return f"{x:.6f}" if abs(x) < 1e15 else repr(x)


def fmt_beta(x: float) -> str:
    """Rate coefficients: 9 significant digits."""
    return f"{x:.9g}"


def _ascii(parse):
    """``parse`` (``int`` or ``float``) refusing ``1_0`` and non-ASCII digits like ``１``.

    ``-0`` reads as 0.  The parser keeps ``parse``'s name, which
    argparse prints in its "invalid int value" errors.
    """
    def strict(raw: str):
        if "_" in raw or not raw.isascii():
            raise ValueError(f"invalid {parse.__name__} literal: {raw!r}")
        return parse(raw) + 0
    strict.__name__ = parse.__name__
    return strict


# The one number grammar of catalog cells and numeric flags.
ascii_int, ascii_float = _ascii(int), _ascii(float)


def read_csv(stream: IO[str], header: list[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """Yield the (lineno, row) pairs after a required header, skipping blank lines.

    The header cells must equal ``header`` once trimmed, and every row
    must have as many fields.  ``lineno`` is the physical line a record
    starts on, counted by the reader, so it stays right after a quoted
    cell that spans lines.  Cells come back raw; see :func:`csv_field`.
    """
    reader = csv.reader(stream)
    try:
        first = next(reader)
    except StopIteration:
        raise InputError(f"{source}: empty file, expected header {','.join(header)}") from None
    if [cell.strip() for cell in first] != header:
        raise InputError(
            f"{source} line 1: expected header {','.join(header)}, "
            f"got {','.join(first)}"
        )
    width, end = len(header), reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != width:
            raise InputError(
                f"{source} line {lineno}: expected {width} fields, got {len(row)}"
            )
        yield lineno, row


def csv_field(raw: str, source: str, lineno: int) -> str:
    """A cell trimmed of surrounding whitespace.

    A carriage return anywhere in it is refused here, where the line
    number is known: the CSV output could not print it back (the
    standard writer leaves it unquoted, which splits the row).
    """
    if "\r" in raw:
        raise InputError(f"{source} line {lineno}: field {raw!r} contains a carriage return")
    return raw.strip()


def write_csv(stream: IO[str], rows: Iterable[Sequence]) -> None:
    """Rows as CSV, one ``\\n``-terminated line each; ``None`` prints empty."""
    csv.writer(stream, lineterminator="\n").writerows(rows)


def csv_text(rows: Iterable[Sequence]) -> str:
    """Rows as :func:`write_csv` writes them, returned as text.

    Fields holding a comma, a quote or a line feed are quoted.  The
    standard writer leaves a bare carriage return unquoted, which
    would split the row on reading, so such a field is refused.
    """
    out = io.StringIO()
    write_csv(out, rows)
    text = out.getvalue()
    if "\r" in text:
        raise ValueError("cannot write a CSV field that contains a carriage return")
    return text


def json_text(obj) -> str:
    """``obj`` as indented JSON; ValueError on a non-finite number, which JSON cannot spell."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
