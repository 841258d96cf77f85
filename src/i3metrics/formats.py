"""Number formatting and grammar, the one CSV reader, the CSV and JSON writers.

Scores print at 6 decimal places and rate coefficients at 9
significant digits so golden-file comparisons are portable across
platforms; a score of magnitude 1e15 or more prints as JSON spells it
(``9.010201290907242e+305``), not in hundreds of digits.  JSON output
keeps full double precision instead.

Every CSV the package reads goes through :func:`read_csv`: one
header check, one row arity check, one line numbering, one output
shape, ``(lineno, row)`` pairs.  Every cell it writes goes through
:func:`csv_cell`, the one quoting rule, except those of the three files
of :mod:`generate`, which are built from ASCII letters, digits, ``-``,
``.`` and ``_`` alone.  Every JSON document it writes is the bytes of
:func:`json_text`; lists of records go through :func:`json_records`.

The reader is one generator that takes lines in blocks.  A block of
plain lines (unquoted cells, the header's number of commas, a line feed
at the end, no carriage return or NUL) is split with ``str`` methods;
from the first block that is not plain, ``csv.reader`` reads the rest
one record at a time, with the same records, errors and line numbers.
Each fault has one error path: a ``csv.Error`` (a cell over the field
limit, a NUL before Python 3.11) names the line its record starts on, a
byte that is not UTF-8 the file.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator, Sequence

from .errors import InputError

# Lines per block of :func:`read_csv`.  Larger blocks run no faster, and
# the more cells a block holds at once, the more scattered the heap it leaves.
_BLOCK = 512
# Every byte but those csv.reader treats specially; what is left of a
# plain line is its commas and its line feed.
_NOT_SPECIAL = bytes(set(range(256)).difference(b',"\r\n\0'))
_CHUNK_LINES = 1024  # lines or records per joined piece of a written table


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


def read_csv(stream: IO[str], header: list[str], source: str) -> Iterator[tuple]:
    """Yield ``(lineno, row)`` for each record after a required header.

    The header cells must equal ``header`` once trimmed (a header has
    two fields or more, so a blank line is never plain) and hold no NUL,
    every record must have as many fields, and blank lines are skipped.
    Up to ``_BLOCK`` plain lines at a time are split with ``str``
    methods; the first block that is not plain and the rest of the
    stream go through ``csv.reader``.  ``lineno`` is the physical line a
    record starts on, even after a quoted cell that spans lines.  One
    ``except`` per fault: a ``csv.Error`` names the line after the last
    record read, a decode error the file alone.  Cells come back raw,
    in a tuple or a list; see :func:`csv_field`.
    """
    lines, end = iter(stream), 0
    try:
        reader = csv.reader(lines)
        first = next(reader, None)
        if first is None:
            raise InputError(f"{source}: empty file, expected header {','.join(header)}")
        if "\0" in "".join(first):  # as csv.reader refuses it before Python 3.11
            raise InputError(f"{source} line 1: line contains NUL")
        if [cell.strip() for cell in first] != header:
            raise InputError(f"{source} line 1: expected header {','.join(header)}, "
                             f"got {','.join(first)}")
        width, end = len(header), reader.line_num
        plain_line, limit = b"," * (width - 1) + b"\n", csv.field_size_limit()
        while block := list(islice(lines, _BLOCK)):
            text, count = "".join(block), len(block)
            plain = plain_line * count
            skeleton = text.encode("utf-8", "surrogatepass").translate(None, _NOT_SPECIAL)
            # A line longer than the field limit may hold a field csv.reader refuses.
            if (skeleton != plain and skeleton != plain[:-1]
                    or len(text) > limit and max(map(len, block)) > limit):
                reader, start = csv.reader(chain(block, lines)), end
                for row in reader:
                    lineno, end = end + 1, start + reader.line_num
                    if not row:
                        continue
                    if len(row) != width:
                        raise InputError(f"{source} line {lineno}: expected {width} "
                                         f"fields, got {len(row)}")
                    yield lineno, row
                return
            # zip drops the empty cell after a final line feed.
            cells = iter(text.replace("\n", ",").split(","))
            yield from zip(range(end + 1, end + count + 1), zip(*[cells] * width))
            end += count
    except csv.Error as exc:
        raise InputError(f"{source} line {end + 1}: {exc}") from None
    except UnicodeDecodeError as exc:  # the stream decodes in chunks, so no line
        raise InputError(f"{source}: not valid UTF-8 ({exc.reason}: "
                         f"0x{exc.object[exc.start:exc.end].hex()})") from None


def csv_field(raw: str, source: str, lineno: int) -> str:
    """A cell trimmed of surrounding whitespace.

    A carriage return anywhere in it is refused here, where the line
    number is known: :func:`csv_cell` refuses to print it back.  So is a
    NUL, in the words ``csv.reader`` refuses it with before Python 3.11.
    """
    if "\r" in raw:
        raise InputError(f"{source} line {lineno}: field {raw!r} contains a carriage return")
    if "\0" in raw:
        raise InputError(f"{source} line {lineno}: line contains NUL")
    return raw.strip()


def csv_cell(text: str) -> str:
    """``text`` as one cell of a line, quoted if it holds a comma, a quote or a line feed.

    A carriage return is refused, as :func:`csv_field` refuses it on input.
    """
    if "\r" in text:
        raise ValueError("cannot write a CSV field that contains a carriage return")
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(rows: Iterable[Sequence]) -> str:
    """Rows as CSV text, one ``\\n``-terminated line each, every cell through :func:`csv_cell`.

    ``None`` prints empty and any other value as ``str`` spells it.
    """
    return "".join([",".join(["" if cell is None else csv_cell(str(cell)) for cell in row]) + "\n"
                    for row in rows])


def chunked_text(head: str, lines) -> str:
    """``head``, then the ``lines`` iterator joined :data:`_CHUNK_LINES` at a time."""
    return "".join([head, *iter(lambda: "".join(islice(lines, _CHUNK_LINES)), "")])


def json_text(obj) -> str:
    """``obj`` as indented JSON; ValueError on a non-finite number, which JSON cannot spell."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def json_records(keys: Sequence[str], rows: Iterable[tuple], depth: int = 0) -> str:
    """:func:`json_text` of the list of ``dict(zip(keys, row))``, ``depth`` levels deep, less its line feed.

    ``keys`` are one or more distinct strings and the values str, int,
    float, bool or None.  Each record fills one ``%`` template; the rows
    go through it :data:`_CHUNK_LINES` at a time.
    """
    outer = "\n" + "  " * depth
    fields = ",".join(f"{outer}    {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                      for key in keys)
    record, rows = f",{outer}  {{{fields}{outer}  }}", iter(rows)
    chunks = [*iter(lambda: _json_chunk(record, list(islice(rows, _CHUNK_LINES))), "")]
    return "".join(["[", chunks[0][1:], *chunks[1:], outer, "]"]) if chunks else "[]"


def _json_chunk(record: str, block: list[tuple]) -> str:
    """``block`` through ``record``, its values spelled a column at a time as ``json.dumps`` does."""
    spell = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
             bool: {False: "false", True: "true"}.__getitem__, type(None): "null".format}
    columns = [list(map(spell[type(col[0])], col)) if len(set(map(type, col))) == 1
               else [spell[type(value)](value) for value in col] for col in zip(*block)]
    if any("nan" in column or "inf" in column or "-inf" in column for column in columns):
        bad = next(value for value in chain.from_iterable(block)
                   if type(value) is float and repr(value) in ("nan", "inf", "-inf"))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return "".join(map(record.__mod__, zip(*columns)))
