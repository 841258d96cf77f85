"""The shared number grammar, the CSV reader and the JSON writers."""

import csv
import io
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i3metrics import formats
from i3metrics.errors import InputError
from i3metrics.formats import (
    ascii_float,
    ascii_int,
    csv_text,
    fmt_score,
    json_records,
    json_text,
    read_csv,
)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_text_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        json_text({"series": [{"cr_simple": value}]})


def test_json_text_is_indented_and_ends_with_a_line_feed():
    assert json_text({"a": [1, 0.5, None]}) == '{\n  "a": [\n    1,\n    0.5,\n    null\n  ]\n}\n'


# -- the records writer ------------------------------------------------

# What json.dumps escapes (quotes, backslashes, C0 controls, DEL, non-ASCII,
# astral characters, lone surrogates), a template's %, and plain letters.
json_strings = st.text(st.one_of(
    st.sampled_from(list('"\\\x7f%é\u2028\U0001d11e\ud800\udbff\udc00\udfffab')),
    st.characters(max_codepoint=0x1F), st.characters()), max_size=6)
json_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, sys.float_info.max,
                     -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False))
json_values = st.one_of(json_strings, json_floats, st.integers(-(2**63), 2**63),
                        st.none(), st.booleans())


@st.composite
def json_tables(draw):
    keys = draw(st.lists(json_strings, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(*[json_values] * len(keys)), max_size=7))
    return keys, rows


def nested_json_text(keys, rows, depth):
    """``json_text`` of the records' list under ``depth`` single-key objects, and its wrapping."""
    doc = [dict(zip(keys, row)) for row in rows]
    for _ in range(depth):
        doc = {"k": doc}
    head = "".join("{\n" + "  " * (level + 1) + '"k": ' for level in range(depth))
    tail = "".join("\n" + "  " * level + "}" for level in reversed(range(depth)))
    return json_text(doc), head, tail + "\n"


@settings(max_examples=300, deadline=None)
@given(json_tables(), st.integers(0, 2), st.integers(1, 3))
def test_records_print_the_bytes_of_json_text(table, depth, chunk):
    keys, rows = table
    text, head, tail = nested_json_text(keys, rows, depth)
    with mock.patch.object(formats, "_CHUNK_LINES", chunk):
        assert head + json_records(keys, iter(rows), depth) + tail == text


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_an_empty_list_of_records_prints_as_json_text_prints_it(depth):
    text, head, tail = nested_json_text(["a"], [], depth)
    assert head + json_records(["a"], [], depth) + tail == text
    assert json_records(["a"], []) == "[]"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rows", [  # BAD marks where the value goes
    [("BAD",)], [("a", 1.0), (None, "BAD")], [(1.0, 2.0)] * 4 + [(0.5, "BAD")]])
def test_records_refuse_non_finite_numbers_as_json_text_does(value, rows):
    rows = [tuple(value if cell == "BAD" else cell for cell in row) for row in rows]
    keys = ["x", "y"][:len(rows[0])]
    with pytest.raises(ValueError) as expected:
        json_text([dict(zip(keys, row)) for row in rows])
    assert str(expected.value) == f"Out of range float values are not JSON compliant: {value!r}"
    with mock.patch.object(formats, "_CHUNK_LINES", 2), pytest.raises(ValueError) as got:
        json_records(keys, rows)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("chunk", [1, 2, 1024])
def test_records_name_the_first_non_finite_number_in_document_order(chunk):
    rows = [(1.0, 2.0), (0.5, math.inf), (math.nan, -math.inf)]
    with mock.patch.object(formats, "_CHUNK_LINES", chunk), pytest.raises(ValueError, match=": inf$"):
        json_records(["x", "y"], rows)


@pytest.mark.parametrize("raw", ["1_0", "１", "٣", "１.５"])
def test_ascii_parsers_refuse_separators_and_non_ascii_digits(raw):
    for parse in (ascii_int, ascii_float):
        with pytest.raises(ValueError):
            parse(raw)


def test_ascii_parsers_read_negative_zero_as_zero_and_keep_their_names():
    assert math.copysign(1.0, ascii_float("-0")) == 1.0
    assert ascii_float(" 2.5 ") == 2.5 and ascii_int("-3") == -3
    # argparse names the type in "invalid int value" errors.
    assert (ascii_int.__name__, ascii_float.__name__) == ("int", "float")


def test_fmt_score_switches_to_the_json_spelling_at_1e15():
    below = math.nextafter(1e15, 0.0)
    assert fmt_score(below) == "999999999999999.875000" == f"{below:.6f}"
    assert fmt_score(-below) == "-999999999999999.875000"
    assert fmt_score(1e15) == "1000000000000000.0" == repr(1e15)
    assert fmt_score(-1e15) == "-1000000000000000.0"
    assert fmt_score(9.010201290907242e+305) == "9.010201290907242e+305"
    assert (fmt_score(0.5), fmt_score(-0.0)) == ("0.500000", "-0.000000")


# -- the CSV writer ----------------------------------------------------

# NUL in drawn cells only where the standard writer can write it, from Python 3.11 on.
NUL = "\0" * (sys.version_info >= (3, 11))


def csv_writer_text(rows):
    """``rows`` as ``csv.writer`` prints them, the oracle of the package's CSV writers."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# Rows of two or more cells: a row of one empty cell is the one row
# csv.writer prints otherwise (as ``""``), and no table writes one.
@given(st.lists(st.lists(st.one_of(st.text(alphabet='ab ,"\né' + NUL, max_size=3),
                                   st.integers(-5, 5), st.none()),
                         min_size=2, max_size=4), max_size=5))
def test_csv_text_prints_the_text_of_csv_writer(rows):
    assert csv_text(rows) == csv_writer_text(rows)


def test_csv_text_prints_nul_raw_and_refuses_a_carriage_return():
    # csv.writer refuses the NUL cell before Python 3.11; csv_text prints it on all.
    assert csv_text([("a\0b", "x")]) == "a\0b,x\n"
    with pytest.raises(ValueError, match="carriage return"):
        csv_text([("a\rb", "x")])


# -- the CSV reader ----------------------------------------------------

HEADER = ["id", "name", "day"]


def reference_read_csv(stream, header, source):
    """The reader before blocks: ``csv.reader`` row by row, the plain reference."""
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


def outcome(read, text, newline):
    """The (lineno, row) pairs read up to the end or the first error, and that error."""
    pairs = []
    try:
        for lineno, row in read(io.StringIO(text, newline=newline), HEADER, "f.csv"):
            pairs.append((lineno, list(row)))
    except (InputError, csv.Error) as exc:
        return pairs, exc
    return pairs, None


def assert_reads_as_the_reference(text, newline="", block=3):
    expected, error = outcome(reference_read_csv, text, newline)
    with mock.patch.object(formats, "_BLOCK", block):
        pairs, got = outcome(read_csv, text, newline)
    assert pairs == expected
    if isinstance(error, csv.Error):  # now an input error naming the file and line
        assert isinstance(got, InputError)
        assert str(got).startswith("f.csv line ") and str(got).endswith(f": {error}")
    else:
        assert type(got) is type(error) and str(got) == str(error)


PLAIN = "".join(f"{k},name {k},2015-01-0{k % 9 + 1}\n" for k in range(7))


@pytest.mark.parametrize("text", [
    "",
    "\nid,name,day\n1,2,3\n",
    "id,name,day\n",
    "id,name,day",
    '"id", "name" ,"day"\r\n1,2,3\r\n',
    "id,name,day\n" + PLAIN,
    "id,name,day\n" + PLAIN + "7,8,9",
    "id,name,day\n" + PLAIN + '7,"a,b",9\n' + PLAIN,
    "id,name,day\n" + PLAIN + '7,"a\nb",9\n' + PLAIN + "1,2\n",
    "id,name,day\n" + PLAIN + '7,"a\rb",9\n' + PLAIN,
    "id,name,day\n" + PLAIN + '7,"a""b",9\n',
    "id,name,day\n" + PLAIN + "\n\n" + PLAIN + "\n",
    "id,name,day\r\n" + PLAIN.replace("\n", "\r\n"),
    "id,name,day\n" + PLAIN + "7,8\n" + PLAIN,
    "id,name,day\n" + PLAIN + "7,8,9,10\n",
    "id,name,day\n" + PLAIN + "7,a\0b,9\n" + PLAIN,
    "id,name,day\n" + PLAIN + "7,a\rb,9\n" + PLAIN,
    "id,name,day\n" + PLAIN + "  \n",
], ids=["empty", "blank-header", "header-only", "header-only-no-newline", "quoted-header",
        "plain", "no-final-newline", "quoted-comma", "quoted-newline-then-arity",
        "quoted-carriage-return", "doubled-quote", "blank-lines", "crlf", "too-few-fields",
        "too-many-fields", "nul", "bare-carriage-return", "whitespace-line"])
@pytest.mark.parametrize("newline", ["", "\n", None], ids=["newline-none", "lf", "universal"])
@pytest.mark.parametrize("block", [1, 3, 2048])
def test_reader_reads_as_csv_reader_does(text, newline, block):
    assert_reads_as_the_reference(text, newline, block)


CELLS = st.one_of(st.text(alphabet="ab é", max_size=3),
                  st.text(alphabet='ab ,"\r\né' + NUL, max_size=3))


@st.composite
def csv_texts(draw):
    """Header and rows as ``csv.writer`` spells them, or as arbitrary bytes after a header."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.one_of(st.lists(CELLS, min_size=3, max_size=3),
                                       st.lists(CELLS, max_size=4)), max_size=14))
        out = io.StringIO()
        csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                   lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([HEADER] + rows)
        text = out.getvalue()
        return text.rstrip("\r\n") if draw(st.booleans()) else text
    tokens = st.sampled_from(["a", "é", " ", ",", ",,", '"', "\n", "\r\n", "\r", "\0"])
    return "id,name,day\n" + "".join(draw(st.lists(tokens, max_size=40)))


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from(["", "\n", None]), st.integers(1, 4))
def test_blocks_flatten_to_the_rows_csv_reader_reads(text, newline, block):
    assert_reads_as_the_reference(text, newline, block)


def test_lines_without_line_feeds_go_to_csv_reader():
    lines = ["id,name,day", "1,2,3", "4,5,6"]
    with mock.patch.object(formats, "_BLOCK", 2):
        assert list(read_csv(lines, HEADER, "f.csv")) == [(2, ["1", "2", "3"]), (3, ["4", "5", "6"])]


def test_plain_lines_and_the_csv_reader_tail_come_as_the_same_pairs():
    text = "id,name,day\n1,a,x\n2,b,y\n3,\"c\",z\n4,d,w\n"
    with mock.patch.object(formats, "_BLOCK", 2):
        pairs = list(read_csv(io.StringIO(text), HEADER, "f.csv"))
    # Lines 2-3 are one plain block split with str methods; the quoted
    # cell on line 4 hands that block and the rest to csv.reader.
    assert pairs == [(2, ("1", "a", "x")), (3, ("2", "b", "y")),
                     (4, ["3", "c", "z"]), (5, ["4", "d", "w"])]


def test_a_header_cell_over_the_field_limit_is_an_input_error():
    limit = csv.field_size_limit()
    text = "x" * (limit + 1) + ",name,day\n1,2,3\n"
    with pytest.raises(InputError) as info:
        list(read_csv(io.StringIO(text), HEADER, "f.csv"))
    assert str(info.value) == f"f.csv line 1: field larger than field limit ({limit})"


def test_a_cell_over_the_field_limit_after_plain_blocks_names_its_record_line():
    # The header and the tail share one csv.Error handler; its line is
    # the one after the last record read, here by the plain block.
    limit = csv.field_size_limit()
    text = "id,name,day\n1,a,x\n2,b,y\n3," + "x" * (limit + 1) + ",z\n"
    with mock.patch.object(formats, "_BLOCK", 2):
        read = read_csv(io.StringIO(text), HEADER, "f.csv")
        assert [next(read), next(read)] == [(2, ("1", "a", "x")), (3, ("2", "b", "y"))]
        with pytest.raises(InputError) as info:
            next(read)
    assert str(info.value) == f"f.csv line 4: field larger than field limit ({limit})"


def test_a_byte_that_is_not_utf8_after_the_switch_to_csv_reader_is_an_input_error():
    # The quoted first row hands the file to csv.reader; the stream decodes
    # 8 KiB chunks, so the bad byte is met while csv.reader reads.
    data = b'id,name,day\n"1",2,3\n' + b"4,5,6\n" * 2000 + b"7,\xff,9\n"
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    read = read_csv(stream, HEADER, "f.csv")
    assert next(read) == (2, ["1", "2", "3"])
    with pytest.raises(InputError) as info:
        list(read)
    assert str(info.value) == "f.csv: not valid UTF-8 (invalid start byte: 0xff)"
