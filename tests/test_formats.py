"""The shared number grammar and JSON writer."""

import math

import pytest

from i3metrics.formats import ascii_float, ascii_int, fmt_score, json_text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_text_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        json_text({"series": [{"cr_simple": value}]})


def test_json_text_is_indented_and_ends_with_a_line_feed():
    assert json_text({"a": [1, 0.5, None]}) == '{\n  "a": [\n    1,\n    0.5,\n    null\n  ]\n}\n'


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
