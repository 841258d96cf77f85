"""Fuzzer for the command line contract, run through ``main()``.

Small ``gen`` corpora get a few cells mutated (quoted line feeds, byte
order marks, case and space variants, carriage returns, extreme dates,
years and impact factors), and every data command runs on them with
extreme flag values.  Whatever the input, the contract holds:

* the exit code is 0, 1 or 2, and no exception escapes ``main()``;
* an input file the loaders refuse is reported as its path and the
  physical line its offending record starts on;
* on exit 0, stdout parses back as CSV or JSON and every number in it
  is finite;
* on exit 1 or 2, stdout is empty.

Flag values that ask for huge outputs (``curves --samples 10**9``)
are not tried: ``--samples`` stays at 2 to 5.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from i3metrics import formats
from i3metrics.catalog import load_catalog
from i3metrics.cli import main
from i3metrics.errors import InputError
from i3metrics.ledger import load_ledger

FILES = ("catalog", "articles", "citations")
SEEDS = (1, 2, 3)

# Columns of the CSV outputs that hold text rather than numbers.
TEXT_COLUMNS = {"article_id", "category", "journal", "note"}

DATES = ["0001-01-01", "9999-12-31", "2016-02-29", "2015-02-29", "2015-1-1",
         "1999-12-31", "2030-01-01", ""]
YEARS = ["0000", "0001", "9999", "10000", "-001", "2007", "2023", ""]
NUMBERS = ["0", "-0", "1e308", "1e-320", "nan", "inf", "-1", "1_0", "2.5"]
# (file, column, values) for a change that sets a whole column.
COLUMNS = [("catalog", 3, YEARS), ("catalog", 4, NUMBERS), ("articles", 2, DATES),
           ("citations", 1, ["Ghost Review", "JOURNAL-01-001"]), ("citations", 2, DATES)]

AS_OF = ["0", "1", "5", "-1", "7984", "9000", "99999999999999999999", "1.5"]
YEAR_LISTS = ["1", "1,5,10", "10,5", "0", "1,1", "7985", "99999999999999999999", ",", "1,x"]
FALLBACKS = ["0", "1", "1e-320", "1e308", "inf", "nan", "-0", "-1"]
BETAS = ["0.001", "1e-320", "5e-324", "1e308", "inf", "nan", "-0", "0", "0.001,1e308"]
PHIS = ["1", "0", "-3", "1" + "0" * 400, "9" * 20]
MAX_FS = ["5000", "inf", "nan", "-inf", "1e308", "5e-324", "0", "-1"]
TARGETS = ["0.5", "1e-300", "0.999999999999", "0", "1", "nan"]
FSCORES = ["1", "1e-320", "1e300", "inf", "0"]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """Rows of each base corpus, by seed and file."""
    out = {}
    for seed in SEEDS:
        directory = tmp_path_factory.mktemp(f"gen{seed}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--articles", "6", "--categories", "1",
                         "--seed", str(seed), "--out", str(directory)]) == 0
        out[seed] = {}
        for name in FILES:
            with open(directory / f"{name}.csv", encoding="utf-8", newline="") as handle:
                out[seed][name] = list(csv.reader(handle))
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def mutate_cell(draw, cell):
    kind = draw(st.sampled_from(["line feed", "bom", "case", "space", "carriage return",
                                 "date", "year", "number", "copy"]))
    if kind == "line feed":
        at = draw(st.integers(0, len(cell)))
        return cell[:at] + "\n" + cell[at:]
    if kind == "bom":
        return "\ufeff" + cell
    if kind == "case":
        return draw(st.sampled_from([str.upper, str.lower, str.title]))(cell)
    if kind == "space":
        return draw(st.sampled_from(["  {}", "{} ", "\t{}\t", " {} "])).format(cell)
    if kind == "carriage return":
        return cell + "\r"
    return draw(st.sampled_from({"date": DATES, "year": YEARS, "number": NUMBERS,
                                 "copy": ["a-00001", "journal-01-001", "category-01"]}[kind]))


def write_corpus(draw, base, workdir):
    """Mutated copies of the base files: paths, record start lines, first mutated line."""
    rows = {name: [list(row) for row in base[name]] for name in FILES}
    touched = {name: set() for name in FILES}
    if draw(st.booleans()):  # one column of one file holds one extreme value throughout
        name, c, values = draw(st.sampled_from(COLUMNS))
        value = draw(st.sampled_from(values))
        for r in range(1, len(rows[name])):
            rows[name][r][c] = value
        touched[name].update(range(1, len(rows[name])))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(FILES))
        r = draw(st.integers(0, len(rows[name]) - 1))
        c = draw(st.integers(0, len(rows[name][r]) - 1))
        rows[name][r][c] = mutate_cell(draw, rows[name][r][c])
        touched[name].add(r)
    paths, starts, first_touched = {}, {}, {}
    for name in FILES:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        lines = []
        for row in rows[name]:
            lines.append(out.getvalue().count("\n") + 1)
            writer.writerow(row)
        bom = "\ufeff" if draw(st.booleans()) else ""
        path = workdir / f"{name}.csv"
        path.write_text(bom + out.getvalue(), encoding="utf-8")
        paths[name], starts[name] = str(path), lines
        first_touched[name] = min((lines[r] for r in touched[name]), default=None)
    return paths, starts, first_touched


def command(draw, paths):
    data = ["--catalog", paths["catalog"], "--articles", paths["articles"],
            "--citations", paths["citations"]]
    fmt = ["--format", draw(st.sampled_from(["csv", "json"]))]
    fallback = draw(st.sampled_from([[]] + [["--fallback-if", v] for v in FALLBACKS]))
    as_of = draw(st.sampled_from([[]] + [["--as-of", v] for v in AS_OF]))
    if_mode = ["--if-mode", draw(st.sampled_from(["current", "historical"]))]
    name = draw(st.sampled_from(["score", "rank", "dynamics", "catalog-stats",
                                 "calibrate", "curves"]))
    if name == "score":
        return ["score", "--all", *data, *if_mode, *as_of, *fallback, *fmt]
    if name == "rank":
        return ["rank", "--matthew", *data, *if_mode, *as_of, *fallback, *fmt]
    if name == "dynamics":
        article = draw(st.sampled_from(["a-00001", "a-00002", "a-00006"]))
        return ["dynamics", article, *data, "--years", draw(st.sampled_from(YEAR_LISTS)),
                *fallback, *fmt]
    if name == "catalog-stats":
        return ["catalog-stats", "--catalog", paths["catalog"], *fmt]
    if name == "calibrate":
        if draw(st.booleans()):
            return ["calibrate", "--phi", draw(st.sampled_from(PHIS))]
        return ["calibrate", "--target", draw(st.sampled_from(TARGETS)),
                "--fscore", draw(st.sampled_from(FSCORES))]
    return ["curves", "--beta", draw(st.sampled_from(BETAS)),
            "--max-f", draw(st.sampled_from(MAX_FS)), "--samples", str(draw(st.integers(2, 5)))]


def loader_error(argv, paths):
    """The message the loaders refuse this command's inputs with, or None."""
    try:
        with open(paths["catalog"], encoding="utf-8-sig", newline="") as handle:
            load_catalog(handle, source=paths["catalog"])
        if argv[0] in ("score", "rank", "dynamics"):
            with open(paths["articles"], encoding="utf-8-sig", newline="") as articles, \
                    open(paths["citations"], encoding="utf-8-sig", newline="") as citations:
                load_ledger(articles, citations, articles_source=paths["articles"],
                            citations_source=paths["citations"])
    except InputError as exc:
        return str(exc)
    return None


def finite_numbers(obj):
    if isinstance(obj, float):
        assert math.isfinite(obj), obj
    elif isinstance(obj, dict):
        for value in obj.values():
            finite_numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            finite_numbers(value)


def check_csv(out):
    rows = list(csv.reader(io.StringIO(out, newline="")))
    header = None
    for row in rows:
        if not row:  # a blank line starts the next table
            header = None
        elif header is None or row[0] == "article_id":  # the Matthew table has a lead row
            header = row
        else:
            for column, cell in zip(header, row):
                if column not in TEXT_COLUMNS and cell not in ("", "NA"):
                    assert math.isfinite(float(cell)), (column, cell)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), seed=st.sampled_from(SEEDS))
def test_main_keeps_its_contract(data, seed, bases, workdir):
    paths, starts, first_touched = write_corpus(data.draw, bases[seed], workdir)
    argv = command(data.draw, paths)
    refused = loader_error(argv, paths) if argv[0] not in ("calibrate", "curves") else None

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    if code != 0:
        assert out == "" and err.startswith("error: "), (argv, err)
    if refused is not None:
        # Unless a flag was refused first, the loader's message is the error.
        assert code == 1, argv
        if not any(path in err for path in paths.values()):
            return
        assert err == f"error: {refused}\n", argv
        name = next(n for n in FILES if refused.startswith(f"{paths[n]} line "))
        line = int(re.match(rf"{re.escape(paths[name])} line (\d+): ", refused).group(1))
        # A record's first physical line, and no earlier than the first
        # record changed in that file, since unchanged records load.  A
        # citation may also fail on a changed article.
        assert line in starts[name], (refused, starts[name])
        if first_touched[name] is not None and (
                name != "citations" or first_touched["articles"] is None):
            assert line >= first_touched[name], refused
    if code == 0:
        if argv[0] == "calibrate":
            assert math.isfinite(float(out))
        elif "json" in argv:
            finite_numbers(json.loads(out))
        else:
            check_csv(out)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), seed=st.sampled_from(SEEDS), block=st.sampled_from([1, 2, 2048]))
def test_one_nul_anywhere_is_refused_on_every_interpreter(data, seed, block, bases, workdir):
    rows = {name: [list(row) for row in bases[seed][name]] for name in FILES}
    name = data.draw(st.sampled_from(FILES))
    r = data.draw(st.integers(0, len(rows[name]) - 1))
    c = data.draw(st.integers(0, len(rows[name][r]) - 1))
    at = data.draw(st.integers(0, len(rows[name][r][c])))
    rows[name][r][c] = rows[name][r][c][:at] + "\0" + rows[name][r][c][at:]
    paths = {}
    for f in FILES:  # gen cells need no quoting, and csv.writer cannot write NUL on 3.10
        paths[f] = workdir / f"{f}.csv"
        paths[f].write_text("".join(",".join(row) + "\n" for row in rows[f]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(formats, "_BLOCK", block):
        code = main(["score", "--all", *(arg for f in FILES for arg in (f"--{f}", str(paths[f])))])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == f"error: {paths[name]} line {r + 1}: line contains NUL\n"
