"""Byte guard: stdout of the main batch commands on one fixed corpus.

The digests were recorded before the ranking and Matthew-summary code
was reshaped, the ``dynamics`` ones before article resolution moved
into ``f_score`` alone, the ``gen`` and ``dump_catalog`` files before
the CSV reader and writer moved into ``formats.py``, and the
``--as-of`` rank and score ones before the articles loop parsed each
distinct cell once; any change to a printed or written byte (row
order, float formatting, key order, quoting) fails here.
``bench/golden.json`` holds the same kind of guard for the benchmark
corpora.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from i3metrics.catalog import dump_catalog, load_catalog
from i3metrics.cli import main

COMMANDS = {
    "rank-matthew-csv": (
        ["rank", "--matthew"],
        "1f8afebb01b40bf8a2625161e277b060d0c53618eb22f47c4fc4c3726c11fa52",
    ),
    "rank-matthew-json": (
        ["rank", "--matthew", "--format", "json"],
        "c6ea3479d4089fd2738ae18c5c596c1c6fc82019b66c657992047efce825ebd4",
    ),
    "score-historical-as-of-json": (
        ["score", "--all", "--if-mode", "historical", "--as-of", "3", "--format", "json"],
        "31a79818314dccc09b56341f176502e5a955a6a8c21407307bb332d2627e83ed",
    ),
    "rank-matthew-historical-as-of-csv": (
        ["rank", "--matthew", "--if-mode", "historical", "--as-of", "2"],
        "af09ea3c1cf399d7464e31f93e2c75dea118c35d7df4414b1e0c57ef454f1239",
    ),
    "score-ids-as-of-csv": (
        ["score", "a-00007", "a-00003", "a-00011", "--as-of", "1"],
        "7d97ca0049a21f3182f3ab46bbb987da38589c36fb654f6d1138011714db9838",
    ),
    # a-00007 has 44 citations.  a-00003 has none and its journal's impact
    # factor fell after publication, so every row is flagged cr>1.
    "dynamics-cited-csv": (
        ["dynamics", "a-00007", "--years", "1,5,10"],
        "885686d9d932213d80b23e8799338ad4c8b4f6e78bc2fbfd35da4d036e4bde25",
    ),
    "dynamics-cited-json": (
        ["dynamics", "a-00007", "--years", "1,5,10", "--format", "json"],
        "9f3e034b2b78230414f3e6a0c970637b559ffc4a191e621ebf3c76f3a4e4ef61",
    ),
    "dynamics-uncited-csv": (
        ["dynamics", "a-00003", "--years", "1,5,10"],
        "12c3d5ce20bb397c115b36bfd6119c2c04e3690b5f71390b7b5761f4cd24daf9",
    ),
    "dynamics-uncited-json": (
        ["dynamics", "a-00003", "--years", "1,5,10", "--format", "json"],
        "0ce5f1a2a792301e6d3f9a0d6180784bc625c2370d54fb783ea2e3624274f2ce",
    ),
}

FILES = {
    "articles.csv": "e90c1f2e0914592c12a01602b9c45cd0b79bce4bbc978ece00dc71e6e3210667",
    "catalog.csv": "9427834916e66547a4144007bdfe953665a1456269844fe8e7dfcfeb22621237",
    "citations.csv": "045f8d4e2e3b4416684bfaaa40e7b24efb98595bbb2a20110707555193b38d82",
}

DUMPED_CATALOG = "9fee7abcd6ff3e4d006973dac911ed68e05ca740bf34b7f099bbbcb78ef8bc5a"


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["gen", "--articles", "2000", "--categories", "20",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def corpus(gen_dir):
    return ["--catalog", str(gen_dir / "catalog.csv"),
            "--articles", str(gen_dir / "articles.csv"),
            "--citations", str(gen_dir / "citations.csv")]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes_are_unchanged(capsys, corpus, name):
    capsys.readouterr()  # drop the paths printed by gen
    argv, digest = COMMANDS[name]
    code = main(argv + corpus)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(FILES))
def test_generated_file_bytes_are_unchanged(gen_dir, name):
    assert hashlib.sha256((gen_dir / name).read_bytes()).hexdigest() == FILES[name]


def test_dumped_catalog_bytes_are_unchanged(gen_dir):
    with open(gen_dir / "catalog.csv", encoding="utf-8", newline="") as stream:
        catalog = load_catalog(stream)
    out = io.StringIO()
    dump_catalog(catalog, out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == DUMPED_CATALOG
