"""Byte guard: stdout of the main batch commands on one fixed corpus.

The digests were recorded before the ranking and Matthew-summary code
was reshaped, the ``dynamics`` ones before article resolution moved
into ``f_score`` alone; any change to a printed byte (row order, float
formatting, key order, quoting) fails here.  ``bench/golden.json``
holds the same kind of guard for the benchmark corpora.
"""

from __future__ import annotations

import hashlib

import pytest

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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["gen", "--articles", "2000", "--categories", "20",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    return ["--catalog", str(out / "catalog.csv"),
            "--articles", str(out / "articles.csv"),
            "--citations", str(out / "citations.csv")]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes_are_unchanged(capsys, corpus, name):
    capsys.readouterr()  # drop the paths printed by gen
    argv, digest = COMMANDS[name]
    code = main(argv + corpus)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
