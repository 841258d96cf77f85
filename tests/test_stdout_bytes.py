"""Byte guard: stdout of the main batch commands on one fixed corpus.

The digests were recorded before the ranking and Matthew-summary code
was reshaped; any change to a printed byte (row order, float
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
