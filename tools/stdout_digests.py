"""Compare the stdout of fixed CLI commands across Python interpreters.

Usage::

    PYTHONPATH=src python3 tools/stdout_digests.py PYTHON [PYTHON ...]

Writes ``gen --articles 2000 --categories 20 --seed 5`` once, with the
running interpreter, into a temporary directory.  Then it runs each
case of ``CASES`` on that corpus, each case of ``ESCAPED_CASES`` on
the small corpus ``ESCAPED``, each case of ``LEAP_CASES`` on the small
corpus ``LEAP`` and each case of ``FAILING_CASES`` on the small corpus
``NUL``, all written out below, as
``PYTHON -m i3metrics.cli ...`` under the running interpreter and under
each given one, one process per case, with the package imported from
``src/``.  The cases are:

- the nine commands of ``tests/test_stdout_bytes.py``, ``catalog-stats``
  as JSON and one ten-anniversary ``dynamics`` report as JSON;
- on ids, journals and categories that hold quotes, backslashes, commas
  and non-ASCII characters: ``score --all`` as JSON, ``rank --matthew``
  as JSON and CSV, ``catalog-stats`` as CSV (the category
  ``Bio "Marine", Deep`` among its rows) and a ``dynamics`` report on
  the id ``a,1`` as CSV.  So the writers' escaping and quoting are
  compared too, in the hot tables' line writers and in
  ``formats.csv_text``;
- a ``dynamics`` report as CSV and JSON on an article published on a
  leap day, whose anniversary windows end on Feb 28 and then on Feb 29,
  with two ``score --as-of`` calls on it: one whose window ends on the
  Feb-28 citation and one that drops the Feb-29 citation at load;
- ``score --all`` on an article id holding a NUL, which must fail the
  same way everywhere.

Prints ``case  version  sha256`` for each case and interpreter, the
running interpreter first, after one ``# version: path`` line per
interpreter.  A case that exits non-zero or writes to stderr prints
``error`` and its exit status instead of a digest.  A case of
``FAILING_CASES`` prints ``exitN:`` and the sha256 of its stderr, with
the corpus directory cut out of the text, whatever its exit status.
Exits 1 if any digest differs from the running interpreter's, if a
case of ``FAILING_CASES`` exits 0 or any other case fails under the
running interpreter, else 0.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GEN = ["gen", "--articles", "2000", "--categories", "20", "--seed", "5"]
DATA = ("catalog", "articles", "citations")  # each --NAME takes NAME.csv of the corpus

CASES = {
    "rank-matthew-csv": ["rank", "--matthew"],
    "rank-matthew-json": ["rank", "--matthew", "--format", "json"],
    "score-historical-as-of-json": ["score", "--all", "--if-mode", "historical",
                                    "--as-of", "3", "--format", "json"],
    "rank-matthew-historical-as-of-csv": ["rank", "--matthew", "--if-mode", "historical",
                                          "--as-of", "2"],
    "score-ids-as-of-csv": ["score", "a-00007", "a-00003", "a-00011", "--as-of", "1"],
    "dynamics-cited-csv": ["dynamics", "a-00007", "--years", "1,5,10"],
    "dynamics-cited-json": ["dynamics", "a-00007", "--years", "1,5,10", "--format", "json"],
    "dynamics-uncited-csv": ["dynamics", "a-00003", "--years", "1,5,10"],
    "dynamics-uncited-json": ["dynamics", "a-00003", "--years", "1,5,10", "--format", "json"],
    "catalog-stats-json": ["catalog-stats", "--format", "json"],
    "dynamics-cited-years-1-10-json": ["dynamics", "a-00007", "--years",
                                       "1,2,3,4,5,6,7,8,9,10", "--format", "json"],
}
ESCAPED_CASES = {
    "escaped-score-all-json": ["score", "--all", "--format", "json"],
    "escaped-rank-matthew-json": ["rank", "--matthew", "--format", "json"],
    "escaped-rank-matthew-csv": ["rank", "--matthew"],
    "escaped-catalog-stats-csv": ["catalog-stats"],
    "escaped-dynamics-csv": ["dynamics", "a,1", "--years", "1,2,3,5"],
}
# Quotes, backslashes and commas in cells, non-ASCII ones and an astral one.
ESCAPED = {
    "catalog": r"""category,journal,issn,year,impact_factor
"Bio ""Marine"", Deep",Ætna \ Letters,,2010,2.0
"Bio ""Marine"", Deep",Ætna \ Letters,,2015,3.5
"Bio ""Marine"", Deep","Journal ""B"", Série",,2010,1.25
Físico\Química,Zeitschrift für Physik,,2010,0.75
Físico\Química,東京 Review,,2012,4.0
""",
    "articles": r"""article_id,journal,publication_date
"a,1",Ætna \ Letters,2011-05-01
"q""2",東京 Review,2013-02-03
b\3,"Journal ""B"", Série",2012-07-09
é-4,zeitschrift für physik,2014-11-30
𝄞-5,Ætna \ Letters,2015-01-01
""",
    "citations": r"""article_id,citing_journal,citation_date
"a,1","Journal ""B"", Série",2012-01-01
"a,1",東京 Review,2013-06-15
"a,1",Ætna \ Letters,2016-03-01
"q""2",Ætna \ Letters,2014-01-01
b\3,Zeitschrift für Physik,2013-05-05
b\3,Zeitschrift für Physik,2014-05-05
b\3,東京 Review,2015-05-05
𝄞-5,"Journal ""B"", Série",2016-02-29
""",
}
LEAP_CASES = {
    "leap-dynamics-csv": ["dynamics", "l-1", "--years", "1,2,3,4"],
    "leap-dynamics-json": ["dynamics", "l-1", "--years", "1,2,3,4", "--format", "json"],
    "leap-score-as-of-1-json": ["score", "l-1", "--as-of", "1", "--if-mode", "historical",
                                "--format", "json"],
    "leap-score-all-as-of-3-csv": ["score", "--all", "--as-of", "3"],
}
# Cited on the first anniversary (Feb 28) and on the fourth (Feb 29).
LEAP = {
    "catalog": """category,journal,issn,year,impact_factor
c,Leap Letters,,2015,1.5
c,Leap Letters,,2019,2.5
c,Cite Review,,2016,0.75
""",
    "articles": """article_id,journal,publication_date
l-1,Leap Letters,2016-02-29
""",
    "citations": """article_id,citing_journal,citation_date
l-1,Cite Review,2017-02-28
l-1,Leap Letters,2020-02-29
""",
}
FAILING_CASES = {
    "nul-article-id-score-csv": ["score", "--all"],
}
# An article id holding a NUL; Python 3.10's csv.reader refuses the line.
NUL = {
    "catalog": "category,journal,issn,year,impact_factor\nc,J,,2010,1.0\n",
    "articles": "article_id,journal,publication_date\na\0x,J,2011-01-01\n",
    "citations": "article_id,citing_journal,citation_date\n",
}


def _run(python: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([python, "-m", "i3metrics.cli", *argv], env=env,
                          capture_output=True, timeout=600)


def digests(python: str, corpus: Path, escaped: Path, leap: Path,
            nul: Path) -> dict[str, str]:
    """The sha256 of each case's stdout under ``python``, or ``error (exit N)``.

    A failing case gives ``exitN:`` and the sha256 of its stderr.
    """
    out = {}
    cases = [(name, argv, corpus) for name, argv in CASES.items()]
    cases += [(name, argv, escaped) for name, argv in ESCAPED_CASES.items()]
    cases += [(name, argv, leap) for name, argv in LEAP_CASES.items()]
    cases += [(name, argv, nul) for name, argv in FAILING_CASES.items()]
    for name, argv, root in cases:
        files = DATA[:1] if argv[0] == "catalog-stats" else DATA
        data = [arg for f in files for arg in (f"--{f}", str(root / f"{f}.csv"))]
        done = _run(python, argv + data)
        if name in FAILING_CASES:
            stderr = done.stderr.replace(os.fsencode(root), b"")
            out[name] = f"exit{done.returncode}:{hashlib.sha256(stderr).hexdigest()}"
        else:
            out[name] = (hashlib.sha256(done.stdout).hexdigest()
                         if done.returncode == 0 and not done.stderr
                         else f"error (exit {done.returncode})")
    return out


def version(python: str) -> str:
    done = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or "unknown"


def main(argv: list[str]) -> int:
    pythons = [sys.executable] + [p for p in argv
                                  if os.path.realpath(p) != os.path.realpath(sys.executable)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, escaped, leap, nul = (Path(tmp) / n for n in ("gen", "escaped", "leap", "nul"))
        done = _run(sys.executable, GEN + ["--out", str(corpus)])
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode("utf-8", "replace"))
            return 1
        for root, files in ((escaped, ESCAPED), (leap, LEAP), (nul, NUL)):
            root.mkdir()
            for name, text in files.items():
                (root / f"{name}.csv").write_text(text, encoding="utf-8")
        results = [(version(p), digests(p, corpus, escaped, leap, nul)) for p in pythons]
    for python, (label, _) in zip(pythons, results):
        print(f"# {label}: {python}")
    reference = results[0][1]
    differ = 0
    for name in [*CASES, *ESCAPED_CASES, *LEAP_CASES, *FAILING_CASES]:
        for label, found in results:
            mark = "" if found[name] == reference[name] else "  differs"
            differ += bool(mark)
            print(f"{name:<34} {label:<8} {found[name]}{mark}")
    return 1 if differ or any(d.startswith(("error", "exit0:")) for d in reference.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
