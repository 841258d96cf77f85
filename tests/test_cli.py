"""End-to-end tests for the command line interface.

Each test drives ``main`` with an argv list and asserts on the exit
code plus captured stdout/stderr, exactly what a shell user sees.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import i3metrics
from i3metrics import cli
from i3metrics.cli import main
from i3metrics.core import compute_beta, compute_i3
from i3metrics.formats import json_text


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def ascii_stdout_run(monkeypatch, *argv):
    """Exit code and stdout bytes of ``main`` writing to an ASCII-only stdout."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stream)
    code = main(list(argv))
    stream.flush()
    return code, buffer.getvalue()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def csv_rows(out):
    lines = out.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- fixtures ----------------------------------------------------------

CATALOG = """\
category,journal,issn,year,impact_factor
bio,Alpha Letters,1234-5679,2010,2.0
bio,Alpha Letters,1234-5679,2018,3.0
bio,Beta Annals,,2010,1.0
bio,Gamma Reports,,2010,0.5
"""

ARTICLES = """\
article_id,journal,publication_date
a-1,Alpha Letters,2011-05-01
a-2,Beta Annals,2012-07-09
"""

CITATIONS = """\
article_id,citing_journal,citation_date
a-1,Beta Annals,2012-01-01
a-1,Gamma Reports,2013-06-15
a-2,Alpha Letters,2019-03-01
"""

GHOST_CITATIONS = """\
article_id,citing_journal,citation_date
a-1,Beta Annals,2012-01-01
a-1,Ghost Journal,2012-05-05
"""

BETA_3 = compute_beta(3)


@pytest.fixture()
def data(tmp_path):
    """Small two-article corpus with an impact-factor history."""
    return ["--catalog", write(tmp_path / "catalog.csv", CATALOG),
            "--articles", write(tmp_path / "articles.csv", ARTICLES),
            "--citations", write(tmp_path / "citations.csv", CITATIONS)]


def make_corpus(tmp_path, phi, ifs, articles_text, citation_rows):
    """Single-category corpus padded with filler journals up to phi titles."""
    rows = ["category,journal,issn,year,impact_factor"]
    for name, factor in ifs.items():
        rows.append(f"study,{name},,2010,{factor}")
    for k in range(phi - len(ifs)):
        rows.append(f"study,filler-{k:03d},,2010,1.0")
    catalog = write(tmp_path / "catalog.csv", "\n".join(rows) + "\n")
    articles = write(tmp_path / "articles.csv", articles_text)
    citations = write(tmp_path / "citations.csv",
                      "\n".join(["article_id,citing_journal,citation_date"]
                                + citation_rows) + "\n")
    return ["--catalog", catalog, "--articles", articles,
            "--citations", citations]


@pytest.fixture()
def reference_corpus(tmp_path):
    """Category of 92 titles where a-1 accumulates f = 1996.5245.

    The index at that mass is 0.9000000002506496, six decimals away
    from 0.900000 by a quarter of a billionth.
    """
    start = date(2016, 1, 1)
    rows = [f"a-1,cite,{start + timedelta(days=i)}" for i in range(997)]
    rows.append("a-1,odd,2016-05-01")
    return make_corpus(
        tmp_path, 92,
        {"home": "2.0", "cite": "2.0", "odd": "0.5245"},
        "article_id,journal,publication_date\na-1,home,2015-01-06\n",
        rows,
    )


@pytest.fixture()
def quoted(tmp_path):
    """Article id and category that hold commas, so output must quote them."""
    return ["--catalog", write(tmp_path / "catalog.csv",
                               "category,journal,issn,year,impact_factor\n"
                               '"Biology, Marine",home,,2010,2.0\n'),
            "--articles", write(tmp_path / "articles.csv",
                                "article_id,journal,publication_date\n"
                                '"a,1",home,2015-01-01\nb,home,2015-01-01\n'),
            "--citations", write(tmp_path / "citations.csv",
                                 "article_id,citing_journal,citation_date\n"
                                 '"a,1",home,2016-01-01\n')]


def parse_csv(out):
    return list(csv.reader(io.StringIO(out, newline="")))


@pytest.fixture()
def uncited(tmp_path):
    """Category of 106 titles and one article with zero citations."""
    return make_corpus(
        tmp_path, 106,
        {"home": "2.0"},
        "article_id,journal,publication_date\na-0,home,2015-01-01\n",
        [],
    )


# -- score -------------------------------------------------------------

class TestScore:
    def test_reference_point_prints_six_decimals(self, capsys, reference_corpus):
        code, out, err = run(capsys, "score", *reference_corpus, "a-1")
        assert code == 0 and err == ""
        (row,) = csv_rows(out)
        assert row["article_id"] == "a-1"
        assert row["phi"] == "92"
        assert row["beta"] == "0.00115329669"
        assert row["f_score"] == "1996.524500"
        assert row["i3"] == "0.900000"
        assert row["citations"] == "998"
        assert row["rank_i3"] == "" and row["rank_citations"] == ""

    def test_reference_point_json_keeps_full_precision(self, capsys, reference_corpus):
        code, out, _ = run(capsys, "score", *reference_corpus, "a-1",
                           "--format", "json")
        assert code == 0
        (obj,) = json.loads(out)
        assert obj["i3"] == compute_i3(1996.5245, compute_beta(92))
        assert obj["i3"] == pytest.approx(0.90, abs=1e-6)
        assert obj["rank_i3"] is None

    def test_zero_citations_score_publishing_if_only(self, capsys, uncited):
        code, out, _ = run(capsys, "score", *uncited, "a-0")
        assert code == 0
        (row,) = csv_rows(out)
        assert row["f_score"] == "2.000000"
        assert row["i3"] == "0.002000"
        assert row["citations"] == "0"

    def test_zero_citations_json_matches_library(self, capsys, uncited):
        code, out, _ = run(capsys, "score", *uncited, "a-0",
                           "--format", "json")
        assert code == 0
        (obj,) = json.loads(out)
        assert obj["i3"] == compute_i3(2.0, compute_beta(106))

    def test_empty_selection_prints_header_only(self, capsys, data):
        code, out, err = run(capsys, "score", *data)
        assert code == 0 and err == ""
        assert out == ("article_id,category,phi,beta,f_score,i3,"
                       "citations,rank_i3,rank_citations\n")

    def test_empty_selection_json_is_empty_list(self, capsys, data):
        code, out, _ = run(capsys, "score", *data, "--format", "json")
        assert code == 0
        assert json.loads(out) == []

    def test_empty_selection_json_prints_the_empty_document(self, capsys, data):
        code, out, err = run(capsys, "score", *data, "--format", "json")
        assert (code, out, err) == (0, "[]\n", "")

    def test_ids_follow_request_order(self, capsys, data):
        code, out, _ = run(capsys, "score", *data, "a-2", "a-1")
        assert code == 0
        assert [r["article_id"] for r in csv_rows(out)] == ["a-2", "a-1"]

    def test_current_mode_mass(self, capsys, data):
        code, out, _ = run(capsys, "score", *data, "a-1")
        assert code == 0
        (row,) = csv_rows(out)
        assert row["f_score"] == "4.500000"
        assert row["i3"] == f"{compute_i3(4.5, BETA_3):.6f}"

    def test_historical_mode_changes_mass(self, capsys, data):
        code, out, _ = run(capsys, "score", *data, "a-1",
                           "--if-mode", "historical")
        assert code == 0
        assert csv_rows(out)[0]["f_score"] == "3.500000"

    def test_as_of_truncates_the_window(self, capsys, data):
        code, out, _ = run(capsys, "score", *data, "--all", "--as-of", "1")
        assert code == 0
        rows = {r["article_id"]: r for r in csv_rows(out)}
        assert rows["a-1"]["citations"] == "1"
        assert rows["a-1"]["f_score"] == "4.000000"
        assert rows["a-2"]["citations"] == "0"

    def test_all_and_explicit_ids_conflict(self, capsys, data):
        code, _, err = run(capsys, "score", *data, "--all", "a-1")
        assert code == 1
        assert "not both" in err

    def test_unknown_article_id(self, capsys, data):
        code, _, err = run(capsys, "score", *data, "a-99")
        assert code == 1
        assert "unknown article id" in err

    def test_missing_input_file(self, capsys, data, tmp_path):
        argv = list(data)
        argv[5] = str(tmp_path / "absent.csv")
        code, _, err = run(capsys, "score", *argv, "a-1")
        assert code == 1
        assert "cannot read" in err

    def test_unknown_citing_journal_is_resolution_failure(self, capsys,
                                                          tmp_path, data):
        argv = list(data)
        argv[5] = write(tmp_path / "ghost.csv", GHOST_CITATIONS)
        code, _, err = run(capsys, "score", *argv, "a-1")
        assert code == 2
        assert "Ghost Journal" in err

    def test_fallback_if_rescues_unknown_journals(self, capsys, tmp_path,
                                                  data):
        argv = list(data)
        argv[5] = write(tmp_path / "ghost.csv", GHOST_CITATIONS)
        code, out, _ = run(capsys, "score", *argv, "a-1",
                           "--fallback-if", "1.5")
        assert code == 0
        assert csv_rows(out)[0]["f_score"] == "5.500000"

    def test_negative_fallback_rejected(self, capsys, data):
        code, _, err = run(capsys, "score", *data, "a-1",
                           "--fallback-if", "-1")
        assert code == 1
        assert "non-negative" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_fallback_rejected(self, capsys, data, value):
        code, out, err = run(capsys, "score", *data, "a-1",
                             "--fallback-if", value)
        assert code == 1 and out == ""
        assert "finite" in err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, data):
        code, plain, _ = run(capsys, "score", *data, "--all")
        assert code == 0
        with_bom = []
        for flag, path in zip(data[::2], data[1::2]):
            text = "\ufeff" + Path(path).read_text(encoding="utf-8")
            with_bom += [flag, write(tmp_path / f"bom-{Path(path).name}", text)]
        code, out, err = run(capsys, "score", *with_bom, "--all")
        assert code == 0 and err == ""
        assert out == plain

    @pytest.mark.parametrize("flag, good, bad", [
        ("--articles", "2011-05-01", "20110501"),
        ("--articles", "2011-05-01", "2011-W18-1"),
        ("--citations", "2012-01-01", "20120101"),
        ("--citations", "2012-01-01", "2012-W01-1"),
    ])
    def test_dates_must_be_year_month_day(self, capsys, data, flag, good, bad):
        path = Path(data[data.index(flag) + 1])
        path.write_text(path.read_text(encoding="utf-8").replace(good, bad), encoding="utf-8")
        code, out, err = run(capsys, "score", *data, "--all")
        assert code == 1 and out == ""
        assert f"malformed date {bad!r} (expected YYYY-MM-DD)" in err

    def test_bad_if_mode_value(self, capsys, data):
        code, _, err = run(capsys, "score", *data, "a-1",
                           "--if-mode", "newest")
        assert code == 1
        assert "invalid choice" in err

    def test_negative_zero_impact_factor_reads_as_zero(self, capsys, tmp_path):
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "c,J,,2010,-0\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,J,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n"
                                       "a,J,2012-01-01\n")]
        code, out, _ = run(capsys, "score", *corpus, "--all")
        assert code == 0
        assert csv_rows(out)[0]["f_score"] == "0.000000"
        code, out, _ = run(capsys, "score", *corpus, "--all", "--format", "json")
        assert code == 0
        assert '"f_score": 0.0,' in out

    def test_huge_mass_prints_as_json_spells_it(self, capsys, tmp_path):
        # f = 2e300 is finite; at 6 decimals it would print 301 digits.
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "bio,Alpha,,2010,1e300\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,Alpha,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n"
                                       "a,Alpha,2012-01-01\n")]
        code, out, err = run(capsys, "score", *corpus, "a")
        assert (code, err) == (0, "")
        [row] = csv_rows(out)
        assert (row["f_score"], row["i3"]) == ("2e+300", "1.000000")
        code, out, _ = run(capsys, "score", *corpus, "a", "--format", "json")
        assert code == 0
        assert row["f_score"] == repr(json.loads(out)[0]["f_score"])

    def test_fractional_as_of_rejected(self, capsys, data):
        code, _, err = run(capsys, "score", *data, "--all", "--as-of", "1.5")
        assert code == 1
        assert "invalid int value" in err

    @pytest.mark.parametrize("row, message", [
        ("a-1,Beta Annals,2013-02-30", "malformed date '2013-02-30' (expected YYYY-MM-DD)"),
        ("a-9,Beta Annals,2013-06-15", "citation of unknown article 'a-9'"),
        ("a-1,Beta Annals,2011-04-30",
         "citation dated 2011-04-30 precedes publication of 'a-1' (2011-05-01)"),
    ], ids=["malformed-date", "unknown-id", "before-publication"])
    def test_rows_after_the_window_are_still_checked(self, capsys, tmp_path, data, row,
                                                     message):
        # With --as-of 1, lines 3 to 5 fall after their windows and are dropped at load.
        argv = list(data)
        argv[5] = write(tmp_path / "late.csv",
                        CITATIONS + "a-1,Gamma Reports,2014-01-01\n" + row + "\n")
        code, out, err = run(capsys, "score", *argv, "--all", "--as-of", "1")
        assert (code, out, err) == (1, "", f"error: {argv[5]} line 6: {message}\n")


# -- rank --------------------------------------------------------------

class TestRank:
    def test_orders_best_first_and_fills_ranks(self, capsys, data):
        code, out, _ = run(capsys, "rank", *data)
        assert code == 0
        rows = csv_rows(out)
        assert [r["article_id"] for r in rows] == ["a-1", "a-2"]
        assert [r["rank_i3"] for r in rows] == ["1", "2"]
        assert [r["rank_citations"] for r in rows] == ["1", "2"]

    def test_rank_consumes_the_scoring_path(self, capsys, data):
        code, scored, _ = run(capsys, "score", *data, "--all")
        assert code == 0
        code, ranked, _ = run(capsys, "rank", *data)
        assert code == 0
        values = ("category", "phi", "beta", "f_score", "i3", "citations")
        by_id = {r["article_id"]: [r[c] for c in values]
                 for r in csv_rows(scored)}
        for row in csv_rows(ranked):
            assert [row[c] for c in values] == by_id[row["article_id"]]

    def test_matthew_summary_appended_to_csv(self, capsys, data):
        code, out, _ = run(capsys, "rank", *data, "--matthew")
        assert code == 0
        assert "improved_by_i3_rank,0" in out
        assert "article_id,rank_i3,rank_citations,displacement" in out
        assert "a-1,1,1,0" in out

    def test_matthew_summary_in_json(self, capsys, data):
        code, out, _ = run(capsys, "rank", *data, "--matthew",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert {r["article_id"] for r in obj["ranking"]} == {"a-1", "a-2"}
        assert obj["matthew"]["improved_by_i3_rank"] == 0
        assert len(obj["matthew"]["displacements"]) == 2

    def test_json_without_matthew_has_no_summary(self, capsys, data):
        code, out, _ = run(capsys, "rank", *data, "--format", "json")
        assert code == 0
        assert "matthew" not in json.loads(out)

    def test_json_with_header_only_files_prints_the_empty_ranking(self, capsys, data):
        for flag, header in (("--articles", "article_id,journal,publication_date\n"),
                             ("--citations", "article_id,citing_journal,citation_date\n")):
            Path(data[data.index(flag) + 1]).write_text(header, encoding="utf-8")
        code, out, err = run(capsys, "rank", *data, "--format", "json")
        assert (code, out, err) == (0, json_text({"ranking": []}), "")

    @pytest.mark.parametrize("matthew", [True, False])
    def test_json_document_is_json_text_of_its_objects(self, capsys, quoted, matthew):
        paths = {flag: quoted[quoted.index(flag) + 1]
                 for flag in ("--catalog", "--articles", "--citations")}
        with open(paths["--catalog"], encoding="utf-8", newline="") as stream:
            catalog = i3metrics.load_catalog(stream)
        with open(paths["--articles"], encoding="utf-8", newline="") as articles, \
                open(paths["--citations"], encoding="utf-8", newline="") as citations:
            ledger = i3metrics.load_ledger(articles, citations)
        ranked = i3metrics.rank(i3metrics.score_articles(ledger, catalog))
        doc = {"ranking": [dict(zip(i3metrics.ranking.REPORT_HEADER, (
            r.article_id, r.category, r.phi, r.beta, r.f_score, r.i3, r.citation_count, i, c)))
            for r, i, c in i3metrics.ranked_rows(ranked)]}
        if matthew:
            summary = i3metrics.matthew_comparison(ranked)
            doc["matthew"] = {"improved_by_i3_rank": summary.improved, "displacements": [
                dict(zip(i3metrics.ranking.MATTHEW_HEADER, (r.article_id, i, c, c - i)))
                for r, i, c in i3metrics.ranked_rows(ranked)]}
        code, out, err = run(capsys, "rank", *quoted, "--format", "json",
                             *["--matthew"] * matthew)
        assert (code, out, err) == (0, json_text(doc), "")

    def test_matthew_needs_two_articles(self, capsys, uncited):
        code, _, err = run(capsys, "rank", *uncited, "--matthew")
        assert code == 1
        assert "at least 2" in err

    def test_as_of_changes_the_window(self, capsys, data):
        code, out, _ = run(capsys, "rank", *data, "--as-of", "1")
        assert code == 0
        rows = {r["article_id"]: r for r in csv_rows(out)}
        assert rows["a-2"]["citations"] == "0"

    @pytest.mark.parametrize("flag, row, line", [
        ("--catalog", 'bio,"Delta\rReview",,2010,1.0', 6),
        ("--articles", '"a\rb",Alpha Letters,2011-05-01', 4),
        ("--articles", 'a-3,"Alpha Letters\r",2013-01-01', 4),
        ("--articles", 'a-3,Beta Annals,"2011-05-01\r"', 4),
        ("--citations", 'a-1,"Beta\rAnnals",2012-01-01', 5),
    ])
    def test_carriage_return_in_a_field_is_refused(self, capsys, data, flag, row, line):
        path = Path(data[data.index(flag) + 1])
        with open(path, "a", encoding="utf-8", newline="") as handle:
            handle.write(row + "\n")
        code, out, err = run(capsys, "rank", *data)
        assert code == 1 and out == ""
        assert f"{path} line {line}: " in err and "carriage return" in err

    def test_fields_with_commas_are_quoted(self, capsys, quoted):
        code, out, _ = run(capsys, "rank", *quoted, "--matthew")
        assert code == 0
        rows = parse_csv(out)
        assert rows[1][:2] == ["a,1", "Biology, Marine"]
        assert all(len(row) == 9 for row in rows[:3])
        assert ["a,1", "1", "1", "0"] in rows

    def test_unencodable_output_leaves_stdout_empty(self, capsys, monkeypatch, tmp_path):
        # Uncited articles of one journal tie down to the id, and "é" sorts
        # after "a", so the non-ASCII id is past the first chunk of each table.
        ids = [f"a-{k:04d}" for k in range(2048)] + ["é-1"]
        argv = make_corpus(tmp_path, 3, {"home": "2.0"},
                           "article_id,journal,publication_date\n"
                           + "".join(f"{i},home,2015-01-01\n" for i in ids), [])
        code, out, _ = run(capsys, "rank", *argv, "--matthew")
        assert code == 0
        assert [n for n, line in enumerate(out.splitlines()) if "é" in line] == [2049, 4101]
        assert ascii_stdout_run(monkeypatch, "rank", *argv, "--matthew") == (1, b"")
        assert capsys.readouterr().err.startswith("error: 'ascii' codec can't encode")

    def test_unencodable_second_table_leaves_stdout_empty(self, capsys, monkeypatch, data):
        # The first table encodes, so only the check before writing keeps it off stdout.
        matthew_to_csv = cli.matthew_to_csv
        monkeypatch.setattr(cli, "matthew_to_csv", lambda summary: matthew_to_csv(summary) + "é\n")
        assert ascii_stdout_run(monkeypatch, "rank", *data, "--matthew") == (1, b"")
        assert capsys.readouterr().err.startswith("error: 'ascii' codec can't encode")

    def test_a_failure_after_the_first_table_leaves_stdout_empty(self, capsys, monkeypatch,
                                                                 data):
        tables, reports_to_csv = [], cli.reports_to_csv

        def refuse(summary):
            raise ValueError(f"refused after {len(tables)} table")

        monkeypatch.setattr(cli, "reports_to_csv",
                            lambda ranked: tables.append(reports_to_csv(ranked)) or tables[-1])
        monkeypatch.setattr(cli, "matthew_to_csv", refuse)
        code, out, err = run(capsys, "rank", *data, "--matthew")
        assert code == 1 and out == ""
        assert err == "error: refused after 1 table\n"


# -- dynamics ----------------------------------------------------------

class TestDynamics:
    def test_default_years(self, capsys, data):
        code, out, _ = run(capsys, "dynamics", *data, "a-1")
        assert code == 0
        assert [r["t"] for r in csv_rows(out)] == ["1", "5", "10"]

    def test_custom_years_json(self, capsys, data):
        code, out, _ = run(capsys, "dynamics", *data, "a-1",
                           "--years", "1,2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["article_id"] == "a-1"
        assert [p["t"] for p in obj["series"]] == [1, 2]
        assert obj["series"][-1]["cr_integral"] <= 1.0

    def test_trajectory_is_monotone(self, capsys, reference_corpus):
        # Single-year impact factors, so the trajectory must close at 1.
        code, out, _ = run(capsys, "dynamics", *reference_corpus, "a-1",
                           "--years", "1,2,3,20")
        assert code == 0
        series = [float(r["i3_t"]) for r in csv_rows(out)]
        assert series == sorted(series)
        assert csv_rows(out)[-1]["cr_simple"] == "1.000000"
        assert csv_rows(out)[-1]["cr_integral"] == "1.000000"

    def test_if_history_keeps_final_ratio_below_one(self, capsys, data):
        # The window score uses event-year impact factors while the full
        # score uses the newest ones, so a rising history never closes.
        code, out, _ = run(capsys, "dynamics", *data, "a-1",
                           "--years", "1,2,3,20")
        assert code == 0
        last = csv_rows(out)[-1]
        assert float(last["cr_simple"]) < 1.0

    def test_bad_years_rejected(self, capsys, data):
        code, _, err = run(capsys, "dynamics", *data, "a-1", "--years", "1,x")
        assert code == 1
        assert "--years" in err

    def test_if_mode_is_refused(self, capsys, data):
        # The modes of a trajectory are fixed; the flag used to be accepted and ignored.
        code, out, err = run(capsys, "dynamics", *data, "a-1",
                             "--if-mode", "historical", "--fallback-if", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--if-mode" in err

    def test_unknown_article(self, capsys, data):
        code, _, err = run(capsys, "dynamics", *data, "a-99")
        assert code == 1
        assert "unknown article id" in err

    def test_integral_ratio_undefined_when_area_underflows(self, capsys, tmp_path):
        # i3 = 1.06e-201 is positive, but the area under the curve
        # underflows to 0.0, so only the simple ratio is defined.
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "c,J,,2010,1e-200\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,J,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n")]
        code, out, err = run(capsys, "dynamics", *corpus, "a")
        assert (code, err) == (0, "")
        assert [(r["cr_simple"], r["cr_integral"]) for r in csv_rows(out)] == \
            [("1.000000", "NA")] * 3
        code, out, _ = run(capsys, "dynamics", *corpus, "a", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["auc_full"] == 0.0 and obj["i3_full"] > 0.0
        assert [p["cr_integral"] for p in obj["series"]] == [None] * 3

    @pytest.mark.parametrize("current_if, undefined", [
        ("1e-320", ["cr_simple", "cr_integral"]),
        ("1e-306", ["cr_integral"]),
    ], ids=["subnormal-index", "subnormal-area"])
    def test_ratio_undefined_when_quotient_overflows(self, capsys, tmp_path,
                                                     current_if, undefined):
        # The window uses the 2012 IF of 1.0, the full score the tiny
        # current one, so dividing by the full-history value overflows.
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     f"c,J,,2010,1.0\nc,J,,2020,{current_if}\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,J,2012-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n"
                                       "a,J,2012-06-01\n")]
        code, out, err = run(capsys, "dynamics", *corpus, "a", "--years", "1")
        assert (code, err) == (0, "")
        [row] = csv_rows(out)
        assert [name for name in ("cr_simple", "cr_integral") if row[name] == "NA"] == undefined
        code, out, err = run(capsys, "dynamics", *corpus, "a", "--years", "1", "--format", "json")
        assert (code, err) == (0, "")

        def refuse(constant):
            raise AssertionError(f"non-finite JSON number {constant}")

        [point] = json.loads(out, parse_constant=refuse)["series"]
        assert [name for name in ("cr_simple", "cr_integral") if point[name] is None] == undefined
        # A defined ratio this large prints in CSV as JSON spells it.
        assert [row[name] for name in ("cr_simple", "cr_integral")] == \
            ["NA" if point[name] is None else repr(point[name])
             for name in ("cr_simple", "cr_integral")]


# -- calibrate ---------------------------------------------------------

class TestCalibrate:
    def test_solves_for_target_and_fscore(self, capsys):
        code, out, err = run(capsys, "calibrate",
                             "--target", "0.90", "--fscore", "2000")
        assert code == 0 and err == ""
        assert out == "0.00115129255\n"

    def test_derives_from_category_size(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--phi", "61")
        assert code == 0
        assert out == "0.00173939829\n"

    def test_size_one_prints_the_base_rate(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--phi", "1")
        assert code == 0
        assert out == "0.106103295\n"

    def test_module_form_runs_the_command(self):
        # ``python -m i3metrics.cli`` must do what the console script does.
        src = str(Path(i3metrics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "i3metrics.cli", "calibrate", "--phi", "1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0.106103295\n", "")

    def test_modes_are_exclusive(self, capsys):
        code, _, err = run(capsys, "calibrate", "--phi", "5",
                           "--target", "0.9", "--fscore", "100")
        assert code == 1
        assert "one mode" in err

    def test_some_mode_is_required(self, capsys):
        code, _, err = run(capsys, "calibrate")
        assert code == 1
        assert "calibrate needs" in err

    def test_target_alone_is_incomplete(self, capsys):
        code, _, err = run(capsys, "calibrate", "--target", "0.9")
        assert code == 1
        assert "calibrate needs" in err

    def test_rejects_nonpositive_phi(self, capsys):
        code, _, err = run(capsys, "calibrate", "--phi", "0")
        assert code == 1
        assert "phi" in err

    def test_rejects_degenerate_target(self, capsys):
        code, _, err = run(capsys, "calibrate", "--target", "1.0",
                           "--fscore", "2000")
        assert code == 1

    def test_rejects_non_finite_fscore(self, capsys):
        code, out, err = run(capsys, "calibrate", "--target", "0.9",
                             "--fscore", "inf")
        assert code == 1 and out == ""
        assert "citation mass" in err


# -- curves ------------------------------------------------------------

class TestCurves:
    def test_two_sample_endpoints(self, capsys):
        code, out, _ = run(capsys, "curves", "--beta", "0.001",
                           "--max-f", "5000", "--samples", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f(beta=0.001),i3(beta=0.001)"
        assert lines[1] == "0.000000,0.000000"
        assert lines[2] == f"5000.000000,{compute_i3(5000.0, 0.001):.6f}"

    def test_one_column_pair_per_coefficient(self, capsys):
        code, out, _ = run(capsys, "curves", "--beta", "0.001,0.002",
                           "--samples", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].count("beta=") == 4
        assert all(line.count(",") == 3 for line in lines)
        assert len(lines) == 4

    def test_default_sampling(self, capsys):
        code, out, _ = run(capsys, "curves", "--beta", "0.0011532967")
        assert code == 0
        assert len(out.splitlines()) == 102

    def test_bad_beta_list(self, capsys):
        code, _, err = run(capsys, "curves", "--beta", "x")
        assert code == 1
        assert "--beta" in err

    def test_empty_beta_list(self, capsys):
        code, out, err = run(capsys, "curves", "--beta", ",")
        assert (code, out) == (1, "")
        assert err == "error: --beta expects at least one value\n"

    def test_nonpositive_beta(self, capsys):
        code, _, err = run(capsys, "curves", "--beta", "-0.5")
        assert code == 1

    def test_huge_max_f_prints_as_json_spells_it(self, capsys):
        code, out, err = run(capsys, "curves", "--beta", "0.001",
                             "--max-f", "1e300", "--samples", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["0.000000,0.000000", "1e+300,1.000000"]

    def test_infinite_max_f_names_f_max(self, capsys):
        code, out, err = run(capsys, "curves", "--beta", "0.001", "--max-f", "inf")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "f_max" in err

    def test_too_few_samples(self, capsys):
        code, _, err = run(capsys, "curves", "--beta", "0.001",
                           "--samples", "1")
        assert code == 1
        assert "samples" in err


# -- gen ---------------------------------------------------------------

class TestGen:
    def test_writes_three_files_and_prints_paths(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, err = run(capsys, "gen", "--articles", "5",
                             "--categories", "2", "--seed", "3",
                             "--out", str(out_dir))
        assert code == 0 and err == ""
        paths = out.splitlines()
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "catalog.csv", "articles.csv", "citations.csv"]
        for p in paths:
            assert (out_dir / p.rsplit("/", 1)[-1]).is_file()

    def test_generated_corpus_feeds_the_scorer(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        run(capsys, "gen", "--articles", "4", "--categories", "1",
            "--seed", "11", "--out", str(out_dir))
        code, out, _ = run(
            capsys, "score", "--all",
            "--catalog", str(out_dir / "catalog.csv"),
            "--articles", str(out_dir / "articles.csv"),
            "--citations", str(out_dir / "citations.csv"))
        assert code == 0
        assert len(csv_rows(out)) == 4

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        for name in ("one", "two"):
            run(capsys, "gen", "--articles", "6", "--categories", "2",
                "--seed", "9", "--out", str(tmp_path / name))
        for filename in ("catalog.csv", "articles.csv", "citations.csv"):
            first = (tmp_path / "one" / filename).read_bytes()
            second = (tmp_path / "two" / filename).read_bytes()
            assert first == second

    def test_rejects_zero_counts(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--articles", "0",
                           "--categories", "2", "--seed", "1",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "at least 1" in err


# -- catalog-stats -----------------------------------------------------

class TestCatalogStats:
    def test_csv_summary(self, capsys, data):
        code, out, _ = run(capsys, "catalog-stats", "--catalog", data[1])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "category,phi,beta,mean_if"
        assert lines[1] == f"bio,3,{BETA_3:.9g},1.500000"
        assert lines[2] == "mean_phi,3.000000"
        assert lines[3] == "mean_if,1.500000"

    def test_json_summary(self, capsys, data):
        code, out, _ = run(capsys, "catalog-stats", "--catalog", data[1],
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["categories"][0]["category"] == "bio"
        assert obj["categories"][0]["phi"] == 3
        assert obj["mean_if"] == 1.5

    def test_category_with_comma_is_quoted(self, capsys, quoted):
        code, out, _ = run(capsys, "catalog-stats", "--catalog", quoted[1])
        assert code == 0
        assert parse_csv(out)[1] == ["Biology, Marine", "1", f"{compute_beta(1):.9g}",
                                     "2.000000"]

    def test_missing_catalog(self, capsys, tmp_path):
        code, _, err = run(capsys, "catalog-stats",
                           "--catalog", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "cannot read" in err


# -- parser plumbing ---------------------------------------------------

class TestParsing:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag(self, capsys, data):
        code, _, err = run(capsys, "score", "--articles", data[3],
                           "--citations", data[5], "a-1")
        assert code == 1
        assert "required" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "score" in out and "calibrate" in out

    def test_data_flag_help_names_the_file_headers(self, capsys):
        with pytest.raises(SystemExit):
            main(["rank", "--help"])
        out = " ".join(capsys.readouterr()[0].split())
        for help_text in ("journal catalog CSV (category,journal,issn,year,impact_factor)",
                          "articles CSV (article_id,journal,publication_date)",
                          "citations CSV (article_id,citing_journal,citation_date)"):
            assert help_text in out

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--phi", "1_0"], "argument --phi: invalid int value: '1_0'"),
        (["calibrate", "--target", "0_5", "--fscore", "1"],
         "argument --target: invalid float value: '0_5'"),
        (["calibrate", "--target", "0.5", "--fscore", "\uff11"],
         "argument --fscore: invalid float value: '\uff11'"),
        (["curves", "--beta", "1_0"], "--beta expects comma-separated numbers, got '1_0'"),
        (["curves", "--beta", "1", "--max-f", "\uff15"],
         "argument --max-f: invalid float value: '\uff15'"),
        (["curves", "--beta", "1", "--samples", "1_0"],
         "argument --samples: invalid int value: '1_0'"),
        (["gen", "--articles", "\u0663", "--categories", "1", "--seed", "1", "--out", "x"],
         "argument --articles: invalid int value: '\u0663'"),
        (["gen", "--articles", "3", "--categories", "1_0", "--seed", "1", "--out", "x"],
         "argument --categories: invalid int value: '1_0'"),
        (["gen", "--articles", "3", "--categories", "1", "--seed", "\uff11", "--out", "x"],
         "argument --seed: invalid int value: '\uff11'"),
    ], ids=["phi", "target", "fscore", "beta", "max-f", "samples", "articles", "categories",
            "seed"])
    def test_numeric_flags_take_ascii_digits_only(self, capsys, argv, message):
        # The same grammar as catalog cells: no digit separators, no non-ASCII digits.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"



# -- error contract ----------------------------------------------------

class TestCollector:
    """``main`` runs without the cyclic collector and leaves it as it found it."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if enabled else gc.disable)()

    def ghost(self, tmp_path, data):
        argv = list(data)
        argv[5] = write(tmp_path / "ghost.csv", GHOST_CITATIONS)
        return argv

    @pytest.mark.parametrize("expected", [0, 1, 2])
    def test_state_is_restored(self, capsys, tmp_path, data, collector, expected):
        argv = {0: ["score", *data, "a-1"],
                1: ["score", *data, "a-9"],
                2: ["score", *self.ghost(tmp_path, data), "a-1"]}[expected]
        seen = []
        handler = cli._cmd_score

        def spy(args):
            seen.append(gc.isenabled())
            return handler(args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cmd_score", spy)
            code, _, _ = run(capsys, *argv)
        assert code == expected
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_state_is_restored_on_system_exit(self, capsys, collector):
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert gc.isenabled() is collector


class TestErrorLines:
    @pytest.mark.parametrize("name, text, message", [
        ("catalog.csv",
         "category,journal,issn,year,impact_factor\n"
         '"bio\nmarine",Delta Review,,2010,1.0\n'
         "bio,Alpha Letters,1234-5679,2010,2.0\n"
         "bio,Beta Annals,,20x0,1.0\n",
         "year must be"),
        ("articles.csv",
         "article_id,journal,publication_date\n"
         '"a\nb",Alpha Letters,2015-01-01\n'
         "c,Beta Annals,2015-01-01\n"
         "c,Beta Annals,2015-01-01\n",
         "duplicate article id 'c'"),
        ("citations.csv",
         "article_id,citing_journal,citation_date\n"
         'a-1,"Beta\nAnnals",2012-01-01\n'
         "a-1,Gamma Reports,2013-06-15\n"
         "a-1,Beta Annals,2013-13-01\n",
         "2013-13-01"),
    ], ids=["catalog", "articles", "citations"])
    def test_loader_errors_name_the_physical_line(self, capsys, data, tmp_path,
                                                  name, text, message):
        # The first data record spans lines 2-3, so the bad one is on line 5.
        path = write(tmp_path / name, text)
        code, out, err = run(capsys, "score", "--all", *data)
        assert code == 1 and out == ""
        assert f"{path} line 5: " in err and message in err

    def test_a_repeated_malformed_date_names_its_first_line(self, capsys, data, tmp_path):
        path = write(tmp_path / "articles.csv",
                     "article_id,journal,publication_date\n"
                     "a-1,Alpha Letters,2011-05-01\n"
                     "a-2,Beta Annals,2011-13-01\n"
                     "a-3,Beta Annals,2011-13-01\n")
        code, out, err = run(capsys, "score", "--all", *data)
        assert code == 1 and out == ""
        assert f"{path} line 3: malformed date '2011-13-01'" in err

    @pytest.mark.parametrize("name, text, message", [
        ("articles.csv", ARTICLES + ",Alpha Letters,2011-05-01\n", "line 4: empty article id"),
        ("articles.csv", ARTICLES + "a-3,,2011-05-01\n", "line 4: empty journal"),
        ("citations.csv", CITATIONS + "a-1,,2012-01-01\n", "line 5: empty citing journal"),
    ], ids=["article-id", "journal", "citing-journal"])
    def test_empty_key_cells_are_refused(self, capsys, data, tmp_path, name, text, message):
        path = write(tmp_path / name, text)
        code, out, err = run(capsys, "score", "--all", *data)
        assert (code, out) == (1, "")
        assert err == f"error: {path} {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["score", "--all", "--as-of", "99999999999999999999"], "after year 9999"),
        (["score", "--all", "--as-of", "9000"], "as_of 9000 ends the citation window of article 'a-1'"),
        (["dynamics", "a-1", "--years", "99999999999999999999"], "after year 9999"),
        (["calibrate", "--phi", "1" + "0" * 400], "phi must be representable"),
        (["calibrate", "--target", "0.5", "--fscore", "1e-320"], "no finite positive beta"),
        (["calibrate", "--target", "1e-300", "--fscore", "1e300"], "no finite positive beta"),
        (["curves", "--beta", "inf"], "beta must be > 0 and finite"),
    ], ids=["as-of-overflow", "as-of-past-9999", "years-overflow", "huge-phi",
            "beta-overflow", "beta-underflow", "infinite-beta"])
    def test_out_of_range_numbers_are_input_errors(self, capsys, data, argv, message):
        if argv[0] in ("score", "dynamics"):
            argv = argv[:1] + data + argv[1:]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize("argv", [
        ["score", "--all"], ["score", "--all", "--format", "json"],
        ["rank", "--if-mode", "historical"], ["dynamics", "a"],
        ["dynamics", "b", "--years", "1,2,3"],
    ], ids=["score-csv", "score-json", "rank", "dynamics-full", "dynamics-window"])
    def test_overflowing_masses_are_refused(self, capsys, tmp_path, argv):
        # Two citations at IF 1e308 sum to inf.  For b only the 2010 IFs
        # do, so the full mass at current IFs is finite and year 3 fails.
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "c,J,,2010,1e308\nc,J,,2020,1.0\nc,K,,2010,1e308\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,K,2011-01-01\nb,K,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n"
                                       "a,K,2012-01-01\na,K,2013-01-01\n"
                                       "b,J,2012-06-01\nb,J,2013-06-01\n")]
        code, out, err = run(capsys, *argv, *corpus)
        assert (code, out) == (1, "")
        assert err.startswith("error: article '") and err.count("\n") == 1
        assert "citation mass overflows a double" in err

    def test_catalog_means_stay_finite(self, capsys, tmp_path):
        catalog = write(tmp_path / "catalog.csv", "category,journal,issn,year,impact_factor\n"
                        "c,J,,2010,1e308\nc,K,,2010,1e308\n")
        code, out, _ = run(capsys, "catalog-stats", "--catalog", catalog, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["mean_if"] == obj["categories"][0]["mean_if"] == 1e308

    @pytest.mark.parametrize("argv", [
        ["score", "--all"], ["score", "b", "--format", "json"], ["rank"],
        ["dynamics", "b"],
    ], ids=["score-all", "score-id", "rank", "dynamics"])
    def test_uncatalogued_publishing_journal_names_the_article(self, capsys, tmp_path, argv):
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "c,J,,2010,1.0\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,J,2011-01-01\nb, Missing Journal ,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n"
                                       "a,J,2012-01-01\n"),
                  "--fallback-if", "1"]
        code, out, err = run(capsys, *argv, *corpus)
        assert (code, out) == (2, "")
        assert err == "error: article 'b': journal 'Missing Journal' not in catalog\n"


class TestUnreadableFiles:
    """Cells csv cannot hold and bytes UTF-8 cannot decode are input errors naming the file."""

    @pytest.mark.parametrize("flag, row, line", [
        ("--catalog", "bio,{},,2010,1.0", 6),
        ("--articles", "a-3,{},2011-05-01", 4),
        ("--citations", "a-1,{},2012-01-01", 5),
    ], ids=["catalog", "articles", "citations"])
    def test_a_cell_over_the_field_limit_names_its_line(self, capsys, data, flag, row, line):
        path = Path(data[data.index(flag) + 1])
        with open(path, "a", encoding="utf-8", newline="") as handle:
            handle.write(row.format("x" * 200_000) + "\n")
        code, out, err = run(capsys, "score", "--all", *data)
        assert (code, out) == (1, "")
        assert err == (f"error: {path} line {line}: "
                       f"field larger than field limit ({csv.field_size_limit()})\n")

    @pytest.mark.parametrize("flag, row", [
        ("--catalog", b"bio,Delta\xffReview,,2010,1.0\n"),
        ("--articles", b"a-3,Alpha Letters,2011-05-01\xff\n"),
        ("--citations", b"\xff-1,Beta Annals,2012-01-01\n"),
    ], ids=["catalog", "articles", "citations"])
    def test_a_byte_that_is_not_utf8_names_the_file(self, capsys, data, flag, row):
        path = Path(data[data.index(flag) + 1])
        with open(path, "ab") as handle:
            handle.write(row)
        code, out, err = run(capsys, "score", "--all", *data)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not valid UTF-8 (invalid start byte: 0xff)\n"

    # One NUL per case, each in a cell no earlier check of its row reads.
    @pytest.mark.parametrize("flag, old, new, line", [
        ("--articles", "a-2,", "a\0-2,", 3),
        ("--articles", "Beta Annals,", "Beta\0Annals,", 3),
        ("--articles", "2011-05-01", "2011-05\0-01", 2),
        ("--citations", "a-2,", "a-2\0,", 4),
        ("--citations", "a-1,Beta Annals", "a-1,Beta Annals\0", 2),
        ("--citations", "2013-06-15", "\x002013-06-15", 3),
        ("--catalog", "bio,Gamma", "b\0io,Gamma", 5),
        ("--citations", "citing_journal", "citing\0journal", 1),
        ("--articles", "a-2,Beta Annals,", 'a-2,"Beta\nAnn\0als",', 3),
    ], ids=["article-id", "article-journal", "article-date", "citation-id",
            "citation-journal", "citation-date", "catalog-cell", "header-cell",
            "quoted-second-line"])
    def test_a_nul_is_refused_on_every_interpreter(self, capsys, data, flag, old, new, line):
        # csv.reader refuses a NUL before Python 3.11 and reads it as data
        # from then on; the loaders refuse it in the same words either way.
        path = Path(data[data.index(flag) + 1])
        text = path.read_text(encoding="utf-8")
        assert text.count(old) >= 1
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        code, out, err = run(capsys, "score", "--all", *data)
        assert (code, out) == (1, "")
        assert err == f"error: {path} line {line}: line contains NUL\n"


class TestErrorOrder:
    """Flags are checked before any file is read; then f_score's order holds."""

    def test_bad_as_of_before_uncatalogued_publishing_journal(self, capsys, tmp_path):
        corpus = ["--catalog", write(tmp_path / "catalog.csv",
                                     "category,journal,issn,year,impact_factor\n"
                                     "c,J,,2010,1.0\n"),
                  "--articles", write(tmp_path / "articles.csv",
                                      "article_id,journal,publication_date\n"
                                      "a,Missing Journal,2011-01-01\n"),
                  "--citations", write(tmp_path / "citations.csv",
                                       "article_id,citing_journal,citation_date\n")]
        code, out, err = run(capsys, "score", "a", "--as-of", "-1", *corpus)
        assert (code, out) == (1, "")
        assert err == "error: as_of must be a whole number of years >= 0, got -1\n"

    @pytest.mark.parametrize("argv, message", [
        (["score", "--all", "a-1"], "pass explicit article ids or --all, not both"),
        (["dynamics", "X", "--years", "1,x"],
         "--years expects comma-separated integers, got '1,x'"),
        (["score", "--as-of", "-1"], "as_of must be a whole number of years >= 0, got -1"),
        (["rank", "--as-of", "-1"], "as_of must be a whole number of years >= 0, got -1"),
        (["dynamics", "X", "--years", "5,1"], "years must be strictly ascending, got [5, 1]"),
        (["dynamics", "X", "--years", "0,5"], "years must be positive integers, got [0, 5]"),
        (["dynamics", "X", "--years", ","], "years must not be empty"),
        (["dynamics", "X", "--years", "1,1"], "years must be strictly ascending, got [1, 1]"),
        (["score", "--as-of", "1.5"], "argument --as-of: invalid int value: '1.5'"),
        (["rank", "--as-of", "1.5"], "argument --as-of: invalid int value: '1.5'"),
        (["score", "--fallback-if", "abc"], "argument --fallback-if: expects a number, got 'abc'"),
    ] + [
        ([*command, "--fallback-if", value],
         f"argument --fallback-if: must be finite and non-negative, got {value!r}")
        for command in (["score"], ["rank"], ["dynamics", "X"])
        for value in ("inf", "nan", "-1")
    ] + [
        (["score", "--as-of", "1_0"], "argument --as-of: invalid int value: '1_0'"),
        (["score", "--as-of", "\uff11"], "argument --as-of: invalid int value: '\uff11'"),
        (["score", "--as-of", "\u0663"], "argument --as-of: invalid int value: '\u0663'"),
        (["dynamics", "X", "--years", "1_0,\uff12\uff10"],
         "--years expects comma-separated integers, got '1_0,\uff12\uff10'"),
        (["score", "--fallback-if", "1_0"], "argument --fallback-if: expects a number, got '1_0'"),
        (["score", "--fallback-if", "\uff11.\uff15"],
         "argument --fallback-if: expects a number, got '\uff11.\uff15'"),
    ], ids=["score-all-with-ids", "dynamics-years", "score-negative-as-of",
            "rank-negative-as-of", "dynamics-years-descending", "dynamics-years-zero",
            "dynamics-years-empty", "dynamics-years-repeated", "score-fractional-as-of",
            "rank-fractional-as-of", "score-fallback-if-not-a-number"] + [
        f"{command}-fallback-if-{value}"
        for command in ("score", "rank", "dynamics") for value in ("inf", "nan", "-1")
    ] + ["score-as-of-separator", "score-as-of-full-width", "score-as-of-arabic-indic",
         "dynamics-years-non-ascii", "score-fallback-if-separator",
         "score-fallback-if-full-width"])
    def test_flag_errors_before_reading_files(self, capsys, data, tmp_path, argv, message):
        corpus = list(data)
        corpus[3] = str(tmp_path / "absent.csv")  # --articles
        code, out, err = run(capsys, *argv, *corpus)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
