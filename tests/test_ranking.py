"""Tests for scoring, ranking, serialization, and ranking-divergence reports."""

import csv
import io
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from i3metrics import formats, ledger as ledger_module, ranking
from i3metrics.catalog import load_catalog
from i3metrics.core import compute_beta, compute_i3, i3_auc
from i3metrics.errors import InputError
from i3metrics.formats import csv_cell, csv_text, fmt_beta, fmt_score
from i3metrics.ledger import citation_count, f_score, load_ledger
from i3metrics.ranking import (
    MATTHEW_HEADER,
    REPORT_HEADER,
    Ranking,
    ScoreReport,
    assign_ranks,
    matthew_comparison,
    matthew_to_csv,
    rank,
    rank_to_json,
    ranked_rows,
    reports_to_csv,
    reports_to_json,
    score_articles,
)

BETA = 0.00115129


def _index_key(report):
    """The index order as one tuple: the reference that ``rank()``'s column sorts must match."""
    # Index quantized to 1e-12; exact AUC separates near-asymptote ties.
    return (
        -round(report.i3, 12),
        -i3_auc(report.f_score, report.beta),
        -report.citation_count,
        report.article_id,
    )


def _citation_key(report):
    """The citation-count order as one tuple."""
    return (-report.citation_count, report.article_id)


def report(article_id, f, beta=BETA, category="c", phi=92, citations=0):
    return ScoreReport(
        article_id=article_id,
        category=category,
        phi=phi,
        beta=beta,
        f_score=f,
        i3=compute_i3(f, beta),
        citation_count=citations,
    )


@dataclass(frozen=True)
class RankedReport:
    report: ScoreReport
    rank_i3: int
    rank_citations: int


def reference_rank(reports):
    """Plain reference for rank(): sort both ways, copy each report with its ranks."""
    by_citations = sorted(reports, key=_citation_key)
    citation_rank = {r.article_id: i for i, r in enumerate(by_citations, start=1)}
    return [RankedReport(r, i, citation_rank[r.article_id])
            for i, r in enumerate(sorted(reports, key=_index_key), start=1)]


# Pools small enough that draws collide: equal masses, equal
# coefficients, equal counts, and masses whose index saturates (1e6
# gives exactly 1.0; 4e4 and 1e5 round to the same index at 1e-12).
TIE_MASSES = [0.0, 6.0, 15.517, math.nextafter(15.517, math.inf), 4e4, 1e5, 1e6]
TIE_BETAS = [BETA, 0.003, compute_beta(98)]

tied_reports = st.lists(
    st.tuples(st.text(alphabet="abc", min_size=1, max_size=3),
              st.sampled_from(TIE_MASSES) | st.floats(min_value=0.0, max_value=1e6),
              st.sampled_from(TIE_BETAS),
              st.integers(min_value=0, max_value=3)),
    max_size=30, unique_by=lambda row: row[0],
).map(lambda rows: [report(article_id, f, beta=beta, citations=n)
                    for article_id, f, beta, n in rows])


def tuple_sort_rank(reports):
    """``rank()`` written as one tuple sort per order, as the reference for its column sorts."""
    ranked = Ranking(sorted(reports, key=_index_key))
    keys = [_citation_key(r) for r in ranked]
    ranks = ranked.rank_citations = [0] * len(ranked)
    for position, k in enumerate(sorted(range(len(ranked)), key=keys.__getitem__), start=1):
        ranks[k] = position
    return ranked


# Few ids, so that reports of one id often tie on (citations, id) and only
# their index position tells their citation ranks apart.
repeated_id_reports = st.lists(
    st.tuples(st.text(alphabet="ab", min_size=1, max_size=2),
              st.sampled_from(TIE_MASSES) | st.floats(min_value=0.0, max_value=1e6),
              st.sampled_from(TIE_BETAS),
              st.integers(min_value=0, max_value=3)),
    max_size=30,
).map(lambda rows: [report(article_id, f, beta=beta, citations=n)
                    for article_id, f, beta, n in rows])


class TestRank:
    @given(repeated_id_reports)
    def test_matches_the_tuple_sort_with_repeated_ids(self, reports):
        ranked, expected = rank(reports), tuple_sort_rank(reports)
        assert len(ranked) == len(expected)
        assert all(r is e for r, e in zip(ranked, expected))
        assert ranked.rank_citations == expected.rank_citations

    def test_each_area_is_computed_once_per_mass_and_coefficient(self, monkeypatch):
        calls = Counter()

        def counted(f, beta):
            calls[f, beta] += 1
            return i3_auc(f, beta)

        monkeypatch.setattr(ranking, "i3_auc", counted)
        pairs = [(6.0, BETA), (0.0, BETA), (6.0, BETA), (6.0, 0.003), (0.0, BETA), (6.0, BETA)]
        ranked = rank([report(f"a-{k}", f, beta=beta) for k, (f, beta) in enumerate(pairs)])
        assert calls == {(6.0, BETA): 1, (0.0, BETA): 1, (6.0, 0.003): 1}
        assert [r.article_id for r in ranked] == ["a-3", "a-0", "a-2", "a-5", "a-1", "a-4"]

    def test_larger_mass_outranks(self):
        ranked = rank([report("low", 10.0), report("high", 20.0)])
        assert [(r.article_id, i) for r, i, _ in ranked_rows(ranked)] == [("high", 1), ("low", 2)]

    @given(tied_reports)
    def test_matches_the_reference_ranking(self, reports):
        ranked = rank(reports)
        expected = reference_rank(reports)
        assert isinstance(ranked, Ranking) and len(ranked) == len(reports)
        assert [r.article_id for r in ranked] == [e.report.article_id for e in expected]
        assert all(r is e.report for r, e in zip(ranked, expected))
        assert [(i, c) for _, i, c in ranked_rows(ranked)] == \
            [(e.rank_i3, e.rank_citations) for e in expected]
        by_id = {e.report.article_id: (e.rank_i3, e.rank_citations) for e in expected}
        assert assign_ranks(reports) == [by_id[r.article_id] for r in reports]

    def test_empty_input(self):
        assert rank([]) == []

    def test_auc_breaks_saturated_ties(self):
        # Both scores round to the same double just under 1; the
        # article with more area under its curve wins.
        a = report("deep", 1e5, beta=0.00115129)
        b = report("shallow", 4e4, beta=0.003)
        assert round(a.i3, 12) == round(b.i3, 12)
        ranked = rank([b, a])
        assert [r.article_id for r in ranked] == ["deep", "shallow"]

    def test_citation_count_breaks_exact_ties(self):
        # Same mass and coefficient, so index and area agree; the raw
        # count decides.
        a = report("few", 6.0, citations=1)
        b = report("many", 6.0, citations=2)
        assert [r.article_id for r in rank([a, b])] == ["many", "few"]

    def test_article_id_is_final_tie_break(self):
        a = report("b-side", 6.0, citations=1)
        b = report("a-side", 6.0, citations=1)
        assert [r.article_id for r in rank([a, b])] == ["a-side", "b-side"]

    def test_rank_columns_are_permutations(self):
        rng = random.Random(11)
        reports = [report(f"a-{k:03d}", rng.uniform(0.0, 5000.0),
                          citations=rng.randrange(100))
                   for k in range(100)]
        ranked = rank(reports)
        assert sorted(i for _, i, _ in ranked_rows(ranked)) == list(range(1, 101))
        assert sorted(ranked.rank_citations) == list(range(1, 101))

    def test_order_matches_descending_mass_within_category(self):
        rng = random.Random(12)
        reports = [report(f"a-{k:03d}", rng.uniform(0.0, 5000.0))
                   for k in range(100)]
        ranked = rank(reports)
        masses = [r.f_score for r in ranked]
        assert masses == sorted(masses, reverse=True)

    def test_input_order_is_irrelevant(self):
        rng = random.Random(13)
        reports = [report(f"a-{k:03d}", rng.uniform(0.0, 5000.0),
                          citations=rng.randrange(50))
                   for k in range(40)]
        shuffled = reports[:]
        rng.shuffle(shuffled)
        assert rank(reports) == rank(shuffled)
        assert rank(reports).rank_citations == rank(shuffled).rank_citations

    def test_assign_ranks_preserves_input_order(self):
        reports = [report("x", 10.0), report("y", 20.0)]
        # (rank_i3, rank_citations) per report; the counts tie, so ids decide the latter.
        assert assign_ranks(reports) == [(2, 1), (1, 2)]

    def test_cross_category_ranking_is_permitted(self):
        mixed = [report("a", 100.0, beta=0.002, category="small", phi=53),
                 report("b", 100.0, beta=0.0005, category="large", phi=212)]
        ranked = rank(mixed)
        assert [r.article_id for r in ranked] == ["a", "b"]


class TestScoreArticles:
    CATALOG = """\
category,journal,issn,year,impact_factor
c,home,,2010,2.0
c,cite,,2010,4.0
"""
    ARTICLES = """\
article_id,journal,publication_date
a-1,home,2015-01-01
a-2,home,2016-01-01
"""
    CITATIONS = """\
article_id,citing_journal,citation_date
a-1,cite,2015-06-01
a-1,cite,2017-06-01
"""

    def load(self):
        catalog = load_catalog(io.StringIO(self.CATALOG))
        ledger = load_ledger(io.StringIO(self.ARTICLES),
                             io.StringIO(self.CITATIONS))
        return catalog, ledger

    def test_scores_all_by_default_in_ledger_order(self):
        catalog, ledger = self.load()
        reports = score_articles(ledger, catalog)
        assert [r.article_id for r in reports] == ["a-1", "a-2"]
        assert reports[0].f_score == 10.0
        assert reports[0].citation_count == 2
        assert [line[-2:] for line in reports_to_csv(reports).splitlines()[1:]] == [",,", ",,"]
        assert [(obj["rank_i3"], obj["rank_citations"])
                for obj in json.loads(reports_to_json(reports))] == [(None, None)] * 2
        assert reports[1].f_score == 2.0

    def test_respects_request_order(self):
        catalog, ledger = self.load()
        reports = score_articles(ledger, catalog, ["a-2", "a-1"])
        assert [r.article_id for r in reports] == ["a-2", "a-1"]

    def test_truncation_flows_through(self):
        catalog, ledger = self.load()
        truncated = score_articles(ledger, catalog, ["a-1"], as_of=1)[0]
        assert truncated.f_score == 6.0
        assert truncated.citation_count == 1

    @pytest.mark.parametrize("as_of", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("if_mode", ["current", "historical"])
    def test_counts_are_those_of_citation_count(self, as_of, if_mode):
        catalog, ledger = self.load()
        reports = score_articles(ledger, catalog, as_of=as_of, if_mode=if_mode)
        assert [r.citation_count for r in reports] == \
            [citation_count(ledger, a, as_of=as_of) for a in ledger.articles]

    def test_options_are_checked_once_beyond_each_f_score(self, monkeypatch):
        catalog, ledger = self.load()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        check = ledger_module.check_scoring
        monkeypatch.setattr(ledger_module, "check_scoring", counted)
        monkeypatch.setattr(ranking, "check_scoring", counted)
        f_score(ledger, catalog, "a-1", as_of=1)
        per_article, calls[:] = len(calls), []
        score_articles(ledger, catalog, ["a-1", "a-2"], as_of=1)
        assert len(calls) == 1 + 2 * per_article

    def test_unknown_article(self):
        catalog, ledger = self.load()
        with pytest.raises(InputError, match="unknown article"):
            score_articles(ledger, catalog, ["ghost"])

    def test_category_metadata_attached(self):
        catalog, ledger = self.load()
        r = score_articles(ledger, catalog, ["a-1"])[0]
        assert (r.category, r.phi) == ("c", 2)
        assert r.beta == catalog.beta_for("c")

    @pytest.mark.parametrize("ids", [[], ["a-1"], ["ghost"]], ids=["no-ids", "one", "unknown"])
    @pytest.mark.parametrize("options, message", [
        ({"if_mode": "bogus"}, "if_mode must be one of ('historical', 'current'), got 'bogus'"),
        ({"as_of": -1}, "as_of must be a whole number of years >= 0, got -1"),
        ({"as_of": True}, "as_of must be a whole number of years >= 0, got True"),
        ({"if_mode": "bogus", "as_of": -1},
         "if_mode must be one of ('historical', 'current'), got 'bogus'"),
        ({"fallback_if": math.nan, "if_mode": "bogus", "as_of": -1},
         "fallback_if must be a finite number >= 0, got nan"),
    ], ids=["if-mode", "negative-as-of", "bool-as-of", "if-mode-then-as-of",
            "fallback-first"])
    def test_bad_options_are_refused_whatever_the_ids(self, ids, options, message):
        catalog, ledger = self.load()
        with pytest.raises(ValueError) as error:
            score_articles(ledger, catalog, ids, **options)
        assert str(error.value) == message


def displacements(summary):
    """The Matthew rows of the ``rank`` document, as ``json.loads`` reads them."""
    return json.loads("".join(rank_to_json(summary.ranked, summary)))["matthew"]["displacements"]


class TestMatthewComparison:
    def test_identical_if_corpus_has_zero_divergence(self):
        # f affine in the citation count: both rankings coincide.
        reports = [report(f"a-{k}", 2.0 + 2.0 * k, citations=k)
                   for k in range(10)]
        summary = matthew_comparison(rank(reports))
        assert summary.improved == 0
        assert all(d["displacement"] == 0 for d in displacements(summary))

    def test_high_impact_citations_beat_raw_counts(self):
        # 3 citations from IF-10 journals against 30 from IF-0.1 ones.
        selective = report("selective", 2.0 + 3 * 10.0, citations=3)
        prolific = report("prolific", 2.0 + 30 * 0.1, citations=30)
        summary = matthew_comparison(rank([prolific, selective]))
        by_id = {d["article_id"]: d for d in displacements(summary)}
        assert by_id["selective"]["rank_i3"] == 1
        assert by_id["selective"]["rank_citations"] == 2
        assert by_id["selective"]["displacement"] == 1
        assert by_id["prolific"]["displacement"] == -1
        assert summary.improved == 1

    def test_displacements_listed_by_index_rank(self):
        rng = random.Random(6)
        reports = [report(f"a-{k:03d}", rng.uniform(0.0, 5000.0),
                          citations=rng.randrange(200))
                   for k in range(30)]
        summary = matthew_comparison(rank(reports))
        assert [d["rank_i3"] for d in displacements(summary)] == list(range(1, 31))

    @given(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=5000.0),
                  st.integers(min_value=0, max_value=500)),
        min_size=2, max_size=50))
    def test_displacements_sum_to_zero(self, rows):
        reports = [report(f"a-{k:03d}", f, citations=count)
                   for k, (f, count) in enumerate(rows)]
        summary = matthew_comparison(rank(reports))
        assert sum(d["displacement"] for d in displacements(summary)) == 0

    def test_needs_two_articles(self):
        with pytest.raises(InputError, match="at least 2"):
            matthew_comparison([report("solo", 1.0)])


class TestSerialization:
    def test_csv_header_and_layout(self):
        ranked = rank([report("low", 10.0, citations=1),
                       report("high", 20.0, citations=2)])
        lines = reports_to_csv(ranked).splitlines()
        assert lines[0] == ",".join(REPORT_HEADER)
        assert lines[1] == "high,c,92,0.00115129,20.000000,0.022763,2,1,1"
        assert lines[2].startswith("low,")

    def test_csv_blank_ranks_before_ranking(self):
        lines = reports_to_csv([report("x", 10.0)]).splitlines()
        assert lines[1].endswith(",,")

    def test_json_keeps_full_precision(self):
        ranked = rank([report("x", 10.0)])
        obj = json.loads(reports_to_json(ranked))
        assert obj[0]["i3"] == compute_i3(10.0, BETA)
        assert obj[0]["rank_i3"] == 1

    def test_matthew_csv(self):
        reports = [report("a", 32.0, citations=3),
                   report("b", 5.0, citations=30)]
        lines = matthew_to_csv(matthew_comparison(rank(reports))).splitlines()
        assert lines[0] == "improved_by_i3_rank,1"
        assert lines[1] == "article_id,rank_i3,rank_citations,displacement"
        assert lines[2] == "a,1,2,1"
        assert lines[3] == "b,2,1,-1"

    @given(st.lists(st.tuples(st.text(), st.text(), st.integers(min_value=0, max_value=50)),
                    min_size=2, max_size=8, unique_by=lambda row: row[0]))
    @example([("a\rb", "c", 1), ("b", "c", 2)])
    @example([("a", "\r", 1), ("\r\n", "c", 2)])
    def test_csv_fields_round_trip(self, rows):
        ranked = rank([report(article_id, 10.0, category=category, citations=n)
                       for article_id, category, n in rows])
        if any("\r" in article_id + category for article_id, category, _ in rows):
            with pytest.raises(ValueError, match="carriage return"):
                reports_to_csv(ranked)
            with pytest.raises(ValueError, match="carriage return"):
                reports_to_csv(list(ranked))  # unranked
            if any("\r" in article_id for article_id, _, _ in rows):
                with pytest.raises(ValueError, match="carriage return"):
                    matthew_to_csv(matthew_comparison(ranked))
            return
        table = list(csv.reader(io.StringIO(reports_to_csv(ranked), newline="")))
        assert table[0] == REPORT_HEADER
        assert [row[:2] for row in table[1:]] == [[r.article_id, r.category] for r in ranked]
        assert all(len(row) == len(REPORT_HEADER) for row in table)
        summary = matthew_to_csv(matthew_comparison(ranked))
        table = list(csv.reader(io.StringIO(summary, newline="")))
        assert table[2:] == [[r.article_id, str(i), str(c), str(c - i)]
                             for i, (r, c) in enumerate(zip(ranked, ranked.rank_citations), 1)]


# Commas, quotes, line feeds, spaces, NUL, non-ASCII, and the empty string.
free_text = st.text(alphabet='ab ,"\n\0é', max_size=4)


def csv_writer_reports(reports):
    """``reports_to_csv`` as ``csv.writer`` prints it."""
    return csv_text([REPORT_HEADER] + [
        (r.article_id, r.category, r.phi, fmt_beta(r.beta), fmt_score(r.f_score),
         fmt_score(r.i3), r.citation_count, i, c) for r, i, c in ranked_rows(reports)])


def csv_writer_matthew(summary):
    """``matthew_to_csv`` as ``csv.writer`` prints it."""
    return csv_text([("improved_by_i3_rank", summary.improved), MATTHEW_HEADER]
                    + [(r.article_id, i, c, c - i) for r, i, c in ranked_rows(summary.ranked)])


# Cells that need quoting: a comma, a quote, a line feed; and a non-ASCII one.
NEEDS_CARE = ("a,{}", 'q"{}', "l\n{}", "é{}")
CHUNK = formats._CHUNK_LINES


class TestLineWriters:
    """The cell quoting and the CSV line writers against ``csv_text`` (``csv.writer``)."""

    @given(st.lists(st.tuples(free_text, free_text, st.integers(min_value=0, max_value=50),
                              st.sampled_from([0.0, 6.0, 1e20])),
                    min_size=2, max_size=8))
    def test_lines_are_those_of_csv_writer(self, rows):
        for article_id, category, _, _ in rows:
            assert f"{csv_cell(article_id)},{csv_cell(category)}\n" == csv_text([(article_id, category)])
        reports = [report(article_id, f, category=category, citations=n)
                   for article_id, category, n, f in rows]
        ranked = rank(reports)
        for reports_in in (reports, ranked):  # None ranks print empty
            assert reports_to_csv(reports_in) == csv_writer_reports(reports_in)
        summary = matthew_comparison(ranked)
        assert matthew_to_csv(summary) == csv_writer_matthew(summary)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2])
    def test_lines_across_chunk_boundaries(self, n):
        near = {k + d for k in range(0, n + 1, CHUNK) for d in (-1, 0, 1)}
        # Falling masses rank the reports in list order, so the cells that
        # need care sit on the lines just before, at and after each boundary.
        reports = [report(NEEDS_CARE[k % 4].format(k) if k in near else f"a-{k}", float(n - k),
                          category=NEEDS_CARE[k % 4].format("c") if k in near else "c",
                          citations=k % 5)
                   for k in range(n)]
        ranked = rank(reports)
        assert ranked == reports
        for reports_in in (reports, ranked):
            assert reports_to_csv(reports_in) == csv_writer_reports(reports_in)
        summary = matthew_comparison(ranked)
        assert matthew_to_csv(summary) == csv_writer_matthew(summary)

    def test_empty_selection_is_the_header(self):
        assert reports_to_csv([]) == reports_to_csv(rank([])) == csv_text([REPORT_HEADER])

    def test_writers_hold_about_twice_their_text(self):
        # Joined at once, every line string lives beside the text: 3x its
        # length, over 4x for the short Matthew lines.  Joined a chunk at a
        # time, the chunks and the text: 2x.  The JSON records likewise.
        reports = [report(f"a-{k:05d}", k * 0.37, category=f"c-{k % 7}", citations=k % 13)
                   for k in range(5000)]
        ranked = rank(reports)
        calls = [(reports_to_csv, ranked), (reports_to_csv, reports),
                 (matthew_to_csv, matthew_comparison(ranked)),
                 (reports_to_json, ranked), (reports_to_json, reports)]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for writer, arg in calls:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                size = len(writer(arg))
                assert tracemalloc.get_traced_memory()[1] - before <= 2.5 * size, writer
        finally:
            if not tracing:
                tracemalloc.stop()
