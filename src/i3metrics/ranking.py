"""Score reports, deterministic ranking, divergence summary.

Ranking is descending by index, with a fixed tie-break chain: area
under the curve (separates articles crowding the asymptote), then raw
citation count, then article id.  Index values are compared at 1e-12
resolution so that scores indistinguishable at that scale fall through
to the area tie-break.  The whole chain is a total order over distinct
article ids, so the output never depends on input order.  :func:`rank`
builds one column per key field and sorts on the columns, least
significant first; the CSV writers format each line directly and the
JSON writers fill one template per record, and both join 1,024 lines
or records at a time, never a whole table's line strings at once.

The divergence summary contrasts the index ranking with a plain
citation-count ranking: articles cited from high-impact venues can
outrank more-cited articles whose citations carry little weight, which
is the intended counterweight to rich-get-richer citation dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Sequence

from .catalog import Catalog
from .core import compute_i3, i3_auc
from .errors import InputError
from .formats import chunked_text, csv_cell, csv_text, fmt_beta, fmt_score, json_records
from .ledger import Ledger, check_scoring, f_score, factor_table, window_rows

__all__ = [
    "ScoreReport",
    "Ranking",
    "MatthewSummary",
    "score_articles",
    "assign_ranks",
    "rank",
    "ranked_rows",
    "matthew_comparison",
    "reports_to_csv",
    "reports_to_json",
    "rank_to_json",
    "matthew_to_csv",
]

REPORT_HEADER = [
    "article_id", "category", "phi", "beta", "f_score",
    "i3", "citations", "rank_i3", "rank_citations",
]

MATTHEW_HEADER = ["article_id", "rank_i3", "rank_citations", "displacement"]


@dataclass(slots=True)
class ScoreReport:
    """One scored article; its ranks live in the :class:`Ranking` that holds it."""

    article_id: str
    category: str
    phi: int
    beta: float
    f_score: float
    i3: float
    citation_count: int


class Ranking(list):
    """The reports best first by index, as :func:`rank` returns them.

    The index rank of ``self[k]`` is ``k + 1``; its citation-count rank
    is ``self.rank_citations[k]``.  List equality compares the reports only.
    """

    rank_citations: list[int]


def score_articles(
    ledger: Ledger,
    catalog: Catalog,
    article_ids: Sequence[str] | None = None,
    if_mode: str = "current",
    as_of: int | None = None,
    fallback_if: float | None = None,
) -> list[ScoreReport]:
    """Score the given articles (all of them when ``article_ids`` is None).

    Reports come back unranked, in the requested order.
    """
    if article_ids is None:
        article_ids = list(ledger.articles)
    table, reports = factor_table(ledger, catalog, fallback_if), []
    check_scoring(as_of, if_mode)
    for article_id in article_ids:
        mass = f_score(ledger, catalog, article_id, as_of=as_of,
                       if_mode=if_mode, fallback_if=fallback_if)
        article = ledger.articles[article_id]
        journal = table.publisher(article.journal)
        start, stop = window_rows(ledger, article_id, article, as_of)
        reports.append(ScoreReport(
            article_id, journal.category, journal.phi, journal.beta, mass,
            compute_i3(mass, journal.beta), stop - start))
    return reports


def rank(reports: Sequence[ScoreReport]) -> Ranking:
    """The reports best first by index, with their citation-count ranks.

    The only place ranks are computed.  The index order is descending
    index compared at 1e-12, then descending area, then descending
    citation count, then ascending id; the citation order is descending
    count, then ascending id (reports of one id tie by index position).
    Each key field is one column, the area computed once per distinct
    ``(f_score, beta)``; stable sorts on the columns, least significant
    first, give both orders, and no report is copied.  The citation
    order is sorted again only when an id repeats, which only a library
    caller can bring about: :func:`~.ledger.load_ledger` refuses it.
    """
    n = len(reports)
    ids = [r.article_id for r in reports]
    counts = [r.citation_count for r in reports]
    pairs = [(r.f_score, r.beta) for r in reports]
    areas = {pair: i3_auc(*pair) for pair in dict.fromkeys(pairs)}
    cited = sorted(range(n), key=ids.__getitem__)
    cited.sort(key=counts.__getitem__, reverse=True)
    order = sorted(cited, key=list(map(areas.__getitem__, pairs)).__getitem__, reverse=True)
    order.sort(key=[round(r.i3, 12) for r in reports].__getitem__, reverse=True)
    if len(set(ids)) < n:  # ``cited`` ties one id's reports by input, not index, position
        cited = sorted(order, key=ids.__getitem__)
        cited.sort(key=counts.__getitem__, reverse=True)
    ranks = dict(zip(cited, count(1)))
    ranked = Ranking(map(reports.__getitem__, order))
    ranked.rank_citations = list(map(ranks.__getitem__, order))
    return ranked


def assign_ranks(reports: Sequence[ScoreReport]) -> list[tuple[int, int]]:
    """``(rank_i3, rank_citations)`` of each report, in the input order."""
    ranks = {r.article_id: (i, c) for r, i, c in ranked_rows(rank(reports))}
    return [ranks[r.article_id] for r in reports]


@dataclass(frozen=True)
class MatthewSummary:
    ranked: Ranking  # the output of rank(), best first
    improved: int  # articles strictly better ranked by index than by counts


def matthew_comparison(ranked: Ranking) -> MatthewSummary:
    """Contrast index ranking with citation-count ranking.

    ``ranked`` is the output of :func:`rank`; only its rank columns are
    read.  :func:`matthew_to_csv` and :func:`rank_to_json` list one
    row per article in its best-first order, where ``displacement`` is
    citation rank minus index rank (the
    displacements of a report always sum to zero); ``improved`` counts
    articles the index ranks strictly better than raw counts do.
    """
    if len(ranked) < 2:
        raise InputError("need at least 2 scored articles to compare rankings")
    improved = sum(1 for i, c in enumerate(ranked.rank_citations, start=1) if c > i)
    return MatthewSummary(ranked, improved)


def ranked_rows(reports: Sequence[ScoreReport]):
    """``(report, rank_i3, rank_citations)`` per report; None ranks unless a :class:`Ranking`."""
    if isinstance(reports, Ranking):
        return zip(reports, count(1), reports.rank_citations)
    return ((r, None, None) for r in reports)


def reports_to_csv(reports: Sequence[ScoreReport]) -> str:
    return chunked_text(csv_text([REPORT_HEADER]), (
        f"{csv_cell(r.article_id)},{csv_cell(r.category)},{r.phi},{fmt_beta(r.beta)},"
        f"{fmt_score(r.f_score)},{fmt_score(r.i3)},{r.citation_count},"
        f"{'' if rank_i3 is None else rank_i3},{'' if rank_c is None else rank_c}\n"
        for r, rank_i3, rank_c in ranked_rows(reports)))


def reports_to_json(reports: Sequence[ScoreReport], depth: int = 0) -> str:
    """The reports' JSON list nested ``depth`` levels deep, a whole document at depth 0."""
    return json_records(REPORT_HEADER, (
        (r.article_id, r.category, r.phi, r.beta, r.f_score, r.i3, r.citation_count, i, c)
        for r, i, c in ranked_rows(reports)), depth) + ("" if depth else "\n")


def rank_to_json(ranked: Ranking, summary: MatthewSummary | None = None) -> tuple[str, ...]:
    """The ``rank`` document in pieces; a ``summary`` of ``ranked`` adds its ``"matthew"`` rows."""
    pieces = ['{\n  "ranking": ', reports_to_json(ranked, 1)]
    if summary is not None:
        pieces += [f',\n  "matthew": {{\n    "improved_by_i3_rank": {summary.improved},\n'
                   '    "displacements": ', json_records(MATTHEW_HEADER, (
                       (r.article_id, i, c, c - i) for r, i, c in ranked_rows(summary.ranked)), 2),
                   "\n  }"]
    return (*pieces, "\n}\n")


def matthew_to_csv(summary: MatthewSummary) -> str:
    return chunked_text(csv_text([("improved_by_i3_rank", summary.improved), MATTHEW_HEADER]), (
        f"{csv_cell(r.article_id)},{i},{c},{c - i}\n"
        for r, i, c in ranked_rows(summary.ranked)))
