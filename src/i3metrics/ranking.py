"""Score reports, deterministic ranking, percentiles, divergence summary.

Ranking is descending by index, with a fixed tie-break chain: area
under the curve (separates articles crowding the asymptote), then raw
citation count, then article id.  Index values are compared at 1e-12
resolution so that scores indistinguishable at that scale fall through
to the area tie-break.  The whole chain is a total order over distinct
article ids, so the output never depends on input order.

The divergence summary contrasts the index ranking with a plain
citation-count ranking: articles cited from high-impact venues can
outrank more-cited articles whose citations carry little weight, which
is the intended counterweight to rich-get-richer citation dynamics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

from .catalog import Catalog
from .core import compute_beta, compute_i3, i3_auc
from .errors import InputError
from .formats import csv_text, fmt_beta, fmt_score
from .ledger import Ledger, citation_count, f_score

__all__ = [
    "ScoreReport",
    "PercentileTable",
    "MatthewSummary",
    "RankDisplacement",
    "PERCENTILE_LEVELS",
    "score_articles",
    "assign_ranks",
    "rank",
    "percentile_table",
    "matthew_comparison",
    "reports_to_csv",
    "reports_to_json",
    "report_to_obj",
    "matthew_to_obj",
    "percentile_table_to_csv",
    "matthew_to_csv",
]

REPORT_HEADER = [
    "article_id", "category", "phi", "beta", "f_score",
    "i3", "citations", "rank_i3", "rank_citations",
]

MATTHEW_HEADER = ["article_id", "rank_i3", "rank_citations", "displacement"]

PERCENTILE_LEVELS = (50, 75, 90, 95, 99)

MIN_PERCENTILE_SAMPLE = 20


@dataclass(frozen=True, slots=True)
class ScoreReport:
    """Scored article, plus rank fields filled in by :func:`rank`."""

    article_id: str
    category: str
    phi: int
    beta: float
    f_score: float
    i3: float
    citation_count: int
    rank_i3: int | None = None
    rank_citations: int | None = None


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
    reports = []
    for article_id in article_ids:
        mass = f_score(ledger, catalog, article_id, as_of=as_of,
                       if_mode=if_mode, fallback_if=fallback_if)
        # f_score has resolved the article and its publishing journal.
        record = catalog.journal(ledger.articles[article_id].journal)
        phi = catalog.phi(record.category)
        beta = compute_beta(phi)
        reports.append(ScoreReport(
            article_id=article_id,
            category=record.category,
            phi=phi,
            beta=beta,
            f_score=mass,
            i3=compute_i3(mass, beta),
            citation_count=citation_count(ledger, article_id, as_of=as_of),
        ))
    return reports


def _index_key(report: ScoreReport):
    # Index quantized to 1e-12; exact AUC separates near-asymptote ties.
    return (
        -round(report.i3, 12),
        -i3_auc(report.f_score, report.beta),
        -report.citation_count,
        report.article_id,
    )


def _citation_key(report: ScoreReport):
    return (-report.citation_count, report.article_id)


def rank(reports: Sequence[ScoreReport]) -> list[ScoreReport]:
    """Reports ordered best-first by index, both rank columns filled in.

    The only place ranks are computed: one sort per ranking.
    """
    by_citations = sorted(reports, key=_citation_key)
    citation_rank = {r.article_id: i for i, r in enumerate(by_citations, start=1)}
    return [
        replace(r, rank_i3=i, rank_citations=citation_rank[r.article_id])
        for i, r in enumerate(sorted(reports, key=_index_key), start=1)
    ]


def assign_ranks(reports: Sequence[ScoreReport]) -> list[ScoreReport]:
    """Fill both rank columns; returns new reports in the input order."""
    ranked = {r.article_id: r for r in rank(reports)}
    return [ranked[r.article_id] for r in reports]


@dataclass(frozen=True)
class PercentileTable:
    category: str
    thresholds: list[tuple[int, float]]  # (percentile, index value)


def percentile_table(reports: Sequence[ScoreReport], category: str) -> PercentileTable:
    """Empirical index quantiles for one category, nearest-rank method.

    Nearest-rank is reproducible bit-for-bit across implementations,
    unlike interpolated quantiles.  Refuses categories with fewer than
    20 scored articles: reference thresholds from a handful of values
    would be noise presented as calibration.
    """
    values = sorted(r.i3 for r in reports if r.category == category)
    if not values:
        raise InputError(f"no scored articles in category {category!r}")
    if len(values) < MIN_PERCENTILE_SAMPLE:
        raise InputError(
            f"category {category!r} has only {len(values)} scored articles; "
            f"at least {MIN_PERCENTILE_SAMPLE} are needed for a percentile table"
        )
    n = len(values)
    thresholds = [
        (p, values[(p * n + 99) // 100 - 1])
        for p in PERCENTILE_LEVELS
    ]
    return PercentileTable(category, thresholds)


@dataclass(frozen=True)
class RankDisplacement:
    article_id: str
    rank_i3: int
    rank_citations: int
    displacement: int  # positive: the index ranks it better than raw counts


@dataclass(frozen=True)
class MatthewSummary:
    ranked: Sequence[ScoreReport]  # the output of rank(), best first
    improved: int  # articles strictly better ranked by index than by counts

    @property
    def displacements(self) -> list[RankDisplacement]:
        """One displacement per ranked article, built on each access."""
        return [RankDisplacement(*row) for row in _matthew_rows(self.ranked)]


def matthew_comparison(ranked: Sequence[ScoreReport]) -> MatthewSummary:
    """Contrast index ranking with citation-count ranking.

    ``ranked`` is the output of :func:`rank`; only its rank columns are
    read, and displacements keep its best-first order.
    ``displacement`` is citation rank minus index rank per article (the
    displacements of a report always sum to zero); ``improved`` counts
    articles the index ranks strictly better than raw counts do.
    """
    if len(ranked) < 2:
        raise InputError("need at least 2 scored articles to compare rankings")
    improved = sum(1 for r in ranked if r.rank_citations > r.rank_i3)
    return MatthewSummary(ranked, improved)


def _matthew_rows(ranked: Sequence[ScoreReport]):
    """One row per article, in ``MATTHEW_HEADER`` order."""
    for r in ranked:
        yield r.article_id, r.rank_i3, r.rank_citations, r.rank_citations - r.rank_i3


def reports_to_csv(reports: Sequence[ScoreReport]) -> str:
    rows = (
        (r.article_id, r.category, r.phi, fmt_beta(r.beta), fmt_score(r.f_score),
         fmt_score(r.i3), r.citation_count, r.rank_i3, r.rank_citations)
        for r in reports
    )
    return csv_text(chain([REPORT_HEADER], rows))


def report_to_obj(r: ScoreReport) -> dict:
    """JSON-ready mapping for one report, keeping full float precision."""
    return dict(zip(REPORT_HEADER, (
        r.article_id, r.category, r.phi, r.beta, r.f_score,
        r.i3, r.citation_count, r.rank_i3, r.rank_citations,
    )))


def reports_to_json(reports: Sequence[ScoreReport]) -> str:
    return json.dumps([report_to_obj(r) for r in reports], indent=2) + "\n"


def percentile_table_to_csv(table: PercentileTable) -> str:
    rows = [("category", "percentile", "i3")]
    rows += [(table.category, percentile, fmt_score(value))
             for percentile, value in table.thresholds]
    return csv_text(rows)


def matthew_to_obj(summary: MatthewSummary) -> dict:
    return {
        "improved_by_i3_rank": summary.improved,
        "displacements": [dict(zip(MATTHEW_HEADER, row))
                          for row in _matthew_rows(summary.ranked)],
    }


def matthew_to_csv(summary: MatthewSummary) -> str:
    return csv_text(chain(
        [("improved_by_i3_rank", summary.improved), MATTHEW_HEADER],
        _matthew_rows(summary.ranked),
    ))
