"""Per-article citation histories and the composite citation mass f.

Two UTF-8 CSV inputs with ISO-8601 dates:

* articles:  ``article_id,journal,publication_date``
* citations: ``article_id,citing_journal,citation_date``

The composite mass of an article is the impact factor of its
publishing journal plus, for each citing journal, the number of
citations from it times that journal's impact factor.  Citation counts
are never stored; they are derived from the event log, which stays the
single source of truth.

Truncation (``as_of`` whole years after publication) keeps only the
citations dated at or before the publication date shifted by that many
calendar years (Feb-29 anniversaries fall back to Feb-28).  Because
impact factors are non-negative and groups are summed in a fixed
order, a truncated mass never exceeds the full one, even in floating
point.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from typing import IO

from .catalog import Catalog, _data_rows, _expect_header, canonical_name
from .errors import InputError, ResolutionError

__all__ = [
    "ArticleRecord",
    "CitationEvent",
    "Ledger",
    "load_ledger",
    "shift_years",
    "f_score",
    "citation_count",
    "validate_truncation",
]

ARTICLES_HEADER = ["article_id", "journal", "publication_date"]
CITATIONS_HEADER = ["article_id", "citing_journal", "citation_date"]

IF_MODES = ("historical", "current")


@dataclass(frozen=True)
class ArticleRecord:
    id: str
    journal: str
    publication_date: dt.date


@dataclass(frozen=True)
class CitationEvent:
    """One citation; the cited article is the key it is stored under."""

    citing_journal: str
    date: dt.date


@dataclass
class Ledger:
    """Validated article and citation collections, immutable after load."""

    articles: dict[str, ArticleRecord]
    citations: dict[str, list[CitationEvent]]

    def article(self, article_id: str) -> ArticleRecord:
        try:
            return self.articles[article_id]
        except KeyError:
            raise InputError(f"unknown article id: {article_id!r}") from None

    def events(self, article_id: str) -> list[CitationEvent]:
        return self.citations.get(article_id, [])


def load_ledger(
    articles_stream: IO[str],
    citations_stream: IO[str],
    articles_source: str = "articles",
    citations_source: str = "citations",
) -> Ledger:
    """Parse and cross-validate the two CSVs.

    Rejected with the offending line number: duplicate article ids,
    citations of unknown articles, and citations dated before the
    cited article was published.  Citations come out sorted by date
    (then citing journal) per article.
    """
    articles: dict[str, ArticleRecord] = {}
    reader = csv.reader(articles_stream)
    _expect_header(reader, ARTICLES_HEADER, articles_source)
    for lineno, row in _data_rows(reader, 3, articles_source):
        article_id, journal, date_raw = (cell.strip() for cell in row)
        if not article_id:
            raise InputError(f"{articles_source} line {lineno}: empty article id")
        if not journal:
            raise InputError(f"{articles_source} line {lineno}: empty journal")
        if article_id in articles:
            raise InputError(
                f"{articles_source} line {lineno}: duplicate article id {article_id!r}"
            )
        published = _parse_date(date_raw, articles_source, lineno)
        articles[article_id] = ArticleRecord(article_id, journal, published)

    citations: dict[str, list[CitationEvent]] = {}
    reader = csv.reader(citations_stream)
    _expect_header(reader, CITATIONS_HEADER, citations_source)
    for lineno, row in _data_rows(reader, 3, citations_source):
        article_id, citing_journal, date_raw = (cell.strip() for cell in row)
        article = articles.get(article_id)
        if article is None:
            raise InputError(
                f"{citations_source} line {lineno}: citation of unknown "
                f"article {article_id!r}"
            )
        if not citing_journal:
            raise InputError(f"{citations_source} line {lineno}: empty citing journal")
        cited = _parse_date(date_raw, citations_source, lineno)
        if cited < article.publication_date:
            raise InputError(
                f"{citations_source} line {lineno}: citation dated {cited} "
                f"precedes publication of {article_id!r} "
                f"({article.publication_date})"
            )
        citations.setdefault(article_id, []).append(
            CitationEvent(citing_journal, cited)
        )

    for events in citations.values():
        events.sort(key=lambda e: (e.date, canonical_name(e.citing_journal)))
    return Ledger(articles, citations)


def shift_years(day: dt.date, years: int) -> dt.date:
    """``day`` moved ``years`` calendar years forward, month and day kept.

    Feb-29 anniversaries in non-leap years land on Feb-28.
    """
    try:
        return day.replace(year=day.year + years)
    except ValueError:
        return day.replace(year=day.year + years, day=28)


def f_score(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    as_of: int | None = None,
    if_mode: str = "current",
    fallback_if: float | None = None,
) -> float:
    """Composite citation mass of one article.

    ``if_mode`` selects the impact factors used for both the
    publishing journal and the citing journals: ``"historical"`` looks
    each up at its own year (publication year for the former, citation
    year for the latter, carrying the last known value forward);
    ``"current"`` uses the latest entries throughout.

    ``as_of`` truncates the history to the first that many whole years
    after publication.  Citing journals missing from the catalog abort
    the scoring with a :class:`ResolutionError` listing them, unless
    ``fallback_if`` supplies a stand-in impact factor; the publishing
    journal must always resolve.
    """
    if if_mode not in IF_MODES:
        raise ValueError(f"if_mode must be one of {IF_MODES}, got {if_mode!r}")
    article, events = _events_as_of(ledger, article_id, as_of)

    try:
        if if_mode == "historical":
            psi_a = catalog.impact_factor(article.journal, article.publication_date.year)
        else:
            psi_a = catalog.impact_factor(article.journal)
    except ResolutionError as exc:
        raise ResolutionError(f"article {article_id!r}: {exc}") from None

    # Group events by citing journal (and year, when IFs are historical);
    # each group contributes count * impact factor.
    groups: dict[tuple[str, int | None], int] = {}
    display: dict[str, str] = {}
    for event in events:
        key = canonical_name(event.citing_journal)
        display.setdefault(key, event.citing_journal)
        year = event.date.year if if_mode == "historical" else None
        groups[key, year] = groups.get((key, year), 0) + 1

    unknown = sorted({name for name, _ in groups if name not in catalog.journals})
    if unknown and fallback_if is None:
        raise ResolutionError(
            f"article {article_id!r}: citing journals not in catalog: "
            + ", ".join(display[name] for name in unknown)
        )

    total = psi_a
    for (name, year), count in sorted(groups.items(), key=_group_order):
        if name in catalog.journals:
            record = catalog.journals[name]
            try:
                factor = record.latest_if() if year is None else record.if_at(year)
            except ResolutionError as exc:
                raise ResolutionError(f"article {article_id!r}: {exc}") from None
        else:
            factor = fallback_if
        total += count * factor
    return total


def citation_count(ledger: Ledger, article_id: str, as_of: int | None = None) -> int:
    """Number of citation events, optionally truncated like :func:`f_score`."""
    return len(_events_as_of(ledger, article_id, as_of)[1])


def validate_truncation(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    t: int,
    fallback_if: float | None = None,
) -> bool:
    """Check that the mass truncated at ``t`` years never exceeds the full mass."""
    truncated = f_score(ledger, catalog, article_id, as_of=t, fallback_if=fallback_if)
    full = f_score(ledger, catalog, article_id, fallback_if=fallback_if)
    return truncated <= full


def _group_order(item: tuple[tuple[str, int | None], int]):
    (name, year), _ = item
    return (name, year if year is not None else 0)


def _events_as_of(
    ledger: Ledger, article_id: str, as_of: int | None
) -> tuple[ArticleRecord, list[CitationEvent]]:
    """The article and its citations up to ``as_of`` years after publication (all if None)."""
    if as_of is not None and (
        isinstance(as_of, bool) or not isinstance(as_of, int) or as_of < 0
    ):
        raise ValueError(f"as_of must be a whole number of years >= 0, got {as_of!r}")
    article = ledger.article(article_id)
    events = ledger.events(article_id)
    if as_of is not None:
        cutoff = shift_years(article.publication_date, as_of)
        events = [e for e in events if e.date <= cutoff]
    return article, events


def _parse_date(raw: str, source: str, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise InputError(
            f"{source} line {lineno}: malformed date {raw!r} (expected YYYY-MM-DD)"
        ) from None
