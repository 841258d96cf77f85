"""Per-article citation histories and the composite citation mass f.

Two UTF-8 CSV inputs with dates written ``YYYY-MM-DD``:

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

Every mass comes from one routine, :func:`_masses`, which walks an
article's date-sorted rows once and reports the mass at several
ascending cutoffs, each window a prefix of the next: :func:`f_score`
asks for one cutoff, :func:`anniversary_masses` for several
anniversaries, :func:`validate_truncation` for a truncated window and
the full history.  Errors surface as if each cutoff were scored on its
own, in turn: a bad ``as_of``, an unknown article id, the publishing
journal, uncatalogued citing journals, the first failing impact factor
in sorted key order, then overflow.  Scoring and dynamics call
:func:`f_score` before anything else about an article, so it is the one
place an id is resolved to its record, window and publishing journal.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, Sequence

from .catalog import Catalog, canonical_name
from .errors import InputError, ResolutionError
from .formats import csv_field, read_csv

__all__ = [
    "ArticleRecord",
    "CitationEvent",
    "Ledger",
    "load_ledger",
    "shift_years",
    "f_score",
    "anniversary_masses",
    "citation_count",
    "validate_truncation",
]

ARTICLES_HEADER = ["article_id", "journal", "publication_date"]
CITATIONS_HEADER = ["article_id", "citing_journal", "citation_date"]

IF_MODES = ("historical", "current")

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# A group key packs the rank of the canonical citing name with the
# citation year; years have four digits, so they stay below this.
_YEAR_SPAN = 10000
# Date ordinals stay below this.
_DAY_SPAN = dt.date.max.toordinal() + 1


@dataclass(slots=True)
class ArticleRecord:
    """One article; its id is the key it is stored under."""

    journal: str
    publication_date: dt.date
    position: int  # its citations are rows offsets[position]:offsets[position + 1]


@dataclass(frozen=True)
class CitationEvent:
    """One citation; the cited article is the key it is stored under."""

    citing_journal: str
    date: dt.date


@dataclass
class Ledger:
    """Validated articles and their citations, not modified after load.

    The citations are stored once, as parallel columns shared by all
    articles: those of the article whose record has ``position`` ``i``
    are the rows ``offsets[i]:offsets[i + 1]``, sorted by date, then
    canonical citing name, file order kept on ties.  Per row, ``days``
    holds the date ordinal, ``spelled`` the index of the citing
    journal's display spelling in ``spellings``, and ``groups`` the
    rank of its canonical name in ``names`` times ``_YEAR_SPAN`` plus
    the citation year, so that sorted keys run journal first, then
    year.  :class:`CitationEvent` objects are built only on request.
    """

    articles: dict[str, ArticleRecord]
    offsets: array
    days: array
    spelled: array
    groups: array
    spellings: list[str]
    names: list[str]

    def article(self, article_id: str) -> ArticleRecord:
        try:
            return self.articles[article_id]
        except KeyError:
            raise InputError(f"unknown article id: {article_id!r}") from None

    def events(self, article_id: str) -> list[CitationEvent]:
        """Citations of one article, built on each call (not a hot path)."""
        article = self.article(article_id)
        rows = range(self.offsets[article.position], self.offsets[article.position + 1])
        return [CitationEvent(self.spellings[self.spelled[r]], dt.date.fromordinal(self.days[r]))
                for r in rows]

    @property
    def citations(self) -> dict[str, list[CitationEvent]]:
        """Citations of every cited article, built on each access (not a hot path)."""
        return {a: self.events(a) for a, article in self.articles.items()
                if self.offsets[article.position] < self.offsets[article.position + 1]}


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
    (then citing journal) per article.  Each distinct journal and date
    cell is checked and parsed, and each distinct citing spelling
    joined, only once.
    """
    articles: dict[str, ArticleRecord] = {}
    # Both keyed by the raw cell: a cell seen before has passed csv_field,
    # and on a row of new cells the checks keep their order.
    journals: dict[str, str] = {}
    dates: dict[str, dt.date] = {}
    for lineno, (article_id, journal_raw, date_raw) in read_csv(
            articles_stream, ARTICLES_HEADER, articles_source):
        article_id = csv_field(article_id, articles_source, lineno)
        journal = journals.get(journal_raw)
        if journal is None:
            journal = journals[journal_raw] = csv_field(journal_raw, articles_source, lineno)
        published = dates.get(date_raw)
        if published is None:
            date_cell = csv_field(date_raw, articles_source, lineno)
        if not article_id:
            raise InputError(f"{articles_source} line {lineno}: empty article id")
        if not journal:
            raise InputError(f"{articles_source} line {lineno}: empty journal")
        if article_id in articles:
            raise InputError(
                f"{articles_source} line {lineno}: duplicate article id {article_id!r}"
            )
        if published is None:
            published = dates[date_raw] = _parse_date(date_cell, articles_source, lineno)
        articles[article_id] = ArticleRecord(journal, published, len(articles))

    publication_days = [article.publication_date.toordinal() for article in articles.values()]
    # Keyed by the raw cell, so the common case costs one dict lookup per
    # cell; a spelling's trimmed form maps to the same id as its raw form.
    spelling_ids: dict[str, int] = {}
    spellings: list[str] = []
    ordinals: dict[str, int] = {}
    row_article, row_day, row_spelling = [], [], []  # per row, in file order
    rows = read_csv(citations_stream, CITATIONS_HEADER, citations_source)
    for lineno, (article_id, journal_raw, date_raw) in rows:
        article = articles.get(article_id)
        if article is None:  # try the trimmed cell, refusing a carriage return
            article_id = csv_field(article_id, citations_source, lineno)
            article = articles.get(article_id)
            if article is None:
                raise InputError(
                    f"{citations_source} line {lineno}: citation of unknown "
                    f"article {article_id!r}"
                )
        i = article.position
        s = spelling_ids.get(journal_raw)
        if s is None:
            s = spelling_ids[journal_raw] = _intern_spelling(
                journal_raw, spelling_ids, spellings, citations_source, lineno)
        cited = ordinals.get(date_raw)
        if cited is None:
            cited = ordinals[date_raw] = _parse_date(
                csv_field(date_raw, citations_source, lineno), citations_source, lineno
            ).toordinal()
        if cited < publication_days[i]:
            raise InputError(
                f"{citations_source} line {lineno}: citation dated "
                f"{dt.date.fromordinal(cited)} precedes publication of {article_id!r} "
                f"({article.publication_date})"
            )
        row_article.append(i)
        row_day.append(cited)
        row_spelling.append(s)

    canonical = [canonical_name(spelling) for spelling in spellings]
    names = sorted(set(canonical))
    name_rank = {name: rank for rank, name in enumerate(names)}
    spelling_rank = [name_rank[name] for name in canonical]
    # One stable sort of all rows by (article, date, canonical name).
    n_names = len(names)
    order = sorted(range(len(row_article)), key=[
        (i * _DAY_SPAN + d) * n_names + spelling_rank[s]
        for i, d, s in zip(row_article, row_day, row_spelling)
    ].__getitem__)
    days = array("i", [row_day[r] for r in order])
    spelled = array("i", [row_spelling[r] for r in order])
    years = {d: dt.date.fromordinal(d).year for d in set(ordinals.values())}
    groups = array("q", [spelling_rank[s] * _YEAR_SPAN + years[d] for s, d in zip(spelled, days)])
    per_article = Counter(row_article)
    offsets = array("q", accumulate((per_article[i] for i in range(len(articles))), initial=0))
    return Ledger(articles, offsets, days, spelled, groups, spellings, names)


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
    journal must always resolve.  A mass that overflows a double is
    refused with a :class:`ValueError`.  The mass is the one cutoff of
    :func:`_masses`; the module docstring gives the order of the errors.
    """
    if if_mode not in IF_MODES:
        raise ValueError(f"if_mode must be one of {IF_MODES}, got {if_mode!r}")
    return _masses(ledger, catalog, article_id, (as_of,), if_mode == "historical",
                   fallback_if)[0]


def anniversary_masses(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    years: Sequence[int],
    fallback_if: float | None = None,
) -> list[float]:
    """Historical-IF mass of one article at each of the strictly ascending ``years``.

    Equal, float for float and error for error, to calling
    :func:`f_score` with ``as_of=t`` and ``if_mode="historical"`` for
    each ``t`` in turn, but computed by :func:`_masses` in one pass
    over the date-sorted rows.  Years out of order are refused with a
    :class:`ValueError`.
    """
    # Years that are not whole numbers are left for _window to refuse, with its text.
    if any(a >= b for a, b in zip(years, years[1:]) if type(a) is type(b) is int):
        raise ValueError(f"years must be strictly ascending, got {list(years)!r}")
    return _masses(ledger, catalog, article_id, years, True, fallback_if)


def citation_count(ledger: Ledger, article_id: str, as_of: int | None = None) -> int:
    """Number of citation events, optionally truncated like :func:`f_score`."""
    _, start, stop = _window(ledger, article_id, as_of)
    return stop - start


def validate_truncation(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    t: int,
    fallback_if: float | None = None,
) -> bool:
    """Check that the mass truncated at ``t`` years never exceeds the full mass.

    Current impact factors; both masses come from one :func:`_masses` pass.
    """
    truncated, full = _masses(ledger, catalog, article_id, (t, None), False, fallback_if)
    return truncated <= full


def _masses(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    cutoffs: Sequence[int | None],
    historical: bool,
    fallback_if: float | None,
) -> list[float]:
    """Mass of one article at each of the ascending ``cutoffs`` (``None``: full history).

    One group count (citing journal, and year when IFs are historical)
    grows between cutoffs.  The publishing IF is resolved once and each
    group's factor at most once.  Every cutoff adds ``count * factor``
    onto the publishing IF over the sorted keys, journal first, then
    year, and raises the errors in the order the module docstring gives.
    """
    journals, names = catalog.journals, ledger.names
    span = _YEAR_SPAN if historical else 1  # with current IFs a key is the name rank alone
    # Memo only across cutoffs.  With one cutoff each key is resolved once,
    # so the dict is pure cost: dense historical scoring (score-dense) runs
    # 10-25% slower with it.  Across anniversaries a key recurs per cutoff:
    # dynamics reports (trajectory) run about 40% slower without it.
    factors: dict[int, float] | None = {} if len(cutoffs) > 1 else None
    groups: dict[int, int] = {}
    masses: list[float] = []
    try:
        for cutoff in cutoffs:
            article, start, stop = _window(ledger, article_id, cutoff)
            if not masses:
                publisher = catalog.journal(article.journal)
                total = psi_a = (publisher.if_at(article.publication_date.year) if historical
                                 else publisher.latest_if())
                counted = start
            if stop > counted:
                rows = ledger.groups[counted:stop]
                keys = rows if historical else map(_YEAR_SPAN.__rfloordiv__, rows)
                for key in keys:
                    groups[key] = groups.get(key, 0) + 1
                counted = stop
                if fallback_if is None:
                    unknown = sorted({key // span for key in groups
                                      if names[key // span] not in journals})
                    if unknown:
                        raise _uncatalogued(ledger, start, stop, unknown)
                total = psi_a
                for key in sorted(groups):
                    factor = factors.get(key) if factors else None
                    if factor is None:
                        rank, year = divmod(key, span)
                        record = journals.get(names[rank])
                        factor = (fallback_if if record is None
                                  else record.if_at(year) if historical else record.latest_if())
                        if factors is not None:
                            factors[key] = factor
                    total += groups[key] * factor
                if total == math.inf:
                    raise ValueError(f"article {article_id!r}: citation mass overflows a "
                                     f"double (impact factors too large)")
            masses.append(total)
    except ResolutionError as exc:
        raise ResolutionError(f"article {article_id!r}: {exc}") from None
    return masses


def _window(
    ledger: Ledger, article_id: str, as_of: int | None
) -> tuple[ArticleRecord, int, int]:
    """The article and the rows of its citations up to ``as_of`` years after publication."""
    if as_of is not None:
        check_as_of(as_of)
    article = ledger.articles.get(article_id) or ledger.article(article_id)  # raises if unknown
    start, stop = ledger.offsets[article.position], ledger.offsets[article.position + 1]
    if as_of is not None:
        if article.publication_date.year + as_of > dt.MAXYEAR:
            raise ValueError(
                f"as_of {as_of} ends the citation window of article {article_id!r} "
                f"(published {article.publication_date}) after year {dt.MAXYEAR}")
        cutoff = shift_years(article.publication_date, as_of).toordinal()
        stop = bisect_right(ledger.days, cutoff, start, stop)
    return article, start, stop


def check_as_of(as_of: int | None) -> None:
    """Refuse an ``as_of`` that is not None or a whole number of years >= 0."""
    if as_of is not None and (
        isinstance(as_of, bool) or not isinstance(as_of, int) or as_of < 0
    ):
        raise ValueError(f"as_of must be a whole number of years >= 0, got {as_of!r}")


def _uncatalogued(ledger: Ledger, start: int, stop: int, ranks: list[int]) -> ResolutionError:
    """The error listing uncatalogued citing journals by their first spelling in the rows."""
    first: dict[int, str] = {}
    for s, key in zip(ledger.spelled[start:stop], ledger.groups[start:stop]):
        first.setdefault(key // _YEAR_SPAN, ledger.spellings[s])
    return ResolutionError("citing journals not in catalog: "
                           + ", ".join(first[rank] for rank in ranks))


def _intern_spelling(raw: str, ids: dict[str, int], spellings: list[str],
                     source: str, lineno: int) -> int:
    """Id of the trimmed display spelling of a citing-journal cell."""
    name = csv_field(raw, source, lineno)
    if not name:
        raise InputError(f"{source} line {lineno}: empty citing journal")
    s = ids.get(name)
    if s is None:
        s = ids[name] = len(spellings)
        spellings.append(name)
    return s


def _parse_date(raw: str, source: str, lineno: int) -> dt.date:
    """A date written exactly ``YYYY-MM-DD``."""
    try:
        if not _DATE_RE.fullmatch(raw):
            raise ValueError
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise InputError(
            f"{source} line {lineno}: malformed date {raw!r} (expected YYYY-MM-DD)"
        ) from None
