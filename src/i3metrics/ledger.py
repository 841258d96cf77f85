"""Per-article citation histories and the composite citation mass f.

Two UTF-8 CSV inputs with dates written ``YYYY-MM-DD``:

* articles:  ``article_id,journal,publication_date``
* citations: ``article_id,citing_journal,citation_date``

The composite mass of an article is the impact factor of its
publishing journal plus, for each citing journal, the number of
citations from it times that journal's impact factor.  Citation counts
are never stored; they are derived from the event log, which stays the
single source of truth (of each window, when loaded with ``as_of``).

Truncation (``as_of`` whole years after publication) keeps only the
citations dated at or before the publication date shifted by that many
calendar years (Feb-29 anniversaries fall back to Feb-28).  Because
impact factors are non-negative and groups are summed in a fixed
order, a truncated mass never exceeds the full one, even in floating
point.

Every mass is a fold (:func:`_fold`) of sorted group keys onto the
publishing IF, each run of equal keys added as ``run length * factor``,
and every window ends on the day :func:`_last_day` gives.
:func:`f_score` scores one window; :func:`anniversary_masses` and
:func:`validate_truncation` are its calls in turn.  A dynamics report
gets its current-IF full mass and its anniversary masses from one
:func:`_report_masses` call, which grows one key list over the
anniversaries.  Errors surface as if each window were scored on its
own, in turn (a report's full mass first): a bad ``fallback_if``, a bad
``as_of``, an unknown article id, a window longer than the ledger's
``as_of``, a window that ends after year 9999, the publishing journal,
uncatalogued citing journals, the first failing impact factor in sorted
key order, then overflow.  The factors come from the ledger's factor
table (see :class:`Ledger`), so each is resolved once per catalog and
``fallback_if``, not per article.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from operator import add, sub
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
_rank_of = _YEAR_SPAN.__rfloordiv__  # group key -> name rank

# Every whole number up to this is exact as a float.
_FLOAT_WHOLE = 2 ** 53


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


# A publishing journal in a factor table, where ``base + year`` is its key.
_Publisher = namedtuple("_Publisher", "base category phi beta current_if")


class _Factors(dict):
    """Impact factors of a ledger's journals under one catalog and ``fallback_if``.

    ``records`` and ``current`` hold the catalog record (None if
    uncatalogued) and current IF of each rank in ``Ledger.names``, and
    ``unknown`` the ranks whose record is None; a publishing journal no
    row cites takes the next rank.  The dict (group key -> historical
    IF) and ``publishers`` (spelling -> entry) fill on first use, and a
    lookup that raises stores nothing.
    """

    __slots__ = ("catalog", "fallback_if", "ranks", "records", "unknown", "current",
                 "publishers")

    def __init__(self, names: list[str], catalog: Catalog, fallback_if: float | None):
        if fallback_if is not None and not _finite_factor(fallback_if):
            raise ValueError(f"fallback_if must be a finite number >= 0, got {fallback_if!r}")
        self.catalog, self.fallback_if, self.publishers = catalog, fallback_if, {}
        self.ranks = dict(zip(names, count()))
        self.records = list(map(catalog.journals.get, names))
        self.unknown = {rank for rank, record in enumerate(self.records) if record is None}
        self.current = [fallback_if if r is None else r.latest_if() for r in self.records]

    def __missing__(self, key: int) -> float:
        rank, year = divmod(key, _YEAR_SPAN)
        record = self.records[rank]
        factor = self[key] = self.fallback_if if record is None else record.if_at(year)
        return factor

    def publisher(self, spelling: str) -> _Publisher:
        entry = self.publishers.get(spelling)
        if entry is None:
            name = canonical_name(spelling)
            record = self.catalog.journals.get(name) or self.catalog.journal(spelling)  # raises
            rank = self.ranks.setdefault(name, len(self.records))
            if rank == len(self.records):
                self.records.append(record)
            category = record.category
            entry = self.publishers[spelling] = _Publisher(
                rank * _YEAR_SPAN, category, self.catalog.phi(category),
                self.catalog.beta_for(category), record.latest_if())
        return entry


@dataclass
class Ledger:
    """Validated articles and their citations, and the impact factors masses read.

    The citations are stored once, as parallel columns shared by all
    articles: those of the article whose record has ``position`` ``i``
    are the rows ``offsets[i]:offsets[i + 1]``, sorted by date, then
    canonical citing name, file order kept on ties.  Per row, ``days``
    holds the date ordinal, ``spelled`` the index of the citing
    journal's display spelling in ``spellings``, and ``groups`` the
    rank of its canonical name in ``names`` times ``_YEAR_SPAN`` plus
    the citation year, so that sorted keys run journal first, then
    year.  :class:`CitationEvent` objects are built only on request.
    Loaded with ``as_of``, it keeps only the rows of that window, and
    refuses a longer one.  The columns are not modified after load; the
    factor table is kept while the catalog object and ``fallback_if``
    stay the same.
    """

    articles: dict[str, ArticleRecord]
    offsets: array
    days: array
    spelled: array
    groups: array
    spellings: list[str]
    names: list[str]
    as_of: int | None = None
    _factors: _Factors | None = field(default=None, init=False, compare=False, repr=False)

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
    as_of: int | None = None,
) -> Ledger:
    """Parse and cross-validate the two CSVs.

    Rejected with the offending line number: duplicate article ids,
    citations of unknown articles, and citations dated before the
    cited article was published.  Citations come out sorted by date
    (then citing journal) per article; with ``as_of``, every row is
    checked, then those after its article's window are dropped.  Each
    distinct journal and date cell is checked and parsed, each distinct
    citing spelling joined, and each run of one id cell resolved, once.
    """
    check_scoring(as_of)
    articles: dict[str, ArticleRecord] = {}
    # Both keyed by the raw cell: a cell seen before has passed csv_field,
    # and on a row of new cells the checks keep their order.
    journals: dict[str, str] = {}
    dates: dict[str, dt.date] = {}
    for lineno, (article_id, journal_raw, date_raw) in read_csv(
            articles_stream, ARTICLES_HEADER, articles_source):
        article_id = (csv_field(article_id, articles_source, lineno)
                      if "\r" in article_id or "\0" in article_id
                      else article_id.strip())  # csv_field only to refuse a CR or NUL
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
    del journals, dates

    # Keyed by the raw cell, so the common case costs one dict lookup per
    # cell; a spelling's trimmed form maps to the same id as its raw form.
    spelling_ids: dict[str, int] = {}
    spellings: list[str] = []
    ordinals: dict[str, int] = {}
    runs: list[tuple[int, int]] = []  # (position, first kept row) per run of one raw id cell
    row_day, row_spelling = [], []  # per kept row, in file order
    last, no_cut = None, dt.date.max.toordinal()
    for lineno, (article_id, journal_raw, date_raw) in read_csv(
            citations_stream, CITATIONS_HEADER, citations_source):
        if article_id != last:  # a run's first row resolves its id in full
            last, article = article_id, articles.get(article_id)
            if article is None:  # try the trimmed cell, refusing a CR or NUL
                article_id = csv_field(article_id, citations_source, lineno)
                article = articles.get(article_id)
                if article is None:
                    raise InputError(
                        f"{citations_source} line {lineno}: citation of unknown "
                        f"article {article_id!r}"
                    )
            cited_id, published = article_id, article.publication_date
            pub_day, end_day = published.toordinal(), no_cut
            if as_of is not None and published.year + as_of <= dt.MAXYEAR:
                end_day = shift_years(published, as_of).toordinal()  # else scoring refuses it
            runs.append((article.position, len(row_day)))
        s = spelling_ids.get(journal_raw)
        if s is None:
            s = spelling_ids[journal_raw] = _intern_spelling(
                journal_raw, spelling_ids, spellings, citations_source, lineno)
        cited = ordinals.get(date_raw)
        if cited is None:
            cited = ordinals[date_raw] = _parse_ordinal(date_raw, citations_source, lineno)
        if cited < pub_day:
            raise InputError(
                f"{citations_source} line {lineno}: citation dated "
                f"{dt.date.fromordinal(cited)} precedes publication of {cited_id!r} "
                f"({published})"
            )
        if cited <= end_day:
            row_day.append(cited)
            row_spelling.append(s)

    canonical = [canonical_name(spelling) for spelling in spellings]
    names = sorted(set(canonical))
    name_rank = {name: rank for rank, name in enumerate(names)}
    spelling_rank = [name_rank[name] for name in canonical]
    sizes = list(map(sub, [first for _, first in runs[1:]] + [len(row_day)],
                     [first for _, first in runs]))
    per_article = [0] * len(articles)
    for (i, _), size in zip(runs, sizes):
        per_article[i] += size
    # From a list, which sizes the array exactly; an iterator over-allocates it.
    offsets = array("q", list(accumulate(per_article, initial=0)))
    # One stable sort of all rows by (article, date, canonical name), file
    # order kept on ties.  A key is a sum of three whole numbers, as floats
    # (which sort faster) while every key is below _FLOAT_WHOLE.  Each
    # intermediate is freed once used: the sort is the loader's peak.
    days_seen = set(ordinals.values())
    first_day, n_names = min(days_seen, default=0), len(names)
    n_days = max(days_seen, default=0) - first_day + 1
    exact = float if len(articles) * n_days * n_names <= _FLOAT_WHOLE else int
    article_key = [exact(i * n_days * n_names) for i in range(len(articles))]
    day_key = {d: exact((d - first_day) * n_names) for d in days_seen}
    name_key = list(map(exact, spelling_rank))
    row_article = chain.from_iterable(map(repeat, [article_key[i] for i, _ in runs], sizes))
    keys = [a + day_key[d] + name_key[s] for a, d, s in zip(row_article, row_day, row_spelling)]
    del per_article, runs, sizes, row_article, article_key, day_key, name_key
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    days = list(map(row_day.__getitem__, order))
    del row_day
    spelled = list(map(row_spelling.__getitem__, order))
    del row_spelling, order
    group_base = [rank * _YEAR_SPAN for rank in spelling_rank]
    years = {d: dt.date.fromordinal(d).year for d in days_seen}
    groups = array("q", list(map(add, map(group_base.__getitem__, spelled),
                                 map(years.__getitem__, days))))
    return Ledger(articles, offsets, array("i", days), array("i", spelled), groups,
                  spellings, names, as_of)


def shift_years(day: dt.date, years: int) -> dt.date:
    """``day`` moved ``years`` calendar years forward, month and day kept.

    Feb-29 anniversaries in non-leap years land on Feb-28.
    """
    try:
        return dt.date(day.year + years, day.month, day.day)
    except ValueError:
        return dt.date(day.year + years, day.month, 28)


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
    journal must always resolve.  A ``fallback_if`` that is a bool, not
    a number, or not a finite double >= 0 is refused, as is a mass that
    overflows a double, with a :class:`ValueError`.  The module docstring
    gives the order of the errors.
    """
    check_scoring(if_mode=if_mode)
    return _mass(ledger, catalog, article_id, as_of, if_mode == "historical", fallback_if)


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
    each ``t`` in turn.  Years out of order are refused with a
    :class:`ValueError`.
    """
    # Years that are not whole numbers are left for f_score to refuse, in turn, with its text.
    if any(a >= b for a, b in zip(years, years[1:]) if type(a) is type(b) is int):
        raise ValueError(f"years must be strictly ascending, got {list(years)!r}")
    return [_mass(ledger, catalog, article_id, t, True, fallback_if) for t in years]


def citation_count(ledger: Ledger, article_id: str, as_of: int | None = None) -> int:
    """Number of citation events, optionally truncated like :func:`f_score`."""
    check_scoring(as_of)
    start, stop = window_rows(ledger, article_id, ledger.article(article_id), as_of)
    return stop - start


def validate_truncation(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    t: int,
    fallback_if: float | None = None,
) -> bool:
    """Check that the mass truncated at ``t`` years never exceeds the full mass.

    Current impact factors, the truncated mass first.
    """
    return (_mass(ledger, catalog, article_id, t, False, fallback_if)
            <= _mass(ledger, catalog, article_id, None, False, fallback_if))


def _mass(ledger: Ledger, catalog: Catalog, article_id: str, as_of: int | None,
          historical: bool, fallback_if: float | None) -> float:
    """Mass of one article, its window ``as_of`` years long (``None``: full history)."""
    table = factor_table(ledger, catalog, fallback_if)
    if as_of is not None:
        check_scoring(as_of)
    article = ledger.articles.get(article_id) or ledger.article(article_id)
    start, stop = window_rows(ledger, article_id, article, as_of)
    rows = ledger.groups[start:stop]
    try:
        publisher = table.publisher(article.journal)
        if historical:
            psi_a, factors = table[publisher.base + article.publication_date.year], table
        else:  # with current IFs a key is the name rank alone
            psi_a, factors, rows = publisher.current_if, table.current, map(_rank_of, rows)
        _check_catalogued(ledger, table, start, stop)
        return _fold(article_id, psi_a, [], rows, factors)
    except ResolutionError as exc:
        raise ResolutionError(f"article {article_id!r}: {exc}") from None


def _report_masses(ledger: Ledger, catalog: Catalog, article_id: str, years: Sequence[int],
                   fallback_if: float | None) -> tuple[float, float, list[float]]:
    """The current-IF full mass, the publisher's beta and the historical-IF masses at the
    checked ``years`` of one article, equal to :func:`f_score`, then :func:`anniversary_masses`.
    One key list grows over the anniversaries, each bisected on from the last stop."""
    table = factor_table(ledger, catalog, fallback_if)
    article = ledger.articles.get(article_id) or ledger.article(article_id)
    start, end = window_rows(ledger, article_id, article, None)
    stop = start
    try:
        publisher = table.publisher(article.journal)
        _check_catalogued(ledger, table, start, end)  # each window is a prefix of these rows
        full = _fold(article_id, publisher.current_if, [],
                     map(_rank_of, ledger.groups[start:end]), table.current)
        masses, keys = [], []
        for t in years:
            cutoff = _last_day(article_id, article, t)
            if not masses:
                total = psi_a = table[publisher.base + article.publication_date.year]
            if (new := bisect_right(ledger.days, cutoff, stop, end)) > stop:
                total = _fold(article_id, psi_a, keys, ledger.groups[stop:new], table)
                stop = new
            masses.append(total)
    except ResolutionError as exc:
        raise ResolutionError(f"article {article_id!r}: {exc}") from None
    return full, publisher.beta, masses


def _fold(article_id: str, total: float, keys: list[int], new, factors) -> float:
    """``total`` plus ``run length * factor`` for each run of equal keys once the
    sorted ``keys`` take the ``new`` ones, in order; a sum that overflows is refused."""
    keys += new
    if not keys:
        return total
    keys.sort()  # one sorted run and the new tail
    run, n = keys[0], 0
    for key in keys:
        if key == run:
            n += 1
        else:  # a run of one adds its factor itself, as 1 * factor would
            total += factors[run] if n == 1 else n * factors[run]
            run, n = key, 1
    total += n * factors[run]
    if total == math.inf:
        raise ValueError(f"article {article_id!r}: citation mass overflows a "
                         f"double (impact factors too large)")
    return total


def factor_table(ledger: Ledger, catalog: Catalog, fallback_if: float | None) -> _Factors:
    """The ledger's factor table, rebuilt (and ``fallback_if`` checked) on a new key.

    A ``fallback_if`` of another type is a new key, so that ``True`` is
    refused even after ``1``.
    """
    table = ledger._factors
    if (table is None or table.catalog is not catalog or table.fallback_if != fallback_if
            or type(table.fallback_if) is not type(fallback_if)):
        table = ledger._factors = _Factors(ledger.names, catalog, fallback_if)
    return table


def window_rows(ledger: Ledger, article_id: str, article: ArticleRecord,
                as_of: int | None) -> tuple[int, int]:
    """The one window rule: ``start, stop`` of the rows of ``article``, the record
    of ``article_id``, up to ``as_of`` years after publication (checked by the caller)."""
    if ledger.as_of is not None and (as_of is None or as_of > ledger.as_of):
        raise ValueError(f"as_of {as_of} reads citations the ledger dropped at load "
                         f"(loaded with as_of {ledger.as_of})")
    start, stop = ledger.offsets[article.position], ledger.offsets[article.position + 1]
    if as_of is not None:
        stop = bisect_right(ledger.days, _last_day(article_id, article, as_of), start, stop)
    return start, stop


def _last_day(article_id: str, article: ArticleRecord, as_of: int) -> int:
    """The last day, as an ordinal, of a window ``as_of`` years long (the window rule)."""
    if article.publication_date.year + as_of > dt.MAXYEAR:
        raise ValueError(
            f"as_of {as_of} ends the citation window of article {article_id!r} "
            f"(published {article.publication_date}) after year {dt.MAXYEAR}")
    return shift_years(article.publication_date, as_of).toordinal()


def check_scoring(as_of: int | None = None, if_mode: str = "current") -> None:
    """Refuse an ``if_mode`` not in ``IF_MODES``, then an ``as_of`` not None or whole years >= 0."""
    if if_mode not in IF_MODES:
        raise ValueError(f"if_mode must be one of {IF_MODES}, got {if_mode!r}")
    if as_of is not None and (
        isinstance(as_of, bool) or not isinstance(as_of, int) or as_of < 0
    ):
        raise ValueError(f"as_of must be a whole number of years >= 0, got {as_of!r}")


def _finite_factor(value) -> bool:
    """Whether ``value`` is a number, not a bool, >= 0 and finite as a double."""
    if isinstance(value, bool):
        return False
    try:
        return 0 <= value and value + 0.0 < math.inf
    except (TypeError, ValueError, OverflowError):  # not a number, or too large for a double
        return False


def _check_catalogued(ledger: Ledger, table: _Factors, start: int, stop: int) -> None:
    """Without a ``fallback_if``, refuse rows citing journals not in the catalog,
    naming them in name order, each by its first spelling there."""
    unknown = table.unknown if table.fallback_if is None else None
    if not unknown or unknown.isdisjoint(map(_rank_of, ledger.groups[start:stop])):
        return
    first: dict[int, str] = {}
    for s, key in zip(ledger.spelled[start:stop], ledger.groups[start:stop]):
        first.setdefault(key // _YEAR_SPAN, ledger.spellings[s])
    raise ResolutionError("citing journals not in catalog: " + ", ".join(
        first[rank] for rank in sorted(unknown.intersection(first))))


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


def _parse_ordinal(raw: str, source: str, lineno: int) -> int:
    """The day number of a date cell, trimmed and written exactly ``YYYY-MM-DD``."""
    return _parse_date(csv_field(raw, source, lineno), source, lineno).toordinal()


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
