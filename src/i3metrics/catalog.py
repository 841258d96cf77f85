"""Journal catalog: category membership and impact-factor history.

The catalog is loaded from a UTF-8 CSV with the exact header
``category,journal,issn,year,impact_factor`` and one row per
(journal, year).  Rows for the same journal merge into one record;
inconsistencies (a journal under two categories, conflicting impact
factors for the same year, malformed numbers) are rejected loudly with
the offending line number rather than silently repaired.

Journal names are joined case-insensitively after trimming whitespace.
ISSNs are carried as bibliographic metadata only and are never used as
a join key.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import IO

from .core import compute_beta
from .errors import InputError, ResolutionError
from .formats import ascii_float, csv_field, csv_text, read_csv

__all__ = [
    "JournalRecord",
    "Catalog",
    "CategoryStats",
    "CatalogStats",
    "canonical_name",
    "load_catalog",
    "dump_catalog",
    "catalog_stats",
]

CATALOG_HEADER = ["category", "journal", "issn", "year", "impact_factor"]

_ISSN_RE = re.compile(r"^[0-9]{4}-[0-9]{3}[0-9X]$")
_YEAR_RE = re.compile(r"[0-9]{4}")


def canonical_name(name: str) -> str:
    """Join key for journal names: trimmed and case-folded."""
    return name.strip().casefold()


@dataclass
class JournalRecord:
    """One journal: display name, single category, and its IF history."""

    name: str
    category: str
    issn: str | None
    if_history: dict[int, float] = field(default_factory=dict)

    @cached_property
    def _years(self) -> list[int]:
        # Sorted on first use; the history does not change after load.
        return sorted(self.if_history)

    def latest_if(self) -> float:
        return self.if_history[self._years[-1]]

    def if_at(self, year: int) -> float:
        """Impact factor for ``year``, carrying the last known value forward."""
        known = bisect_right(self._years, year)
        if not known:
            raise ResolutionError(
                f"journal '{self.name}' has no impact factor on or before "
                f"{year} (history starts {self._years[0]})"
            )
        return self.if_history[self._years[known - 1]]


@dataclass
class Catalog:
    """Validated journal catalog; immutable after load, safe to share."""

    journals: dict[str, JournalRecord]
    categories: dict[str, list[str]]

    def has_journal(self, journal: str) -> bool:
        return canonical_name(journal) in self.journals

    def journal(self, journal: str) -> JournalRecord:
        key = canonical_name(journal)
        try:
            return self.journals[key]
        except KeyError:
            raise ResolutionError(f"journal '{journal.strip()}' not in catalog") from None

    def phi(self, category: str) -> int:
        """Number of journal titles in ``category``."""
        try:
            return len(self.categories[category])
        except KeyError:
            raise KeyError(f"unknown category: {category!r}") from None

    def beta_for(self, category: str) -> float:
        """Category rate coefficient derived from the title count."""
        return compute_beta(self.phi(category))


def load_catalog(stream: IO[str], source: str = "catalog") -> Catalog:
    """Parse and validate a catalog CSV; see the module docstring for rules."""
    journals: dict[str, JournalRecord] = {}
    for lineno, row in read_csv(stream, CATALOG_HEADER, source):
        category, name, issn_raw, year_raw, if_raw = (csv_field(cell, source, lineno)
                                                      for cell in row)
        if not category:
            raise InputError(f"{source} line {lineno}: empty category")
        if not name:
            raise InputError(f"{source} line {lineno}: empty journal name")
        year = _parse_year(year_raw, source, lineno)
        impact = _parse_impact_factor(if_raw, source, lineno)
        issn = _parse_issn(issn_raw, source, lineno)

        key = canonical_name(name)
        record = journals.get(key)
        if record is None:
            journals[key] = JournalRecord(name, category, issn, {year: impact})
            continue
        if record.category != category:
            raise InputError(
                f"{source} line {lineno}: journal '{record.name}' listed under "
                f"both '{record.category}' and '{category}'; one category per journal"
            )
        if issn is not None:
            if record.issn is None:
                record.issn = issn
            elif record.issn != issn:
                raise InputError(
                    f"{source} line {lineno}: journal '{record.name}' has "
                    f"conflicting ISSNs {record.issn} and {issn}"
                )
        if year in record.if_history and record.if_history[year] != impact:
            raise InputError(
                f"{source} line {lineno}: duplicate impact factor for journal "
                f"'{record.name}' year {year} ({record.if_history[year]!r} vs {impact!r})"
            )
        record.if_history[year] = impact

    categories: dict[str, list[str]] = {}
    for key, record in journals.items():
        categories.setdefault(record.category, []).append(key)
    for members in categories.values():
        members.sort()
    return Catalog(journals, categories)


def dump_catalog(catalog: Catalog, stream: IO[str]) -> None:
    """Serialize back to the load format through :func:`csv_text`; load(dump(c)) equals ``c``."""
    rows = [CATALOG_HEADER]
    for key in sorted(catalog.journals, key=lambda k: (catalog.journals[k].category, k)):
        record = catalog.journals[key]
        rows += (
            [record.category, record.name, record.issn or "",
             year, repr(record.if_history[year])]
            for year in sorted(record.if_history)
        )
    stream.write(csv_text(rows))


@dataclass(frozen=True)
class CategoryStats:
    category: str
    phi: int
    beta: float
    mean_if: float


@dataclass(frozen=True)
class CatalogStats:
    categories: list[CategoryStats]
    mean_phi: float
    mean_if: float


def catalog_stats(catalog: Catalog) -> CatalogStats:
    """Per-category title counts, coefficients, and mean impact factors.

    The global mean title count averages over categories; the global
    mean impact factor averages the latest IF over all journals.
    """
    if not catalog.journals:
        raise InputError("catalog is empty")
    per_category = [
        CategoryStats(
            category=category,
            phi=catalog.phi(category),
            beta=catalog.beta_for(category),
            mean_if=_mean([catalog.journals[m].latest_if() for m in members]),
        )
        for category, members in sorted(catalog.categories.items())
    ]
    mean_phi = sum(s.phi for s in per_category) / len(per_category)
    mean_if = _mean([r.latest_if() for r in catalog.journals.values()])
    return CatalogStats(per_category, mean_phi, mean_if)


def _mean(values: list[float]) -> float:
    """Mean of finite values >= 0, scaled by the largest where their sum overflows."""
    total = reduce(add, values, 0.0)  # left to right: sum() compensates from Python 3.12
    if total < math.inf:
        return total / len(values)
    top = max(values)
    return top * (reduce(add, (value / top for value in values), 0.0) / len(values))


def _parse_year(raw: str, source: str, lineno: int) -> int:
    if not _YEAR_RE.fullmatch(raw):
        raise InputError(f"{source} line {lineno}: year must be a 4-digit integer, got {raw!r}")
    return int(raw)


def _parse_impact_factor(raw: str, source: str, lineno: int) -> float:
    try:
        value = ascii_float(raw)
        if not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise InputError(
            f"{source} line {lineno}: malformed impact factor {raw!r}"
        ) from None
    if value < 0.0:
        raise InputError(f"{source} line {lineno}: impact factor must be >= 0, got {raw!r}")
    return value


def _parse_issn(raw: str, source: str, lineno: int) -> str | None:
    if not raw:
        return None
    if not _ISSN_RE.fullmatch(raw):
        raise InputError(
            f"{source} line {lineno}: malformed ISSN {raw!r} (expected NNNN-NNNC)"
        )
    return raw
