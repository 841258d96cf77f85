"""Plain reference for f and i3, read straight from the three CSV files.

Independent of the package: no loader, no data model, no validation.
It follows the documented rules only: names join trimmed and
case-folded, historical impact factors carry the last known year
forward, ``as_of`` keeps citations up to the anniversary (Feb 29 falls
back to Feb 28), unknown citing journals take the fallback, and groups
are summed journal first, then year, onto the publishing journal's IF.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections import defaultdict


def _rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [[cell.strip() for cell in row] for row in csv.reader(handle) if row]
    return rows[1:]


def anniversary(day: dt.date, years: int) -> dt.date:
    try:
        return day.replace(year=day.year + years)
    except ValueError:
        return day.replace(year=day.year + years, day=28)


class Reference:
    def __init__(self, catalog, articles, citations, only=None):
        self.ifs, self.category, members = defaultdict(dict), {}, defaultdict(set)
        for category, journal, _issn, year, factor in _rows(catalog):
            self.ifs[journal.casefold()][int(year)] = float(factor)
            self.category[journal.casefold()] = category
            members[category].add(journal.casefold())
        self.phi = {category: len(names) for category, names in members.items()}
        self.articles = {a: (j.casefold(), dt.date.fromisoformat(d)) for a, j, d in _rows(articles)}
        self.events = defaultdict(list)
        for article_id, journal, day in _rows(citations):
            if only is None or article_id in only:
                self.events[article_id].append((journal.casefold(), dt.date.fromisoformat(day)))

    def _if(self, journal, year, fallback):
        history = self.ifs.get(journal)
        if history is None:
            return fallback
        return history[max(y for y in history if year is None or y <= year)]

    def kept(self, article_id, as_of=None):
        published = self.articles[article_id][1]
        cutoff = dt.date.max if as_of is None else anniversary(published, as_of)
        return [(journal, day) for journal, day in self.events[article_id] if day <= cutoff]

    def f(self, article_id, as_of=None, historical=False, fallback=None):
        journal, published = self.articles[article_id]
        groups = defaultdict(int)
        for citing, day in self.kept(article_id, as_of):
            groups[citing, day.year if historical else None] += 1
        total = self._if(journal, published.year if historical else None, None)
        for (citing, year), count in sorted(groups.items(), key=lambda g: (g[0][0], g[0][1] or 0)):
            total += count * self._if(citing, year, fallback)
        return total

    def beta(self, article_id):
        # lambda / phi, lambda = 1 / (3 pi) rounded first as the package does,
        # so tie-breaks compare bit for bit.
        return (1.0 / (3.0 * math.pi)) / self.phi[self.category[self.articles[article_id][0]]]


def i3(f: float, beta: float) -> float:
    return -math.expm1(-beta * f)


def auc(f: float, beta: float) -> float:
    return f + math.expm1(-beta * f) / beta
