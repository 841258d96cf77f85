"""Seeded synthetic corpus generator for demos and end-to-end tests.

Writes the catalog/articles/citations CSV triplet.  Everything derives
from one mandatory seed through a single ``random.Random`` stream, so
the same arguments always produce byte-identical files.  Generated
corpora satisfy the loader invariants by construction: every citation
resolves to a known article and journal, no citation precedes its
article, and impact-factor histories start early enough (2008) to
cover any citation year in historical mode.

Journal impact factors are drawn around a mean of 2.0, matching the
average journal, so catalog statistics over a generated corpus land
near that value.
"""

from __future__ import annotations

import datetime as dt
import random
from itertools import chain
from pathlib import Path

from .catalog import CATALOG_HEADER
from .formats import write_csv
from .ledger import ARTICLES_HEADER, CITATIONS_HEADER

__all__ = ["generate_corpus"]

IF_YEARS = (2008, 2012, 2016, 2020)
FIRST_PUBLICATION = dt.date(2010, 1, 1)
LAST_PUBLICATION = dt.date(2018, 12, 31)
CITATION_HORIZON = dt.date(2022, 12, 31)
MAX_CITATIONS_PER_ARTICLE = 300


def generate_corpus(
    out_dir: Path | str,
    n_articles: int,
    n_categories: int,
    seed: int,
) -> tuple[Path, Path, Path]:
    """Write catalog.csv, articles.csv, citations.csv under ``out_dir``."""
    if n_articles < 1:
        raise ValueError(f"need at least 1 article, got {n_articles}")
    if n_categories < 1:
        raise ValueError(f"need at least 1 category, got {n_categories}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    bits = rng.getrandbits
    catalog_rows = []
    journal_names = []
    for k in range(1, n_categories + 1):
        category = f"category-{k:02d}"
        pending_base = None
        for j in range(1, 8 + _below(bits, 25) + 1):
            name = f"journal-{k:02d}-{j:03d}"
            journal_names.append(name)
            issn = _issn(bits)
            # Antithetic pairs (u, 4 - u) pin the catalog mean IF at
            # 2.0 regardless of corpus size.
            if pending_base is None:
                base = round(rng.uniform(1.0, 3.0), 2)
                pending_base = base
            else:
                base = round(4.0 - pending_base, 2)
                pending_base = None
            for year in IF_YEARS:
                factor = round(base + rng.uniform(-0.25, 0.25), 2)
                catalog_rows.append([category, name, issn, year, f"{factor:.2f}"])

    # Dates are day offsets from FIRST_PUBLICATION, one ISO string per day.
    days = [(FIRST_PUBLICATION + dt.timedelta(days=d)).isoformat()
            for d in range((CITATION_HORIZON - FIRST_PUBLICATION).days + 1)]
    pub_days = (LAST_PUBLICATION - FIRST_PUBLICATION).days + 1
    n_journals = len(journal_names)
    article_rows = []
    citation_rows = []
    for i in range(1, n_articles + 1):
        article_id = f"a-{i:05d}"
        journal = journal_names[_below(bits, n_journals)]
        published = _below(bits, pub_days)
        article_rows.append([article_id, journal, days[published]])
        # Pareto-ish tail: most articles gather a handful of citations,
        # a few gather hundreds.
        count = min(int(rng.paretovariate(1.3)) - 1, MAX_CITATIONS_PER_ARTICLE)
        horizon = len(days) - 1 - published
        for _ in range(count):
            cited = published + 1 + _below(bits, horizon)
            citation_rows.append([article_id, journal_names[_below(bits, n_journals)], days[cited]])

    files = (("catalog.csv", CATALOG_HEADER, catalog_rows),
             ("articles.csv", ARTICLES_HEADER, article_rows),
             ("citations.csv", CITATIONS_HEADER, citation_rows))
    for name, header, rows in files:
        with open(out_dir / name, "w", encoding="utf-8", newline="") as handle:
            write_csv(handle, chain([header], rows))
    return tuple(out_dir / name for name, _, _ in files)


def _below(getrandbits, n: int) -> int:
    """``random.Random.randrange``'s draw from ``range(n)`` in one call: same value, same state."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _issn(getrandbits) -> str:
    """Random ISSN with a valid mod-11 check character."""
    digits = [_below(getrandbits, 10) for _ in range(7)]
    remainder = sum(d * w for d, w in zip(digits, range(8, 1, -1))) % 11
    check = (11 - remainder) % 11
    body = "".join(str(d) for d in digits)
    return f"{body[:4]}-{body[4:]}{'X' if check == 10 else check}"
