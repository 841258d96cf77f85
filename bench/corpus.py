"""Seeded citation-dense corpus for the score-dense and trajectory workloads.

``i3metrics gen`` draws about 2.3 citations per article, which leaves
the per-event path (parsing, name joins, impact-factor lookups,
``as_of`` filtering, fallback) nearly idle.  This corpus keeps the
package generator's catalog and replaces articles and citations with
30 to 120 citations per article.  About a fifth of the citing names are
case- or space-variants of a catalog name, about one in twenty names a
journal missing from the catalog (so scoring needs ``--fallback-if``),
and a few citations land exactly on an anniversary, the inclusive edge
of ``--as-of``.  The package generator itself stays untouched, so the
bytes ``i3metrics gen`` writes do not change.
"""

from __future__ import annotations

import csv
import datetime as dt
import random
from pathlib import Path

from i3metrics import generate_corpus

from reference import anniversary

ARTICLES = 8000
CATEGORIES = 50
CITATIONS_PER_ARTICLE = (30, 120)
VARIANT_SHARE = 0.20
UNLISTED_SHARE = 0.05
UNLISTED_JOURNALS = 200
ANNIVERSARY_SHARE = 0.03
FIRST_PUBLICATION = dt.date(2010, 1, 1)
LAST_PUBLICATION = dt.date(2018, 12, 31)
CITATION_HORIZON = dt.date(2022, 12, 31)


def write_dense_corpus(out_dir, seed: int, n_articles: int = ARTICLES,
                       n_categories: int = CATEGORIES) -> tuple[Path, Path, Path]:
    """Write catalog.csv, articles.csv and citations.csv under ``out_dir``."""
    return fill_dense(generate_corpus(out_dir, 1, n_categories, seed), seed, n_articles)


def fill_dense(paths, seed: int, n_articles: int = ARTICLES) -> tuple[Path, Path, Path]:
    """Replace the articles and citations of a generated corpus with dense ones."""
    catalog, articles, citations = paths
    with open(catalog, encoding="utf-8", newline="") as handle:
        journals = sorted({row[1] for row in list(csv.reader(handle))[1:]})
    rng = random.Random(f"dense:{seed}")
    draw = rng.random  # int(draw() * n) is uniform on 0..n-1 and several times faster than randint
    variants = (str.upper, str.title, lambda name: f"  {name}", lambda name: f"{name} ")
    first, horizon = FIRST_PUBLICATION.toordinal(), CITATION_HORIZON.toordinal()
    iso = {day: dt.date.fromordinal(day).isoformat() for day in range(first, horizon + 1)}
    low, high = CITATIONS_PER_ARTICLE

    article_rows, citation_rows = [], []
    for i in range(1, n_articles + 1):
        article_id = f"d-{i:05d}"
        published = first + int(draw() * (LAST_PUBLICATION.toordinal() - first + 1))
        article_rows.append([article_id, journals[int(draw() * len(journals))], iso[published]])
        for _ in range(low + int(draw() * (high - low + 1))):
            if draw() < UNLISTED_SHARE:
                journal = f"unlisted-{1 + int(draw() * UNLISTED_JOURNALS):03d}"
            else:
                journal = journals[int(draw() * len(journals))]
            if draw() < VARIANT_SHARE:
                journal = variants[int(draw() * len(variants))](journal)
            if draw() < ANNIVERSARY_SHARE:
                day = anniversary(dt.date.fromordinal(published), 1 + int(draw() * 10))
                day = min(day.toordinal(), horizon)
            else:
                day = published + int(draw() * (horizon - published + 1))
            citation_rows.append([article_id, journal, iso[day]])

    _write(articles, ["article_id", "journal", "publication_date"], article_rows)
    _write(citations, ["article_id", "citing_journal", "citation_date"], citation_rows)
    return catalog, articles, citations


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
