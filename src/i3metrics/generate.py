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

Articles and their citations are drawn and written in one streamed
pass.  The draws are inlined: each integer is ``randrange``'s rejection
loop over ``getrandbits`` (see :func:`_below`), with the bit length of
each bound computed once, and each float is the stdlib's own formula
for ``paretovariate`` or ``uniform`` over ``random()``, so the stream
and the values stay those of the stdlib calls.  Every line, the
catalog's too, is formatted directly, not through ``formats.csv_cell``:
each field is built here from ASCII letters, digits, ``-``, ``.`` and
(in the headers) ``_``, so none would be quoted.  The articles and
citations files take their lines every ``_BLOCK`` articles, so memory
is bounded by one block, not by the corpus.
"""

from __future__ import annotations

import datetime as dt
import random
from pathlib import Path

from .catalog import CATALOG_HEADER
from .ledger import ARTICLES_HEADER, CITATIONS_HEADER

__all__ = ["generate_corpus"]

IF_YEARS = (2008, 2012, 2016, 2020)
FIRST_PUBLICATION = dt.date(2010, 1, 1)
LAST_PUBLICATION = dt.date(2018, 12, 31)
CITATION_HORIZON = dt.date(2022, 12, 31)
MAX_CITATIONS_PER_ARTICLE = 300
# Articles drawn between writes; memory holds one block's lines.
_BLOCK = 4096


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
    rand = rng.random
    catalog_lines = [",".join(CATALOG_HEADER) + "\n"]
    journal_names = []
    for k in range(1, n_categories + 1):
        category = f"category-{k:02d}"
        pending_base = None
        for j in range(1, 8 + _below(bits, 25) + 1):
            name = f"journal-{k:02d}-{j:03d}"
            journal_names.append(name)
            issn = _issn(bits)
            # Antithetic pairs (u, 4 - u) pin the catalog mean IF at
            # 2.0 regardless of corpus size.  ``a + (b - a) * rand()``
            # is ``uniform(a, b)``.
            if pending_base is None:
                base = round(1.0 + 2.0 * rand(), 2)
                pending_base = base
            else:
                base = round(4.0 - pending_base, 2)
                pending_base = None
            for year in IF_YEARS:
                factor = round(base + (-0.25 + 0.5 * rand()), 2)
                catalog_lines.append(f"{category},{name},{issn},{year},{factor:.2f}\n")

    # Dates are day offsets from FIRST_PUBLICATION, one ISO string per day.
    days = [(FIRST_PUBLICATION + dt.timedelta(days=d)).isoformat()
            for d in range((CITATION_HORIZON - FIRST_PUBLICATION).days + 1)]
    last_day = len(days) - 1
    pub_days = (LAST_PUBLICATION - FIRST_PUBLICATION).days + 1
    pub_bits = pub_days.bit_length()
    n_journals = len(journal_names)
    journal_bits = n_journals.bit_length()
    paths = tuple(out_dir / name for name in ("catalog.csv", "articles.csv", "citations.csv"))
    with open(paths[0], "w", encoding="utf-8", newline="") as handle:
        handle.writelines(catalog_lines)
    with open(paths[1], "w", encoding="utf-8", newline="") as articles, \
            open(paths[2], "w", encoding="utf-8", newline="") as citations:
        articles.write(",".join(ARTICLES_HEADER) + "\n")
        citations.write(",".join(CITATIONS_HEADER) + "\n")
        for first in range(1, n_articles + 1, _BLOCK):
            article_lines = []
            citation_lines = []
            for i in range(first, min(first + _BLOCK, n_articles + 1)):
                article_id = f"a-{i:05d}"
                journal = bits(journal_bits)
                while journal >= n_journals:
                    journal = bits(journal_bits)
                published = bits(pub_bits)
                while published >= pub_days:
                    published = bits(pub_bits)
                article_lines.append(f"{article_id},{journal_names[journal]},{days[published]}\n")
                # Pareto-ish tail: most articles gather a handful of
                # citations, a few gather hundreds.  The power is
                # ``paretovariate(1.3)``.
                count = min(int((1.0 - rand()) ** (-1.0 / 1.3)) - 1, MAX_CITATIONS_PER_ARTICLE)
                horizon = last_day - published
                horizon_bits = horizon.bit_length()
                for _ in range(count):
                    cited = bits(horizon_bits)
                    while cited >= horizon:
                        cited = bits(horizon_bits)
                    journal = bits(journal_bits)
                    while journal >= n_journals:
                        journal = bits(journal_bits)
                    citation_lines.append(
                        f"{article_id},{journal_names[journal]},{days[published + 1 + cited]}\n")
            articles.writelines(article_lines)
            citations.writelines(citation_lines)
    return paths


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
