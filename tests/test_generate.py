"""Tests for the seeded synthetic corpus generator."""

import csv
import datetime as dt
import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from i3metrics import generate
from i3metrics.catalog import CATALOG_HEADER, catalog_stats, load_catalog
from i3metrics.generate import _below, _issn, generate_corpus
from i3metrics.ledger import ARTICLES_HEADER, CITATIONS_HEADER, f_score, load_ledger


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_corpus(paths):
    catalog_path, articles_path, citations_path = paths
    with open(catalog_path, encoding="utf-8", newline="") as stream:
        catalog = load_catalog(stream)
    with open(articles_path, encoding="utf-8", newline="") as articles, \
            open(citations_path, encoding="utf-8", newline="") as citations:
        ledger = load_ledger(articles, citations)
    return catalog, ledger


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        first = generate_corpus(tmp_path / "one", 50, 3, seed=42)
        second = generate_corpus(tmp_path / "two", 50, 3, seed=42)
        assert [digest(p) for p in first] == [digest(p) for p in second]

    def test_different_seed_different_corpus(self, tmp_path):
        first = generate_corpus(tmp_path / "one", 50, 3, seed=1)
        second = generate_corpus(tmp_path / "two", 50, 3, seed=2)
        assert [digest(p) for p in first] != [digest(p) for p in second]

    # Recorded before the draws went through ``_below``.  The first
    # corpus has three-digit category numbers, the second a pool of two
    # categories' journals; tests/test_stdout_bytes.py pins a third.
    @pytest.mark.parametrize("args, digests", [
        ((1, 120, 0), [
            "402cc1748802d046ecd65b39df84009e6b711d9a6c628ed2f0943b1933d72eb5",
            "102e3b49a631b59f47d9c6aa31c84afee280097a9a469167748cfa0b5ad2355a",
            "a7d11ca8f59b54b58a295bdc125a0e7f5af3888041892b1379f5225804d4fd6d",
        ]),
        ((3000, 2, 123), [
            "52a49cd34327f444ed1dd3c8824b058e7092cb3c83b07af6c3fd8a100946979d",
            "0f8a12f6e4bdfd5d2e75c312095304a0ac48a1decfa588477d85584db2d00336",
            "ca68d49bf2abf846d5b86065a6c73f5e30cee78621301524c8f5576b2aeda9ea",
        ]),
    ], ids=["one-article-120-categories", "3000-articles-2-categories"])
    def test_file_bytes_are_unchanged(self, tmp_path, args, digests):
        assert [digest(p) for p in generate_corpus(tmp_path, *args)] == digests


class TestDrawRule:
    # The generator draws every integer through ``_below``.  If a Python
    # release changes ``randrange``'s rule, these fail and name the cause
    # before the byte pins fail without one.
    SIZES = [1, 2, 3, 7, 8, 9, 25, 1024, 1025, 4748, 10**6 + 3, 2**40 + 1]

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 123])
    def test_below_is_randrange(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n in self.SIZES:
            drawn = [_below(ours.getrandbits, n) for _ in range(50)]
            assert drawn == [stdlib.randrange(n) for _ in range(50)], n
            assert ours.getstate() == stdlib.getstate(), n

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 123])
    def test_offset_below_is_randint(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for a, b in [(0, 9), (1, 1), (8, 32), (0, 3286), (1, 4747), (-5, 10**6)]:
            drawn = [a + _below(ours.getrandbits, b - a + 1) for _ in range(50)]
            assert drawn == [stdlib.randint(a, b) for _ in range(50)], (a, b)
            assert ours.getstate() == stdlib.getstate(), (a, b)

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 123])
    def test_index_below_is_choice(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for size in [1, 2, 40, 4100]:
            seq = [f"journal-{k}" for k in range(size)]
            drawn = [seq[_below(ours.getrandbits, len(seq))] for _ in range(50)]
            assert drawn == [stdlib.choice(seq) for _ in range(50)], size
            assert ours.getstate() == stdlib.getstate(), size

    # The generator inlines ``paretovariate`` and ``uniform`` as the
    # stdlib spells them; these name a changed rule before the byte pins.
    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 123])
    def test_power_is_paretovariate(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        drawn = [((1.0 - ours.random()) ** (-1.0 / 1.3)).hex() for _ in range(200)]
        assert drawn == [stdlib.paretovariate(1.3).hex() for _ in range(200)]
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 123])
    def test_scaled_random_is_uniform(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert (1.0 + 2.0 * ours.random()).hex() == stdlib.uniform(1.0, 3.0).hex()
            assert (-0.25 + 0.5 * ours.random()).hex() == stdlib.uniform(-0.25, 0.25).hex()
        assert ours.getstate() == stdlib.getstate()


def reference_corpus(out_dir, n_articles, n_categories, seed):
    """The generator as it was before the streamed pass: rows in lists, ``csv.writer``."""
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
            if pending_base is None:
                base = round(rng.uniform(1.0, 3.0), 2)
                pending_base = base
            else:
                base = round(4.0 - pending_base, 2)
                pending_base = None
            for year in generate.IF_YEARS:
                factor = round(base + rng.uniform(-0.25, 0.25), 2)
                catalog_rows.append([category, name, issn, year, f"{factor:.2f}"])
    first = generate.FIRST_PUBLICATION
    days = [(first + dt.timedelta(days=d)).isoformat()
            for d in range((generate.CITATION_HORIZON - first).days + 1)]
    pub_days = (generate.LAST_PUBLICATION - first).days + 1
    n_journals = len(journal_names)
    article_rows = []
    citation_rows = []
    for i in range(1, n_articles + 1):
        article_id = f"a-{i:05d}"
        journal = journal_names[_below(bits, n_journals)]
        published = _below(bits, pub_days)
        article_rows.append([article_id, journal, days[published]])
        count = min(int(rng.paretovariate(1.3)) - 1, generate.MAX_CITATIONS_PER_ARTICLE)
        horizon = len(days) - 1 - published
        for _ in range(count):
            cited = published + 1 + _below(bits, horizon)
            citation_rows.append([article_id, journal_names[_below(bits, n_journals)], days[cited]])
    files = (("catalog.csv", CATALOG_HEADER, catalog_rows),
             ("articles.csv", ARTICLES_HEADER, article_rows),
             ("citations.csv", CITATIONS_HEADER, citation_rows))
    for name, header, rows in files:
        with open(out_dir / name, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(chain([header], rows))
    return tuple(out_dir / name for name, _, _ in files)


class TestStreamedPass:
    """The streamed generator writes the reference generator's bytes."""

    def same_bytes(self, tmp_path, *args):
        ours = generate_corpus(tmp_path / "ours", *args)
        theirs = reference_corpus(tmp_path / "theirs", *args)
        assert [p.name for p in ours] == [p.name for p in theirs]
        for mine, reference in zip(ours, theirs):
            assert mine.read_bytes() == reference.read_bytes(), mine.name
        return ours

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_block_edges(self, tmp_path, extra):
        n = generate._BLOCK + extra
        paths = self.same_bytes(tmp_path, n, 3, 2)
        if extra == 1:  # the lone article of the second block is cited
            assert f"a-{n:05d}," in paths[2].read_text(encoding="utf-8")

    def test_three_digit_categories(self, tmp_path):
        self.same_bytes(tmp_path, 300, 130, 77)

    def test_six_digit_ids_and_the_citation_cap(self, tmp_path):
        paths = self.same_bytes(tmp_path, 100_001, 1, 3)
        with open(paths[2], encoding="utf-8") as handle:
            next(handle)
            counts = Counter(line[:line.index(",")] for line in handle)
        assert max(counts.values()) == generate.MAX_CITATIONS_PER_ARTICLE
        assert "a-100001" in paths[1].read_text(encoding="utf-8")

    def test_memory_is_bounded_by_one_block(self, tmp_path, monkeypatch):
        # One category keeps the catalog small, so one block's lines
        # outweigh what every run holds (the day strings, the buffers).
        monkeypatch.setattr(generate, "_BLOCK", 1024)

        def peak(n_articles):
            tracemalloc.start()
            try:
                generate_corpus(tmp_path / str(n_articles), n_articles, 1, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * 1024) < 1.3 * peak(1024)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return load_corpus(generate_corpus(out, 100, 5, seed=7))


class TestValidity:

    def test_all_articles_present(self, corpus):
        _, ledger = corpus
        assert len(ledger.articles) == 100
        assert all(a.startswith("a-") for a in ledger.articles)

    def test_five_populated_categories(self, corpus):
        catalog, _ = corpus
        assert len(catalog.categories) == 5
        assert all(len(members) >= 8 for members in catalog.categories.values())

    def test_every_article_scores_strictly(self, corpus):
        # No fallback: every publishing and citing journal must resolve,
        # including in historical mode (histories start before any
        # publication year).
        catalog, ledger = corpus
        for article_id in ledger.articles:
            assert f_score(ledger, catalog, article_id) > 0.0
            assert f_score(ledger, catalog, article_id,
                           if_mode="historical") > 0.0

    def test_citations_follow_publication(self, corpus):
        _, ledger = corpus
        for article_id, events in ledger.citations.items():
            published = ledger.articles[article_id].publication_date
            assert all(e.date > published for e in events)

    def test_issn_check_digits(self, corpus):
        catalog, _ = corpus
        for record in catalog.journals.values():
            digits = record.issn.replace("-", "")
            total = sum(int(d) * w for d, w in zip(digits[:7], range(8, 1, -1)))
            check = (11 - total % 11) % 11
            assert digits[7] == ("X" if check == 10 else str(check))

    def test_mean_impact_factor_near_two(self, tmp_path):
        paths = generate_corpus(tmp_path / "big", 10, 8, seed=3)
        catalog, _ = load_corpus(paths)
        stats = catalog_stats(catalog)
        assert stats.mean_if == pytest.approx(2.0, abs=0.1)


class TestArguments:
    def test_rejects_empty_requests(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1"):
            generate_corpus(tmp_path, 0, 3, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            generate_corpus(tmp_path, 3, 0, seed=1)

    def test_creates_output_directory(self, tmp_path):
        paths = generate_corpus(tmp_path / "a" / "b", 5, 1, seed=9)
        assert all(p.is_file() for p in paths)
