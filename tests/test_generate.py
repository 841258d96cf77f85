"""Tests for the seeded synthetic corpus generator."""

import hashlib
import random

import pytest

from i3metrics.catalog import catalog_stats, load_catalog
from i3metrics.generate import _below, generate_corpus
from i3metrics.ledger import f_score, load_ledger


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
