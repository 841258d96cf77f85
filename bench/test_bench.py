"""Tests of the benchmark's own parts: reference, span arithmetic, generator.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import i3metrics
from i3metrics import (citation_count, compute_i3, f_score, generate_corpus, load_catalog,
                       load_ledger, ranking, score_articles)

import speed
import tracing
from corpus import write_dense_corpus
from reference import Reference, i3

CATALOG = """\
category,journal,issn,year,impact_factor
bio,Alpha Letters,,2010,2.0
bio,Alpha Letters,,2014,3.5
bio,Beta Annals,,2010,1.25
chem,Gamma Reports,,2012,0.5
chem,Gamma Reports,,2016,0.75
"""

ARTICLES = """\
article_id,journal,publication_date
leap,Alpha Letters,2012-02-29
plain,Gamma Reports,2013-06-10
"""

# Feb-29 anniversary (2013-02-28 is in the first year, 2013-03-01 is
# not), case and space variants, an uncatalogued journal, and citation
# years between history years (carried forward in historical mode).
CITATIONS = """\
article_id,citing_journal,citation_date
leap,ALPHA LETTERS,2013-02-28
leap,  beta annals ,2013-03-01
leap,Ghost Journal,2015-07-01
leap,Gamma Reports,2013-01-05
leap,gamma reports,2017-05-05
plain,Alpha Letters,2016-06-10
plain,beta annals,2013-06-10
"""


def tiny_corpus(tmp_path):
    paths = []
    for name, text in (("catalog", CATALOG), ("articles", ARTICLES), ("citations", CITATIONS)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def load(paths):
    with open(paths[0], encoding="utf-8", newline="") as handle:
        catalog = load_catalog(handle)
    with open(paths[1], encoding="utf-8", newline="") as a, \
            open(paths[2], encoding="utf-8", newline="") as c:
        return catalog, load_ledger(a, c)


def test_reference_semantics_on_hand_built_corpus(tmp_path):
    ref = Reference(*tiny_corpus(tmp_path))
    assert [day.isoformat() for _, day in ref.kept("leap", 1)] == ["2013-02-28", "2013-01-05"]
    # 2.0 (Alpha 2010, carried to 2012) + Alpha 2013 -> 2.0, Gamma 2013 -> 0.5 (from 2012)
    assert ref.f("leap", 1, historical=True) == 2.0 + 2.0 + 0.5
    # Current IFs, everything counted; Ghost Journal takes the fallback.
    assert ref.f("leap", fallback=1.5) == 3.5 + 3.5 + 1.25 + 1.5 + 2 * 0.75


def test_reference_agrees_with_engine(tmp_path):
    paths = tiny_corpus(tmp_path)
    catalog, ledger = load(paths)
    ref = Reference(*paths)
    for article_id in ("leap", "plain"):
        beta = catalog.beta_for(catalog.journal(ledger.article(article_id).journal).category)
        assert beta == ref.beta(article_id)
        for as_of in (None, 0, 1, 2, 4):
            assert citation_count(ledger, article_id, as_of) == len(ref.kept(article_id, as_of))
            for mode in ("current", "historical"):
                f = f_score(ledger, catalog, article_id, as_of=as_of, if_mode=mode,
                            fallback_if=1.5)
                assert f == ref.f(article_id, as_of, mode == "historical", 1.5)
                assert compute_i3(f, beta) == i3(f, beta)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_subtract_children():
    recorder = tracing.Recorder(clock=FakeClock([0, 1, 2, 3, 5, 6, 7, 8, 8.5, 10]))
    leaf = recorder.timed("leaf", lambda: None)

    def middle():
        leaf()

    inner = recorder.timed("inner", middle)

    def top():
        inner()
        inner()

    recorder.timed("outer", top)()
    spans = recorder.spans
    assert [(s[0], s[1], s[2]) for s in spans] == [
        ("outer", 0, 10), ("inner", 1, 5), ("leaf", 2, 3), ("inner", 6, 8.5), ("leaf", 7, 8)]
    assert tracing.self_times(spans) == [3.5, 3, 1, 1.5, 1]
    assert tracing.nesting_errors(spans, tracing.self_times(spans)) == 0
    summary = tracing.summarize(spans)
    assert summary["inner"] == {"calls": 2, "total_s": 6.5, "self_s": 4.5}
    assert summary["leaf"]["self_s"] == summary["leaf"]["total_s"] == 2


def test_nesting_errors_flag_a_child_outside_its_parent():
    spans = [["outer", 0.0, 1.0, -1, 0], ["inner", 0.5, 1.5, 0, 0]]
    assert tracing.nesting_errors(spans, tracing.self_times(spans)) == 1


def test_install_wraps_call_sites_and_uninstall_restores(tmp_path):
    catalog, ledger = load(tiny_corpus(tmp_path))
    original = ranking.f_score
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert ranking.f_score is not original
        ranking.score_articles(ledger, catalog, ["leap", "plain"], as_of=2, fallback_if=1.0)
    finally:
        recorder.uninstall()
    assert ranking.f_score is original and i3metrics.ranking.score_articles is score_articles
    assert recorder.f_score_calls(f_score) == [("leap", 2), ("plain", 2)]
    assert recorder.counts["core.compute_i3"] == 2
    assert recorder.counts["catalog.canonical_name"] > 0
    names = [s[0] for s in recorder.spans]
    assert names == ["ranking.score_articles", "ledger.f_score", "ledger.f_score"]


def test_dense_generator_is_deterministic_per_seed(tmp_path):
    def corpus(name, seed):
        paths = write_dense_corpus(tmp_path / name, seed, n_articles=60, n_categories=3)
        return [p.read_bytes() for p in paths]

    first, again, other = corpus("a", 3), corpus("b", 3), corpus("c", 4)
    assert first == again
    assert first[1:] != other[1:]
    assert first[0] == generate_corpus(tmp_path / "d", 1, 3, 3)[0].read_bytes()

    catalog, ledger = load(write_dense_corpus(tmp_path / "e", 3, n_articles=60, n_categories=3))
    counts = [len(ledger.events(a)) for a in ledger.articles]
    assert len(counts) == 60 and min(counts) >= 30 and max(counts) <= 120
    names = [e.citing_journal for events in ledger.citations.values() for e in events]
    assert any(not catalog.has_journal(n) for n in names)
    assert any(n != n.lower() for n in names)


def test_reference_seconds_follow_the_probes_in_the_interval():
    samples = [(1.0, speed.REFERENCE_S), (2.0, 2 * speed.REFERENCE_S), (3.0, speed.REFERENCE_S)]
    assert speed.probes(samples, 1.5, 2.5) == [2 * speed.REFERENCE_S]
    assert speed.probes(samples, 3.2, 3.4) == [speed.REFERENCE_S]  # nearest, none inside
    assert speed.reference_s(4.0, speed.probes(samples, 0.5, 1.5)) == 4.0
    # at half the reference speed, work took 2 ** sensitivity times as long
    slow = [2 * speed.REFERENCE_S]
    assert abs(speed.reference_s(4.0, slow) * 2 ** speed.SAMPLER_SENSITIVITY - 4.0) < 1e-12
    assert speed.reference_s(4.0, slow, speed.INLINE_SENSITIVITY) == 2.0


def test_sampler_probes_until_closed():
    with speed.Sampler() as sampler:
        speed.probe()
    assert sampler.samples and all(seconds > 0 for _, seconds in sampler.samples)
    assert sampler.proc.returncode == 0
