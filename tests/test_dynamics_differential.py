"""Differential test: dynamics reports against per-anniversary ``f_score`` calls.

A dynamics report is defined as the plain composition below: the
current-IF full mass, then one historical ``f_score`` call per
anniversary, each mapped through ``compute_i3``/``i3_auc``.  The engine
is compared with it under ``==``, so every float must match bit for
bit; when either side raises, the exception type and text must match,
which pins the order in which errors surface.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i3metrics.catalog import load_catalog
from i3metrics.core import compute_i3, i3_auc, i3_derivative
from i3metrics.dynamics import DynamicsPoint, DynamicsReport, dynamics_report
from i3metrics.errors import ResolutionError
from i3metrics.ledger import anniversary_masses, f_score, load_ledger, validate_truncation
from test_differential import corpora


def composed(ledger, catalog, article_id, years, fallback):
    beta = catalog.beta_for(catalog.journal(ledger.article(article_id).journal).category)
    f_full = f_score(ledger, catalog, article_id, if_mode="current", fallback_if=fallback)
    i3_full = compute_i3(f_full, beta)
    auc_full = i3_auc(f_full, beta)
    series = []
    for t in years:
        f_t = f_score(ledger, catalog, article_id, as_of=t, if_mode="historical",
                      fallback_if=fallback)
        i3_t = compute_i3(f_t, beta)
        if i3_full == 0.0:
            ratios = (None, None)
        else:
            ratios = (i3_t / i3_full, i3_auc(f_t, beta) / auc_full if auc_full else None)
        series.append(DynamicsPoint(t, f_t, i3_t, *ratios))
    return DynamicsReport(article_id, beta, f_full, i3_full, series, auc_full,
                          i3_derivative(f_full, beta))


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the type and the text are part of the contract
        return type(exc), str(exc)


def load(catalog_text, articles_text, citations_text):
    return (load_catalog(io.StringIO(catalog_text)),
            load_ledger(io.StringIO(articles_text), io.StringIO(citations_text)))


def compare(catalog_text, articles_text, citations_text, years, fallback):
    catalog, ledger = load(catalog_text, articles_text, citations_text)
    engine = {a: outcome(dynamics_report, ledger, catalog, a, years, fallback)
              for a in ledger.articles}
    reference = {a: outcome(composed, ledger, catalog, a, years, fallback)
                 for a in ledger.articles}
    assert engine == reference
    return engine


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(),
       years=st.sets(st.integers(1, 8), min_size=1).map(sorted),
       fallback=st.sampled_from([None, 1.0, 0.3]))
def test_dynamics_matches_per_anniversary_f_score(corpus, years, fallback):
    compare(*corpus, years, fallback)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(),
       years=st.sets(st.integers(0, 8), min_size=1).map(sorted),
       fallback=st.sampled_from([None, 1.0, 0.3]))
def test_anniversary_masses_match_f_score(corpus, years, fallback):
    # Called directly, so uncatalogued citing journals and the publishing
    # journal's history are not caught first by the full-mass call.
    catalog, ledger = load(*corpus)
    for a in ledger.articles:
        def per_call():
            return [f_score(ledger, catalog, a, as_of=t, if_mode="historical",
                            fallback_if=fallback) for t in years]
        assert outcome(anniversary_masses, ledger, catalog, a, years, fallback) == \
            outcome(per_call)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), t=st.integers(0, 6), fallback=st.sampled_from([None, 1.0, 0.3]))
def test_validate_truncation_matches_two_f_score_calls(corpus, t, fallback):
    # One pass over the window at t and the full history, at current IFs.
    catalog, ledger = load(*corpus)
    for a in ledger.articles:
        def per_call():
            return (f_score(ledger, catalog, a, as_of=t, fallback_if=fallback)
                    <= f_score(ledger, catalog, a, fallback_if=fallback))
        assert outcome(validate_truncation, ledger, catalog, a, t, fallback) == \
            outcome(per_call)


CATALOG = ("category,journal,issn,year,impact_factor\n"
           "c,Home,,2010,1.3\nc,Alpha Review,,2019,0.7\nc,Zeta Review,,2018,2.1\n")
ARTICLES = "article_id,journal,publication_date\na,home,2015-01-01\n"


def test_first_failing_key_can_appear_at_a_later_anniversary():
    # Years 1 and 2 resolve.  Zeta Review, cited in 2017 with a history
    # from 2018, enters at year 3 and fails there; Alpha Review sorts
    # first but fails only once it enters, at year 4.
    citations = ("article_id,citing_journal,citation_date\n"
                 "a,Home,2015-06-01\na,HOME,2016-06-01\n"
                 "a,zeta review,2017-06-01\na,Alpha Review,2018-06-01\n")
    out = compare(CATALOG, ARTICLES, citations, [1, 2, 3, 4], 1.0)
    assert out["a"] == (ResolutionError, "article 'a': journal 'Zeta Review' has no "
                        "impact factor on or before 2017 (history starts 2018)")
    assert compare(CATALOG, ARTICLES, citations, [1, 2], 1.0)["a"].series[-1].t == 2


def test_year_past_9999_fails_after_earlier_anniversaries_pass():
    citations = "article_id,citing_journal,citation_date\na,Home,2015-06-01\n"
    out = compare(CATALOG, ARTICLES, citations, [1, 2, 7985], None)
    assert out["a"] == (ValueError, "as_of 7985 ends the citation window of article 'a' "
                        "(published 2015-01-01) after year 9999")
    assert compare(CATALOG, ARTICLES, citations, [1, 2, 7984], None)["a"].series[-1].t == 7984



def test_mass_overflow_fails_at_the_anniversary_it_reaches():
    # The 2010 factor is huge and the current one is not, so the full mass
    # stays finite and the window sum first overflows at year 3.
    catalog = CATALOG + "c,Big,,2010,1e308\nc,Big,,2020,1.0\n"
    citations = ("article_id,citing_journal,citation_date\n"
                 "a,Big,2015-06-01\na,Big,2017-06-01\n")
    out = compare(catalog, ARTICLES, citations, [1, 2, 3], None)
    assert out["a"] == (ValueError, "article 'a': citation mass overflows a double "
                        "(impact factors too large)")


@pytest.mark.parametrize("years", [[5, 1], [1, 1], [0, 3, 2]])
def test_anniversary_masses_refuse_years_out_of_order(years):
    catalog, ledger = load(CATALOG, ARTICLES, "article_id,citing_journal,citation_date\n"
                           "a,Home,2015-06-01\na,Home,2018-06-01\n")
    with pytest.raises(ValueError, match=r"^years must be strictly ascending, got \["):
        anniversary_masses(ledger, catalog, "a", years)


def test_truncation_check_reports_the_window_before_the_full_history():
    # Ghost is cited within a year, Phantom later: the truncated window
    # fails first and names only Ghost.
    catalog, ledger = load(CATALOG, ARTICLES, "article_id,citing_journal,citation_date\n"
                           "a,Phantom,2017-06-01\na,Ghost,2015-06-01\n")
    assert outcome(validate_truncation, ledger, catalog, "a", 1, None) == (
        ResolutionError, "article 'a': citing journals not in catalog: Ghost")
    assert outcome(validate_truncation, ledger, catalog, "a", 0, None) == (
        ResolutionError, "article 'a': citing journals not in catalog: Ghost, Phantom")
    assert validate_truncation(ledger, catalog, "a", 1, 0.3)


def test_anniversary_masses_leave_non_integer_years_to_the_window_check():
    catalog, ledger = load(CATALOG, ARTICLES, "article_id,citing_journal,citation_date\n")
    for years in ([2, 1.5], [1, "a"]):
        with pytest.raises(ValueError, match="^as_of must be a whole number of years"):
            anniversary_masses(ledger, catalog, "a", years)
