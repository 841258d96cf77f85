"""Tests for dynamics reports, AUC comparison, and curve sampling."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i3metrics.catalog import load_catalog
from i3metrics.core import LAMBDA, compute_beta, compute_i3, i3_auc, i3_derivative
from i3metrics.dynamics import (
    compare_auc,
    curve_family_to_csv,
    curve_points,
    dynamics_report,
    dynamics_to_csv,
    dynamics_to_json,
)
from i3metrics.errors import InputError, ResolutionError
from i3metrics.ledger import anniversary_masses, load_ledger


def build(phi, article_rows, citation_rows, journal_ifs=None):
    """Corpus with one category of ``phi`` journals, dyadic IFs."""
    ifs = dict(journal_ifs) if journal_ifs else {"home": "2.0", "cite": "4.0"}
    names = list(ifs) + [f"filler-{k:03d}" for k in range(phi - len(ifs))]
    lines = ["category,journal,issn,year,impact_factor"]
    for name in names:
        lines.append(f"c,{name},,2010,{ifs.get(name, '1.0')}")
    catalog = load_catalog(io.StringIO("\n".join(lines) + "\n"))
    ledger = load_ledger(
        io.StringIO("article_id,journal,publication_date\n"
                    + "".join(article_rows)),
        io.StringIO("article_id,citing_journal,citation_date\n"
                    + "".join(citation_rows)))
    return catalog, ledger


class TestDynamicsReport:
    def test_concentrated_history_is_flat_at_one(self):
        # Everything cited inside year 1: every later row repeats it
        # and both ratios are exactly 1.
        catalog, ledger = build(
            2, ["a,home,2015-06-15\n"],
            [f"a,cite,2015-0{m}-01\n" for m in (7, 8, 9)])
        report = dynamics_report(ledger, catalog, "a", [1, 5, 10])
        assert report.f_full == 2.0 + 3 * 4.0
        assert [p.t for p in report.series] == [1, 5, 10]
        for point in report.series:
            assert point.f_t == report.f_full
            assert point.i3_t == report.i3_full
            assert point.cr_simple == 1.0
            assert point.cr_integral == 1.0
            assert not point.exceeds_unity

    def test_uniform_flow_integral_ratio_near_mass_ratio(self):
        # Single-journal field (beta = LAMBDA), deeply saturated:
        # beta * f_full > 100.  Half the mass arrives in year 1.
        citations = [f"a,solo,2015-09-{d:02d}\n" for d in range(1, 26)] * 10
        citations += [f"a,solo,2018-01-{d:02d}\n" for d in range(1, 26)] * 10
        catalog, ledger = build(1, ["a,solo,2015-06-15\n"], citations,
                                journal_ifs={"solo": "2.0"})
        report = dynamics_report(ledger, catalog, "a", [1, 5])
        assert report.beta == LAMBDA
        assert report.beta * report.f_full > 100.0
        year1, final = report.series
        assert year1.f_t == 502.0
        assert year1.cr_integral == pytest.approx(0.5, abs=0.01)
        # The plain index ratio is blind here: both scores sit on the
        # asymptote.
        assert year1.cr_simple == pytest.approx(1.0, abs=1e-12)
        assert final.cr_simple == 1.0
        assert final.cr_integral == 1.0

    def test_ratio_columns_match_closed_forms(self):
        # f_1 = 1000, f_full = 2000 in a 92-title category; the ratio
        # columns are exactly the closed-form index and area ratios.
        citations = ["a,cite,2015-07-01\n"] * 499 + ["a,cite,2018-01-01\n"] * 500
        catalog, ledger = build(92, ["a,home,2015-06-15\n"], citations,
                                journal_ifs={"home": "2.0", "cite": "2.0"})
        report = dynamics_report(ledger, catalog, "a", [1])
        beta = compute_beta(92)
        point = report.series[0]
        assert report.beta == beta
        assert point.f_t == 1000.0
        assert report.f_full == 2000.0
        assert point.cr_simple == compute_i3(1000.0, beta) / compute_i3(2000.0, beta)
        assert point.cr_integral == i3_auc(1000.0, beta) / i3_auc(2000.0, beta)
        assert report.auc_full == i3_auc(2000.0, beta)
        assert report.derivative_at_full == i3_derivative(2000.0, beta)

    def test_zero_score_article_has_undefined_ratios(self):
        catalog, ledger = build(2, ["a,home,2015-06-15\n"], [],
                                journal_ifs={"home": "0.0"})
        report = dynamics_report(ledger, catalog, "a", [1, 5])
        assert report.i3_full == 0.0
        for point in report.series:
            assert point.cr_simple is None
            assert point.cr_integral is None
            assert not point.exceeds_unity

    def test_declining_impact_factors_push_ratio_past_one(self):
        # Citing journal fell from IF 10 to IF 1: the year-of-citation
        # numerator outweighs the present-day denominator.
        catalog, ledger = build(
            2, ["a,home,2011-06-15\n"], ["a,cite,2012-01-01\n"])
        extra = ("category,journal,issn,year,impact_factor\n"
                 "c,home,,2010,2.0\n"
                 "c,cite,,2010,10.0\n"
                 "c,cite,,2020,1.0\n")
        catalog = load_catalog(io.StringIO(extra))
        report = dynamics_report(ledger, catalog, "a", [5])
        point = report.series[0]
        assert report.f_full == 3.0
        assert point.f_t == 12.0
        assert point.cr_simple > 1.0
        assert point.exceeds_unity

    def test_rejects_bad_years(self):
        catalog, ledger = build(2, ["a,home,2015-06-15\n"], [])
        with pytest.raises(InputError, match="not be empty"):
            dynamics_report(ledger, catalog, "a", [])
        with pytest.raises(InputError, match="positive integers"):
            dynamics_report(ledger, catalog, "a", [0, 5])
        with pytest.raises(InputError, match="positive integers"):
            dynamics_report(ledger, catalog, "a", [1.5, 5])
        with pytest.raises(InputError, match="ascending"):
            dynamics_report(ledger, catalog, "a", [5, 1])

    def test_rejects_boolean_years(self):
        catalog, ledger = build(2, ["a,home,2015-06-15\n"], [])
        with pytest.raises(InputError, match="positive integers"):
            dynamics_report(ledger, catalog, "a", [True])


class TestFullMassErrorComesFirst:
    """The full-history mass and the year-1 mass fail differently; a report
    raises the full-history error, as scoring the full history first would."""

    CATALOG = ("category,journal,issn,year,impact_factor\n"
               "c,Home,,2010,1.0\nc,Late,,2017,2.0\nc,Big,,2010,1e308\n")
    ARTICLES = "article_id,journal,publication_date\na,Home,2015-01-01\n"
    # Late is cited in year 1, but its history starts in 2017.
    LATE_IN_YEAR_1 = "article_id,citing_journal,citation_date\na,Late,2015-06-01\n"
    YEAR_1_ERROR = ("article 'a': journal 'Late' has no impact factor on or before 2015 "
                    "(history starts 2017)")

    def outcomes(self, citations):
        catalog = load_catalog(io.StringIO(self.CATALOG))
        ledger = load_ledger(io.StringIO(self.ARTICLES), io.StringIO(citations))
        with pytest.raises(ResolutionError) as year_1:
            anniversary_masses(ledger, catalog, "a", [1, 2])
        assert str(year_1.value) == self.YEAR_1_ERROR
        with pytest.raises((ResolutionError, ValueError)) as report:
            dynamics_report(ledger, catalog, "a", [1, 2])
        return type(report.value), str(report.value)

    def test_uncatalogued_journal_after_the_last_anniversary(self):
        # Ghost enters in 2019, after year 2 ends, and there is no fallback.
        citations = self.LATE_IN_YEAR_1 + "a,Ghost,2019-06-01\n"
        assert self.outcomes(citations) == (
            ResolutionError, "article 'a': citing journals not in catalog: Ghost")

    def test_full_mass_at_current_ifs_overflows(self):
        citations = self.LATE_IN_YEAR_1 + "a,Big,2018-06-01\na,Big,2019-06-01\n"
        assert self.outcomes(citations) == (
            ValueError, "article 'a': citation mass overflows a double "
                        "(impact factors too large)")


class TestCompareAuc:
    def test_identical_inputs_are_equal(self):
        result = compare_auc((1500.0, 0.002), (1500.0, 0.002))
        assert result.greater == "equal"
        assert result.difference == 0.0

    def test_reference_pair_orders_b_first(self):
        # (3500, 0.00115) against (4000, 0.00140): the second pair
        # accrues more area despite the similar saturation levels.
        result = compare_auc((3500.0, 0.00115), (4000.0, 0.00140))
        assert result.greater == "b"
        assert result.auc_a == pytest.approx(2645.9681949159253, rel=1e-12)
        assert result.auc_b == pytest.approx(3288.355616940345, rel=1e-12)
        assert result.difference < 0.0

    def test_same_beta_larger_mass_wins(self):
        result = compare_auc((1000.0, 0.00115129), (2000.0, 0.00115129))
        assert result.greater == "b"

    def test_equal_beta_decides_on_the_masses(self):
        # The computed areas of these adjacent masses are inverted by an ulp.
        f_b = math.nextafter(1.0, 2.0)
        result = compare_auc((1.0, 0.02734375), (f_b, 0.02734375))
        assert result.auc_a > result.auc_b
        assert result.greater == "b" and result.difference == 0.0
        result = compare_auc((f_b, 0.02734375), (1.0, 0.02734375))
        assert result.greater == "a" and result.difference == 0.0

    @given(st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1e-5, max_value=0.1))
    def test_ordering_matches_index_ordering_for_equal_beta(self, f1, f2, beta):
        result = compare_auc((f1, beta), (f2, beta))
        i1, i2 = compute_i3(f1, beta), compute_i3(f2, beta)
        if result.greater == "a":
            assert i1 >= i2
        elif result.greater == "b":
            assert i2 >= i1


class TestCurvePoints:
    def test_two_sample_endpoints(self):
        points = curve_points(0.00115129, 5000.0, 2)
        assert points[0] == (0.0, 0.0)
        assert points[1][0] == 5000.0
        assert points[1][1] == pytest.approx(0.99684, abs=1e-4)

    def test_matches_index_pointwise(self):
        beta = 0.0007
        for f, value in curve_points(beta, 3000.0, 17):
            assert value == compute_i3(f, beta)

    def test_reference_family_is_monotone_and_bounded(self):
        for phi in (61, 150, 209, 253, 256):
            points = curve_points(compute_beta(phi), 20000.0, 50)
            values = [v for _, v in points]
            assert values == sorted(values)
            assert all(0.0 <= v < 1.0 for v in values)

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValueError, match="at least 2"):
            curve_points(0.001, 100.0, 1)
        with pytest.raises(ValueError, match="f_max"):
            curve_points(0.001, 0.0, 5)


class TestSerialization:
    def fixture_report(self):
        catalog, ledger = build(
            2, ["a,home,2015-06-15\n"],
            ["a,cite,2015-07-01\n", "a,cite,2018-01-01\n"])
        return dynamics_report(ledger, catalog, "a", [1, 5])

    def test_csv_layout(self):
        text = dynamics_to_csv(self.fixture_report())
        lines = text.splitlines()
        assert lines[0] == ("article_id,beta,t,f_t,i3_t,cr_simple,"
                            "cr_integral,auc_full,derivative_at_full,note")
        assert len(lines) == 3
        assert lines[1].startswith("a,0.0530516477,1,6.000000,")
        assert lines[2].endswith(",")  # no flag note

    def test_csv_marks_undefined_ratios(self):
        catalog, ledger = build(2, ["a,home,2015-06-15\n"], [],
                                journal_ifs={"home": "0.0"})
        text = dynamics_to_csv(dynamics_report(ledger, catalog, "a", [1]))
        assert ",NA,NA," in text.splitlines()[1]

    def test_json_round_trip(self):
        report = self.fixture_report()
        obj = json.loads(dynamics_to_json(report))
        assert obj["article_id"] == "a"
        assert obj["f_full"] == report.f_full
        assert [p["t"] for p in obj["series"]] == [1, 5]
        assert obj["series"][1]["cr_simple"] == 1.0

    def test_curve_family_csv(self):
        curves = [(beta, curve_points(beta, 100.0, 3))
                  for beta in (0.001, 0.002)]
        lines = curve_family_to_csv(curves).splitlines()
        assert lines[0] == "f(beta=0.001),i3(beta=0.001),f(beta=0.002),i3(beta=0.002)"
        assert lines[1] == "0.000000,0.000000,0.000000,0.000000"
        assert len(lines) == 4


# -- generated-series properties ----------------------------------------

dyadic_ifs = st.lists(
    st.integers(min_value=1, max_value=40).map(lambda k: k * 0.25),
    min_size=1, max_size=4)
events = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=4000)),
    max_size=25)


@settings(deadline=None)
@given(dyadic_ifs, events)
def test_series_is_monotone_and_ends_at_one(ifs, raw_events):
    # Stable (single-year) impact factors: ratios live in [0, 1],
    # rise with t, and close at exactly 1 once the window covers
    # the whole history (all events fall within 11 years here).
    import datetime as dt
    catalog_lines = ["category,journal,issn,year,impact_factor"]
    catalog_lines += [f"c,j-{k},,2010,{v}" for k, v in enumerate(ifs)]
    catalog = load_catalog(io.StringIO("\n".join(catalog_lines) + "\n"))
    published = dt.date(2015, 6, 15)
    rows = []
    for journal_index, offset in raw_events:
        day = published + dt.timedelta(days=offset)
        rows.append(f"a,j-{journal_index % len(ifs)},{day.isoformat()}\n")
    ledger = load_ledger(
        io.StringIO("article_id,journal,publication_date\na,j-0,2015-06-15\n"),
        io.StringIO("article_id,citing_journal,citation_date\n" + "".join(rows)))

    report = dynamics_report(ledger, catalog, "a", [1, 3, 7, 12])
    simple = [p.cr_simple for p in report.series]
    integral = [p.cr_integral for p in report.series]
    scores = [p.i3_t for p in report.series]
    assert scores == sorted(scores)
    for column in (simple, integral):
        assert all(0.0 <= r <= 1.0 for r in column)
        assert column == sorted(column)
        assert column[-1] == 1.0
