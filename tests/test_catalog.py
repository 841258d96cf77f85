"""Tests for catalog loading, validation, and lookups."""

import io

import pytest

from i3metrics.catalog import (
    CATALOG_HEADER,
    Catalog,
    JournalRecord,
    canonical_name,
    catalog_stats,
    dump_catalog,
    load_catalog,
)
from i3metrics.errors import InputError, ResolutionError

BASIC = """\
category,journal,issn,year,impact_factor
obstetrics,Journal of Maternal Medicine,1234-5678,2018,2.5
obstetrics,Journal of Maternal Medicine,1234-5678,2021,3.1
obstetrics,Perinatal Letters,,2021,1.2
cardiology,Heart Quarterly,8765-432X,2020,4.0
"""


def load(text):
    return load_catalog(io.StringIO(text), source="test")


class TestLoading:
    def test_rows_merge_into_history(self):
        catalog = load(BASIC)
        record = catalog.journal("Journal of Maternal Medicine")
        assert record.if_history == {2018: 2.5, 2021: 3.1}
        assert record.issn == "1234-5678"
        assert record.category == "obstetrics"

    def test_join_is_case_and_space_insensitive(self):
        catalog = load(BASIC)
        assert catalog.has_journal("  journal OF maternal medicine ")
        assert canonical_name(" Heart Quarterly ") == "heart quarterly"
        # Display name keeps the first spelling seen.
        assert catalog.journal("HEART QUARTERLY").name == "Heart Quarterly"

    def test_issn_is_optional(self):
        assert load(BASIC).journal("Perinatal Letters").issn is None

    def test_blank_lines_are_skipped(self):
        catalog = load(BASIC + "\n\n")
        assert len(catalog.journals) == 3

    def test_duplicate_row_with_same_value_is_idempotent(self):
        text = BASIC + "cardiology,Heart Quarterly,8765-432X,2020,4.0\n"
        assert load(text).journal("Heart Quarterly").if_history == {2020: 4.0}

    def test_issn_from_a_later_row_is_kept(self):
        catalog = load(BASIC + "obstetrics,Perinatal Letters,2468-1357,2022,1.4\n")
        assert catalog.journal("Perinatal Letters").issn == "2468-1357"
        buffer = io.StringIO()
        dump_catalog(catalog, buffer)
        assert load(buffer.getvalue()) == catalog


class TestLoadErrors:
    def test_wrong_header(self):
        with pytest.raises(InputError, match="line 1: expected header"):
            load("journal,category\nx,y\n")

    def test_empty_file(self):
        with pytest.raises(InputError, match="empty file"):
            load("")

    def test_wrong_field_count(self):
        with pytest.raises(InputError, match="line 2: expected 5 fields, got 3"):
            load(",".join(CATALOG_HEADER) + "\na,b,c\n")

    def test_empty_category_and_journal(self):
        with pytest.raises(InputError, match="line 2: empty category"):
            load(",".join(CATALOG_HEADER) + "\n,j,,2020,1.0\n")
        with pytest.raises(InputError, match="line 2: empty journal"):
            load(",".join(CATALOG_HEADER) + "\nc,,,2020,1.0\n")

    @pytest.mark.parametrize("year", ["20", "201x", "-2020", "99999", "", "２０１９"])
    def test_malformed_year(self, year):
        with pytest.raises(InputError, match="4-digit"):
            load(",".join(CATALOG_HEADER) + f"\nc,j,,{year},1.0\n")

    @pytest.mark.parametrize("impact", ["", "abc", "1_000", "inf", "nan", "１.５"])
    def test_malformed_impact_factor(self, impact):
        with pytest.raises(InputError, match="malformed impact factor"):
            load(",".join(CATALOG_HEADER) + f"\nc,j,,2020,{impact}\n")

    def test_negative_impact_factor(self):
        with pytest.raises(InputError, match="must be >= 0"):
            load(",".join(CATALOG_HEADER) + "\nc,j,,2020,-1.5\n")

    @pytest.mark.parametrize("issn", ["12345678", "1234_5678", "1234-567y", "１２３４-５６７９"])
    def test_malformed_issn(self, issn):
        with pytest.raises(InputError, match="malformed ISSN"):
            load(",".join(CATALOG_HEADER) + f"\nc,j,{issn},2020,1.0\n")

    def test_journal_in_two_categories(self):
        text = BASIC + "cardiology,Perinatal Letters,,2020,1.0\n"
        with pytest.raises(InputError, match="one category per journal"):
            load(text)

    def test_conflicting_issn(self):
        text = BASIC + "cardiology,Heart Quarterly,1111-1111,2021,4.0\n"
        with pytest.raises(InputError, match="conflicting ISSNs"):
            load(text)

    def test_conflicting_duplicate_year(self):
        text = BASIC + "cardiology,Heart Quarterly,8765-432X,2020,4.5\n"
        with pytest.raises(InputError, match="line 6: duplicate impact factor"):
            load(text)


class TestLookups:
    def test_phi_counts_titles(self):
        catalog = load(BASIC)
        assert catalog.phi("obstetrics") == 2
        assert catalog.phi("cardiology") == 1

    def test_beta_for(self):
        catalog = load(BASIC)
        assert catalog.beta_for("obstetrics") == pytest.approx(
            0.1061032953945969 / 2, rel=1e-15)

    def test_unknown_category(self):
        with pytest.raises(KeyError, match="unknown category"):
            load(BASIC).phi("astrology")

    def test_unknown_journal(self):
        with pytest.raises(ResolutionError, match="not in catalog"):
            load(BASIC).journal("Unknown Gazette")

    def test_latest_without_year(self):
        assert load(BASIC).journal("Journal of Maternal Medicine").latest_if() == 3.1

    def test_year_lookup_carries_forward(self):
        catalog = load(BASIC)
        lookup = catalog.journal("Journal of Maternal Medicine").if_at
        assert lookup(2018) == 2.5
        assert lookup(2020) == 2.5
        assert lookup(2021) == 3.1
        assert lookup(2030) == 3.1

    def test_year_before_history_is_unresolved(self):
        with pytest.raises(ResolutionError, match="history starts 2018"):
            load(BASIC).journal("Journal of Maternal Medicine").if_at(2017)


class TestRoundTrip:
    def test_dump_then_load_is_identity(self):
        catalog = load(BASIC)
        buffer = io.StringIO()
        dump_catalog(catalog, buffer)
        assert load(buffer.getvalue()) == catalog

    def test_dump_preserves_float_precision(self):
        text = ",".join(CATALOG_HEADER) + "\nc,j,,2020,2.0000000000000004\n"
        buffer = io.StringIO()
        dump_catalog(load(text), buffer)
        assert load(buffer.getvalue()).journal("j").latest_if() == 2.0000000000000004

    def test_dump_refuses_a_carriage_return(self):
        # The loader refuses one, so the catalog is built directly; written
        # unquoted, the row would split in two when read back.
        key = canonical_name("A\rB")
        catalog = Catalog({key: JournalRecord("A\rB", "cat", None, {2010: 1.0})}, {"cat": [key]})
        with pytest.raises(ValueError, match="carriage return"):
            dump_catalog(catalog, io.StringIO())


class TestStats:
    def test_per_category_and_global_means(self):
        stats = catalog_stats(load(BASIC))
        by_name = {s.category: s for s in stats.categories}
        assert by_name["obstetrics"].phi == 2
        assert by_name["obstetrics"].mean_if == pytest.approx((3.1 + 1.2) / 2)
        assert by_name["cardiology"].mean_if == pytest.approx(4.0)
        assert stats.mean_phi == pytest.approx(1.5)
        assert stats.mean_if == pytest.approx((3.1 + 1.2 + 4.0) / 3)

    def test_means_are_summed_left_to_right_on_every_interpreter(self):
        # sum() compensates float sums from Python 3.12 on and would give 0.1.
        rows = [",".join(CATALOG_HEADER)] + [f"cat,journal-{j},,2020,0.1" for j in range(10)]
        stats = catalog_stats(load("\n".join(rows) + "\n"))
        assert stats.categories[0].mean_if == stats.mean_if == 0.09999999999999999

    def test_categories_sorted_by_name(self):
        stats = catalog_stats(load(BASIC))
        assert [s.category for s in stats.categories] == [
            "cardiology", "obstetrics"]

    def test_reference_category_sizes(self):
        # Five real category sizes average to 185.8 titles.
        sizes = {"c-obgyn": 61, "c-cardio": 209, "c-onco": 150,
                 "c-envsci": 253, "c-pharma": 256}
        rows = [",".join(CATALOG_HEADER)]
        for category, size in sizes.items():
            rows += [f"{category},journal-{category}-{j},,2020,2.0"
                     for j in range(size)]
        stats = catalog_stats(load("\n".join(rows) + "\n"))
        assert stats.mean_phi == pytest.approx(185.8)
        sized = {s.category: s.phi for s in stats.categories}
        assert sized == sizes

    def test_empty_catalog_is_rejected(self):
        with pytest.raises(InputError, match="empty"):
            catalog_stats(load(",".join(CATALOG_HEADER) + "\n"))
