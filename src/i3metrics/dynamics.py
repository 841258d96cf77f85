"""Temporal view of an article's index: yearly series, ratios, areas.

A dynamics report walks the citation history at the requested
anniversaries and answers "how much of this article's eventual impact
had accrued by year t?" in two ways: the simple ratio of truncated to
full index, and the ratio of the areas under the index curve, which
discriminates better once scores crowd the asymptote.

Per convention, the truncated masses use each citation's own-year
impact factors while the full-history denominator uses present-day
ones.  Declining impact factors can push a ratio above 1, and so can
rounding alone: windows sum per (journal, year) group, the full mass
per journal.  Such values are reported as-is and flagged, never clamped.
Articles whose full-history index is 0 have no distribution to take a
fraction of, so their ratio columns are explicitly undefined (``None``
in reports, ``NA`` in CSV) rather than 0/0.  Likewise the integral
ratio is undefined when the full-history area underflows to 0.0,
which a tiny but positive index (impact factors near 1e-200) allows,
and either ratio is undefined when its quotient overflows, which a
subnormal full-history index under a normal window index allows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .catalog import Catalog
from .core import compute_i3, i3_auc, i3_derivative
from .errors import InputError
from .formats import csv_text, fmt_beta, fmt_score, json_text
from .ledger import Ledger, anniversary_masses, f_score, factor_table

__all__ = [
    "DynamicsPoint",
    "DynamicsReport",
    "dynamics_report",
    "AucComparison",
    "compare_auc",
    "curve_points",
    "dynamics_to_csv",
    "dynamics_to_json",
    "curve_family_to_csv",
]

DYNAMICS_HEADER = [
    "article_id", "beta", "t", "f_t", "i3_t",
    "cr_simple", "cr_integral", "auc_full", "derivative_at_full", "note",
]


@dataclass(slots=True)
class DynamicsPoint:
    t: int
    f_t: float
    i3_t: float
    cr_simple: float | None
    cr_integral: float | None

    @property
    def exceeds_unity(self) -> bool:
        return any(r is not None and r > 1.0 for r in (self.cr_simple, self.cr_integral))


@dataclass
class DynamicsReport:
    article_id: str
    beta: float
    f_full: float
    i3_full: float
    series: list[DynamicsPoint]
    auc_full: float
    derivative_at_full: float


def check_years(years: Sequence[int]) -> None:
    """Refuse anniversaries that are not positive whole years, strictly ascending."""
    if not years:
        raise InputError("years must not be empty")
    if any(isinstance(y, bool) or not isinstance(y, int) or y < 1 for y in years):
        raise InputError(f"years must be positive integers, got {list(years)!r}")
    if any(a >= b for a, b in zip(years, years[1:])):
        raise InputError(f"years must be strictly ascending, got {list(years)!r}")


def dynamics_report(
    ledger: Ledger,
    catalog: Catalog,
    article_id: str,
    years: Sequence[int],
    fallback_if: float | None = None,
) -> DynamicsReport:
    """Index trajectory of one article at the given anniversaries.

    ``years`` must pass :func:`check_years`.
    """
    check_years(years)

    f_full = f_score(ledger, catalog, article_id, if_mode="current",
                     fallback_if=fallback_if)
    beta = factor_table(ledger, catalog, fallback_if).publisher(
        ledger.articles[article_id].journal).beta
    i3_full = compute_i3(f_full, beta)
    auc_full = i3_auc(f_full, beta)

    series = []
    masses = anniversary_masses(ledger, catalog, article_id, years, fallback_if)
    for t, f_t in zip(years, masses):
        i3_t = compute_i3(f_t, beta)
        if i3_full == 0.0:
            ratio_simple = ratio_integral = None
        else:
            # Plain divisions rather than the bounds-checked ratio
            # helpers: the historical numerator may legitimately
            # exceed the present-day denominator (see module docstring).
            ratio_simple = _finite(i3_t / i3_full)
            ratio_integral = _finite(i3_auc(f_t, beta) / auc_full) if auc_full else None
        series.append(DynamicsPoint(t, f_t, i3_t, ratio_simple, ratio_integral))

    return DynamicsReport(article_id, beta, f_full, i3_full, series, auc_full,
                          i3_derivative(f_full, beta))


@dataclass(frozen=True)
class AucComparison:
    auc_a: float
    auc_b: float
    difference: float
    greater: str  # "a", "b", or "equal"


def compare_auc(a: tuple[float, float], b: tuple[float, float]) -> AucComparison:
    """Compare two (citation mass, beta) pairs by area under the curve.

    The area keeps separating articles whose scores have both pushed
    against the asymptote, so it serves as the near-saturation
    tie-break.  ``difference`` is ``auc_a - auc_b``.

    With equal betas, ``greater`` is decided on the masses: the exact
    area is strictly increasing in the mass, but the computed one can
    fall by an ulp when the mass rises by one.  ``difference`` never
    has the opposite sign to ``greater``; where the rounded areas
    disagree with the masses it is 0.0.
    """
    auc_a, auc_b = i3_auc(*a), i3_auc(*b)
    difference = auc_a - auc_b
    x, y = (a[0], b[0]) if a[1] == b[1] else (auc_a, auc_b)
    greater = "a" if x > y else "b" if y > x else "equal"
    if (greater == "a" and difference < 0.0) or (greater == "b" and difference > 0.0):
        difference = 0.0
    return AucComparison(auc_a, auc_b, difference, greater)


def curve_points(beta: float, f_max: float, n: int) -> list[tuple[float, float]]:
    """``n`` evenly spaced samples of the index on [0, f_max] for plotting.

    The first point is exactly (0, 0) and every value stays below 1.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not 0.0 < f_max < math.inf:
        raise ValueError(f"f_max must be > 0 and finite, got {f_max!r}")
    return [
        (f, compute_i3(f, beta))
        for f in (f_max * (i / (n - 1)) for i in range(n))
    ]


def dynamics_to_csv(report: DynamicsReport) -> str:
    """One line per anniversary; ratio columns print NA when undefined."""
    rows = [DYNAMICS_HEADER]
    rows += [
        (report.article_id, fmt_beta(report.beta), point.t, fmt_score(point.f_t),
         fmt_score(point.i3_t), _fmt_ratio(point.cr_simple), _fmt_ratio(point.cr_integral),
         fmt_score(report.auc_full), fmt_score(report.derivative_at_full),
         "cr>1" if point.exceeds_unity else "")
        for point in report.series
    ]
    return csv_text(rows)


def dynamics_to_json(report: DynamicsReport) -> str:
    keys = ("article_id", "beta", "f_full", "i3_full", "auc_full", "derivative_at_full")
    return json_text({**{key: getattr(report, key) for key in keys}, "series": [
        {**asdict(p), "exceeds_unity": p.exceeds_unity} for p in report.series]})


def curve_family_to_csv(curves: Sequence[tuple[float, list[tuple[float, float]]]]) -> str:
    """Column pair (f, i3) per coefficient, suitable for external plotting."""
    header = [f"{axis}(beta={fmt_beta(beta)})" for beta, _ in curves for axis in ("f", "i3")]
    return csv_text([header] + [[fmt_score(x) for _, points in curves for x in points[i]]
                                for i in range(len(curves[0][1]))])


def _fmt_ratio(value: float | None) -> str:
    return "NA" if value is None else fmt_score(value)


def _finite(ratio: float) -> float | None:
    """``ratio``, or None where the division overflowed."""
    return ratio if ratio < math.inf else None
