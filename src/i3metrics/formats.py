"""Fixed numeric formatting and CSV writing for text output.

Scores print at 6 decimal places and rate coefficients at 9
significant digits so golden-file comparisons are portable across
platforms.  JSON output keeps full double precision instead.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def fmt_score(x: float) -> str:
    """Scores, masses, areas, ratios: fixed 6 decimal places."""
    return f"{x:.6f}"


def fmt_beta(x: float) -> str:
    """Rate coefficients: 9 significant digits."""
    return f"{x:.9g}"


def csv_text(rows: Iterable[Sequence]) -> str:
    """Rows as CSV, one ``\\n``-terminated line each; ``None`` prints empty.

    Fields holding a comma, a quote or a line feed are quoted.  The
    standard writer leaves a bare carriage return unquoted, which
    would split the row on reading, so such a field is refused.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if "\r" in text:
        raise ValueError("cannot write a CSV field that contains a carriage return")
    return text
