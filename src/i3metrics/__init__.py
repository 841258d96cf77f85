"""Deterministic scoring engine for the individual impact index (i3).

The index maps an article's citation record to a bounded score in
[0, 1) through a saturating exponential, normalized per research field
by a category coefficient derived from the field's journal count.
"""

from .catalog import (
    Catalog,
    CatalogStats,
    CategoryStats,
    JournalRecord,
    canonical_name,
    catalog_stats,
    dump_catalog,
    load_catalog,
)
from .core import (
    LAMBDA,
    compute_beta,
    compute_i3,
    cr_integral,
    cr_simple,
    i3_auc,
    i3_derivative,
    solve_beta,
)
from .dynamics import (
    AucComparison,
    DynamicsPoint,
    DynamicsReport,
    compare_auc,
    curve_points,
    dynamics_report,
)
from .errors import InputError, ResolutionError
from .generate import generate_corpus
from .ledger import (
    ArticleRecord,
    CitationEvent,
    Ledger,
    citation_count,
    f_score,
    load_ledger,
    shift_years,
    validate_truncation,
)
from .ranking import (
    MatthewSummary,
    PercentileTable,
    Ranking,
    ScoreReport,
    assign_ranks,
    matthew_comparison,
    percentile_table,
    rank,
    ranked_rows,
    score_articles,
)

__version__ = "0.1.0"

__all__ = [
    "LAMBDA",
    "compute_beta",
    "compute_i3",
    "solve_beta",
    "i3_derivative",
    "i3_auc",
    "cr_integral",
    "cr_simple",
    "Catalog",
    "JournalRecord",
    "CategoryStats",
    "CatalogStats",
    "canonical_name",
    "load_catalog",
    "dump_catalog",
    "catalog_stats",
    "ArticleRecord",
    "CitationEvent",
    "Ledger",
    "load_ledger",
    "shift_years",
    "f_score",
    "citation_count",
    "validate_truncation",
    "DynamicsPoint",
    "DynamicsReport",
    "dynamics_report",
    "AucComparison",
    "compare_auc",
    "curve_points",
    "ScoreReport",
    "Ranking",
    "PercentileTable",
    "MatthewSummary",
    "score_articles",
    "assign_ranks",
    "rank",
    "ranked_rows",
    "percentile_table",
    "matthew_comparison",
    "generate_corpus",
    "InputError",
    "ResolutionError",
    "__version__",
]
