"""Deterministic scoring engine for the individual impact index (i3).

The index maps an article's citation record to a bounded score in
[0, 1) through a saturating exponential, normalized per research field
by a category coefficient derived from the field's journal count.
"""

from . import catalog, core, dynamics, generate, ledger, ranking
from .catalog import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import InputError, ResolutionError
from .generate import *  # noqa: F401,F403
from .ledger import *  # noqa: F401,F403
from .ranking import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *catalog.__all__, *core.__all__, *dynamics.__all__, *generate.__all__,
    *ledger.__all__, *ranking.__all__,
    "InputError", "ResolutionError", "__version__",
]
