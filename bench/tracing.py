"""Span recorder that wraps the package's public functions from outside.

A wrapper is installed on the module attribute the caller looks the
function up through (``i3metrics.ranking.f_score``, not
``i3metrics.ledger.f_score``), so ``src/`` is never edited.  Spans keep
name, start, end, parent and request id in memory and are written out
once at the end.  Functions called hundreds of thousands of times per
run (``canonical_name``, ``if_at``, ``compute_i3``, ``i3_auc``) are
counted, not timed, so that tracing stays cheap.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

# (module, attribute, span or counter name).  The module is the one
# whose code makes the call, so the wrapper sits where the call looks.
TIMED = [
    ("i3metrics.cli", "main", "cli.main"),
    ("i3metrics.cli", "load_catalog", "catalog.load"),
    ("i3metrics.cli", "load_ledger", "ledger.load"),
    ("i3metrics.cli", "score_articles", "ranking.score_articles"),
    ("i3metrics.cli", "rank", "ranking.rank"),
    ("i3metrics.cli", "matthew_comparison", "ranking.matthew"),
    ("i3metrics.cli", "reports_to_csv", "ranking.serialize"),
    ("i3metrics.cli", "reports_to_json", "ranking.serialize"),
    ("i3metrics.cli", "matthew_to_csv", "ranking.serialize"),
    ("i3metrics.ranking", "f_score", "ledger.f_score"),
    ("i3metrics.ranking", "assign_ranks", "ranking.assign_ranks"),
    ("i3metrics.dynamics", "f_score", "ledger.f_score"),
    # Called directly by the trajectory client.
    ("i3metrics.catalog", "load_catalog", "catalog.load"),
    ("i3metrics.ledger", "load_ledger", "ledger.load"),
    ("i3metrics.ranking", "score_articles", "ranking.score_articles"),
    ("i3metrics.dynamics", "dynamics_report", "dynamics.report"),
]
COUNTED = [
    ("i3metrics.catalog", "canonical_name", "catalog.canonical_name"),
    ("i3metrics.ledger", "canonical_name", "catalog.canonical_name"),
    ("i3metrics.catalog", "JournalRecord.if_at", "catalog.if_at"),
    ("i3metrics.ranking", "compute_i3", "core.compute_i3"),
    ("i3metrics.ranking", "i3_auc", "core.i3_auc"),
    ("i3metrics.dynamics", "compute_i3", "core.compute_i3"),
    ("i3metrics.dynamics", "i3_auc", "core.i3_auc"),
]


class Recorder:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.f_score_args: list[tuple] = []  # kept to count the events each call read
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        calls = self.f_score_args if name == "ledger.f_score" else None

        def wrapper(*args, **kwargs):
            if calls is not None:
                calls.append((args, kwargs))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for table, wrap in ((TIMED, self.timed), (COUNTED, self.counted)):
            for module, path, name in table:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
                setattr(owner, attr, wrap(name, original))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def f_score_calls(self, f_score) -> list[tuple[str, int | None]]:
        """(article id, as_of) of every recorded ``f_score`` call."""
        signature = inspect.signature(f_score)
        out = []
        for args, kwargs in self.f_score_args:
            bound = signature.bind(*args, **kwargs).arguments
            out.append((bound["article_id"], bound.get("as_of")))
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _request in spans:
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def nesting_errors(spans, selves) -> int:
    """Spans that leave their parent's interval or whose self time is out of range."""
    errors = 0
    for (_, start, end, parent, _), own in zip(spans, selves):
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            errors += 1
        elif not -1e-9 <= own <= end - start + 1e-9:
            errors += 1
    return errors


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time and total self time."""
    selves = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), own in zip(spans, selves):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out
