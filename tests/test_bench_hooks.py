"""The package names the benchmark's tracer wraps must keep resolving.

``bench/tracing.py`` installs its wrappers by module and attribute
name, so a refactor that renames or moves one of them breaks a traced
benchmark run while every other test still passes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import i3metrics.ledger

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, path",
                         [(m, p) for m, p, _ in tracing.TIMED + tracing.COUNTED])
def test_hooked_attribute_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_f_score_binds_article_id_and_as_of():
    # The tracer reads both from each recorded call, as the callers pass them.
    bound = inspect.signature(i3metrics.ledger.f_score).bind(None, None, "a", as_of=3)
    assert bound.arguments["article_id"] == "a" and bound.arguments["as_of"] == 3
