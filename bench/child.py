"""Measured-process side of the benchmark.

``run.py`` starts this file with ``src`` on ``PYTHONPATH``, so the
package code runs in a process of its own whose peak RSS the parent
reads.  Modes:

    child.py cli SPANS_JSON ARG...      one traced ``i3metrics`` call
    child.py trajectory SPEC_JSON OUT   the trajectory client loop
    child.py resident ARTICLES CITATIONS
                                        tracemalloc size of a loaded ledger

Untraced CLI calls do not come through here: ``run.py`` starts the
package's console entry point directly.
"""

from __future__ import annotations

import json
import random
import sys
import time
import tracemalloc

from i3metrics import catalog, dynamics, ledger, ranking

import speed
from tracing import Recorder

YEARS = list(range(1, 11))
# Most queries are reports, so the median latency falls inside one query
# kind instead of in the gap between the fast and the slow kind.
DYNAMICS_SHARE = 0.8


def traced_cli(spans_path: str, argv: list[str]) -> int:
    from i3metrics import cli

    recorder = Recorder()
    recorder.install()
    recorder.request = 1
    code = cli.main(argv)
    sys.stdout.flush()
    recorder.uninstall()
    _dump(spans_path, recorder)
    return code


def trajectory(spec_path: str, out_path: str) -> int:
    """Closed loop, one client: each query is sent when the previous returns.

    Queries come in blocks of ``block`` from one seeded stream: 80%
    ``dynamics_report`` over years 1..10, 20% single-id
    ``score_articles`` with a random ``as_of``; both use historical IFs
    and the fallback IF, as ``score-dense`` does.  A line on stdout
    says that the loads are done.  Between queries, outside their
    latency, the speed probe runs every ``speed.PERIOD`` seconds.
    """
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = Recorder() if spec["trace"] else None
    out = {"loads": [], "latencies": [], "block_s": [], "block_probes": [], "block_events": [],
           "errors": 0, "first_error": None, "first_block": None,
           "traced_block_s": []}

    if recorder:
        recorder.install()
    for _ in range(spec["setups"]):
        cat = led = None
        start = time.perf_counter()
        with open(spec["catalog"], encoding="utf-8", newline="") as handle:
            cat = catalog.load_catalog(handle, source=spec["catalog"])
        with open(spec["articles"], encoding="utf-8", newline="") as articles, \
                open(spec["citations"], encoding="utf-8", newline="") as citations:
            led = ledger.load_ledger(articles, citations)
        out["loads"].append([start, time.perf_counter()])
    if recorder:
        recorder.uninstall()
        recorder.counts.clear()  # counts are per query block; loads keep their spans
    print("loaded", flush=True)

    ids, events = spec["ids"], spec["events"]
    rng = random.Random(spec["seed"])

    def make_block():
        block = []
        for _ in range(spec["block"]):
            i = rng.randrange(len(ids))
            t = None if rng.random() < DYNAMICS_SHARE else rng.randint(1, 10)
            block.append((ids[i], t, events[i]))
        return block

    samples = [(time.perf_counter(), speed.probe())]
    last_probe = samples[0][0]

    def run_block(block, keep=False, first_request=0):
        """Returns the block's start and end time, query latencies and results."""
        nonlocal last_probe
        results = [] if keep else None
        latencies = []
        start = time.perf_counter()
        for n, (article_id, t, _) in enumerate(block):
            if recorder:
                recorder.request = first_request + n
            began = time.perf_counter()
            try:
                if t is None:
                    result = dynamics.dynamics_report(led, cat, article_id, YEARS,
                                                      fallback_if=spec["fallback_if"])
                else:
                    result = ranking.score_articles(led, cat, [article_id],
                                                    if_mode="historical", as_of=t,
                                                    fallback_if=spec["fallback_if"])
            except Exception as exc:  # counted as a failed query, loop goes on
                out["errors"] += 1
                out["first_error"] = out["first_error"] or repr(exc)
                result = None
            now = time.perf_counter()
            latencies.append(now - began)
            if keep:
                results.append(result)
            if now - last_probe >= speed.PERIOD:
                seconds = speed.probe()
                last_probe = time.perf_counter()
                samples.append((last_probe, seconds))
        return start, time.perf_counter(), latencies, results

    deadline = time.perf_counter() + spec["seconds"]
    first = make_block()
    while True:
        block = first if out["first_block"] is None or spec["trace"] else make_block()
        start, end, latencies, results = run_block(block, keep=out["first_block"] is None)
        if results is not None:
            out["first_block"] = [[a, t, _values(r)] for (a, t, _), r in zip(block, results)]
        out["latencies"].append(latencies)
        out["block_s"].append(sum(latencies))
        out["block_probes"].append(speed.probes(samples, start, end))
        out["block_events"].append(sum(e for _, _, e in block))
        if recorder:
            recorder.install()
            *_, latencies, _ = run_block(first,
                                         first_request=len(out["traced_block_s"]) * len(first))
            recorder.uninstall()
            out["traced_block_s"].append(sum(latencies))
        if time.perf_counter() >= deadline:
            break

    if recorder:
        _dump(spec["spans"], recorder)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def _values(result):
    """Numbers a trajectory query returned, for the parent's reference check."""
    if result is None:
        return None
    if isinstance(result, list):
        (report,) = result
        return [report.f_score, report.i3, report.citation_count]
    return [result.f_full, result.i3_full, [[p.f_t, p.i3_t] for p in result.series]]


def resident(articles_path: str, citations_path: str) -> int:
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    with open(articles_path, encoding="utf-8", newline="") as articles, \
            open(citations_path, encoding="utf-8", newline="") as citations:
        loaded = ledger.load_ledger(articles, citations)
    size = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del loaded
    print(size / 2**20)
    return 0


def _dump(path: str, recorder: Recorder) -> None:
    data = {"spans": recorder.spans, "counts": dict(recorder.counts),
            "f_score_calls": recorder.f_score_calls(ledger.f_score)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    if mode == "trajectory":
        sys.exit(trajectory(*rest))
    if mode == "resident":
        sys.exit(resident(*rest))
    sys.exit(f"unknown mode {mode!r}")
