"""Layered benchmark for the i3 engine.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload rank-sparse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (one process and one client each):

* ``rank-sparse``: one ``i3metrics rank --matthew`` process per call on
  ``gen --articles 100000 --categories 200``, about 2.3 citations per
  article.  Ranking, the Matthew summary and CSV output dominate.
* ``score-dense``: one ``i3metrics score --all --if-mode historical
  --as-of 5 --fallback-if 1.0 --format json`` process per call on the
  citation-dense corpus of ``corpus.py``.  The per-event path dominates.
* ``trajectory``: a closed loop with one client in a process of its own
  on the dense corpus, loaded once during set-up: ``dynamics_report``
  over years 1..10 and single-id ``score_articles`` calls.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, whose timings are in reference seconds
(``speed.py``); with ``--trace 1``, a traced run in which each layer
is timed and counted from outside gives the per-layer metrics.
Each run checks its outputs against ``reference.py`` and counts every
failed or incorrect operation in ``failed``.  ``README.md`` in this
directory maps each layer metric to the end-to-end metric it moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SPARSE_ARTICLES = 100_000
SPARSE_CATEGORIES = 200
AS_OF = 5
SETUPS = 3  # set-ups per run; setup_s is their median
BLOCK = 1000  # trajectory queries per block; wall_s is the median block
STARTUP_SAMPLES = 5
CONSOLE = "from i3metrics.cli import console; console()"

class Run:
    """One workload run: its arguments, scratch directory and child processes."""

    def __init__(self, workload, seed, seconds, trace, work):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def wait(self, proc):
        """Wait for a child; returns its exit code and peak RSS in MiB."""
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def spawn(self, args, stdout_path=None):
        """Run ``python3 ARGS`` with the speed sampler running.

        Returns (wall s, the probe times during it, peak RSS MiB, exit code).
        """
        with open(stdout_path or os.devnull, "wb") as out, speed.Sampler() as sampler:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, env=self.env, cwd=ROOT)
            code, peak = self.wait(proc)
            end = time.perf_counter()
        return end - start, speed.probes(sampler.samples, start, end), peak, code

    def set_up(self, dense):
        """Write the corpus SETUPS times, with the speed sampler running.

        Returns its paths, the time of each set-up in reference seconds
        and the wall time of the part spent in the package generator.
        """
        from i3metrics import generate_corpus

        from corpus import CATEGORIES, fill_dense

        setup_s, generate_s = [], []
        for _ in range(SETUPS):
            with speed.Sampler() as sampler:
                start = time.perf_counter()
                if dense:
                    paths = generate_corpus(self.work / "dense", 1, CATEGORIES, self.seed)
                    generate_s.append(time.perf_counter() - start)
                    paths = fill_dense(paths, self.seed)
                else:
                    paths = generate_corpus(self.work / "sparse", SPARSE_ARTICLES,
                                            SPARSE_CATEGORIES, self.seed)
                    generate_s.append(time.perf_counter() - start)
                end = time.perf_counter()
            setup_s.append(speed.reference_s(end - start,
                                             speed.probes(sampler.samples, start, end)))
        return paths, setup_s, generate_s


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def golden(workload: str, seed: int) -> str | None:
    with open(BENCH / "golden.json", encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def csv_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def article_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [line.split(",", 1)[0] for line in handle.read().splitlines()[1:] if line]


# -- workloads -----------------------------------------------------------

def rank_sparse(run: Run):
    paths, setup_s, generate_s = run.set_up(dense=False)
    argv = ["rank", "--matthew"]

    def check(text, ref):
        return checks.check_rank(text, ref or Reference(*paths), run.seed)

    return batch(run, argv, paths, setup_s, generate_s, check)


def score_dense(run: Run):
    paths, setup_s, generate_s = run.set_up(dense=True)
    argv = ["score", "--all", "--if-mode", "historical", "--as-of", str(AS_OF),
            "--fallback-if", str(checks.FALLBACK_IF), "--format", "json"]
    ids = article_ids(paths[1])

    def check(text, ref):
        ref = ref or Reference(*paths, only=set(checks.sample(ids, run.seed)))
        return checks.check_score(text, ref, ids, run.seed, AS_OF)

    return batch(run, argv, paths, setup_s, generate_s, check)


def batch(run: Run, argv, paths, setup_s, generate_s, check):
    """Repeat one CLI call for ``--seconds``; the first call's output is checked.

    With tracing, each untraced call is followed by a traced one.
    """
    argv = [*argv, "--catalog", str(paths[0]), "--articles", str(paths[1]),
            "--citations", str(paths[2])]
    first, later, spans = run.work / "out-first", run.work / "out-later", run.work / "spans.json"
    walls, ref_walls, rss, calls, traced = [], [], [], [], []
    deadline = time.perf_counter() + run.seconds
    while True:
        out = later if walls else first
        wall, probe_s, peak, code = run.spawn(["-c", CONSOLE, *argv], out)
        walls.append(wall)
        ref_walls.append(speed.reference_s(wall, probe_s))
        rss.append(peak)
        calls.append([code, sha256(out), 0])
        if run.trace:
            wall, _, _, code = run.spawn([str(BENCH / "child.py"), "cli", str(spans), *argv],
                                         later)
            data = json.loads(spans.read_text(encoding="utf-8"))
            traced.append((wall, data))
            calls.append([code, sha256(later), nesting_errors(data)])
        if time.perf_counter() >= deadline:
            break

    ref = Reference(*paths) if run.trace else None
    problems = check(first.read_text(encoding="utf-8"), ref) if calls[0][0] == 0 else []
    digest = calls[0][1]
    print(f"{run.workload} seed {run.seed} stdout sha256 {digest}", file=sys.stderr)
    expected = golden(run.workload, run.seed)
    if expected and digest != expected:
        problems.append(f"stdout sha256 {digest} differs from the recorded {expected}")
    if any(bad for _, _, bad in calls):
        problems.append("a traced call has spans outside their parent")
    failed = sum(1 for code, d, bad in calls if code != 0 or d != digest or problems or bad)

    if not run.trace:
        wall = statistics.median(ref_walls)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "events_per_s": csv_rows(paths[2]) / wall,
            "latency_p50_ms": wall * 1e3,
            "latency_p99_ms": percentile(ref_walls, 99) * 1e3,
            "queries_per_s": 1 / wall,
            "peak_rss_mib": max(rss),
        }
        print(f"{run.workload} seed {run.seed} wall s {[round(w, 3) for w in walls]}, "
              f"in reference s {[round(w, 3) for w in ref_walls]}", file=sys.stderr)
    else:
        layers = [layer_metrics(data, csv_rows(paths[2]), ref, units=1, loads=1)
                  for _, data in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics.update(common_layers(run, paths, generate_s))
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(walls))
    return metrics, len(calls), failed, problems


def trajectory(run: Run):
    paths, setup_s, generate_s = run.set_up(dense=True)
    ids = article_ids(paths[1])
    per_article = dict.fromkeys(ids, 0)
    with open(paths[2], encoding="utf-8") as handle:
        for line in handle.read().splitlines()[1:]:
            per_article[line.split(",", 1)[0]] += 1
    spec = {"catalog": str(paths[0]), "articles": str(paths[1]), "citations": str(paths[2]),
            "seed": run.seed, "seconds": run.seconds, "setups": SETUPS, "block": BLOCK,
            "fallback_if": checks.FALLBACK_IF, "trace": bool(run.trace),
            "spans": str(run.work / "spans.json"),
            "ids": ids, "events": [per_article[a] for a in ids]}
    spec_path, out_path = run.work / "spec.json", run.work / "trajectory.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    client = [sys.executable, str(BENCH / "child.py"), "trajectory", str(spec_path), str(out_path)]
    with speed.Sampler() as sampler:  # runs until the client has loaded the corpus
        proc = subprocess.Popen(client, stdout=subprocess.PIPE, env=run.env, cwd=ROOT)
        try:
            proc.stdout.readline()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    code, peak = run.wait(proc)
    proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"trajectory client exited with {code}")
    out = json.loads(out_path.read_text(encoding="utf-8"))
    load_s = [speed.reference_s(end - start, speed.probes(sampler.samples, start, end))
              for start, end in out["loads"]]

    ref = Reference(*paths, only={a for a, _, _ in out["first_block"]})
    problems = checks.check_trajectory(out["first_block"], ref, run.seed)
    failed = out["errors"] + len(problems)
    if out["errors"]:
        problems.append(f"{out['errors']} queries raised, first: {out['first_error']}")
    attempted = sum(map(len, out["latencies"])) + BLOCK * len(out["traced_block_s"])

    if not run.trace:
        ratios = [speed.reference_s(1.0, probe_s, speed.INLINE_SENSITIVITY)
                  for probe_s in out["block_probes"]]
        latencies = [latency * r for block, r in zip(out["latencies"], ratios) for latency in block]
        block_s = [b * r for b, r in zip(out["block_s"], ratios)]
        metrics = {
            "setup_s": statistics.median(setup_s) + statistics.median(load_s),
            "wall_s": statistics.median(block_s),
            "events_per_s": statistics.median(e / b for e, b in zip(out["block_events"], block_s)),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3,
            "queries_per_s": BLOCK / statistics.median(block_s),
            "peak_rss_mib": peak,
        }
        print(f"trajectory seed {run.seed} block s {[round(b, 4) for b in out['block_s']]}, "
              f"in reference s {[round(b, 4) for b in block_s]}", file=sys.stderr)
        return metrics, attempted, failed, problems

    data = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
    if nesting_errors(data):
        problems.append("traced spans leave their parent")
        failed += 1
    metrics = layer_metrics(data, csv_rows(paths[2]), ref,
                            units=len(out["traced_block_s"]), loads=SETUPS)
    metrics.update(common_layers(run, paths, generate_s))
    metrics["trace.overhead_s"] = (statistics.median(out["traced_block_s"])
                                   - statistics.median(out["block_s"]))
    return metrics, attempted, failed, problems


WORKLOADS = {"rank-sparse": rank_sparse, "score-dense": score_dense, "trajectory": trajectory}


# -- per-layer metrics ---------------------------------------------------

def nesting_errors(data) -> int:
    return tracing.nesting_errors(data["spans"], tracing.self_times(data["spans"]))


def layer_metrics(data, events, ref, units, loads):
    """Per-layer values of one traced unit of work: a CLI call or a query block.

    Load spans are divided by ``loads``, everything else by ``units``.
    Events read by ``f_score`` are counted from the reference's copy of
    the citations, so the count does not depend on the ledger's layout.
    """
    spans, counts = data["spans"], data["counts"]
    summary = tracing.summarize(spans)

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    kept_by_call = {}
    scanned = kept = 0
    for article_id, as_of in data["f_score_calls"]:
        key = (article_id, as_of)
        if key not in kept_by_call:
            kept_by_call[key] = len(ref.kept(article_id, as_of))
        scanned += len(ref.events[article_id])
        kept += kept_by_call[key]
    reports = total("dynamics.report", "calls")
    f_in_reports = sum(1 for name, _, _, parent, _ in spans
                       if name == "ledger.f_score" and parent >= 0
                       and spans[parent][0] == "dynamics.report")
    load_s = total("ledger.load") / loads
    return {
        "catalog.load_s": total("catalog.load") / loads,
        "catalog.canonical_name_calls": counts.get("catalog.canonical_name", 0) / units,
        "catalog.if_at_calls": counts.get("catalog.if_at", 0) / units,
        "ledger.load_s": load_s,
        "ledger.load_events_per_s": events / load_s,
        "ledger.f_score_calls": len(data["f_score_calls"]) / units,
        "ledger.f_score_s": total("ledger.f_score") / units,
        "ledger.events_scanned": scanned / units,
        "ledger.events_kept": kept / units,
        "ledger.as_of_keep_ratio": kept / scanned,
        "core.compute_i3_calls": counts.get("core.compute_i3", 0) / units,
        "core.i3_auc_calls": counts.get("core.i3_auc", 0) / units,
        "ranking.score_articles_self_s": total("ranking.score_articles", "self_s") / units,
        "ranking.assign_ranks_calls": total("ranking.assign_ranks", "calls") / units,
        "ranking.assign_ranks_s": total("ranking.assign_ranks") / units,
        "ranking.rank_s": total("ranking.rank") / units,
        "ranking.matthew_s": total("ranking.matthew") / units,
        "ranking.serialize_s": total("ranking.serialize") / units,
        "dynamics.report_s": total("dynamics.report") / units,
        "dynamics.f_score_calls_per_report": f_in_reports / reports if reports else 0.0,
        "cli.self_s": total("cli.main", "self_s") / units,
    }


def common_layers(run: Run, paths, generate_s):
    """Layer metrics measured outside the traced work: generator, start-up, ledger size."""
    startup = [run.spawn(["-c", "import i3metrics"])[0] for _ in range(STARTUP_SAMPLES)]
    size_path = run.work / "resident.txt"
    _, _, _, code = run.spawn([str(BENCH / "child.py"), "resident", str(paths[1]), str(paths[2])],
                           size_path)
    if code != 0:
        raise RuntimeError(f"ledger size probe exited with {code}")
    return {
        "generate.corpus_s": statistics.median(generate_s),
        "cli.startup_s": statistics.median(startup),
        "ledger.resident_mib": float(size_path.read_text(encoding="utf-8")),
    }


# -- entry point ---------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "i3metrics" / "__init__.py").is_file():
        print(f"error: no i3metrics package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    speed.pin()
    # SIGTERM unwinds like an error, so children are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    results = {}
    try:
        for name in names:
            (work / name).mkdir()
            results[name] = WORKLOADS[name](Run(name, args.seed, args.seconds, args.trace,
                                                work / name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (metrics, attempted, failed, problems) in results.items():
        for problem in problems:
            print(f"{name}: problem: {problem}", file=sys.stderr)
        for metric, unit in units.items():
            print(f"{name:12} {metric:34} {metrics[metric]:>16.6g} {unit}")
        print(f"{name:12} {'failed_ratio':34} {failed / attempted:>16.6g} "
              f"({failed} of {attempted} operations)")
        prefix = f"{name}/" if len(names) > 1 else ""
        merged["correct"] &= failed == 0 and not problems
        merged["attempted"] += attempted
        merged["failed"] += failed
        merged["metrics"].update({f"{prefix}{metric}": {"value": metrics[metric], "unit": unit}
                                  for metric, unit in units.items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
