"""Output checks run on every benchmark run; each returns a list of problems.

Values are compared with the plain reference in ``reference.py``.  CSV
prints scores at 6 decimals, so CSV values match within 1e-6; JSON and
in-process values keep full precision and match within 1e-12 relative.
"""

from __future__ import annotations

import json
import math
import random

from reference import Reference, auc, i3

SAMPLE = 200
FALLBACK_IF = 1.0
REPORT_HEADER = "article_id,category,phi,beta,f_score,i3,citations,rank_i3,rank_citations"
MATTHEW_HEADER = "article_id,rank_i3,rank_citations,displacement"


def sample(items: list, seed: int) -> list:
    """The seeded sample of rows or queries a run checks."""
    return random.Random(seed).sample(items, min(SAMPLE, len(items)))


def _close(value, expected, csv_text=False):
    if csv_text:
        return abs(float(value) - expected) <= 1e-6
    return math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12)


def check_rank(text: str, ref: Reference, seed: int) -> list[str]:
    """``rank --matthew`` CSV: row counts, tie-break order, sampled values, Matthew sums."""
    lines = text.split("\n")
    n = len(ref.articles)
    problems = []
    if lines[0] != REPORT_HEADER or len(lines) != 2 * n + 5 or lines[n + 1] != "":
        return [f"rank output has {len(lines)} lines, expected {2 * n + 5} with "
                f"the report header first"]
    rows = [line.split(",") for line in lines[1:n + 1]]
    if sorted(r[0] for r in rows) != sorted(ref.articles):
        problems.append("ranking does not list every article exactly once")
        return problems

    f = {a: ref.f(a) for a in ref.articles}
    beta = {a: ref.beta(a) for a in ref.articles}
    count = {a: len(ref.events[a]) for a in ref.articles}

    def index_key(a):
        return (-round(i3(f[a], beta[a]), 12), -auc(f[a], beta[a]), -count[a], a)

    keys = [index_key(r[0]) for r in rows]
    if any(x > y for x, y in zip(keys, keys[1:])):
        problems.append("ranking order breaks the index/AUC/count/id tie-break chain")
    if [r[7] for r in rows] != [str(k) for k in range(1, n + 1)]:
        problems.append("rank_i3 column is not 1..n in output order")
    by_count = sorted(ref.articles, key=lambda a: (-count[a], a))
    citation_rank = {a: k for k, a in enumerate(by_count, start=1)}
    if any(int(r[8]) != citation_rank[r[0]] for r in rows):
        problems.append("rank_citations differs from the reference citation ranking")

    for r in sample(rows, seed):
        a = r[0]
        category = ref.category[ref.articles[a][0]]
        if (r[1] != category or int(r[2]) != ref.phi[category]
                or r[3] != f"{beta[a]:.9g}" or not _close(r[4], f[a], True)
                or not _close(r[5], i3(f[a], beta[a]), True) or int(r[6]) != count[a]):
            problems.append(f"row {a} differs from the reference")
            break

    improved = lines[n + 2]
    displacements = [line.split(",") for line in lines[n + 4:2 * n + 4]]
    if lines[n + 3] != MATTHEW_HEADER or not improved.startswith("improved_by_i3_rank,"):
        problems.append("Matthew summary headers are malformed")
        return problems
    if [d[0] for d in displacements] != [r[0] for r in rows]:
        problems.append("Matthew rows are not in ranking order")
    elif any(d[1:3] != r[7:9] or int(d[3]) != int(r[8]) - int(r[7])
             for d, r in zip(displacements, rows)):
        problems.append("Matthew ranks or displacements disagree with the ranking")
    if sum(int(d[3]) for d in displacements) != 0:
        problems.append("Matthew displacements do not sum to 0")
    if int(improved.split(",")[1]) != sum(int(d[3]) > 0 for d in displacements):
        problems.append("improved_by_i3_rank does not count positive displacements")
    return problems


def check_score(text: str, ref: Reference, ids: list[str], seed: int,
                as_of: int) -> list[str]:
    """``score --all --if-mode historical --format json``: row count, order, sampled values."""
    try:
        rows = json.loads(text)
    except ValueError as exc:
        return [f"score output is not JSON: {exc}"]
    if [r["article_id"] for r in rows] != ids:
        return [f"score output has {len(rows)} rows, expected all {len(ids)} articles in order"]
    for r in sample(rows, seed):
        a = r["article_id"]
        f = ref.f(a, as_of, historical=True, fallback=FALLBACK_IF)
        beta = ref.beta(a)
        if (not _close(r["f_score"], f) or not _close(r["i3"], i3(f, beta))
                or not _close(r["beta"], beta) or r["citations"] != len(ref.kept(a, as_of))
                or r["rank_i3"] is not None or r["rank_citations"] is not None):
            return [f"row {a} differs from the reference"]
    return []


def check_trajectory(first_block: list, ref: Reference, seed: int) -> list[str]:
    """Sampled trajectory answers against the reference, one problem per wrong answer."""
    problems = []
    for article_id, t, values in sample(first_block, seed):
        beta = ref.beta(article_id)
        if values is None:
            continue  # the query raised; the client counted it already
        if t is None:
            f_full, i3_full, series = values
            expected = [ref.f(article_id, y, historical=True, fallback=FALLBACK_IF)
                        for y in range(1, len(series) + 1)]
            f_ref = ref.f(article_id, fallback=FALLBACK_IF)
            if (len(series) != 10 or not _close(f_full, f_ref) or not _close(i3_full, i3(f_ref, beta))
                    or any(not _close(f_t, e) or not _close(i3_t, i3(e, beta))
                           for (f_t, i3_t), e in zip(series, expected))):
                problems.append(f"dynamics of {article_id} differs from the reference")
        else:
            f, score, count = values
            expected = ref.f(article_id, t, historical=True, fallback=FALLBACK_IF)
            if (not _close(f, expected) or not _close(score, i3(expected, beta))
                    or count != len(ref.kept(article_id, t))):
                problems.append(f"score of {article_id} as of {t} differs from the reference")
    return problems
