"""Command line interface for the impact-index toolkit.

Subcommands: score, rank, dynamics, calibrate, curves, gen,
catalog-stats.  Every command is deterministic given its inputs and
flags; the only randomness lives behind the mandatory seed of ``gen``.

Exit codes: 0 on success, 1 on input or validation errors (malformed
CSV rows, inconsistent flags, unknown article ids), 2 when a journal
or an impact-factor year cannot be resolved against the catalog.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .catalog import Catalog, catalog_stats, load_catalog
from .core import compute_beta, solve_beta
from .dynamics import curve_points, curve_family_to_csv, dynamics_report, \
    dynamics_to_csv, dynamics_to_json
from .errors import InputError, ResolutionError
from .formats import csv_text, fmt_beta, fmt_score
from .generate import generate_corpus
from .ledger import IF_MODES, Ledger, load_ledger
from .ranking import matthew_comparison, matthew_to_csv, matthew_to_obj, \
    rank, report_to_obj, reports_to_csv, reports_to_json, score_articles

__all__ = ["build_parser", "main", "console"]


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors map to the input-error exit code."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="i3metrics",
                     description="Impact-index scoring toolkit for scholarly articles.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    data = _Parser(add_help=False)
    data.add_argument("--catalog", required=True, metavar="PATH",
                      help="journal catalog CSV (category,journal,issn,year,impact_factor)")
    data.add_argument("--articles", required=True, metavar="PATH",
                      help="articles CSV (article_id,journal,publication_date)")
    data.add_argument("--citations", required=True, metavar="PATH",
                      help="citations CSV (article_id,citing_journal,citation_date)")
    data.add_argument("--fallback-if", type=_impact_factor, default=None, metavar="X",
                      help="impact factor assumed for citing journals missing "
                           "from the catalog (default: strict resolution)")

    # dynamics fixes its own modes and windows: current IFs in full,
    # historical per anniversary.
    scoring = _Parser(add_help=False)
    scoring.add_argument("--if-mode", choices=list(IF_MODES), default="current",
                         help="impact factors as of the event year (historical) "
                              "or the newest available (current); default current")
    scoring.add_argument("--as-of", type=int, default=None, metavar="YEARS",
                         help="count only citations within this many whole "
                              "years of each publication")

    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default csv)")

    p_score = sub.add_parser("score", parents=[data, scoring, fmt],
                             help="score the given articles (or --all)")
    p_score.add_argument("ids", nargs="*", metavar="ARTICLE_ID")
    p_score.add_argument("--all", action="store_true",
                         help="score every article in the ledger")

    p_rank = sub.add_parser("rank", parents=[data, scoring, fmt],
                            help="rank every article, best first")
    p_rank.add_argument("--matthew", action="store_true",
                        help="append the index-vs-citation-count divergence summary")

    p_dyn = sub.add_parser("dynamics", parents=[data, fmt],
                           help="index trajectory of one article over time")
    p_dyn.add_argument("article_id", metavar="ARTICLE_ID")
    p_dyn.add_argument("--years", default="1,5,10", metavar="Y1,Y2,..",
                       help="anniversaries to evaluate (default 1,5,10)")

    p_cal = sub.add_parser("calibrate",
                           help="print a category coefficient (9 significant digits)")
    p_cal.add_argument("--target", type=float, default=None, metavar="P",
                       help="index value the f-score below should map to")
    p_cal.add_argument("--fscore", type=float, default=None, metavar="F",
                       help="f-score paired with --target")
    p_cal.add_argument("--phi", type=int, default=None, metavar="N",
                       help="derive the coefficient from a category size instead")

    p_cur = sub.add_parser("curves",
                           help="emit index-vs-f sample points as CSV")
    p_cur.add_argument("--beta", required=True, metavar="B1,B2,..",
                       help="comma-separated category coefficients, one curve each")
    p_cur.add_argument("--max-f", type=float, default=5000.0, metavar="F",
                       help="upper end of the f range (default 5000)")
    p_cur.add_argument("--samples", type=int, default=101, metavar="N",
                       help="points per curve (default 101)")

    p_gen = sub.add_parser("gen",
                           help="write a reproducible synthetic corpus")
    p_gen.add_argument("--articles", type=int, required=True, metavar="N",
                       dest="n_articles", help="number of articles")
    p_gen.add_argument("--categories", type=int, required=True, metavar="K",
                       dest="n_categories", help="number of categories")
    p_gen.add_argument("--seed", type=int, required=True,
                       help="generator seed (same seed, same bytes)")
    p_gen.add_argument("--out", required=True, metavar="DIR",
                       help="directory for catalog.csv, articles.csv, citations.csv")

    p_stats = sub.add_parser("catalog-stats", parents=[fmt],
                             help="per-category sizes, coefficients, and mean "
                                  "impact factors")
    p_stats.add_argument("--catalog", required=True, metavar="PATH",
                         help="journal catalog CSV")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = _HANDLERS[args.command]
        sys.stdout.write(handler(args))
        return 0
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())


# -- handlers ----------------------------------------------------------

def _cmd_score(args) -> str:
    if args.all and args.ids:
        raise InputError("pass explicit article ids or --all, not both")
    catalog, ledger = _load_inputs(args)
    ids = list(ledger.articles) if args.all else list(args.ids)
    reports = score_articles(ledger, catalog, ids, if_mode=args.if_mode,
                             as_of=args.as_of, fallback_if=args.fallback_if)
    if args.format == "json":
        return reports_to_json(reports)
    return reports_to_csv(reports)


def _cmd_rank(args) -> str:
    catalog, ledger = _load_inputs(args)
    reports = score_articles(ledger, catalog, None, if_mode=args.if_mode,
                             as_of=args.as_of, fallback_if=args.fallback_if)
    ranked = rank(reports)
    if args.format == "json":
        obj = {"ranking": [report_to_obj(r) for r in ranked]}
        if args.matthew:
            obj["matthew"] = matthew_to_obj(matthew_comparison(ranked))
        return json.dumps(obj, indent=2) + "\n"
    text = reports_to_csv(ranked)
    if args.matthew:
        text += "\n" + matthew_to_csv(matthew_comparison(ranked))
    return text


def _cmd_dynamics(args) -> str:
    years = _parse_int_list(args.years, "--years")
    catalog, ledger = _load_inputs(args)
    report = dynamics_report(ledger, catalog, args.article_id, years,
                             fallback_if=args.fallback_if)
    if args.format == "json":
        return dynamics_to_json(report)
    return dynamics_to_csv(report)


def _cmd_calibrate(args) -> str:
    from_target = args.target is not None or args.fscore is not None
    if args.phi is not None and from_target:
        raise InputError("pick one mode: --phi, or --target with --fscore")
    if args.phi is not None:
        value = compute_beta(args.phi)
    elif args.target is not None and args.fscore is not None:
        value = solve_beta(args.target, args.fscore)
    else:
        raise InputError("calibrate needs --phi, or --target with --fscore")
    return fmt_beta(value) + "\n"


def _cmd_curves(args) -> str:
    betas = _parse_float_list(args.beta, "--beta")
    curves = [(beta, curve_points(beta, args.max_f, args.samples))
              for beta in betas]
    return curve_family_to_csv(curves)


def _cmd_gen(args) -> str:
    if args.n_articles < 1 or args.n_categories < 1:
        raise InputError("--articles and --categories must be at least 1")
    paths = generate_corpus(args.out, args.n_articles, args.n_categories,
                            args.seed)
    return "".join(f"{p}\n" for p in paths)


def _cmd_catalog_stats(args) -> str:
    catalog = _read_catalog(args.catalog)
    stats = catalog_stats(catalog)
    if args.format == "json":
        obj = {
            "categories": [
                {"category": c.category, "phi": c.phi, "beta": c.beta,
                 "mean_if": c.mean_if}
                for c in stats.categories
            ],
            "mean_phi": stats.mean_phi,
            "mean_if": stats.mean_if,
        }
        return json.dumps(obj, indent=2) + "\n"
    rows = [("category", "phi", "beta", "mean_if")]
    rows += [(c.category, c.phi, fmt_beta(c.beta), fmt_score(c.mean_if))
             for c in stats.categories]
    rows += [("mean_phi", fmt_score(stats.mean_phi)),
             ("mean_if", fmt_score(stats.mean_if))]
    return csv_text(rows)


_HANDLERS = {
    "score": _cmd_score,
    "rank": _cmd_rank,
    "dynamics": _cmd_dynamics,
    "calibrate": _cmd_calibrate,
    "curves": _cmd_curves,
    "gen": _cmd_gen,
    "catalog-stats": _cmd_catalog_stats,
}


# -- plumbing ----------------------------------------------------------

# UTF-8, skipping a leading byte order mark so it never reaches the header.
_ENCODING = "utf-8-sig"


def _impact_factor(raw: str) -> float:
    """argparse type for ``--fallback-if``: a finite number >= 0."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {raw!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {raw!r}")
    return value


def _load_inputs(args) -> tuple[Catalog, Ledger]:
    _check_readable(args.catalog, args.articles, args.citations)
    catalog = _read_catalog(args.catalog)
    with open(args.articles, encoding=_ENCODING, newline="") as articles, \
            open(args.citations, encoding=_ENCODING, newline="") as citations:
        ledger = load_ledger(articles, citations, articles_source=args.articles,
                             citations_source=args.citations)
    return catalog, ledger


def _read_catalog(path) -> Catalog:
    _check_readable(path)
    with open(path, encoding=_ENCODING, newline="") as stream:
        return load_catalog(stream, source=str(path))


def _check_readable(*paths) -> None:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise InputError("cannot read: " + ", ".join(missing))


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated integers, got {raw!r}")


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers, got {raw!r}")
    if not values:
        raise InputError(f"{flag} expects at least one value")
    return values


if __name__ == "__main__":
    console()
