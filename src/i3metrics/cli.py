"""Command line interface for the impact-index toolkit.

Subcommands: score, rank, dynamics, calibrate, curves, gen,
catalog-stats.  Every command is deterministic given its inputs and
flags; the only randomness lives behind the mandatory seed of ``gen``.

Exit codes: 0 on success, 1 on input or validation errors (malformed
CSV rows, inconsistent flags, unknown article ids), 2 when a journal
or an impact-factor year cannot be resolved against the catalog.

A handler returns one string, or a tuple of pieces that :func:`main`
writes unjoined.  Nothing is written until every piece is built and
encodes on stdout, so a non-zero exit leaves stdout empty.
:func:`main` runs with the cyclic garbage collector off and gives the
caller back the setting it found.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .catalog import CATALOG_HEADER, Catalog, catalog_stats, load_catalog
from .core import compute_beta, solve_beta
from .dynamics import check_years, curve_points, curve_family_to_csv, \
    dynamics_report, dynamics_to_csv, dynamics_to_json
from .errors import InputError, ResolutionError
from .formats import ascii_float, ascii_int, csv_text, fmt_beta, fmt_score, json_text
from .generate import generate_corpus
from .ledger import ARTICLES_HEADER, CITATIONS_HEADER, IF_MODES, Ledger, check_scoring, \
    load_ledger
from .ranking import matthew_comparison, matthew_to_csv, rank, rank_to_json, \
    reports_to_csv, reports_to_json, score_articles

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
                      help=f"journal catalog CSV ({','.join(CATALOG_HEADER)})")
    data.add_argument("--articles", required=True, metavar="PATH",
                      help=f"articles CSV ({','.join(ARTICLES_HEADER)})")
    data.add_argument("--citations", required=True, metavar="PATH",
                      help=f"citations CSV ({','.join(CITATIONS_HEADER)})")
    data.add_argument("--fallback-if", type=_impact_factor, default=None, metavar="X",
                      help="impact factor assumed for citing journals missing "
                           "from the catalog (default: strict resolution)")

    # dynamics fixes its own modes and windows: current IFs in full,
    # historical per anniversary.
    scoring = _Parser(add_help=False)
    scoring.add_argument("--if-mode", choices=list(IF_MODES), default="current",
                         help="impact factors as of the event year (historical) "
                              "or the newest available (current); default current")
    scoring.add_argument("--as-of", type=ascii_int, default=None, metavar="YEARS",
                         help="count only citations within this many whole "
                              "years of each publication")

    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default csv)")

    p_score = sub.add_parser("score", parents=[data, scoring, fmt],
                             help="score the given articles (or --all)")
    p_score.set_defaults(handler=_cmd_score)
    p_score.add_argument("ids", nargs="*", metavar="ARTICLE_ID")
    p_score.add_argument("--all", action="store_true",
                         help="score every article in the ledger")

    p_rank = sub.add_parser("rank", parents=[data, scoring, fmt],
                            help="rank every article, best first")
    p_rank.set_defaults(handler=_cmd_rank)
    p_rank.add_argument("--matthew", action="store_true",
                        help="append the index-vs-citation-count divergence summary")

    p_dyn = sub.add_parser("dynamics", parents=[data, fmt],
                           help="index trajectory of one article over time")
    p_dyn.set_defaults(handler=_cmd_dynamics)
    p_dyn.add_argument("article_id", metavar="ARTICLE_ID")
    p_dyn.add_argument("--years", default="1,5,10", metavar="Y1,Y2,..",
                       help="anniversaries to evaluate (default 1,5,10)")

    p_cal = sub.add_parser("calibrate",
                           help="print a category coefficient (9 significant digits)")
    p_cal.set_defaults(handler=_cmd_calibrate)
    p_cal.add_argument("--target", type=ascii_float, default=None, metavar="P",
                       help="index value the f-score below should map to")
    p_cal.add_argument("--fscore", type=ascii_float, default=None, metavar="F",
                       help="f-score paired with --target")
    p_cal.add_argument("--phi", type=ascii_int, default=None, metavar="N",
                       help="derive the coefficient from a category size instead")

    p_cur = sub.add_parser("curves",
                           help="emit index-vs-f sample points as CSV")
    p_cur.set_defaults(handler=_cmd_curves)
    p_cur.add_argument("--beta", required=True, metavar="B1,B2,..",
                       help="comma-separated category coefficients, one curve each")
    p_cur.add_argument("--max-f", type=ascii_float, default=5000.0, metavar="F",
                       help="upper end of the f range (default 5000)")
    p_cur.add_argument("--samples", type=ascii_int, default=101, metavar="N",
                       help="points per curve (default 101)")

    p_gen = sub.add_parser("gen",
                           help="write a reproducible synthetic corpus")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("--articles", type=ascii_int, required=True, metavar="N",
                       dest="n_articles", help="number of articles")
    p_gen.add_argument("--categories", type=ascii_int, required=True, metavar="K",
                       dest="n_categories", help="number of categories")
    p_gen.add_argument("--seed", type=ascii_int, required=True,
                       help="generator seed (same seed, same bytes)")
    p_gen.add_argument("--out", required=True, metavar="DIR",
                       help="directory for catalog.csv, articles.csv, citations.csv")

    p_stats = sub.add_parser("catalog-stats", parents=[fmt],
                             help="per-category sizes, coefficients, and mean "
                                  "impact factors")
    p_stats.set_defaults(handler=_cmd_catalog_stats)
    p_stats.add_argument("--catalog", required=True, metavar="PATH",
                         help="journal catalog CSV")

    return parser


def main(argv=None) -> int:
    # A run leaves no cyclic garbage but argparse's, so the collector's
    # full passes over the loaded ledger and the reports buy nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        pieces = args.handler(args)
        pieces = (pieces,) if isinstance(pieces, str) else pieces
        if encoding := getattr(sys.stdout, "encoding", None):  # io.StringIO has none
            for piece in pieces:
                piece.encode(encoding, sys.stdout.errors or "strict")
        sys.stdout.writelines(pieces)
        return 0
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def console() -> None:
    sys.exit(main())


# -- handlers ----------------------------------------------------------

def _cmd_score(args) -> str:
    if args.all and args.ids:
        raise InputError("pass explicit article ids or --all, not both")
    reports = _score(args, None if args.all else args.ids)
    if args.format == "json":
        return reports_to_json(reports)
    return reports_to_csv(reports)


def _cmd_rank(args) -> str | tuple[str, ...]:
    ranked = rank(_score(args, None))
    if args.format == "json":
        return rank_to_json(ranked, matthew_comparison(ranked) if args.matthew else None)
    if args.matthew:
        return reports_to_csv(ranked), "\n", matthew_to_csv(matthew_comparison(ranked))
    return reports_to_csv(ranked)


def _cmd_dynamics(args) -> str:
    years = _parse_list(args.years, "--years", ascii_int, "integers")
    check_years(years)
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
    betas = _parse_list(args.beta, "--beta", ascii_float, "numbers")
    if not betas:
        raise InputError("--beta expects at least one value")
    curves = [(beta, curve_points(beta, args.max_f, args.samples))
              for beta in betas]
    return curve_family_to_csv(curves)


def _cmd_gen(args) -> str:
    paths = generate_corpus(args.out, args.n_articles, args.n_categories,
                            args.seed)
    return "".join(f"{p}\n" for p in paths)


def _cmd_catalog_stats(args) -> str:
    catalog = _read_catalog(args.catalog)
    stats = catalog_stats(catalog)
    if args.format == "json":
        return json_text(asdict(stats))
    rows = [("category", "phi", "beta", "mean_if")]
    rows += [(c.category, c.phi, fmt_beta(c.beta), fmt_score(c.mean_if))
             for c in stats.categories]
    rows += [("mean_phi", fmt_score(stats.mean_phi)),
             ("mean_if", fmt_score(stats.mean_if))]
    return csv_text(rows)


# -- plumbing ----------------------------------------------------------

# UTF-8, skipping a leading byte order mark so it never reaches the header.
_ENCODING = "utf-8-sig"


def _impact_factor(raw: str) -> float:
    """argparse type for ``--fallback-if``: a finite number >= 0."""
    try:
        value = ascii_float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {raw!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {raw!r}")
    return value


def _score(args, ids) -> list:
    """Score reports for ``ids`` (every article when None) under the scoring flags."""
    check_scoring(args.as_of)
    catalog, ledger = _load_inputs(args, args.as_of)
    return score_articles(ledger, catalog, ids, if_mode=args.if_mode, as_of=args.as_of,
                          fallback_if=args.fallback_if)


def _load_inputs(args, as_of=None) -> tuple[Catalog, Ledger]:
    _check_readable(args.catalog, args.articles, args.citations)
    catalog = _read_catalog(args.catalog)
    with open(args.articles, encoding=_ENCODING, newline="") as articles, \
            open(args.citations, encoding=_ENCODING, newline="") as citations:
        ledger = load_ledger(articles, citations, articles_source=args.articles,
                             citations_source=args.citations, as_of=as_of)
    return catalog, ledger


def _read_catalog(path) -> Catalog:
    _check_readable(path)
    with open(path, encoding=_ENCODING, newline="") as stream:
        return load_catalog(stream, source=str(path))


def _check_readable(*paths) -> None:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise InputError("cannot read: " + ", ".join(missing))


def _parse_list(raw: str, flag: str, parse, kind: str) -> list:
    try:
        return [parse(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated {kind}, got {raw!r}")


if __name__ == "__main__":
    console()
