"""Closed-form primitives for the individual impact index (i3).

The index maps an article's impact-factor-weighted citation mass ``f``
to ``1 - exp(-beta * f)``, a saturating score in ``[0, 1)``.  ``beta``
is a per-category rate constant, inversely proportional to the number
of journal titles ``phi`` in the article's category, so the same
citation mass saturates faster in small fields.

Every function here is pure and thread-safe: no I/O, no shared state.
All arithmetic is double precision; domain violations raise
:class:`ValueError`.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "LAMBDA",
    "compute_beta",
    "compute_i3",
    "solve_beta",
    "i3_derivative",
    "i3_auc",
    "cr_integral",
    "cr_simple",
]

#: Constant relating beta and phi: beta(phi) = LAMBDA / phi, about 0.10610329.
LAMBDA = 1.0 / (3.0 * math.pi)

# Largest double below 1.0.  The index is < 1 for every finite citation
# mass, but 1 - exp(-x) rounds to 1.0 once x exceeds ~37; scores
# saturate at this value instead so the [0, 1) contract survives.
_ONE_BELOW = math.nextafter(1.0, 0.0)


def compute_beta(phi: int) -> float:
    """Category coefficient ``1 / (3 * pi * phi)``.

    ``phi`` is the number of journal titles in the article's category,
    an integer >= 1 (the publishing journal itself guarantees at least
    one title).  Strictly decreasing in ``phi``; the maximum value
    ``LAMBDA`` is attained at ``phi = 1``.
    """
    try:
        phi = operator.index(phi)
    except TypeError:
        raise ValueError(f"phi must be an integer, got {phi!r}") from None
    if phi < 1:
        raise ValueError(f"phi must be >= 1, got {phi}")
    try:
        return LAMBDA / phi
    except OverflowError:
        raise ValueError(
            f"phi must be representable as a double, got an integer of "
            f"{phi.bit_length()} bits") from None


def compute_i3(f: float, beta: float) -> float:
    """Individual impact index ``1 - exp(-beta * f)``.

    The exact function is strictly increasing in both arguments; it is
    0 at ``f = 0`` and always below 1.  The computed index saturates:
    scores that round to 1.0 clamp to ``_ONE_BELOW``, the largest
    double under 1.0, and stay flat there however much ``f`` grows;
    :func:`i3_auc` breaks the ties.
    """
    _check_f(f)
    _check_beta(beta)
    if f == 0.0:
        return 0.0
    value = -math.expm1(-beta * f)
    return value if value < 1.0 else _ONE_BELOW


def solve_beta(target_i3: float, f: float) -> float:
    """Rate constant that makes a citation mass ``f`` score ``target_i3``.

    Inverts the index: returns ``-ln(1 - target_i3) / f``, so
    ``compute_i3(f, solve_beta(p, f))`` recovers ``p``.  Useful for
    calibrating beta against an empirical anchor mass instead of a
    category title count.  A pair whose rate overflows a double or
    underflows to 0 is refused, like any other invalid beta.
    """
    if not 0.0 < target_i3 < 1.0:
        raise ValueError(f"target index must lie in (0, 1), got {target_i3!r}")
    if not 0.0 < f < math.inf:
        raise ValueError(f"citation mass must be finite and > 0, got {f!r}")
    beta = -math.log1p(-target_i3) / f
    if not 0.0 < beta < math.inf:
        raise ValueError(
            f"no finite positive beta maps citation mass {f!r} to {target_i3!r}")
    return beta


def i3_derivative(f: float, beta: float) -> float:
    """Slope of the index at citation mass ``f``: ``beta * exp(-beta * f)``.

    Equals ``beta`` at ``f = 0`` and decays to 0, which is the
    saturation signal: near the asymptote extra citation mass barely
    moves the score.
    """
    _check_f(f)
    _check_beta(beta)
    return beta * math.exp(-beta * f)


def i3_auc(f_upper: float, beta: float) -> float:
    """Area under the index curve from 0 to ``f_upper``.

    Closed form of the definite integral of ``1 - exp(-beta * u)``:
    ``f_upper + (exp(-beta * f_upper) - 1) / beta``.  Non-negative, and
    the exact area is strictly increasing in ``f_upper``; it keeps
    growing roughly linearly after the score itself has saturated, which
    is what makes it usable as a tie-breaker between highly cited
    articles.  The computed area can fall by one ulp where ``f_upper``
    rises by one: at ``compute_beta(98)``, ``f_upper = 15.517`` gives
    0.12961631420127162 and ``nextafter(15.517, inf)`` gives
    0.12961631420126984.  Of 1,000,000 adjacent-ulp pairs at that beta,
    ``f_upper`` drawn uniform in [0, 50) by ``random.Random(1)``,
    127,059 invert.  ROADMAP item 5, "an exact tie-break order", covers
    what this does to the rank order.
    """
    _check_f(f_upper, name="f_upper")
    _check_beta(beta)
    value = f_upper + math.expm1(-beta * f_upper) / beta
    # exp(-x) > 1 - x guarantees a non-negative area; guard the last
    # ulp of rounding for tiny beta * f_upper.
    return value if value > 0.0 else 0.0


def cr_integral(t_score: float, f_full: float, beta: float) -> float:
    """Integral citation ratio: area up to ``t_score`` over area up to ``f_full``.

    ``t_score`` is the citation mass accumulated by the truncation
    point and may not exceed the full mass ``f_full``.  As
    ``beta * f_full`` grows the ratio approaches the plain mass ratio
    ``t_score / f_full``.
    """
    if not f_full > 0.0:
        raise ValueError(f"full citation mass must be > 0, got {f_full!r}")
    if not 0.0 <= t_score <= f_full:
        raise ValueError(
            f"truncated mass {t_score!r} must lie in [0, {f_full!r}]: "
            "a truncated history cannot outweigh the full history"
        )
    denominator = i3_auc(f_full, beta)
    if denominator == 0.0:
        raise ValueError("full-history area underflows to zero; ratio undefined")
    # The exact ratio is at most 1 for t_score <= f_full; the rounded
    # areas can overshoot by a few ulps when the masses nearly coincide.
    return min(i3_auc(t_score, beta) / denominator, 1.0)


def cr_simple(i3_t: float, i3_full: float) -> float:
    """Simple citation ratio: truncated index over full-history index.

    The full-history index must be positive; an article that never
    scored has no citation distribution to take a fraction of.
    """
    if i3_full == 0.0:
        raise ValueError("ratio undefined: full-history index is zero")
    if not 0.0 <= i3_t <= i3_full:
        raise ValueError(f"truncated index {i3_t!r} must lie in [0, {i3_full!r}]")
    return i3_t / i3_full


def _check_f(f: float, name: str = "f") -> None:
    if not f >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {f!r}")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be > 0 and finite, got {beta!r}")
