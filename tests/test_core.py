"""Unit tests for the closed-form index primitives.

Reference values were derived independently of the implementation:
50-digit arithmetic for point values, adaptive numeric quadrature for
areas, and central finite differences for slopes.  They are frozen
here as literals; the derivations live in the comments.
"""

import math

import pytest
from scipy.integrate import quad

from i3metrics.core import (
    LAMBDA,
    compute_beta,
    compute_i3,
    cr_integral,
    cr_simple,
    i3_auc,
    i3_derivative,
    solve_beta,
)


class TestComputeBeta:
    def test_phi_one_gives_lambda(self):
        assert compute_beta(1) == LAMBDA
        assert compute_beta(1) == pytest.approx(0.1061032953945969, rel=1e-15)

    def test_reference_coefficients(self):
        # Coefficients for five real category sizes, 50-digit reference.
        expected = {
            61: 0.0017393982851573262,
            150: 0.000707355302630646,
            209: 0.0005076712698306072,
            253: 0.0004193806142078929,
            256: 0.00041446599763514413,
        }
        for phi, beta in expected.items():
            assert compute_beta(phi) == pytest.approx(beta, abs=1e-12)

    def test_strictly_decreasing(self):
        betas = [compute_beta(phi) for phi in range(1, 200)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match=">= 1"):
            compute_beta(0)
        with pytest.raises(ValueError, match=">= 1"):
            compute_beta(-3)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError, match="integer"):
            compute_beta(2.5)
        with pytest.raises(ValueError, match="integer"):
            compute_beta("61")

    def test_accepts_integer_like(self):
        assert compute_beta(True) == LAMBDA  # bool is an int


class TestComputeI3:
    def test_zero_mass_scores_zero(self):
        value = compute_i3(0.0, 0.001)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # plain zero, not -0.0

    def test_unit_exponent(self):
        # beta * f = 1 -> 1 - 1/e.
        assert compute_i3(1000.0, 0.001) == pytest.approx(
            0.6321205588285577, rel=1e-15)

    def test_uncited_article_reference(self):
        # An uncited article keeps f at its journal's impact factor;
        # at 2.0 the index is 1 - exp(-0.002), near-linear.
        assert compute_i3(2.0, 0.001) == pytest.approx(
            0.001998001332666933, rel=1e-15)

    def test_small_category_reference(self):
        # f = 20 in a 61-title category; 50-digit reference
        # 0.034189820569318876...
        beta = compute_beta(61)
        assert compute_i3(20.0, beta) == pytest.approx(
            0.03418982056931888, rel=1e-14)

    def test_calibrated_anchor(self):
        # The rounded coefficient 0.00115129 maps f = 2000 to just
        # under 0.90.
        assert compute_i3(2000.0, 0.00115129) == pytest.approx(
            0.8999994906992985, rel=1e-14)

    def test_stays_below_one(self):
        for f in (1.0, 1e3, 1e6, 1e9, 1e300):
            assert 0.0 < compute_i3(f, 0.00115129) < 1.0

    def test_tiny_mass_is_linear(self):
        # 1 - exp(-x) ~ x for small x; expm1 keeps the precision.
        assert compute_i3(1e-12, 0.001) == pytest.approx(1e-15, rel=1e-9)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError, match="f must be >= 0"):
            compute_i3(-1.0, 0.001)
        with pytest.raises(ValueError, match="f must be >= 0"):
            compute_i3(float("nan"), 0.001)
        with pytest.raises(ValueError, match="beta must be > 0"):
            compute_i3(1.0, 0.0)
        with pytest.raises(ValueError, match="beta must be > 0"):
            compute_i3(1.0, -0.5)


class TestSolveBeta:
    def test_percentile_anchor(self):
        # -ln(0.1)/2000, 50-digit reference.
        assert solve_beta(0.90, 2000.0) == pytest.approx(
            0.001151292546497023, abs=1e-15)

    def test_round_trip(self):
        beta = solve_beta(0.90, 2000.0)
        assert compute_i3(2000.0, beta) == pytest.approx(0.90, abs=1e-12)

    def test_half_target(self):
        # -ln(0.5)/1000 = ln(2)/1000.
        assert solve_beta(0.5, 1000.0) == pytest.approx(
            0.0006931471805599453, rel=1e-15)

    def test_rejects_degenerate_targets(self):
        for target in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="target index"):
                solve_beta(target, 100.0)
        with pytest.raises(ValueError, match="citation mass"):
            solve_beta(0.5, 0.0)

    def test_rejects_non_finite_mass(self):
        for f in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="citation mass"):
                solve_beta(0.9, f)


class TestDerivative:
    def test_at_origin_equals_beta(self):
        assert i3_derivative(0.0, 0.25) == 0.25

    def test_calibrated_point(self):
        assert i3_derivative(2000.0, 0.00115129) == pytest.approx(
            0.00011512958635280465, rel=1e-14)

    def test_matches_finite_differences(self):
        beta = 0.00115129
        h = 1e-3
        for f in (50.0, 500.0, 2000.0, 5000.0):
            centered = compute_i3(f + h, beta) - compute_i3(f - h, beta)
            assert i3_derivative(f, beta) == pytest.approx(
                centered / (2 * h), rel=1e-6)

    def test_vanishes_past_saturation(self):
        beta = 0.00115129
        assert i3_derivative(31.0 / beta, beta) < 1e-12
        assert i3_derivative(1e9, beta) < 1e-12

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            i3_derivative(-1.0, 0.001)
        with pytest.raises(ValueError):
            i3_derivative(1.0, 0.0)


class TestAuc:
    def test_zero_width(self):
        assert i3_auc(0.0, 0.001) == 0.0

    def test_calibrated_point(self):
        assert i3_auc(2000.0, 0.00115129) == pytest.approx(
            1218.2686458674195, rel=1e-14)

    def test_agrees_with_quadrature(self):
        beta = 0.00115129
        for f in (1.0, 100.0, 2000.0, 20000.0):
            numeric, _ = quad(lambda u: compute_i3(u, beta), 0.0, f)
            assert i3_auc(f, beta) == pytest.approx(numeric, rel=1e-9)

    def test_non_negative_for_tiny_exponents(self):
        assert i3_auc(1e-300, 1e-10) >= 0.0

    def test_strictly_increasing(self):
        beta = 0.002
        uppers = [10.0 * k for k in range(1, 50)]
        areas = [i3_auc(u, beta) for u in uppers]
        assert all(a < b for a, b in zip(areas, areas[1:]))


class TestCrIntegral:
    def test_reference_half_mass(self):
        # Areas up to 1000 and 2000 at the calibrated coefficient.
        assert cr_integral(1000.0, 2000.0, 0.00115129) == pytest.approx(
            0.33332744052177316, rel=1e-12)

    def test_agrees_with_quadrature(self):
        beta = 0.00115129
        top, _ = quad(lambda u: compute_i3(u, beta), 0.0, 2000.0)
        part, _ = quad(lambda u: compute_i3(u, beta), 0.0, 1000.0)
        assert cr_integral(1000.0, 2000.0, beta) == pytest.approx(
            part / top, rel=1e-9)

    def test_extremes(self):
        assert cr_integral(0.0, 500.0, 0.002) == 0.0
        assert cr_integral(500.0, 500.0, 0.002) == 1.0

    def test_capped_at_one_when_masses_nearly_coincide(self):
        # The rounded areas put the truncated one a few ulps above the full one.
        assert cr_integral(0.9999999999999999, 1.0, 0.09375) == 1.0

    def test_approaches_mass_ratio_when_saturated(self):
        beta = 0.00115129
        f_full = 200.0 / beta  # deep saturation
        assert cr_integral(0.5 * f_full, f_full, beta) == pytest.approx(
            0.5, abs=0.01)

    def test_rejects_inverted_masses(self):
        with pytest.raises(ValueError, match="cannot outweigh"):
            cr_integral(300.0, 200.0, 0.002)
        with pytest.raises(ValueError, match="> 0"):
            cr_integral(0.0, 0.0, 0.002)


class TestCrSimple:
    def test_reference_ratio(self):
        i3_t = compute_i3(1000.0, 0.00115129)
        i3_full = compute_i3(2000.0, 0.00115129)
        assert cr_simple(i3_t, i3_full) == pytest.approx(
            0.7597464618316422, rel=1e-12)

    def test_identity(self):
        assert cr_simple(0.25, 0.25) == 1.0
        assert cr_simple(0.0, 0.25) == 0.0

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError, match="undefined"):
            cr_simple(0.0, 0.0)

    def test_rejects_inverted_indices(self):
        with pytest.raises(ValueError, match="must lie in"):
            cr_simple(0.5, 0.25)
