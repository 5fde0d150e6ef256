from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from korenblum import Params, reference_params
from korenblum.domination import grid_ratio_sq
from korenblum.family import as_fraction, eval_f, eval_g, fraction_to_decimal

from .test_cli import decimal_coefficients, small_fractions


class TestAsFraction:
    def test_decimal_string_is_exact(self):
        assert as_fraction("0.6666714") == Fraction(6666714, 10**7)

    def test_float_goes_through_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_fraction_passthrough(self):
        x = Fraction(2, 3)
        assert as_fraction(x) is x


class TestParams:
    def test_reference(self):
        p = reference_params()
        assert p.a == Fraction(6666714, 10**7)
        assert p.n == 10
        assert p.describe() == "a=0.6666714, n=10"

    def test_accepts_degenerate_edges(self):
        assert Params(Fraction(0), 2).a == 0
        assert Params(Fraction(1, 2), 1).n == 1

    @pytest.mark.parametrize("a", [Fraction(1), Fraction(3, 2), Fraction(-1, 10)])
    def test_rejects_a_outside_unit_interval(self, a):
        with pytest.raises(ValueError):
            Params(a, 10)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Params(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            Params(Fraction(1, 2), 2.0)

    def test_coerces_string_coefficient(self):
        assert Params("0.25", 3).a == Fraction(1, 4)


class TestEvaluation:
    def test_at_origin(self, reference):
        assert eval_f(reference, 0j) == pytest.approx(reference.a_float / 2)
        assert eval_g(reference, 0j) == 0

    def test_matches_direct_formula(self, reference):
        z = 0.3 + 0.4j
        a = reference.a_float
        zn = z**10
        assert eval_f(reference, z) == pytest.approx((a + zn) / (2 - a * zn))
        assert eval_g(reference, z) == pytest.approx(z * (1 + a * zn) / (2 - a * zn))

    def test_g_does_not_depend_on_array_size(self, reference):
        # numpy reuses large temporaries, which reorders a commutative
        # complex product; eval_g must give the same bits either way.
        radii = np.linspace(0.6, 1.0, 256)
        theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        z = radii[:, None] * np.exp(1j * theta[None, :])
        whole = eval_g(reference, z)
        by_row = np.array([eval_g(reference, row) for row in z])
        assert np.array_equal(whole, by_row)

    # gcd(n, N) is 10 in the first case, then 1, 2, 4 and 16, then 3, 5 and
    # 15; then rows of 2, 3 and 17 samples, below the grid's N >= 16 and just
    # above, with gcd 2, 3 and 1 (z^n one column wide in the first two).
    @pytest.mark.parametrize(
        "n, angles",
        [(10, 300), (7, 1024), (10, 1024), (12, 1024), (16, 1024), (9, 300), (5, 300), (15, 300),
         (10, 2), (9, 3), (12, 17)],
    )
    def test_abs_ratio_matches_f_over_g(self, reference, n, angles):
        # The grid's real-component |f|^2/|g|^2 against the complex eval_f
        # and eval_g at the same z = r e^(i theta_j), theta_j = 2 pi j / N,
        # relative to 1 or to the ratio above it; radii reach below the
        # critical radius, where the ratio exceeds 1.
        params = Params(reference.a, n)
        radii = np.linspace(0.6, 1.0, 64)
        theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
        z = radii[:, None] * np.exp(1j * theta[None, :])
        expected = np.abs(eval_f(params, z)) / np.abs(eval_g(params, z))
        ratio = np.sqrt(grid_ratio_sq(params, radii, angles))
        assert ratio.shape == z.shape
        assert np.all(np.abs(ratio - expected) <= 1e-13 * np.maximum(1.0, expected))

    def test_vectorized(self, reference):
        z = np.linspace(0.1, 0.9, 7) * np.exp(1j * 0.3)
        values = eval_f(reference, z)
        assert values.shape == (7,)
        assert np.all(np.isfinite(values))


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "x, text",
        [
            (Fraction("0.6666714"), "0.6666714"),
            (Fraction(1, 2), "0.5"),
            (Fraction(3, 1), "3"),
            (Fraction(-1, 8), "-0.125"),
            (Fraction(1, 3), "1/3"),
            (Fraction(1, 2**40), "0.0000000000009094947017729282379150390625"),
            (Fraction(7, 5**30), "0.000000000000000000007516192768"),
            (Fraction(3, 2**3 * 5**9 * 7), "3/109375000"),
        ],
    )
    def test_render(self, x, text):
        assert fraction_to_decimal(x) == text

    def test_round_trip(self):
        x = Fraction(6666757, 10**7)
        assert Fraction(fraction_to_decimal(x)) == x

    @given(x=decimal_coefficients | small_fractions, sign=st.sampled_from([1, -1]))
    def test_exact_and_finite_iff_the_denominator_is_two_five(self, x, sign):
        x *= sign
        text = fraction_to_decimal(x)
        assert Fraction(text) == x
        odd = x.denominator
        while odd % 2 == 0:
            odd //= 2
        while odd % 5 == 0:
            odd //= 5
        assert ("/" not in text) == (odd == 1)
