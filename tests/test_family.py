from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from korenblum import Params, reference_params
from korenblum.family import as_fraction, eval_abs_ratio, eval_f, eval_g, fraction_to_decimal


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

    def test_abs_ratio_matches_f_over_g(self, reference):
        z = np.linspace(0.6, 1.0, 64)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 300))
        expected = np.abs(eval_f(reference, z)) / np.abs(eval_g(reference, z))
        assert np.array_equal(eval_abs_ratio(reference, z, z**10), expected)
        w = 0.8 + 0.1j
        assert eval_abs_ratio(reference, w, w**10) == abs(eval_f(reference, w)) / abs(
            eval_g(reference, w)
        )

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
        ],
    )
    def test_render(self, x, text):
        assert fraction_to_decimal(x) == text

    def test_round_trip(self):
        x = Fraction(6666757, 10**7)
        assert Fraction(fraction_to_decimal(x)) == x
