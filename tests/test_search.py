from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction

import pytest

from korenblum import best_bound, critical_a, delta_of_a, scan, search, series
from korenblum.domination import NoInteriorRoot
from korenblum.family import fraction_to_decimal
from korenblum.search import (
    COARSE_GRID,
    WANG_UPPER_BOUND,
    AmbiguousSign,
    CertificationFailed,
    InvalidBracket,
    _float_sign,
    _quantize_up,
    coarse_scan,
)
from korenblum.series import DifferenceResult, enclose_difference, float_norms_sq

# Sign change of delta(a) at n = 10, frozen from exact-arithmetic bisection.
FROZEN_A_STAR = 0.6666706833862361
FROZEN_ROOT = 0.677904927421849

# sha256 of the 99 float gap estimates on COARSE_GRID packed as
# little-endian doubles, as 99 separate delta_of_a calls computed them:
# coarse_scan(n).deltas at K = 64, and the midpoints of the float gap
# enclosures at K = 8, where the tail bound is visible (about 1e-7 wide
# at a = 0.99).
COARSE_DELTAS_SHA256 = {
    (2, 64): "bb216918467acc644a3074bb156e8a52f57981a001674e6d55d2cd5cecdb81df",
    (3, 64): "4c57eb4992be9930bb6ade8b0fc2f6b3b30addbeb482f37ef03af534aea95764",
    (4, 64): "6eda4f67b6807a57ca71cb63348c231ba194153eb4486ce32da4d63e9b5b2383",
    (5, 64): "00d85ccc88ec12337bf0a0b1ee5c6ad8d6582e47c9ad6981d6fe526fa4ea5547",
    (6, 64): "3ec5210451e5e98c052848fc2a62630edf2f4ed709e1aa35b40f74917b9dd67b",
    (7, 64): "fe41405f2dd2732539e467ab017267905f48a302d9f9fd321b9d8f88d8afed6c",
    (8, 64): "d4fecf4d534119e7d6b5b564423052868856f4a609136c4c4617c55bb2ffb5a5",
    (9, 64): "3525ec3d4f861d8d144e59083505a26f2676aa791d8e4f5ada71b06526b06116",
    (10, 64): "69804e3e7bd38910981bd7dd2fc2a300696559c5250ab83a97f343fcbe481e36",
    (11, 64): "92675495f41a973278b0c3f6349915b7715aaead7912d827a183c110eb4c3332",
    (12, 64): "2c3e13d0b2d1321ef6b04f6aff2b5437cb8c0c019272f6388d2a0dec41ced85f",
    (13, 64): "5d8a83255f17e250fb6c4ecd1ece3ba229a614dd2303ee53c39f4b09c7732755",
    (14, 64): "fc27c3c67023f8b51884848c6ee961ee08154c4b139bb19e8721501060111c76",
    (15, 64): "8f2e2d3d45eaf0fa7ea3facdd3ebc8f2af35e305de97c4d73492ce2efb90a989",
    (16, 64): "0acc3a877eaec703c570b712cb3344a7c92379bdd64e8889bb9e9df7328898cd",
    (17, 64): "7bfcb30281e8a81cd8c4b2476e2f8db966e3f5fe1a495d75994ea8ab35bfdf7f",
    (18, 64): "1364c3ae413221f490d99281e40b6bd8bba127fe6892690c2d2310578df35fc9",
    (19, 64): "0c739926896fd9acb75176c94e451d4cc0bcbcd2678e9bc8a8c7b994f2cbb4c1",
    (20, 64): "e83fdc7d9dbfed38744e86b3afcd8125fdebc89d22d33a191f8310ea3a8e7c4a",
    (21, 64): "35648c18383eafcc6b8a98a271dd86f36898fb34feaca75a6049ebe31936a15f",
    (22, 64): "a2d62d63cc4fd9fa104c0ca88bc46f6e75613085aa12803b25ca6989302ade4b",
    (23, 64): "d329b45141130297d5fbd6c450f524b2c1f6ae68bd8e9429e6949c940ffb4c25",
    (24, 64): "d7e012a709921b25909a3e82f043b84260583b431c008042bf04d19dd26a9653",
    (10, 8): "1c75abedf41abe68f08786e8dd227cf9cbe119e25905c65911108c3c5a407b15",
}


class TestDeltaOfA:
    def test_positive_at_reference_coefficient(self):
        d = delta_of_a(10, "0.6666714", mode="exact")
        assert d.certifies
        assert d.delta_lower >= Fraction(22, 10**8)

    def test_negative_below_crossing(self):
        assert delta_of_a(10, "0.6").delta_upper < 0
        assert delta_of_a(10, "0.6666666667").delta_upper < 0

    def test_accepts_float_and_string(self):
        assert delta_of_a(10, 0.7) == delta_of_a(10, "0.7")
        assert delta_of_a(10, 0.7).delta_lower > 0

    @pytest.mark.parametrize("a", [0.0, -0.0, 0.1, 0.6666757, 0.9999999999999999])
    def test_float_in_float_mode_as_its_decimal(self, a):
        assert delta_of_a(10, a) == delta_of_a(10, repr(a))

    @pytest.mark.parametrize(
        "a, message",
        [(1.1, "got 11/10"), (-0.5, "got -1/2"), (1.0, "got 1"),
         (float("nan"), "Invalid literal"), (float("inf"), "Invalid literal")],
    )
    def test_float_range_errors_as_from_its_decimal(self, a, message):
        with pytest.raises(ValueError, match=message):
            delta_of_a(10, a)


class TestCertifiedSign:
    """``_float_sign``: the sign of one float estimate of delta."""

    def test_resolves_both_sides(self):
        assert _float_sign(10, 0.6) == -1
        assert _float_sign(10, 0.7) == 1

    def test_exact_zero_is_ambiguous_at_once(self, monkeypatch):
        calls = []

        def zero(n, a):
            calls.append(a)
            return DifferenceResult(0.0, 0.0, 64, "float")

        monkeypatch.setattr(search, "delta_of_a", zero)
        with pytest.raises(AmbiguousSign):
            _float_sign(10, FROZEN_A_STAR)
        assert calls == [FROZEN_A_STAR]


class TestCoarseScan:
    def test_single_rising_change_at_n10(self):
        result = coarse_scan(10)
        assert result.sign_changes == ((0.66, 0.67),)
        i = result.a_values.index(0.66)
        assert result.deltas[i] < 0 < result.deltas[i + 1]

    def test_custom_grid(self, monkeypatch):
        monkeypatch.setattr(search, "COARSE_GRID", (0.5, 0.6, 0.7, 0.8))
        result = coarse_scan(10)
        assert result.sign_changes == ((0.6, 0.7),)

    @pytest.mark.parametrize("n, K", sorted(COARSE_DELTAS_SHA256))
    def test_deltas_bit_identical(self, n, K):
        if K == 64:
            deltas = coarse_scan(n).deltas
        else:
            deltas = enclose_difference(*float_norms_sq(COARSE_GRID, n, K)).midpoint.tolist()
        packed = struct.pack(f"<{len(deltas)}d", *deltas)
        assert hashlib.sha256(packed).hexdigest() == COARSE_DELTAS_SHA256[n, K]

    def test_tail_visible_at_k8(self):
        d = delta_of_a(10, 0.99, K=8)
        assert d.delta_upper - d.delta_lower > 1e-7

    def test_no_per_coefficient_calls(self, monkeypatch):
        calls = []
        for module, name in ((search, "delta_of_a"), (series, "norm_sq_f"), (series, "norm_sq_g")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        coarse_scan(10)
        assert calls == []


class TestCriticalA:
    def test_localizes_crossing(self):
        point = critical_a(10, (0.6, 0.7))
        assert point.rising
        assert point.a_star == pytest.approx(FROZEN_A_STAR, abs=1e-8)
        assert point.bracket[1] - point.bracket[0] <= 1e-10

    def test_wide_bracket_still_works(self):
        # any bracket whose float estimates have opposite signs is fair game
        point = critical_a(10, (0.01, 0.99))
        assert point.a_star == pytest.approx(FROZEN_A_STAR, abs=1e-8)

    def test_same_sign_brackets_rejected(self):
        with pytest.raises(InvalidBracket, match=r"float estimates of delta have sign -1"):
            critical_a(10, (0.1, 0.5))
        with pytest.raises(InvalidBracket, match=r"float estimates of delta have sign \+1"):
            critical_a(10, (0.7, 0.9))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            critical_a(10, (0.0, 0.6666714))
        with pytest.raises(ValueError):
            critical_a(10, (0.7, 0.6))


class TestQuantize:
    def test_rounds_up_on_lattice(self):
        assert _quantize_up(0.12345671, 7) == Fraction(1234568, 10**7)
        assert _quantize_up(0.5, 7) == Fraction(1, 2)


class TestBestBound:
    def test_reference_frequency(self):
        candidate = best_bound(10)
        assert candidate.certified
        assert candidate.improves_wang
        assert candidate.params.a == Fraction("0.6666757")
        assert candidate.a_star == pytest.approx(FROZEN_A_STAR, abs=1e-8)
        assert candidate.c == pytest.approx(0.6779099280, abs=1e-6)
        assert candidate.c < WANG_UPPER_BOUND
        assert candidate.delta_lower > 0
        assert candidate.domination.verdict == "pass"

    def test_tiny_safety_approaches_the_crossing(self):
        candidate = best_bound(10, safety=1e-7)
        assert candidate.certified
        assert candidate.c <= FROZEN_ROOT + 1e-9
        assert float(candidate.params.a) < 0.6666714

    def test_small_safety_reproduces_reference(self):
        # The default safety 5e-6 certifies a = 0.6666757; 7e-7 lands on the
        # README's pair.
        candidate = best_bound(10, safety=7e-7)
        assert candidate.params.a == Fraction("0.6666714")
        assert candidate.c == FROZEN_ROOT

    def test_forced_coefficient_reproduces_reference(self):
        candidate = best_bound(10, a="0.6666714")
        assert candidate.a_star is None
        assert candidate.c == pytest.approx(FROZEN_ROOT, abs=1e-12)
        assert candidate.delta_lower >= Fraction(22, 10**8)
        assert candidate.improves_wang

    def test_forced_coefficient_below_crossing_fails(self):
        # 2/3 sits below the sign change, so the gap cannot be certified
        with pytest.raises(CertificationFailed):
            best_bound(10, a=Fraction(2, 3))

    def test_no_interior_root_propagates(self):
        with pytest.raises(NoInteriorRoot):
            best_bound(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            best_bound(1)

    @pytest.mark.parametrize("safety", [0.0, -1e-6, 1.0, 1e300, math.inf, math.nan])
    def test_safety_outside_unit_interval(self, safety):
        with pytest.raises(ValueError, match="safety"):
            best_bound(10, safety=safety)


class TestScan:
    def test_small_range(self):
        result = scan(range(2, 5))
        by_n = {row.n: row for row in result.rows}
        assert by_n[2].candidate is None and "NoInteriorRoot" in by_n[2].error
        assert by_n[3].candidate is None and "NoInteriorRoot" in by_n[3].error
        assert by_n[4].candidate is not None
        assert result.best is by_n[4].candidate

    def test_table_sorted_by_radius_descending(self):
        result = scan([4, 5, 10])
        table = result.table()
        radii = [row.candidate.c for row in table if row.candidate]
        assert radii == sorted(radii, reverse=True)

    def test_best_is_smallest_radius(self):
        result = scan([9, 10, 11])
        assert result.best.params.n == 10
        assert result.best.improves_wang
        assert fraction_to_decimal(result.best.params.a) == "0.6666757"
