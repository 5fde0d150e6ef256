from __future__ import annotations

from fractions import Fraction

import pytest

from korenblum import best_bound, critical_a, delta_of_a, scan, search
from korenblum.domination import NoInteriorRoot
from korenblum.family import fraction_to_decimal
from korenblum.search import (
    WANG_UPPER_BOUND,
    AmbiguousSign,
    CertificationFailed,
    InvalidBracket,
    _certified_sign,
    _quantize_up,
    coarse_scan,
)

# Sign change of delta(a) at n = 10, frozen from exact-arithmetic bisection.
FROZEN_A_STAR = 0.6666706833862361
FROZEN_ROOT = 0.6779049274218489


class TestDeltaOfA:
    def test_positive_at_reference_coefficient(self):
        d = delta_of_a(10, "0.6666714", mode="exact")
        assert d.certifies
        assert d.delta_lower >= Fraction(22, 10**8)

    def test_negative_below_crossing(self):
        assert delta_of_a(10, "0.6").delta_upper < 0
        assert delta_of_a(10, "0.6666666667").delta_upper < 0

    def test_accepts_float_and_string(self):
        assert delta_of_a(10, 0.7).certifies
        assert delta_of_a(10, "0.7").certifies


class TestCertifiedSign:
    def test_resolves_both_sides(self):
        assert _certified_sign(10, 0.6, 64)[0] == -1
        assert _certified_sign(10, 0.7, 64)[0] == 1

    def test_escalates_truncation(self):
        # K = 1 straddles zero this close to the crossing; escalation
        # resolves it and reports the truncation that sufficed.
        sign, d = _certified_sign(10, 0.667, 1)
        assert sign == 1
        assert d.truncation_index > 1

    def test_ambiguous_when_capped(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_TERMS", 4)
        with pytest.raises(AmbiguousSign):
            _certified_sign(10, FROZEN_A_STAR, 2)


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
        with pytest.raises(ValueError):
            best_bound(10, safety=0.0)


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
