from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from korenblum import (
    Params,
    f_coefficient,
    g_coefficient,
    norm_difference,
    norm_sq_f,
    norm_sq_g,
    power_series_norm_sq,
    reference_params,
    series,
)
from korenblum.series import DEFAULT_TERMS, GCD_POWER, float_norms_sq

from .oracles import TaylorOracle, exact_norm_sq, float_norm_sq_loop, relative_gap

# Exact values at the reference pair, frozen from independent runs:
# the DFT oracle for the leading coefficients, quadrature agreement for
# the norms (double precision renderings of the exact rationals).
FROZEN_C1 = 0.61111268889449
FROZEN_NORM_F = 0.147201941111765
FROZEN_NORM_G = 0.147201719965510
FROZEN_DELTA = 2.2114625474156505e-07

coefficients = st.integers(min_value=1, max_value=9_999_999).map(
    lambda m: Fraction(m, 10**7)
)


class TestMonomialWeights:
    def test_exact_identity_up_to_30(self):
        for m in range(31):
            assert power_series_norm_sq([(m, 1)]) == Fraction(1, m + 1)

    def test_scaling(self):
        # ||3 z^4||^2 = 9/5
        assert power_series_norm_sq([(4, 3)]) == Fraction(9, 5)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power_series_norm_sq([(-1, 1)])


class TestClosedFormCoefficients:
    def test_leading_terms(self, reference):
        a = reference.a
        assert f_coefficient(reference, 0) == a / 2
        assert f_coefficient(reference, 1) == (a * a + 2) / 4
        assert float(f_coefficient(reference, 1)) == pytest.approx(FROZEN_C1, abs=1e-14)
        assert g_coefficient(reference, 0) == Fraction(1, 2)
        assert g_coefficient(reference, 1) == 3 * a / 4
        assert float(g_coefficient(reference, 1)) == pytest.approx(0.50000355, abs=1e-14)

    def test_rejects_negative_index(self, reference):
        with pytest.raises(ValueError):
            f_coefficient(reference, -1)
        with pytest.raises(ValueError):
            g_coefficient(reference, -1)

    @given(a=coefficients, k=st.integers(min_value=1, max_value=30))
    def test_geometric_ratio(self, a, k):
        # consecutive coefficients shrink exactly by a/2 from k = 1 on
        p = Params(a, 2)
        assert f_coefficient(p, k + 1) * 2 == f_coefficient(p, k) * a
        assert g_coefficient(p, k + 1) * 2 == g_coefficient(p, k) * a

    @pytest.mark.parametrize("a", ["0.1", "0.5", "0.6666714", "0.9"])
    def test_against_extraction_oracle(self, a):
        params = Params(Fraction(a), 10)
        oracle_f = TaylorOracle(params.a, "f")
        oracle_g = TaylorOracle(params.a, "g")
        for k in range(21):
            assert relative_gap(f_coefficient(params, k), oracle_f.coefficient(k)) < 1e-10
            assert relative_gap(g_coefficient(params, k), oracle_g.coefficient(k)) < 1e-10


class TestNormEnclosures:
    def test_frozen_reference_values(self, reference):
        nf = norm_sq_f(reference, K=64, mode="exact")
        ng = norm_sq_g(reference, K=64, mode="exact")
        assert float(nf.midpoint) == pytest.approx(FROZEN_NORM_F, abs=1e-14)
        assert float(ng.midpoint) == pytest.approx(FROZEN_NORM_G, abs=1e-14)
        assert nf.width < Fraction(1, 10**30)
        assert ng.width < Fraction(1, 10**30)

    def test_exact_enclosure_is_ordered(self, reference):
        nf = norm_sq_f(reference, K=8, mode="exact")
        assert nf.lower < nf.upper
        assert nf.mode == "exact"
        assert isinstance(nf.lower, Fraction)

    def test_nested_for_increasing_truncation(self, reference):
        ks = [1, 4, 16, 64]
        for name, fn in (("f", norm_sq_f), ("g", norm_sq_g)):
            encs = [fn(reference, K=k, mode="exact") for k in ks]
            for coarse, fine in zip(encs, encs[1:]):
                assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper, name

    @given(
        a=coefficients,
        n=st.integers(min_value=1, max_value=12),
        k1=st.integers(min_value=1, max_value=40),
        k2=st.integers(min_value=1, max_value=40),
    )
    def test_nesting_property(self, a, n, k1, k2):
        if k1 > k2:
            k1, k2 = k2, k1
        p = Params(a, n)
        coarse = norm_sq_f(p, K=k1, mode="exact")
        fine = norm_sq_f(p, K=k2, mode="exact")
        assert coarse.lower <= fine.lower
        assert fine.upper <= coarse.upper

    def test_tail_sound_against_high_truncation(self, reference):
        # K = 512 localizes the true value far more tightly than any
        # of the coarse enclosures it must sit inside.
        tight_f = norm_sq_f(reference, K=512, mode="exact")
        tight_g = norm_sq_g(reference, K=512, mode="exact")
        for K in (1, 4, 16, 64):
            ef = norm_sq_f(reference, K=K, mode="exact")
            eg = norm_sq_g(reference, K=K, mode="exact")
            assert ef.lower <= tight_f.lower and tight_f.upper <= ef.upper
            assert eg.lower <= tight_g.lower and tight_g.upper <= eg.upper

    def test_exact_at_a_zero(self):
        # f = z^n / 2 and g = z / 2: norms 1/(4(n+1)) and 1/8, width 0.
        p = Params(Fraction(0), 10)
        nf = norm_sq_f(p, K=3, mode="exact")
        ng = norm_sq_g(p, K=3, mode="exact")
        assert nf.lower == nf.upper == Fraction(1, 44)
        assert ng.lower == ng.upper == Fraction(1, 8)

    def test_float_matches_exact(self):
        for a, n in [("0.6666714", 10), ("0.1", 2), ("0.9", 4)]:
            p = Params(Fraction(a), n)
            exact = norm_sq_f(p, K=64, mode="exact")
            fast = norm_sq_f(p, K=64, mode="float")
            assert fast.lower == pytest.approx(float(exact.lower), abs=1e-12)
            assert isinstance(fast.lower, float)

    def test_rejects_bad_arguments(self, reference):
        with pytest.raises(ValueError):
            norm_sq_f(reference, K=0)
        with pytest.raises(ValueError):
            norm_sq_g(reference, K=64, mode="interval")


class TestNormDifference:
    def test_frozen_reference_gap(self, reference):
        d = norm_difference(reference, K=64, mode="exact")
        assert d.certifies
        assert d.delta_lower >= Fraction(22, 10**8)
        assert float(d.delta_lower) == pytest.approx(FROZEN_DELTA, abs=1e-20)

    def test_exact_at_a_zero(self):
        d = norm_difference(Params(Fraction(0), 10), K=2, mode="exact")
        assert d.delta_lower == d.delta_upper == Fraction(-9, 88)
        assert not d.certifies

    def test_float_and_exact_agree(self, reference):
        exact = norm_difference(reference, K=64, mode="exact")
        fast = norm_difference(reference, K=64, mode="float")
        assert fast.delta_lower == pytest.approx(float(exact.delta_lower), abs=1e-12)
        assert exact.certifies and not fast.certifies

    def test_adaptive_escalates_until_relative_width(self, reference):
        d = norm_difference(reference, K=1, mode="exact", adaptive=True)
        assert d.truncation_index > 1
        assert d.width <= abs(d.midpoint) * Fraction(1, 1000)
        assert d.certifies

    def test_enclosure_contains_refined_value(self, reference):
        coarse = norm_difference(reference, K=4, mode="exact")
        fine = norm_difference(reference, K=256, mode="exact")
        assert coarse.delta_lower <= fine.delta_lower
        assert fine.delta_upper <= coarse.delta_upper


def _ends(enclosure):
    return (
        enclosure.lower.numerator, enclosure.lower.denominator,
        enclosure.upper.numerator, enclosure.upper.denominator,
    )


def _oracle_ends(a, n, K, kind):
    lower, upper = exact_norm_sq(a, n, K, kind)
    return lower.numerator, lower.denominator, upper.numerator, upper.denominator


class TestExactAgainstTermByTermOracle:
    """The common-denominator sum gives the oracle's rationals, term for term."""

    @given(
        a=coefficients,
        n=st.integers(min_value=2, max_value=24),
        K=st.integers(min_value=1, max_value=64),
    )
    def test_same_numerators_and_denominators(self, a, n, K):
        p = Params(a, n)
        assert _ends(norm_sq_f(p, K=K, mode="exact")) == _oracle_ends(a, n, K, "f")
        assert _ends(norm_sq_g(p, K=K, mode="exact")) == _oracle_ends(a, n, K, "g")

    @pytest.mark.parametrize("K", [1, 2, 7])
    def test_a_zero(self, K):
        p = Params(Fraction(0), 10)
        assert _ends(norm_sq_f(p, K=K, mode="exact")) == _oracle_ends(Fraction(0), 10, K, "f")
        assert _ends(norm_sq_g(p, K=K, mode="exact")) == _oracle_ends(Fraction(0), 10, K, "g")

    @pytest.mark.parametrize("n, a", [(4, "0.5898501"), (10, "0.6666757"), (20, "0.6885401")])
    def test_large_truncation(self, n, a):
        p = Params(Fraction(a), n)
        assert _ends(norm_sq_f(p, K=256, mode="exact")) == _oracle_ends(p.a, n, 256, "f")
        assert _ends(norm_sq_g(p, K=256, mode="exact")) == _oracle_ends(p.a, n, 256, "g")


class TestLowestTerms:
    """``_lowest_terms`` returns Fraction(num, big * small)'s own pair, and its split.

    A pair not in lowest terms would still print, but it would break
    ``Fraction.__eq__`` and ``hash`` without a sign.
    """

    @given(
        q=st.sampled_from([1, 3, 7, 21, 10**7, 2**5 * 3**4 * 7]) | st.integers(1, 10**6),
        exponent=st.integers(0, 40),
        small=st.integers(1, 10**40),
        twos=st.integers(0, 1500),
        fives=st.integers(0, 700),
        bases=st.integers(0, 60),
        rest=st.integers(-(10**30), 10**30).filter(bool),
    )
    @example(q=1, exponent=0, small=5, twos=3, fives=1, bases=0, rest=1)  # a = 0, K = 1
    @example(q=1, exponent=255, small=3, twos=600, fives=0, bases=0, rest=3)  # a = 0
    @example(q=10**7, exponent=0, small=10, twos=0, fives=0, bases=2, rest=1)  # K = 1
    # big shares several times D^GCD_POWER with num, so the gcd loop runs
    # more than one round: D with the odd primes 3 and 7 (q = 21), or 5.
    @example(q=21, exponent=40, small=11, twos=0, fives=0, bases=3 * GCD_POWER + 1, rest=13)
    @example(q=21, exponent=60, small=63, twos=5, fives=2, bases=5 * GCD_POWER, rest=-9)
    @example(q=10**7, exponent=255, small=10**5, twos=40, fives=30, bases=4 * GCD_POWER, rest=3)
    @example(q=3, exponent=100, small=1, twos=0, fives=0, bases=10 * GCD_POWER - 1, rest=3**5)
    def test_same_pair_as_fraction(self, q, exponent, small, twos, fives, bases, rest):
        base = 4 * q * q
        big = base**exponent
        num = rest * 2**twos * 5**fives * base**bases
        reduced, (cut, rest) = series._lowest_terms(num, big, base, small)
        expected = Fraction(num, big * small)
        assert type(reduced) is Fraction
        assert (reduced.numerator, reduced.denominator) == (expected.numerator, expected.denominator)
        assert reduced == expected and hash(reduced) == hash(expected)
        assert big % cut == 0 and small % rest == 0
        assert reduced.denominator == big // cut * rest


def _same_pair(got, expected):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def _check_difference(nf, ng):
    d = series.enclose_difference(nf, ng)
    _same_pair(d.delta_lower, nf.lower - ng.upper)
    _same_pair(d.delta_upper, nf.upper - ng.lower)
    assert d.certifies == (d.delta_lower > 0)


class TestExactDifference:
    """The exact gap ends are the pairs that plain Fraction subtraction gives."""

    @given(
        m=st.integers(min_value=0, max_value=9_999_999),
        n=st.integers(min_value=2, max_value=30),
        K=st.sampled_from([1, 2, 3, 8, 64, 256]),
    )
    def test_decimal_coefficients(self, m, n, K):
        p = Params(Fraction(m, 10**7), n)
        _check_difference(norm_sq_f(p, K=K, mode="exact"), norm_sq_g(p, K=K, mode="exact"))

    # D = 4 q^2 holds primes other than 2 and 5 (q = 3, 7), or only 2s (q = 2, 8).
    @pytest.mark.parametrize("a", ["0", "2/3", "5/7", "1/3", "1/2", "3/8"])
    @pytest.mark.parametrize("n", [2, 10, 30])
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 64, 256])
    def test_other_denominators(self, a, n, K):
        p = Params(Fraction(a), n)
        _check_difference(norm_sq_f(p, K=K, mode="exact"), norm_sq_g(p, K=K, mode="exact"))

    # Different K; the same D and K at different a; the same big = 16 from
    # D = 4 (a = 0, K = 3) and D = 16 (a = 1/2, K = 2).
    @pytest.mark.parametrize(
        "f_at, g_at",
        [(("0.6666714", 8), ("0.6666714", 9)), (("1/3", 8), ("2/3", 8)),
         (("0", 3), ("1/2", 2)), (("1/2", 2), ("0", 3))],
    )
    def test_enclosures_of_different_pairs(self, f_at, g_at):
        (a, K), (b, L) = f_at, g_at
        _check_difference(norm_sq_f(Params(Fraction(a), 10), K=K, mode="exact"),
                          norm_sq_g(Params(Fraction(b), 10), K=L, mode="exact"))

    def test_enclosures_built_by_hand(self, reference):
        nf = norm_sq_f(reference, K=8, mode="exact")
        ng = norm_sq_g(reference, K=8, mode="exact")
        _check_difference(series.NormEnclosure(nf.lower, nf.upper, 8, "exact"), ng)
        _check_difference(nf, series.NormEnclosure(ng.lower, ng.upper, 8, "exact"))


# Float enclosures ((lower, upper) of ||f||^2, then of ||g||^2) as the
# per-function float code computed them before f and g shared one
# routine; the shared routine must reproduce them to the bit.  At K = 64
# the tail is below half an ulp, so the K <= 8 rows pin the tail too.
FLOAT_ENCLOSURES = (
    (4, "0.5898501", 64, (0.15943482111609278, 0.15943482111609278), (0.15943353259014, 0.15943353259014)),
    (5, "0.6167154", 64, (0.15738227965335982, 0.15738227965335982), (0.15738090708099942, 0.15738090708099942)),
    (6, "0.6340504", 64, (0.15501570908612936, 0.15501570908612936), (0.15501427095255335, 0.15501427095255335)),
    (7, "0.6460616", 64, (0.15274080515673935, 0.15274080515673935), (0.1527393162540271, 0.1527393162540271)),
    (8, "0.6548247", 64, (0.15067388652098088, 0.15067388652098088), (0.1506723678122868, 0.1506723678122868)),
    (9, "0.6614735", 64, (0.14883307604663237, 0.14883307604663237), (0.14883154073113475, 0.14883154073113475)),
    (10, "0.6666757", 64, (0.14720357362930309, 0.14720357362930309), (0.14720202550245248, 0.14720202550245248)),
    (11, "0.6708482", 64, (0.14576124654090636, 0.14576124654090636), (0.14575966634151927, 0.14575966634151927)),
    (12, "0.6742636", 64, (0.14448116390046373, 0.14448116390046373), (0.14447955936335646, 0.14447955936335646)),
    (13, "0.6771072", 64, (0.1433406250833412, 0.1433406250833412), (0.1433390269818974, 0.1433390269818974)),
    (14, "0.6795093", 64, (0.1423200273461693, 0.1423200273461693), (0.1423184102688906, 0.1423184102688906)),
    (15, "0.6815637", 64, (0.14140263833054295, 0.14140263833054295), (0.14140099572576278, 0.14140099572576278)),
    (16, "0.6833396", 64, (0.14057434378141978, 0.14057434378141978), (0.14057270325014792, 0.14057270325014792)),
    (17, "0.6848893", 64, (0.13982334303686153, 0.13982334303686153), (0.139821708201018, 0.139821708201018)),
    (18, "0.6862529", 64, (0.13913969881421462, 0.13913969881421462), (0.13913806057604913, 0.13913806057604913)),
    (19, "0.6874616", 64, (0.13851500781707463, 0.13851500781707463), (0.13851336273048728, 0.13851336273048728)),
    (20, "0.6885401", 64, (0.1379421693375621, 0.1379421693375621), (0.13794050383950027, 0.13794050383950027)),
    (4, "0.5898501", 4, (0.15943380780734806, 0.15943483639629005), (0.15943298286832414, 0.1594335405630494)),
    (10, "0.6666757", 4, (0.14720234273977068, 0.14720359849645015), (0.1472012170946013, 0.1472020415733527)),
    (20, "0.6885401", 4, (0.13794133954627255, 0.13794218749802264), (0.13793993099537807, 0.13794051627476583)),
    (2, "0.9999999", 1, (0.4374999250000047, 0.4749999100000076), (0.26562497187500145, 0.29687495729167107)),
    (3, "0.5", 8, (0.14455647515396775, 0.1445564751567742), (0.1542761562847013, 0.15427615628590557)),
)


class TestFloatEnclosuresPinned:
    @pytest.mark.parametrize("n, a, K, f_ends, g_ends", FLOAT_ENCLOSURES)
    def test_bit_identical(self, n, a, K, f_ends, g_ends):
        p = Params(Fraction(a), n)
        nf = norm_sq_f(p, K=K, mode="float")
        ng = norm_sq_g(p, K=K, mode="float")
        assert (nf.lower, nf.upper) == f_ends
        assert (ng.lower, ng.upper) == g_ends


class TestFloatArrayPass:
    """One array pass equals the scalar float enclosures, element by element."""

    @given(
        a=st.lists(coefficients | st.just(Fraction(0)), min_size=1, max_size=12),
        n=st.integers(min_value=2, max_value=24),
        K=st.integers(min_value=1, max_value=64),
    )
    def test_elements_equal_scalar_calls(self, a, n, K):
        nf, ng = float_norms_sq(np.array([float(x) for x in a]), n, K)
        for i, x in enumerate(a):
            p = Params(x, n)
            f = norm_sq_f(p, K=K, mode="float")
            g = norm_sq_g(p, K=K, mode="float")
            assert (nf.lower[i], nf.upper[i]) == (f.lower, f.upper)
            assert (ng.lower[i], ng.upper[i]) == (g.lower, g.upper)
            assert (f.lower, f.upper) == float_norm_sq_loop(float(x), n, K, "f")
            assert (g.lower, g.upper) == float_norm_sq_loop(float(x), n, K, "g")

    # Enclosures at K = 1 from the scalar loop, at coefficients where the
    # tail's c ** 2 (libm pow) and c * c round differently and the
    # difference reaches the upper end: of ||f||^2 at the first, of
    # ||g||^2 at the second.
    @pytest.mark.parametrize(
        "a, n, f_ends, g_ends",
        [
            (0.9542261, 11, (0.271758146116984, 0.2785427204038663),
             (0.1643986877369754, 0.17068845999272925)),
            (0.8072475, 13, (0.19430159543369172, 0.19746919699030535),
             (0.14943681973460937, 0.15198459015419147)),
        ],
    )
    def test_tail_squares_by_pow(self, a, n, f_ends, g_ends):
        nf, ng = float_norms_sq(np.array([0.5, a]), n, 1)
        assert (nf.lower[1], nf.upper[1]) == f_ends
        assert (ng.lower[1], ng.upper[1]) == g_ends

    def test_blocks_join_in_order(self, monkeypatch):
        a = [i / 37 for i in range(37)]
        whole = float_norms_sq(a, 10, 6)
        monkeypatch.setattr(series, "FLOAT_BLOCK_CELLS", 3 * (6 + 2))
        blocks = float_norms_sq(a, 10, 6)
        for one, many in zip(whole, blocks):
            assert one.lower.tolist() == many.lower.tolist()
            assert one.upper.tolist() == many.upper.tolist()

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            float_norms_sq(np.array([0.5]), 10, 0)

    @pytest.mark.parametrize("n", [2, 3, 10, 20, 100, 1000])
    def test_zero_width_at_default_terms(self, n):
        # The search reads float signs at DEFAULT_TERMS only: its tail
        # bound (below 2e-41 for a < 1) is under half an ulp of either
        # norm, so more terms cannot move a sign.  At K = 16, 17% to 31%
        # of each norm's enclosures here have nonzero width.
        a = [i / 20002 for i in range(1, 20002)]
        for enc in float_norms_sq(a, n, DEFAULT_TERMS):
            assert enc.lower.tolist() == enc.upper.tolist()
