from __future__ import annotations

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from mpmath import mp

import korenblum.domination
from korenblum import (
    Params,
    critical_root,
    pole_zero_radii,
    ratio_envelope,
    scan,
    verify_domination,
)
from korenblum.certificate import run_verification
from korenblum.domination import (
    DominationViolated,
    HypothesisViolated,
    NoInteriorRoot,
    critical_polynomial,
)
from korenblum.family import eval_abs_ratio, eval_f, eval_g

from .oracles import mp_fraction

FROZEN_ROOT = 0.677904927421849

# (n, a, c, grid_max_ratio, angular_peak_offset, verdict) on the default
# 256x1024 grid for the 17 certified pairs of `korenblum scan --n-min 4
# --n-max 20`, as the whole-grid evaluation computed them with z^n from
# the reduced angle.  The blocked grid must reproduce every bit.
PINNED_DOMINATION = (
    (4, "0.5898501", 0.8516706811286302, 1.0000000000000004, 0.0, "pass"),
    (5, "0.6167154", 0.732009055482802, 1.0000000000000004, 0.0, "pass"),
    (6, "0.6340504", 0.6989956106765488, 1.0000000000000007, 0.0, "pass"),
    (7, "0.6460616", 0.685796192364925, 1.0000000000000007, 0.0, "pass"),
    (8, "0.6548247", 0.6802521891114669, 1.0000000000000004, 0.0, "pass"),
    (9, "0.6614735", 0.678213172724522, 1.0000000000000007, 0.0, "pass"),
    (10, "0.6666757", 0.6779099280036489, 1.0000000000000007, 0.0, "pass"),
    (11, "0.6708482", 0.6784909589206722, 1.0000000000000004, 0.0, "pass"),
    (12, "0.6742636", 0.679514665711971, 1.0000000000000004, 0.0, "pass"),
    (13, "0.6771072", 0.680741404602351, 1.0000000000000009, 0.0, "pass"),
    (14, "0.6795093", 0.6820381956202887, 1.0000000000000004, 0.0, "pass"),
    (15, "0.6815637", 0.6833306386240193, 1.0000000000000004, 0.0, "pass"),
    (16, "0.6833396", 0.6845779458993116, 1.0000000000000009, 0.0, "pass"),
    (17, "0.6848893", 0.6857591907904366, 1.0000000000000007, 0.0, "pass"),
    (18, "0.6862529", 0.6868650287139317, 1.0000000000000004, 0.0, "pass"),
    (19, "0.6874616", 0.6878929093504783, 1.0000000000000007, 0.0, "pass"),
    (20, "0.6885401", 0.6888443019008582, 1.0000000000000007, 0.0, "pass"),
)

# Just below a = 9/11, where the interior root of p merges into r = 1 at
# n = 10, the root sits above 0.999.
NEAR_MERGE = Params(Fraction(9, 11) - Fraction(1, 10**7), 10)
# Closer still: the root lies about 2.7e-7 below 1.
NEARER_MERGE = Params(Fraction(9, 11) - Fraction(1, 10**13), 10)


def reduced_power(params, radii, angular_samples):
    """z^n on the grid as r^n e^(i theta_k) with k = n j mod N, as one array."""
    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    k = params.n * np.arange(angular_samples) % angular_samples
    return (radii ** params.n)[:, None] * np.exp(1j * theta)[None, k]


def whole_grid(params, c, radial_samples, angular_samples):
    """The grid as one array: reference for the blocked evaluation.

    Returns the radii, the angles, |f|/|g| at every sample, and the
    largest distance of a row maximum from the nearest angle with
    n*theta = 0 (mod 2 pi), in grid steps.
    """
    radii = np.linspace(c, 1.0, radial_samples)
    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    z = radii[:, None] * np.exp(1j * theta[None, :])
    ratio = eval_abs_ratio(params, z, reduced_power(params, radii, angular_samples))
    period = angular_samples / params.n
    idx = np.arange(angular_samples, dtype=float)
    dist = np.abs((idx + 0.5 * period) % period - 0.5 * period)
    near = ratio >= ratio.max(axis=1)[:, None] * (1.0 - 1e-13)
    offset = float(np.where(near, dist[None, :], np.inf).min(axis=1).max())
    return radii, theta, ratio, offset

coefficients = st.integers(min_value=1, max_value=9_999_999).map(
    lambda m: Fraction(m, 10**7)
)


def assert_rounded_up(params, c):
    """c is the smallest double at or above the root, in exact arithmetic."""
    below = math.nextafter(c, 0.0)
    assert critical_polynomial(params, Fraction(c)) >= 0 > critical_polynomial(
        params, Fraction(below)
    )


class TestEnvelope:
    def test_boundary_value_exact(self, reference):
        assert ratio_envelope(reference, Fraction(1)) == 1
        assert ratio_envelope(Params(Fraction(0), 2), Fraction(1)) == 1

    def test_closed_form(self, reference):
        r = 0.8
        a = reference.a_float
        expected = (a + r**10) / (r * (1 + a * r**10))
        assert ratio_envelope(reference, r) == pytest.approx(expected, abs=1e-15)

    def test_a_zero_reduces_to_power(self):
        p = Params(Fraction(0), 2)
        assert ratio_envelope(p, Fraction(1, 2)) == Fraction(1, 2)

    def test_domain(self, reference):
        with pytest.raises(ValueError):
            ratio_envelope(reference, 0)
        with pytest.raises(ValueError):
            ratio_envelope(reference, 1.5)

    @given(a=coefficients, n=st.integers(min_value=1, max_value=12))
    def test_boundary_identity_for_all_params(self, a, n):
        assert ratio_envelope(Params(a, n), Fraction(1)) == 1

    def test_matches_sampled_circle_max(self, reference):
        # the closed form really is the angular maximum of |f/g|
        for r in (0.7, 0.85, 0.99):
            theta = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            z = r * np.exp(1j * theta)
            sampled = np.max(np.abs(eval_f(reference, z)) / np.abs(eval_g(reference, z)))
            assert sampled <= float(ratio_envelope(reference, r)) + 1e-12
            assert sampled == pytest.approx(float(ratio_envelope(reference, r)), abs=1e-6)


class TestCriticalRoot:
    def test_frozen_reference_root(self, reference):
        c = critical_root(reference)
        assert c == pytest.approx(FROZEN_ROOT, abs=1e-12)
        assert abs(critical_polynomial(reference, c)) < 1e-14
        assert abs(float(ratio_envelope(reference, c)) - 1.0) < 1e-9

    def test_no_interior_root_low_frequency(self):
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction("0.45"), 2))

    def test_no_interior_root_degenerate(self):
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction(1, 2), 1))
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction(0), 10))

    def test_monotone_in_a(self):
        # at a = 9/11 ~ 0.818 the interior root merges into r = 1 and
        # vanishes, so the grid stays below that
        roots = [critical_root(Params(Fraction(a), 10)) for a in ("0.667", "0.7", "0.75", "0.8")]
        assert roots == sorted(roots)
        assert all(0 < c < 1 for c in roots)

    def test_root_merges_into_boundary_for_large_a(self):
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction("0.9"), 10))

    @given(a=coefficients, n=st.integers(min_value=2, max_value=16))
    def test_root_consistency(self, a, n):
        params = Params(a, n)
        try:
            c = critical_root(params)
        except NoInteriorRoot:
            assume(False)
        assert 0 < c < 1
        assert abs(float(ratio_envelope(params, c)) - 1.0) < 1e-10

    def test_pinned_roots_of_certified_pairs(self):
        for n, a, c, *_ in PINNED_DOMINATION:
            assert critical_root(Params(Fraction(a), n)) == c

    def test_root_above_scan_range(self):
        assert float(critical_polynomial(NEAR_MERGE, 0.999)) < 0
        c = critical_root(NEAR_MERGE)
        assert 0.999 < c < 1.0
        assert c == pytest.approx(0.99972924, abs=1e-8)
        assert abs(critical_polynomial(NEAR_MERGE, c)) < 1e-14
        assert run_verification(NEAR_MERGE).passed

    def test_root_within_1e_6_of_one(self):
        c = critical_root(NEARER_MERGE)
        assert c == pytest.approx(0.99999972922, abs=1e-10)
        assert abs(critical_polynomial(NEARER_MERGE, c)) < 1e-14
        assert run_verification(NEARER_MERGE).passed

    @pytest.mark.parametrize("n", [2, 3, 10, 20])
    def test_near_merge_roots_match_mpmath(self, n):
        # q = p / (r - 1) has a double root at r = 1 when a = (n-1)/(n+1).
        # Just below that a the root lies next to 1, where p is tiny on
        # both sides of it, so only exact signs place c at or above it.
        for e in range(7, 17):
            a = Fraction(n - 1, n + 1) - Fraction(1, 10**e)
            c = critical_root(Params(a, n))
            with mp.workdps(50):
                a_mp = mp_fraction(a)
                q = lambda r: a_mp * mp.fsum(r**k for k in range(n + 1)) - mp.fsum(
                    r**k for k in range(1, n)
                )
                half = (1 - mp.mpf(c)) / 2
                root = mp.findroot(q, (c - half, c + half), solver="anderson")
                assert 0 <= c - root < 2.5e-16, (n, e)

    def test_root_merged_into_boundary(self):
        # a = 9/11 makes r = 1 a double root of q = p / (r - 1)
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction(9, 11), 10))
        # q = (1 - r)^2 (1 + r) / 2 > 0 on [0, 1)
        with pytest.raises(NoInteriorRoot):
            critical_root(Params(Fraction(1, 2), 3))

    @given(a=coefficients, n=st.integers(min_value=2, max_value=40))
    def test_root_rounded_up_to_a_double(self, a, n):
        params = Params(a, n)
        if (n + 1) * a >= n - 1:
            with pytest.raises(NoInteriorRoot):
                critical_root(params)
            return
        c = critical_root(params)
        assert_rounded_up(params, c)

    @pytest.mark.parametrize(
        "n, a",
        [
            (1000, Fraction(1, 10**30)),
            (500, Fraction("0.996")),
            (1000, Fraction("0.998")),
            (10, Fraction("0.0005")),
        ],
    )
    def test_hard_roots_are_fast_and_rounded_up(self, n, a):
        params = Params(a, n)
        start = time.perf_counter()
        c = critical_root(params)
        assert time.perf_counter() - start < 1.0
        assert_rounded_up(params, c)

    def test_root_within_one_ulp_of_one(self):
        # the root exists but lies about 1e-20 below 1, so no double is
        # both above it and below 1
        params = Params(Fraction(9, 11) - Fraction(1, 10**40), 10)
        start = time.perf_counter()
        with pytest.raises(NoInteriorRoot, match=r"\(0, 1\)"):
            critical_root(params)
        assert time.perf_counter() - start < 1.0

    def test_scan_fails_only_below_n_4(self):
        failed = {row.n for row in scan(range(2, 21)).rows if row.candidate is None}
        assert failed == {2, 3}


class TestPoleZeroRadii:
    def test_reference_values(self, reference):
        a = reference.a_float
        pole, zero = pole_zero_radii(reference)
        assert pole == pytest.approx((2 / a) ** 0.1, abs=1e-15)
        assert zero == pytest.approx((1 / a) ** 0.1, abs=1e-15)
        assert pole > zero > 1

    def test_degenerate_a_zero(self):
        assert pole_zero_radii(Params(Fraction(0), 4)) == (float("inf"), float("inf"))

    @given(a=coefficients, n=st.integers(min_value=1, max_value=20))
    def test_always_clear_unit_circle(self, a, n):
        pole, zero = pole_zero_radii(Params(a, n))
        assert pole > 1.0
        assert zero > 1.0


class TestVerifyDomination:
    def test_reference_annulus(self, reference):
        c = critical_root(reference)
        report = verify_domination(reference, c)
        assert report.verdict == "pass"
        assert report.grid_max_ratio <= 1.0 + 1e-12
        assert report.angular_peak_offset <= 1.0
        assert report.h_at_1_exact
        assert abs(report.h_at_c - 1.0) < 1e-9
        assert report.pole_radius > 1 and report.zero_radius > 1

    def test_interior_envelope_below_one(self, reference):
        c = critical_root(reference)
        rng = np.random.default_rng(171)
        for r in rng.uniform(c + 1e-12, 1.0, size=100):
            assert float(ratio_envelope(reference, float(r))) <= 1.0 + 1e-12

    def test_rejects_non_root_inner_radius(self, reference):
        with pytest.raises(HypothesisViolated):
            verify_domination(reference, 0.5)

    def test_detects_violation_below_critical_radius(self, monkeypatch, reference):
        # h > 1 below c, so domination fails on the too-large annulus
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        with pytest.raises(DominationViolated):
            verify_domination(reference, 0.5)

    def test_trivial_pass_at_a_zero(self, monkeypatch):
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        report = verify_domination(Params(Fraction(0), 2), 0.5)
        assert report.verdict == "pass"
        assert report.grid_max_ratio <= 1.0 + 1e-12

    def test_pinned_certified_pairs(self):
        for n, a, c, grid_max, offset, verdict in PINNED_DOMINATION:
            report = verify_domination(Params(Fraction(a), n), c)
            assert (report.grid_max_ratio, report.angular_peak_offset, report.verdict) == (
                grid_max, offset, verdict,
            )

    @pytest.mark.parametrize("shape", [(256, 1024), (100, 1024), (256, 300), (37, 301)])
    @pytest.mark.parametrize("block_rows", sorted({1, 7, 8, korenblum.domination.GRID_BLOCK_ROWS}))
    def test_blocked_grid_matches_whole_grid(self, monkeypatch, shape, block_rows):
        monkeypatch.setattr(korenblum.domination, "GRID_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        # At a = 0 every row is flat up to rounding, so only the tie band
        # keeps the row maxima at the angles with n*theta = 0.
        for n, a, c in ((4, "0.5898501", 0.8516706811286321),
                        (13, "0.6771072", 0.680741404602351),
                        (7, "0", 0.9)):
            params = Params(Fraction(a), n)
            _, _, ratio, offset = whole_grid(params, c, *shape)
            report = verify_domination(params, c, *shape)
            assert report.grid_max_ratio == float(ratio.max())
            assert report.angular_peak_offset == offset

    @pytest.mark.parametrize("radial_samples", [256, 100])
    def test_block_ratios_match_whole_grid(self, radial_samples):
        # The same expression as verify_domination's loop, block by block;
        # 100 rows end in a partial block.
        params = Params(Fraction("0.6885401"), 20)
        c = critical_root(params)
        radii, theta, ratio, _ = whole_grid(params, c, radial_samples, 1024)
        circle = np.exp(1j * theta)
        step = korenblum.domination.GRID_BLOCK_ROWS
        blocks = [
            korenblum.domination.eval_abs_ratio(
                params, radii[i:i + step, None] * circle,
                reduced_power(params, radii[i:i + step], 1024),
            )
            for i in range(0, radial_samples, step)
        ]
        assert np.array_equal(np.concatenate(blocks), ratio)

    @pytest.mark.parametrize(
        "n, a, shape",
        [(10, "0.6666714", (256, 1024)), (7, "0.6460616", (100, 301))],
    )
    def test_violation_names_whole_grid_argmax(self, monkeypatch, n, a, shape):
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        params = Params(Fraction(a), n)
        radii, theta, ratio, _ = whole_grid(params, 0.5, *shape)
        i, j = np.unravel_index(int(ratio.argmax()), ratio.shape)
        with pytest.raises(DominationViolated) as info:
            verify_domination(params, 0.5, *shape)
        assert f"= {float(ratio.max())!r} at r = {radii[i]:.12f}, theta = {theta[j]:.12f} " in str(
            info.value
        )

    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_no_false_violation_near_the_merge(self, n):
        # |1 + a z^n| >= 1 - a is ~1e-2 here, so an error of 1e-13 in z^n
        # (a complex power at n = 1000) would push the ratio past GRID_TOL.
        params = Params(Fraction(n - 1, n + 1) - Fraction(1, 10**4), n)
        report = verify_domination(params, critical_root(params))
        assert report.verdict == "pass"
        assert report.grid_max_ratio <= 1.0 + 1e-14

    def test_grid_samples_f_and_g(self):
        # The reduced z^n is an evaluation of f and g, not of the envelope:
        # it agrees with the complex power at every sample of every pair,
        # relative to the threshold 1.  (Pointwise relative errors reach
        # 3e-13 at ratios ~1e-3, where a + z^n cancels near a zero of f.)
        for n, a, c, *_ in PINNED_DOMINATION:
            params = Params(Fraction(a), n)
            radii, theta, ratio, _ = whole_grid(params, c, 256, 1024)
            z = radii[:, None] * np.exp(1j * theta[None, :])
            direct = np.abs(eval_f(params, z)) / np.abs(eval_g(params, z))
            assert np.max(np.abs(ratio - direct)) <= 1e-13, n

    def test_grid_memory(self, reference):
        c = critical_root(reference)
        tracemalloc.start()
        try:
            verify_domination(reference, c, 256, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_validation(self, reference):
        c = critical_root(reference)
        with pytest.raises(ValueError):
            verify_domination(reference, 1.5)
        with pytest.raises(ValueError):
            verify_domination(reference, c, radial_samples=4)
