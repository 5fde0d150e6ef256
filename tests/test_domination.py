from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    GRID_SCREEN_CUT,
    DominationViolated,
    HypothesisViolated,
    NoInteriorRoot,
    _angle_tables,
    _power,
    _power_angle_tables,
    _power_terms,
    critical_polynomial,
    grid_ratio_sq,
)
from korenblum.family import eval_f, eval_g

from .oracles import grid_oracle, mp_abs_ratio, mp_fraction

SRC = Path(__file__).resolve().parents[1] / "src"

# Minor page faults per 256x1024 grid, over 20 grids after a warm-up one.
GRID_FAULTS_SCRIPT = """
import resource, sys
from korenblum import Params, critical_root, verify_domination
params = Params(sys.argv[1], int(sys.argv[2]))
c = critical_root(params)
verify_domination(params, c)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    verify_domination(params, c)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""

FROZEN_ROOT = 0.677904927421849

# (n, a, c, grid_max_ratio, angular_peak_offset, verdict) on the default
# 256x1024 grid for the 17 certified pairs of `korenblum scan --n-min 4
# --n-max 20`.  The grid is evaluated in real arithmetic, so these bits
# are the same on every SIMD target of numpy.
PINNED_DOMINATION = (
    (4, "0.5898501", 0.8516706811286302, 1.0000000000000002, 0.0, "pass"),
    (5, "0.6167154", 0.732009055482802, 1.0000000000000002, 0.0, "pass"),
    (6, "0.6340504", 0.6989956106765488, 1.0000000000000004, 0.0, "pass"),
    (7, "0.6460616", 0.685796192364925, 1.0000000000000002, 0.0, "pass"),
    (8, "0.6548247", 0.6802521891114669, 1.0000000000000004, 0.0, "pass"),
    (9, "0.6614735", 0.678213172724522, 1.0000000000000004, 0.0, "pass"),
    (10, "0.6666757", 0.6779099280036489, 1.0000000000000004, 0.0, "pass"),
    (11, "0.6708482", 0.6784909589206722, 1.0000000000000004, 0.0, "pass"),
    (12, "0.6742636", 0.679514665711971, 1.0000000000000004, 0.0, "pass"),
    (13, "0.6771072", 0.680741404602351, 1.0000000000000004, 0.0, "pass"),
    (14, "0.6795093", 0.6820381956202887, 1.0000000000000002, 0.0, "pass"),
    (15, "0.6815637", 0.6833306386240193, 1.0000000000000004, 0.0, "pass"),
    (16, "0.6833396", 0.6845779458993116, 1.0000000000000002, 0.0, "pass"),
    (17, "0.6848893", 0.6857591907904366, 1.0000000000000002, 0.0, "pass"),
    (18, "0.6862529", 0.6868650287139317, 1.0000000000000004, 0.0, "pass"),
    (19, "0.6874616", 0.6878929093504783, 1.0000000000000002, 0.0, "pass"),
    (20, "0.6885401", 0.6888443019008582, 1.0000000000000004, 0.0, "pass"),
)

# Just below a = 9/11, where the interior root of p merges into r = 1 at
# n = 10, the root sits above 0.999.
NEAR_MERGE = Params(Fraction(9, 11) - Fraction(1, 10**7), 10)
# Closer still: the root lies about 2.7e-7 below 1.
NEARER_MERGE = Params(Fraction(9, 11) - Fraction(1, 10**13), 10)

# gcd(n, N): 4, 1, 2 and 16 at N = 1024, then 3, 5 and 15 at N = 300.
GRID_PAIRS = [
    (20, "0.6885401", 1024), (7, "0", 1024), (10, "0.6666757", 1024), (16, "0.6833396", 1024),
    (9, "0.6614735", 300), (5, "0.6167154", 300), (15, "0.6815637", 300),
]


def whole_grid(params, c, radial_samples, angular_samples):
    """The grid in one call of grid_ratio_sq: radii, angles and |f|/|g| at every sample."""
    radii = np.linspace(c, 1.0, radial_samples)
    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    return radii, theta, np.sqrt(grid_ratio_sq(params, radii, angular_samples))


def period(params, angular_samples):
    """P = N / gcd(n, N), the number of reduced columns."""
    return angular_samples // math.gcd(params.n, angular_samples)


def select_columns(ratio_sq, params, columns):
    """The cells of a (rows, N) array at the reduced columns picked by a slice, in j order."""
    rows, angular_samples = ratio_sq.shape
    by_column = ratio_sq.reshape(rows, -1, period(params, angular_samples))
    return by_column[:, :, columns].reshape(rows, -1)


def record_grid_calls(monkeypatch):
    """Wrap grid_ratio_sq; returns the (radius, reduced columns) of each row it was asked for."""
    calls = []

    def recorded(params, radii, angular_samples, columns=slice(None)):
        k = range(period(params, angular_samples))[columns]
        calls.extend((r, k) for r in radii)
        return grid_ratio_sq(params, radii, angular_samples, columns)

    monkeypatch.setattr(korenblum.domination, "grid_ratio_sq", recorded)
    return calls


# Inputs beside the 17 pairs: n = 1000 next to the merge, a = 0, where
# every row is flat, and a = 0 at n = 1000 from c = 0.69, where r^(2n)
# and so q are subnormal in the first rows.
GRID_EXTREMES = [
    (1000, Fraction(999, 1001) - Fraction(1, 10**4), None),
    (7, Fraction(0), 0.9),
    (1000, Fraction(0), 0.69),
]


def two_product(x, y):
    """(p, e) with p + e = x y exactly (Dekker), for doubles far from overflow and underflow."""

    def halves(v):
        t = 134217729.0 * v  # 2^27 + 1
        high = t - (t - v)
        return high, v - high

    p = x * y
    (xh, xl), (yh, yl) = halves(x), halves(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


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

    @pytest.mark.parametrize("n", [4, 10, 17])
    @pytest.mark.parametrize("angular_samples", [1024, 301])
    @pytest.mark.parametrize("j", [1, 2, 5, 103, 150])
    def test_peak_offset_from_the_nearest_zero_of_n_theta(
        self, monkeypatch, n, angular_samples, j
    ):
        # Every row of a stand-in squared ratio peaks at column j, at angle
        # 2 pi j / N, where n theta = 2 pi k / N with k = n j mod N.
        def peaked(params, radii, angular_samples, columns=slice(None)):
            ratio_sq = np.full((len(radii), angular_samples), 0.25)
            ratio_sq[:, j] = 0.5625
            return select_columns(ratio_sq, params, columns)

        monkeypatch.setattr(korenblum.domination, "grid_ratio_sq", peaked)
        params = Params(Fraction(1, 2), n)
        report = verify_domination(params, critical_root(params), 64, angular_samples)
        k = n * j % angular_samples
        assert report.angular_peak_offset == min(k, angular_samples - k) / n
        assert report.grid_max_ratio == 0.75
        assert report.verdict == ("pass" if report.angular_peak_offset <= 1.0 else "fail")

    @pytest.mark.parametrize("j", [0, 5])
    def test_nan_row_fails_the_offset_check(self, monkeypatch, j):
        # A NaN passes the grid bound, so the offset check must fail it,
        # whether or not the NaN sits at an angle with n theta = 0.
        def with_nan(params, radii, angular_samples, columns=slice(None)):
            ratio_sq = np.full((len(radii), angular_samples), 0.25)
            ratio_sq[:, j] = np.nan
            return select_columns(ratio_sq, params, columns)

        monkeypatch.setattr(korenblum.domination, "grid_ratio_sq", with_nan)
        params = Params(Fraction(1, 2), 10)
        report = verify_domination(params, critical_root(params), 64, 1024)
        assert report.angular_peak_offset == math.inf
        assert report.verdict == "fail"

    def test_pinned_certified_pairs(self):
        for n, a, c, grid_max, offset, verdict in PINNED_DOMINATION:
            report = verify_domination(Params(Fraction(a), n), c)
            assert (report.grid_max_ratio, report.angular_peak_offset, report.verdict) == (
                grid_max, offset, verdict,
            )

    @pytest.mark.parametrize("shape", [(256, 1024), (256, 300), (37, 301), (16, 16)])
    @pytest.mark.parametrize("cells", [8192, 1, 1000, 48])
    def test_screened_grid_matches_the_oracle(self, monkeypatch, shape, cells):
        # The screened grid reports the bits of the unscreened rule on every
        # cell, at the default block size, at blocks and chunks of one row,
        # and at sizes that leave a partial last screen block and a partial
        # last chunk of evaluated rows: 1000 at the three larger shapes, 48
        # at (16, 16), where n = 16 has P = 1 and no column but k = 0.  The
        # rows evaluated at k = 0 alone are those that the screen, written
        # out below on all rows at once without buffers, finds alone; at
        # P = 1 both paths evaluate every row at k = 0 alone.
        monkeypatch.setattr(korenblum.domination, "GRID_BLOCK_CELLS", cells)
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        pairs = [(n, Fraction(a), c) for n, a, c, *_ in PINNED_DOMINATION] + GRID_EXTREMES
        for n, a, c in pairs:
            params = Params(a, n)
            c = critical_root(params) if c is None else c
            calls = record_grid_calls(monkeypatch)
            report = verify_domination(params, c, *shape)
            expected = grid_oracle(params, c, *shape)
            assert (report.grid_max_ratio, report.angular_peak_offset) == expected, (n, a)

            radii = np.linspace(c, 1.0, shape[0])
            cos_n, sin_n = _power_angle_tables(shape[1], n)
            rn, a_float = _power(radii, n)[:, None], params.a_float
            x, y = rn * cos_n, rn * sin_n
            f_re, g_re, ay = a_float + x, 1.0 + a_float * x, a_float * y
            q = (f_re * f_re + y * y) / (g_re * g_re + ay * ay)
            q_max = np.maximum.reduce(q, axis=1)
            alone = (
                (np.maximum.reduce(q[:, 1:], axis=1, initial=-np.inf) < q_max * (1.0 - GRID_SCREEN_CUT))
                & np.isfinite(q_max)
                & (np.minimum(q_max, radii * radii) >= 2.0**-800)
            )
            if len(cos_n) == 1:
                alone[:] = True
            assert {r for r, k in calls if k == range(1)} == set(radii[alone]), (n, a)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=9_999).map(lambda m: Fraction(m, 10**4)),
        n=st.integers(min_value=2, max_value=40),
        c=st.floats(min_value=0.05, max_value=0.95),
        shape=st.sampled_from([(16, 16), (20, 64), (16, 300), (24, 1024)]),
    )
    def test_screened_grid_matches_the_oracle_on_the_lattice(self, a, n, c, shape):
        # Any c: below the critical radius the grid raises, and its message
        # names the oracle's largest ratio.
        params = Params(a, n)
        grid_max, offset = grid_oracle(params, c, *shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
            if grid_max > 1.0 + korenblum.domination.GRID_TOL:
                with pytest.raises(DominationViolated, match=re.escape(f"= {grid_max!r} at r = ")):
                    verify_domination(params, c, *shape)
            else:
                report = verify_domination(params, c, *shape)
                assert (report.grid_max_ratio, report.angular_peak_offset) == (grid_max, offset)

    @pytest.mark.parametrize("angles", [1024, 300])
    def test_screen_evaluates_every_cell_near_a_row_maximum(self, monkeypatch, angles):
        # Every cell within a relative 4e-13 of its row's largest ratio (the
        # peak band is 1e-13) lies in a column its row is evaluated at.
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        pairs = [(n, Fraction(a), c) for n, a, c, *_ in PINNED_DOMINATION] + GRID_EXTREMES
        for n, a, c in pairs:
            params = Params(a, n)
            c = critical_root(params) if c is None else c
            calls = record_grid_calls(monkeypatch)
            verify_domination(params, c, 256, angles)
            radii, _, ratio = whole_grid(params, c, 256, angles)
            near = ratio >= ratio.max(axis=1)[:, None] * (1.0 - 4e-13)
            k = np.arange(angles) % period(params, angles)
            for r, columns in calls:
                near[radii == r, np.isin(k, columns)] = False
            assert not near.any(), (n, a, np.argwhere(near)[:3])

    def test_nan_in_the_reduced_tables_fails_the_offset_check(self, monkeypatch):
        # A NaN in the P-wide cosines at k = 5 reaches every row's q: each
        # row takes the full path, so the NaN reaches the report.
        tables = korenblum.domination._power_angle_tables

        def with_nan(angular_samples, n):
            cos_n, sin_n = tables(angular_samples, n)
            cos_n = cos_n.copy()
            cos_n[5] = np.nan
            return cos_n, sin_n

        monkeypatch.setattr(korenblum.domination, "_power_angle_tables", with_nan)
        params = Params(Fraction(1, 2), 10)
        calls = record_grid_calls(monkeypatch)
        report = verify_domination(params, critical_root(params), 64, 1024)
        assert math.isnan(report.grid_max_ratio)
        assert report.angular_peak_offset == math.inf
        assert report.verdict == "fail"
        assert len({r for r, _ in calls}) == 64
        assert all(columns == range(512) for _, columns in calls)

    def test_tie_away_from_k_zero_evaluates_the_row_in_full(self, monkeypatch):
        # With the cosine and sine of k = 0 copied into k = 5, every row's q
        # at k = 5 ties its largest, so no row is alone: each is evaluated
        # at all P columns, and the report is the unscreened rule's.
        tables = korenblum.domination._power_angle_tables

        def tied(angular_samples, n):
            cos_n, sin_n = (table.copy() for table in tables(angular_samples, n))
            cos_n[5], sin_n[5] = cos_n[0], sin_n[0]
            return cos_n, sin_n

        monkeypatch.setattr(korenblum.domination, "_power_angle_tables", tied)
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        params = Params(Fraction("0.6666757"), 10)
        c = critical_root(params)
        expected = grid_oracle(params, c, 64, 1024)
        calls = record_grid_calls(monkeypatch)
        report = verify_domination(params, c, 64, 1024)
        assert len({r for r, _ in calls}) == 64
        assert all(columns == range(512) for _, columns in calls)
        assert (report.grid_max_ratio, report.angular_peak_offset) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        rn=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
        a=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        n=st.sampled_from([4, 7, 10, 16, 17, 1000]),
    )
    def test_power_terms_match_the_plain_expression(self, rn, a, n):
        # Written into the caller's arrays, the terms have the bits of the
        # plain expression, also at a NaN, an infinite and a subnormal r^n
        # (inf times sin 0 is NaN).
        rn = np.array(rn + [math.nan, math.inf, 5e-324, 2.0**-1050])[:, None]
        cos_n, sin_n = _power_angle_tables(1024, n)
        with np.errstate(invalid="ignore"):
            x, y = rn * cos_n, rn * sin_n
            expected = ((a + x) * (a + x) + y * y, (1.0 + a * x) * (1.0 + a * x) + (a * y) * (a * y),
                        a * x, (a * y) * (a * y))
            terms = _power_terms(a, rn, cos_n, sin_n, [np.empty(x.shape) for _ in range(4)])
        for term, value in zip(terms, expected):
            assert np.array_equal(term, value, equal_nan=True)

    @pytest.mark.parametrize("angles", [1024, 300, 301])
    def test_screen_error_bounds(self, angles):
        # The bounds of the module docstring, at every cell of the 17 pairs:
        # |z|^2 = r^2 (1 + e), |e| <= 8 u, and ratio_sq = q / r^2 (1 + d),
        # |d| <= 14 u, u = 2^-53, measured exactly to far below u.
        u = 2.0**-53
        _, cos, sin = _angle_tables(angles)
        for n, a, c, *_ in PINNED_DOMINATION:
            params = Params(Fraction(a), n)
            radii = np.linspace(c, 1.0, 256)
            cos_n, sin_n = _power_angle_tables(angles, n)
            num_f, num_g, _, _ = _power_terms(
                params.a_float, _power(radii, n)[:, None], cos_n, sin_n, np.empty((4, 256, len(cos_n)))
            )
            q = np.tile(num_f / num_g, angles // len(cos_n))
            zx, zy = radii[:, None] * cos, radii[:, None] * sin
            z_sq = zx * zx + zy * zy
            r_sq, r_sq_low = two_product(radii, radii)
            e = ((z_sq - r_sq[:, None]) - r_sq_low[:, None]) / r_sq[:, None]
            ratio_sq = grid_ratio_sq(params, radii, angles)
            high, low = two_product(ratio_sq, r_sq[:, None])
            d = ((high - q) + low + ratio_sq * r_sq_low[:, None]) / q
            assert np.abs(e).max() <= 8 * u, n
            assert np.abs(d).max() <= 14 * u, n

    @pytest.mark.parametrize("block_rows", [1, 7, 8])
    @pytest.mark.parametrize("radial_samples", [256, 100])
    @pytest.mark.parametrize("n, a, angles", GRID_PAIRS)
    def test_block_ratios_match_whole_grid(self, n, a, angles, radial_samples, block_rows):
        # grid_ratio_sq block by block, as the grid loop calls it, gives the
        # bits of one call on all radii: each value depends on its own r and
        # j alone, whatever the block's height.  100 rows end in a partial
        # block except at height 1.  At a = 0 the rows are flat.
        params = Params(Fraction(a), n)
        c = 0.9 if params.a == 0 else critical_root(params)
        radii, _, ratio = whole_grid(params, c, radial_samples, angles)
        blocks = []
        for i in range(0, radial_samples, block_rows):
            block = grid_ratio_sq(params, radii[i : i + block_rows], angles)
            assert block.shape == (len(radii[i : i + block_rows]), angles)
            blocks.append(np.sqrt(block))
        assert np.array_equal(np.concatenate(blocks), ratio)
        # A slice of the reduced columns gives the bits of the whole grid at
        # their repeats, in j order: k = 0 alone, and a middle slice.
        ratio_sq = grid_ratio_sq(params, radii, angles)
        reduced = period(params, angles)
        middle = slice(reduced // 3, reduced // 3 + reduced // 4)
        assert np.array_equal(grid_ratio_sq(params, radii, angles, slice(0, 1)), ratio_sq[:, ::reduced])
        assert np.array_equal(
            grid_ratio_sq(params, radii, angles, middle),
            ratio_sq.reshape(radial_samples, -1, reduced)[:, :, middle].reshape(radial_samples, -1),
        )

    @pytest.mark.parametrize("n, a, angles", GRID_PAIRS)
    def test_ratios_match_the_oracle(self, n, a, angles):
        # Each ratio is |f|/|g| at the grid's own doubles zx, zy, x, y and
        # a, to within 4 ulps of 1 (or of the ratio above 1), by a 50-digit
        # evaluation: 200 random cells, every row's largest and the cells
        # at n theta = 0.  At a = 0 the rows are flat.
        params = Params(Fraction(a), n)
        c = 0.9 if params.a == 0 else critical_root(params)
        radii = np.linspace(c, 1.0, 256)
        ratio = np.sqrt(grid_ratio_sq(params, radii, angles))
        _, cos, sin = _angle_tables(angles)
        cos_n, sin_n = _power_angle_tables(angles, n)
        period = len(cos_n)
        rng = np.random.default_rng(n)
        cells = list(zip(rng.integers(0, 256, 200), rng.integers(0, angles, 200)))
        cells += list(enumerate(ratio.argmax(axis=1)))
        cells += [(i, 0) for i in range(0, 256, 16)]
        for i, j in cells:
            r, rn = radii[i], _power(radii[i : i + 1], n)[0]
            exact = mp_abs_ratio(
                params.a_float, r * cos[j], r * sin[j], rn * cos_n[j % period], rn * sin_n[j % period]
            )
            assert abs(ratio[i, j] - exact) <= 4 * 2.0**-52 * max(1.0, exact), (i, j)

    @pytest.mark.parametrize(
        "n, a, shape",
        [(10, "0.6666714", (256, 1024)), (7, "0.6460616", (100, 301))],
    )
    def test_violation_names_whole_grid_argmax(self, monkeypatch, n, a, shape):
        monkeypatch.setattr(korenblum.domination, "BOUNDARY_TOL", math.inf)
        params = Params(Fraction(a), n)
        radii, theta, ratio = whole_grid(params, 0.5, *shape)
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
            radii, theta, ratio = whole_grid(params, c, 256, 1024)
            z = radii[:, None] * np.exp(1j * theta[None, :])
            direct = np.abs(eval_f(params, z)) / np.abs(eval_g(params, z))
            assert np.max(np.abs(ratio - direct)) <= 1e-13, n

    @pytest.mark.parametrize("n", [10, 16, 17])
    def test_grid_memory(self, n):
        # The grid holds about GRID_BLOCK_CELLS cells at a time, and its
        # screen writes into four block buffers: it peaks near 390 KiB at
        # n = 10 and 17 and 450 KiB at n = 16 (P = 64, so 128-row blocks).
        # One call of grid_ratio_sq on all 256 radii peaks near 20 MiB.
        _, a, c, *_ = PINNED_DOMINATION[n - 4]
        tracemalloc.start()
        try:
            verify_domination(Params(Fraction(a), n), c, 256, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_concurrent_calls_give_the_sequential_reports(self):
        pairs = [(Params(Fraction(a), n), c) for n, a, c, *_ in PINNED_DOMINATION[::4]]
        expected = [verify_domination(*pair) for pair in pairs]
        reports = [[] for _ in pairs]

        def grid(i):
            for _ in range(3):
                reports[i].append(verify_domination(*pairs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=grid, args=(i,)) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reports == [[report] * 3 for report in expected]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor faults on Linux")
    @pytest.mark.parametrize("a, n", [("0.6848893", 17), ("0.6666757", 10)])
    def test_back_to_back_grids_reuse_the_heap(self, a, n):
        # The screen forms every block in four buffers allocated once per
        # call, as one block, so back-to-back grids reuse the heap: about 3
        # faults per grid, all in the first grid after the warm-up.  New
        # temporaries per block faulted ~175 pages in per grid, and four
        # separately allocated buffers 64 at n = 17.  A fresh process keeps
        # other tests' heap out of the count.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", GRID_FAULTS_SCRIPT, a, str(n)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 64

    def test_cached_angle_tables_are_read_only(self, reference):
        verify_domination(reference, critical_root(reference), 256, 1024)
        for table in _angle_tables(1024) + _power_angle_tables(1024, reference.n):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_validation(self, reference):
        c = critical_root(reference)
        with pytest.raises(ValueError):
            verify_domination(reference, 1.5)
        with pytest.raises(ValueError):
            verify_domination(reference, c, radial_samples=4)
