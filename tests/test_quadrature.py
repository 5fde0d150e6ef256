from __future__ import annotations

import dataclasses
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korenblum import Params, norm_sq_quad, norm_sq_f, norm_sq_g
from korenblum import quadrature
from korenblum.family import eval_f, eval_g
from korenblum.quadrature import (
    QuadratureGrid,
    QuadratureNotConverged,
    cross_check,
    gauss_legendre_nodes,
)

from .oracles import mp_norm_sq

AGREEMENT_CASES = [("0.6666714", 10), ("0.1", 2), ("0.5", 10), ("0.9", 4)]


def _whole_table_kernel_f(a, rho, cos_phi):
    num = a * a + 2.0 * a * rho * cos_phi + rho * rho
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def _whole_table_kernel_g(a, rho, cos_phi):
    num = 1.0 + 2.0 * a * rho * cos_phi + (a * rho) ** 2
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def whole_table_value(params, which, grid, coords):
    """The tensor rule on the whole radial x angular table at once.

    This is the formula in the order the block evaluation must keep, so
    the two agree bit for bit.
    """
    u, wu = gauss_legendre_nodes(grid.radial_nodes)
    phi = (2.0 * np.pi / grid.angular_nodes) * np.arange(grid.angular_nodes)
    cos_phi = np.cos(phi)[None, :]
    a, n = params.a_float, params.n
    if coords == "original":
        r = u[:, None]
        if which == "f":
            values = _whole_table_kernel_f(a, r ** n, cos_phi) * r
        else:
            values = _whole_table_kernel_g(a, r ** n, cos_phi) * r ** 3
        prefactor = 2.0
    elif which == "f":
        values = _whole_table_kernel_f(a, (u ** (n / 2.0))[:, None], cos_phi)
        prefactor = 1.0
    else:
        values = _whole_table_kernel_g(a, (u ** (n / 4.0))[:, None], cos_phi)
        prefactor = 0.5
    return float(prefactor * np.dot(wu, values.mean(axis=1)))


def whole_table_norm_sq(params, which, grid, coords, check_convergence):
    """``norm_sq_quad`` on whole tables; None where it must refuse."""
    value = whole_table_value(params, which, grid, coords)
    if check_convergence:
        refined = whole_table_value(params, which, grid.doubled(), coords)
        if abs(refined - value) > quadrature.CONVERGENCE_TOL:
            return None
        value = refined
    return value


def assert_matches_whole_table(params, which, grid, coords, check_convergence):
    expected = whole_table_norm_sq(params, which, grid, coords, check_convergence)
    if expected is None:
        with pytest.raises(QuadratureNotConverged):
            norm_sq_quad(params, which, grid, coords, check_convergence)
        return
    value = norm_sq_quad(params, which, grid, coords, check_convergence)
    assert value.hex() == expected.hex(), (which, coords, grid, check_convergence)


class TestGrid:
    def test_defaults(self):
        grid = QuadratureGrid()
        assert (grid.radial_nodes, grid.angular_nodes) == (128, 256)

    def test_doubled(self):
        grid = QuadratureGrid(8, 16).doubled()
        assert (grid.radial_nodes, grid.angular_nodes) == (16, 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid(radial_nodes=4)
        with pytest.raises(ValueError):
            QuadratureGrid(angular_nodes=8)

    @pytest.mark.parametrize("shape", [(8192, 16), (4096, 2048)])
    def test_size_limits(self, shape):
        with pytest.raises(ValueError, match="at most"):
            QuadratureGrid(*shape)

    def test_refuses_to_double_the_largest_grid_before_solving(self, reference):
        # 4096x1024 is the largest grid allowed; its doubled grid is not,
        # and that must fail before the 4096-node rule is solved (~5 s).
        quadrature._legendre_rule.cache_clear()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most"):
            norm_sq_quad(reference, grid=QuadratureGrid(4096, 1024))
        assert time.perf_counter() - start < 1.0


class TestNodes:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre_nodes(16)
        assert np.dot(w, x**5) == pytest.approx(1 / 6, abs=1e-15)
        assert np.dot(w, np.ones_like(x)) == pytest.approx(1.0, abs=1e-15)


class TestRuleCache:
    @pytest.fixture
    def leggauss_counts(self, monkeypatch):
        counts = {}
        original = np.polynomial.legendre.leggauss

        def counted(count):
            counts[count] = counts.get(count, 0) + 1
            return original(count)

        quadrature._legendre_rule.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        yield counts
        quadrature._legendre_rule.cache_clear()

    def test_cross_check_solves_each_count_once(self, reference, leggauss_counts):
        # the angle takes the trapezoid rule, which needs no eigen-solve
        grid = QuadratureGrid()
        cross_check(reference, grid)
        assert leggauss_counts == {grid.radial_nodes: 1}
        cross_check(reference, grid)
        assert leggauss_counts == {grid.radial_nodes: 1}

    def test_norm_sq_quad_solves_base_and_doubled_grid_once(self, reference, leggauss_counts):
        norm_sq_quad(reference, "f")
        norm_sq_quad(reference, "g", coords="substituted")
        assert leggauss_counts == {128: 1, 256: 1}

    def test_cached_rule_is_read_only(self):
        x, w = quadrature._legendre_rule(16)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_writes_into_returned_nodes_do_not_leak(self):
        x0, w0 = gauss_legendre_nodes(16)
        x, w = gauss_legendre_nodes(16)
        x[:] = 0.5
        w[:] = 0.0
        x1, w1 = gauss_legendre_nodes(16)
        assert np.array_equal(x1, x0) and np.array_equal(w1, w0)

    def test_report_unchanged_by_clearing_the_cache(self, reference):
        warm = cross_check(reference)
        quadrature._legendre_rule.cache_clear()
        cold = cross_check(reference)
        for field in dataclasses.fields(warm):
            assert getattr(cold, field.name) == getattr(warm, field.name), field.name


class TestIntegrands:
    def test_nonnegative_on_grid(self):
        rho = np.linspace(0.0, 1.0, 41)[:, None]
        cos_phi = np.cos(np.linspace(0.0, 2 * np.pi, 64))[None, :]
        for a, _ in AGREEMENT_CASES:
            a = float(Fraction(a))
            assert np.all(quadrature._kernel(a, "f", rho, cos_phi) >= 0.0)
            assert np.all(quadrature._kernel(a, "g", rho, cos_phi) >= 0.0)

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_kernel_writes_into_given_tables(self, which):
        rho = np.linspace(0.0, 1.0, 41)[:, None]
        cos_phi = np.cos(np.linspace(0.0, 2 * np.pi, 64))[None, :]
        tables = (np.full((41, 64), np.nan), np.full((41, 64), np.nan))
        values = quadrature._kernel(0.6, which, rho, cos_phi, tables)
        assert values is tables[0]
        whole = _whole_table_kernel_f if which == "f" else _whole_table_kernel_g
        assert np.array_equal(values, whole(0.6, rho, cos_phi))

    def test_angular_reduction(self, reference):
        # |f|^2 and |g|^2 / r^2 depend on the angle only through
        # cos(n theta), which is what the kernels take
        r = np.linspace(0.05, 1.0, 20)[:, None]
        theta = np.linspace(0.0, 2 * np.pi, 37)[None, :]
        z = r * np.exp(1j * theta)
        rho, cos_phi = r ** reference.n, np.cos(reference.n * theta)
        a = reference.a_float
        assert np.allclose(
            quadrature._kernel(a, "f", rho, cos_phi), np.abs(eval_f(reference, z)) ** 2,
            rtol=1e-13, atol=0.0,
        )
        assert np.allclose(
            quadrature._kernel(a, "g", rho, cos_phi) * r ** 2, np.abs(eval_g(reference, z)) ** 2,
            rtol=1e-13, atol=0.0,
        )


class TestBlocks:
    """Block evaluation against the whole-table formula, bit for bit."""

    @pytest.mark.parametrize("check_convergence", [False, True])
    @pytest.mark.parametrize("coords", ["original", "substituted"])
    @pytest.mark.parametrize("which", ["f", "g"])
    @pytest.mark.parametrize(
        "shape",
        [
            (128, 256),  # the default: whole blocks of 32 radii
            (100, 256),  # a last block of 4 radii
            (129, 512),  # a last block of one radius
            (8, 16384),  # rows longer than a block: one radius per block
        ],
    )
    def test_norm_sq_quad_is_the_whole_table_value(
        self, reference, shape, which, coords, check_convergence
    ):
        grid = QuadratureGrid(*shape)
        assert_matches_whole_table(reference, which, grid, coords, check_convergence)

    @settings(max_examples=60)
    @given(
        m=st.integers(0, 10**7 - 1),
        n=st.integers(2, 1000),
        which=st.sampled_from(["f", "g"]),
        coords=st.sampled_from(["original", "substituted"]),
        check_convergence=st.booleans(),
    )
    def test_whole_table_value_at_random_params(self, m, n, which, coords, check_convergence):
        params = Params(Fraction(m, 10**7), n)
        assert_matches_whole_table(params, which, QuadratureGrid(), coords, check_convergence)

    @pytest.mark.parametrize("coords", ["original", "substituted"])
    @pytest.mark.parametrize("which", ["f", "g"])
    def test_peak_memory_is_two_blocks(self, reference, which, coords):
        # Two 64 KiB tables and the ufuncs' broadcast buffers; the whole
        # table took several 256 KiB temporaries (842 KiB peak).
        grid = QuadratureGrid(128, 256)
        quadrature._tensor_value(reference, which, grid, coords)  # caches the rule
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            quadrature._tensor_value(reference, which, grid, coords)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 384 * 1024


class TestNormValues:
    def test_polynomial_case_is_exact(self):
        # a = 0: f = z^n/2 and g = z/2, with norms 1/(4(n+1)) and 1/8.
        p = Params(Fraction(0), 6)
        for coords in ("original", "substituted"):
            assert norm_sq_quad(p, "f", coords=coords) == pytest.approx(1 / 28, abs=1e-14)
            assert norm_sq_quad(p, "g", coords=coords) == pytest.approx(1 / 8, abs=1e-14)

    @pytest.mark.parametrize("a, n", AGREEMENT_CASES)
    def test_both_coordinate_systems_match_series(self, a, n):
        p = Params(Fraction(a), n)
        sf = float(norm_sq_f(p, K=64, mode="float").midpoint)
        sg = float(norm_sq_g(p, K=64, mode="float").midpoint)
        for coords in ("original", "substituted"):
            assert norm_sq_quad(p, "f", coords=coords) == pytest.approx(sf, abs=1e-10)
            assert norm_sq_quad(p, "g", coords=coords) == pytest.approx(sg, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 20, 40])
    @pytest.mark.parametrize("a", ["0.99", "0.999"])
    def test_default_grid_matches_mpmath_near_a_one(self, a, n):
        # as a -> 1 the kernels' pole in cos phi comes closest to the
        # circle (cos phi = 5/4), the hardest case for the angular rule
        p = Params(Fraction(a), n)
        for which in ("f", "g"):
            exact = mp_norm_sq(Fraction(a), n, which, dps=40)
            for coords in ("original", "substituted"):
                for check in (False, True):
                    value = norm_sq_quad(p, which, coords=coords, check_convergence=check)
                    assert abs(float(value - exact)) <= 1e-13, (which, coords, check)

    def test_validation(self, reference):
        with pytest.raises(ValueError):
            norm_sq_quad(reference, "h")
        with pytest.raises(ValueError):
            norm_sq_quad(reference, "f", coords="polar")

    def test_convergence_guard_trips_on_coarse_grid(self, reference):
        with pytest.raises(QuadratureNotConverged):
            norm_sq_quad(reference, "f", grid=QuadratureGrid(8, 16))

    def test_coarse_grid_suffices_for_gentle_params(self):
        # low frequency and moderate a converge already at 8x16
        p = Params(Fraction(1, 2), 2)
        value = norm_sq_quad(p, "f", grid=QuadratureGrid(8, 16))
        assert value == pytest.approx(float(norm_sq_f(p, K=64).midpoint), abs=1e-10)


class TestCrossCheck:
    def test_reference_report(self, reference):
        report = cross_check(reference)
        assert report.passed
        assert report.max_discrepancy <= 1e-12
        assert report.delta_quad == pytest.approx(2.2114625474e-07, abs=1e-9)
        for value in (
            report.series_f,
            report.quad_f_original,
            report.quad_f_substituted,
        ):
            assert value == pytest.approx(report.series_f, abs=1e-10)

    def test_flags_failure_under_absurd_tolerance(self, reference, monkeypatch):
        monkeypatch.setattr(quadrature, "CONVERGENCE_TOL", 1e-16)
        report = cross_check(reference)
        assert not report.passed

    @pytest.mark.parametrize("a, n", [("0.9", 4), ("0.1", 2)])
    def test_other_params_pass(self, a, n):
        report = cross_check(Params(Fraction(a), n))
        assert report.passed

    @pytest.mark.parametrize("a, n", AGREEMENT_CASES + [("0", 4)])
    def test_quadrature_values_are_norm_sq_quad(self, a, n):
        # the certificate's numbers come from the same code as norm_sq_quad
        p = Params(Fraction(a), n)
        report = cross_check(p)
        for which in ("f", "g"):
            for coords in ("original", "substituted"):
                value = norm_sq_quad(p, which, coords=coords, check_convergence=False)
                assert getattr(report, f"quad_{which}_{coords}") == value

    def test_exact_agreement_at_a_zero(self):
        report = cross_check(Params(Fraction(0), 4))
        assert report.passed
        assert report.max_discrepancy <= 1e-12

    @pytest.mark.parametrize(
        "a, n, radial",
        [("0.6666714", 10, 128), ("0.9921179", 256, 128), ("0.9921481", 257, 256), ("0.998", 1000, 256)],
    )
    def test_default_grid_takes_its_radial_nodes_from_n(self, a, n, radial):
        p = Params(Fraction(a), n)
        assert cross_check(p) == cross_check(p, QuadratureGrid(radial, 256))

    def test_explicit_grid_is_used_as_given(self):
        p = Params(Fraction("0.998"), 1000)
        grid = QuadratureGrid(128, 256)
        report = cross_check(p, grid)
        assert report.quad_f_original == norm_sq_quad(p, "f", grid, check_convergence=False)
        # 128 radial nodes miss ||f||^2 in original coordinates by 1.8e-8 here
        assert not report.passed
