from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from korenblum import (
    Params,
    QuadratureGrid,
    QuadratureNotConverged,
    cross_check,
    integrand_f,
    integrand_g,
    norm_sq_quad,
    norm_sq_f,
    norm_sq_g,
)
from korenblum import quadrature
from korenblum.quadrature import gauss_legendre_nodes

AGREEMENT_CASES = [("0.6666714", 10), ("0.1", 2), ("0.5", 10), ("0.9", 4)]


class TestGrid:
    def test_defaults(self):
        grid = QuadratureGrid()
        assert (grid.radial_nodes, grid.angular_nodes) == (128, 256)
        assert grid.scheme == "gauss-legendre"

    def test_doubled(self):
        grid = QuadratureGrid(8, 16).doubled()
        assert (grid.radial_nodes, grid.angular_nodes) == (16, 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid(radial_nodes=4)
        with pytest.raises(ValueError):
            QuadratureGrid(angular_nodes=8)
        with pytest.raises(ValueError):
            QuadratureGrid(scheme="trapezoid")


class TestNodes:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre_nodes(16)
        assert np.dot(w, x**5) == pytest.approx(1 / 6, abs=1e-15)
        assert np.dot(w, np.ones_like(x)) == pytest.approx(1.0, abs=1e-15)

    def test_interval_mapping(self):
        x, w = gauss_legendre_nodes(8, 0.0, 2 * np.pi)
        assert np.dot(w, np.ones_like(x)) == pytest.approx(2 * np.pi, abs=1e-12)
        assert x.min() > 0 and x.max() < 2 * np.pi


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
        grid = QuadratureGrid()
        cross_check(reference, grid)
        assert leggauss_counts == {grid.radial_nodes: 1, grid.angular_nodes: 1}
        cross_check(reference, grid)
        assert leggauss_counts == {grid.radial_nodes: 1, grid.angular_nodes: 1}

    def test_norm_sq_quad_solves_base_and_doubled_grid_once(self, reference, leggauss_counts):
        norm_sq_quad(reference, "f")
        norm_sq_quad(reference, "g", coords="substituted")
        assert leggauss_counts == {128: 1, 256: 1, 512: 1}

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
        r = np.linspace(0.0, 1.0, 41)[:, None]
        phi = np.linspace(0.0, 2 * np.pi, 64)[None, :]
        for a, n in AGREEMENT_CASES:
            p = Params(Fraction(a), n)
            assert np.all(integrand_f(p, r, phi) >= 0.0)
            assert np.all(integrand_g(p, r, phi) >= 0.0)

    def test_rejects_radius_outside_disk(self, reference):
        with pytest.raises(ValueError):
            integrand_f(reference, 1.2, 0.0)
        with pytest.raises(ValueError):
            integrand_g(reference, -0.1, 0.0)

    def test_angular_reduction(self, reference):
        # integrand depends on the angle only through cos(phi)
        assert integrand_f(reference, 0.7, 0.5) == pytest.approx(
            integrand_f(reference, 0.7, 2 * np.pi - 0.5), abs=1e-15
        )


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

    def test_flags_failure_under_absurd_tolerance(self, reference):
        report = cross_check(reference, tol=1e-16)
        assert not report.passed

    @pytest.mark.parametrize("a, n", [("0.9", 4), ("0.1", 2)])
    def test_other_params_pass(self, a, n):
        report = cross_check(Params(Fraction(a), n))
        assert report.passed

    def test_exact_agreement_at_a_zero(self):
        report = cross_check(Params(Fraction(0), 4))
        assert report.passed
        assert report.max_discrepancy <= 1e-12
