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
    QuadratureNotConverged,
    check_radial_nodes,
    cross_check,
    gauss_legendre_nodes,
)

from .oracles import circle_kernel, mp_norm_sq, tensor_norm_sq, trapezoid_circle_mean

AGREEMENT_CASES = [("0.6666714", 10), ("0.1", 2), ("0.5", 10), ("0.9", 4)]


def assert_matches_tensor_oracle(params, which, radial_nodes, coords, check_convergence):
    """``norm_sq_quad`` against the two-dimensional rule of ``oracles.tensor_norm_sq``.

    The closed-form circle mean and the 256-point trapezoid mean agree to
    a few ulps (``TestCircleMean``), and the radial sums add positive
    terms, so the two rules agree to a few ulps of the value.
    """
    expected = tensor_norm_sq(params, which, radial_nodes, coords)
    if check_convergence:
        refined = tensor_norm_sq(params, which, 2 * radial_nodes, coords)
        if abs(refined - expected) > quadrature.CONVERGENCE_TOL:
            with pytest.raises(QuadratureNotConverged):
                norm_sq_quad(params, which, radial_nodes, coords, check_convergence)
            return
        expected = refined
    value = norm_sq_quad(params, which, radial_nodes, coords, check_convergence)
    assert value == pytest.approx(expected, rel=2e-15, abs=0.0), (which, coords, radial_nodes)


class TestRadialNodes:
    @pytest.mark.parametrize("radial_nodes", [8, 128, quadrature.MAX_RADIAL_NODES])
    def test_accepted(self, radial_nodes):
        assert check_radial_nodes(radial_nodes) == radial_nodes

    def test_too_few(self):
        with pytest.raises(ValueError, match="at least"):
            check_radial_nodes(4)

    @pytest.mark.parametrize("radial_nodes", [4097, 8192])
    def test_too_many(self, radial_nodes):
        with pytest.raises(ValueError, match="at most"):
            check_radial_nodes(radial_nodes)

    @pytest.mark.parametrize("check_convergence", [False, True])
    @pytest.mark.parametrize("radial_nodes, match", [(4, "at least"), (4097, "at most")])
    def test_norm_sq_quad_checks_the_count(self, reference, radial_nodes, match, check_convergence):
        with pytest.raises(ValueError, match=match):
            norm_sq_quad(reference, radial_nodes=radial_nodes, check_convergence=check_convergence)

    def test_refuses_to_double_the_largest_count_before_solving(self, reference):
        # 4096 radial nodes is the largest count allowed; its double is
        # not, and that must fail before the 4096-node rule is solved (~5 s).
        gauss_legendre_nodes.cache_clear()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most"):
            norm_sq_quad(reference, radial_nodes=4096)
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

        gauss_legendre_nodes.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        yield counts
        gauss_legendre_nodes.cache_clear()

    def test_cross_check_solves_each_count_once(self, reference, leggauss_counts):
        cross_check(reference, 128)
        assert leggauss_counts == {128: 1}
        cross_check(reference, 128)
        assert leggauss_counts == {128: 1}

    def test_norm_sq_quad_solves_base_and_doubled_grid_once(self, reference, leggauss_counts):
        norm_sq_quad(reference, "f")
        norm_sq_quad(reference, "g", coords="substituted")
        assert leggauss_counts == {128: 1, 256: 1}

    def test_cached_rule_is_read_only(self):
        x, w = gauss_legendre_nodes(16)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("count", [8, 128, 129, 256])
    def test_rule_is_leggauss_mapped_to_the_unit_interval(self, count):
        # The rule is mapped to [0, 1] once, with the bits of mapping
        # leggauss's [-1, 1] rule by hand.
        x, w = np.polynomial.legendre.leggauss(count)
        u, wu = gauss_legendre_nodes(count)
        assert u.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert wu.tobytes() == (0.5 * w).tobytes()

    def test_report_unchanged_by_clearing_the_cache(self, reference):
        warm = cross_check(reference)
        gauss_legendre_nodes.cache_clear()
        cold = cross_check(reference)
        for field in dataclasses.fields(warm):
            assert getattr(cold, field.name) == getattr(warm, field.name), field.name


class TestCircleMean:
    @settings(max_examples=300)
    @given(
        m=st.integers(0, 9_990_000),
        n=st.integers(2, 1000),
        r=st.floats(0.0, 1.0),
        which=st.sampled_from(["f", "g"]),
    )
    def test_closed_form_is_the_trapezoid_mean(self, m, n, r, which):
        # a in [0, 0.999] as a seven-digit decimal, as Params takes it;
        # rho over [0, 1] both directly and as the r^n of the radial rule
        a = float(Fraction(m, 10**7))
        rho = np.array([r, r**n])
        closed = quadrature._circle_mean(a, which, rho * rho)
        trapezoid = trapezoid_circle_mean(a, which, rho)
        assert np.all(np.abs(closed - trapezoid) <= 1e-15 * trapezoid), (closed, trapezoid)

    def test_nonnegative(self):
        rho_sq = np.linspace(0.0, 1.0, 41)
        for a, _ in AGREEMENT_CASES:
            a = float(Fraction(a))
            assert np.all(quadrature._circle_mean(a, "f", rho_sq) >= 0.0)
            assert np.all(quadrature._circle_mean(a, "g", rho_sq) >= 0.0)

    def test_angular_reduction(self, reference):
        # |f|^2 and |g|^2 / r^2 depend on the angle only through
        # cos(n theta), which is what the oracle's kernel takes
        r = np.linspace(0.05, 1.0, 20)[:, None]
        theta = np.linspace(0.0, 2 * np.pi, 37)[None, :]
        z = r * np.exp(1j * theta)
        rho, cos_phi = r ** reference.n, np.cos(reference.n * theta)
        a = reference.a_float
        assert np.allclose(
            circle_kernel(a, "f", rho, cos_phi), np.abs(eval_f(reference, z)) ** 2,
            rtol=1e-13, atol=0.0,
        )
        assert np.allclose(
            circle_kernel(a, "g", rho, cos_phi) * r ** 2, np.abs(eval_g(reference, z)) ** 2,
            rtol=1e-13, atol=0.0,
        )


class TestTensorOracle:
    """The radial rule against the two-dimensional rule it replaced."""

    @pytest.mark.parametrize("check_convergence", [False, True])
    @pytest.mark.parametrize("coords", ["original", "substituted"])
    @pytest.mark.parametrize("which", ["f", "g"])
    @pytest.mark.parametrize("radial_nodes", [128, 100, 129, 8])
    def test_norm_sq_quad_is_the_tensor_value(
        self, reference, radial_nodes, which, coords, check_convergence
    ):
        assert_matches_tensor_oracle(reference, which, radial_nodes, coords, check_convergence)

    @settings(max_examples=60)
    @given(
        m=st.integers(0, 10**7 - 1),
        n=st.integers(2, 1000),
        which=st.sampled_from(["f", "g"]),
        coords=st.sampled_from(["original", "substituted"]),
        check_convergence=st.booleans(),
    )
    def test_tensor_value_at_random_params(self, m, n, which, coords, check_convergence):
        params = Params(Fraction(m, 10**7), n)
        assert_matches_tensor_oracle(params, which, 128, coords, check_convergence)


class TestMemory:
    @pytest.mark.parametrize("a, n", [("0.6666757", 10), ("0.998", 1000)])
    def test_cross_check_peak_memory(self, a, n):
        # The radial rule's arrays take a few KiB; a table of its 128 or 256
        # radii times 256 angles took 268 KiB (a block of 32 radii at a time).
        params = Params(Fraction(a), n)
        cross_check(params)  # caches the rule
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(3):
                cross_check(params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 64 * 1024


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
        # as a -> 1 the integrands' poles in r, where a^2 r^(2n) = 4, come
        # closest to the interval, the hardest case for the radial rule
        p = Params(Fraction(a), n)
        for which in ("f", "g"):
            exact = mp_norm_sq(Fraction(a), n, which, dps=40)
            for coords in ("original", "substituted"):
                for check in (False, True):
                    value = norm_sq_quad(p, which, coords=coords, check_convergence=check)
                    assert abs(float(value - exact)) <= 1e-13, (which, coords, check)

    @pytest.mark.parametrize("n", [3, 5])
    def test_substituted_route_is_smooth_at_odd_n(self, n):
        # Both substituted integrands depend on u through u^n, so the
        # radial rule converges geometrically at odd n too; with g in
        # u = r^4 the 128-node rule missed ||g||^2 by 5.4e-13 at n = 3.
        a = Fraction("0.9")
        p = Params(a, n)
        for which in ("f", "g"):
            exact = mp_norm_sq(a, n, which, dps=40)
            value = norm_sq_quad(p, which, coords="substituted", check_convergence=False)
            assert abs(float(value - exact)) <= 1e-14, which

    def test_validation(self, reference):
        with pytest.raises(ValueError):
            norm_sq_quad(reference, "h")
        with pytest.raises(ValueError):
            norm_sq_quad(reference, "f", coords="polar")

    def test_convergence_guard_trips_on_coarse_grid(self, reference):
        with pytest.raises(QuadratureNotConverged):
            norm_sq_quad(reference, "f", radial_nodes=8)

    def test_coarse_grid_suffices_for_gentle_params(self):
        # low frequency and moderate a converge already at 8 radial nodes
        p = Params(Fraction(1, 2), 2)
        value = norm_sq_quad(p, "f", radial_nodes=8)
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
        report = cross_check(p)
        assert report == cross_check(p, radial)
        assert report.radial_nodes == radial

    def test_explicit_grid_is_used_as_given(self):
        p = Params(Fraction("0.998"), 1000)
        report = cross_check(p, 128)
        assert report.radial_nodes == 128
        assert report.quad_f_original == norm_sq_quad(p, "f", 128, check_convergence=False)
        # 128 radial nodes miss ||f||^2 in original coordinates by 1.8e-8 here
        assert not report.passed
