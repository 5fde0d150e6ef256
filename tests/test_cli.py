from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import korenblum.cli
import korenblum.domination
import korenblum.search
import korenblum.series
from korenblum import norm_difference, reference_params
from korenblum.certificate import (
    Certificate,
    _int_str,
    _positive_str,
    decode_fraction,
    encode_fraction,
    run_verification,
)
from korenblum.cli import main

REFERENCE_ARGS = ["--a", "0.6666714", "--n", "10"]

# sha256 of the stdout of two commands at the n = 10 benchmark pair, as
# the term-by-term Fraction engine printed them.  A change of engine must
# not change these bytes.
GOLDEN_NORMS_SHA256 = "09d1dae9ae8ebb5bd142e749a760751b98be526449fff0f0a1dab38f895525af"
# The same command at the n = 4 and n = 14 benchmark pairs, as printed
# before the enclosures were reduced against their short cofactor and
# the denominators' trailing zeros were printed without conversion.
GOLDEN_NORMS_N4_SHA256 = "78e4bd89f7602fd89374a7a175d0bf95bc0f18d0f4694ab8f070ab27979f5b0d"
GOLDEN_NORMS_N14_SHA256 = "3df3682f045cce0ecf67c231554bb375f84c9a497cfea3601ea8781469967f90"
# The verify certificate with wall_time_s removed, re-serialised with
# json.dumps(indent=2) as Certificate.to_json does.  Both verify hashes
# were re-pinned when the angular quadrature moved to the trapezoid rule;
# only the six quadrature fields of cross_check changed, the quadrature
# norms by at most 6e-17.  Re-pinned again when c became the root rounded
# up to a double: only the c, residual and h(c) fields changed.  Re-pinned
# when the domination grid formed z^n from the exactly reduced angle:
# only grid_max_ratio changed, from 1 + 4.0e-15 to 1 + 6.7e-16.
GOLDEN_VERIFY_SHA256 = "efdd09bebf9c32ce09cca713ea32dfb5333e27a80e1cf353784fdc448af9e352"
# Float norms at the same pair, re-pinned when a float gap stopped
# counting as certified: only "certified": true became false.
GOLDEN_FLOAT_NORMS_SHA256 = "84ad7423fc25328ef7a33000d840bacfb4adb94d6a69b93c54b3eb051e2a7817"
# Search and a short scan, taken before the serialisers were rebuilt from
# the dataclass fields, and re-pinned when c became the root rounded up
# to a double: only the "c" values changed.
GOLDEN_SEARCH_SHA256 = "474daf4ab5a9044e73ca1de28acbf160ccad287ccb0febb3170abbea3e7bc1ad"
GOLDEN_SCAN_SHA256 = "b28afb110396e901e5485505ceab858e9f28b7963d3c54dc55d65bda7e379b59"
# plot-data --kind delta at its defaults (256 points on [0.6, 0.7], K = 64),
# as 256 separate delta_of_a calls printed it.
GOLDEN_PLOT_DELTA_SHA256 = "f3efcc3637d99ebfd260e505ad586ff5e4477ac71bf69015f0f078436b8b6a80"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    def test_successive_calls_print_what_separate_calls_print(self, capsys, monkeypatch):
        calls = [
            ["root", *REFERENCE_ARGS, "--json"],
            ["norms", *REFERENCE_ARGS, "--terms", "8", "--json"],
            ["root", "--a", "0.45", "--n", "2"],
            ["root", *REFERENCE_ARGS],
        ]
        successive = [run_cli(capsys, *argv) for argv in calls]
        monkeypatch.setattr(korenblum.cli, "_main_parser", korenblum.cli.build_parser)
        separate = [run_cli(capsys, *argv) for argv in calls]
        assert successive == separate

    def test_build_parser_returns_a_fresh_parser(self):
        assert korenblum.cli.build_parser() is not korenblum.cli.build_parser()


class TestRoot:
    def test_prints_critical_radius(self, capsys):
        code, out, _ = run_cli(capsys, "root", *REFERENCE_ARGS)
        assert code == 0
        assert abs(float(out.strip()) - 0.6779049274) < 1e-9

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "root", *REFERENCE_ARGS, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["a"] == "0.6666714"
        assert payload["c"] == pytest.approx(0.677904927421849, abs=1e-12)

    def test_no_root_maps_to_failure_exit(self, capsys):
        code, _, err = run_cli(capsys, "root", "--a", "0.45", "--n", "2")
        assert code == 1
        assert "error" in err


class TestComputeErrors:
    @pytest.mark.parametrize(
        "error, mapped",
        [
            (korenblum.domination.DominationViolated, True),
            (korenblum.domination.HypothesisViolated, True),
            (korenblum.search.InvalidBracket, True),
            (ZeroDivisionError, True),  # an ArithmeticError
            (ValueError, False),  # the base of InvalidBracket
            (RuntimeError, False),
        ],
    )
    def test_main_maps_exactly_the_compute_errors_to_exit_1(self, capsys, monkeypatch, error, mapped):
        def fail(a, n):
            raise error("boom")

        monkeypatch.setattr(korenblum.cli, "Params", fail)
        if mapped:
            assert run_cli(capsys, "root", *REFERENCE_ARGS) == (1, "", "error: boom\n")
        else:
            with pytest.raises(error, match="boom"):
                main(["root", *REFERENCE_ARGS])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--a", "0", "--n", "10"],
            ["verify", "--a", "1", "--n", "10"],
            ["verify", "--a", "1.5", "--n", "10"],
            ["verify", "--a", "0.5", "--n", "1"],
            ["verify", "--a", "not-a-number", "--n", "10"],
            ["root", "--a", "0.5"],
            ["norms", "--n", "10"],
            ["verify", "--a", "0.5", "--n", "10", "--grid", "banana"],
            ["nonsense"],
            # Float estimates run at series.DEFAULT_TERMS and the domination
            # grid at domination.GRID_TOL; neither is a flag.
            ["search", "--n", "10", "--terms", "64"],
            ["plot-data", *REFERENCE_ARGS, "--kind", "delta", "--terms", "64"],
            ["verify", *REFERENCE_ARGS, "--tol", "1e-12"],
            ["search", "--n", "10", "--safety", "nan"],
            ["search", "--n", "10", "--safety", "inf"],
            ["search", "--n", "10", "--safety", "1"],
            ["search", "--n", "10", "--safety", "1e300"],
            ["scan", "--n-max", "4", "--safety", "nan"],
            ["scan", "--n-max", "4", "--safety", "-1e-6"],
        ],
    )
    def test_exit_code_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", *REFERENCE_ARGS, "--exact"],
            ["norms", *REFERENCE_ARGS, "--exact"],
        ],
    )
    def test_terms_above_limit_fail_fast(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--terms", str(korenblum.series.MAX_TERMS + 1)])
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.code == 2
        assert f"at most {korenblum.series.MAX_TERMS}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["root", "--a", "0.5", "--n", "1001"],
            ["verify", "--a", "0.5", "--n", "1001"],
            ["search", "--n", "1001"],
            ["scan", "--n-max", "1001"],
            ["scan", "--n-min", "1001", "--n-max", "1001"],
        ],
    )
    def test_frequency_above_limit_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.code == 2
        assert f"at most {korenblum.cli.MAX_FREQUENCY}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", *REFERENCE_ARGS, "--grid", "100000x100000"],
            ["verify", *REFERENCE_ARGS, "--grid", "8192x16"],
            ["plot-data", *REFERENCE_ARGS, "--points", "100000000"],
            ["plot-data", *REFERENCE_ARGS, "--points", "1"],
        ],
    )
    def test_sizes_out_of_range_fail_at_parse(self, argv):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SystemExit) as excinfo:
                korenblum.cli.build_parser().parse_args(argv)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.code == 2
        assert seconds < 1.0
        assert peak < 1 << 20


class TestVerify:
    def test_passes_at_reference(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *REFERENCE_ARGS, "--exact")
        assert code == 0
        assert "PASS" in out
        assert "critical_root: ok" in out
        assert "cross_check: ok" in out

    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *REFERENCE_ARGS, "--exact", "--json")
        cert = json.loads(out)
        assert code == 0
        assert cert["schema"] == "korenblum.certificate.v1"
        assert cert["passed"] is True
        assert cert["failed_check"] is None
        assert cert["params"] == {"a": "0.6666714", "n": 10}
        assert cert["critical_radius"]["value"] == pytest.approx(0.6779049274, abs=1e-9)
        assert cert["norm_gap"]["mode"] == "exact"
        assert cert["domination"]["sampled_only"] is True
        assert cert["wall_time_s"] > 0

    def test_writes_certificate_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "verify", *REFERENCE_ARGS, "--out", str(path))
        assert code == 0
        cert = Certificate.from_json(path.read_text())
        assert cert.passed

    def test_coarse_grid_fails_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *REFERENCE_ARGS, "--grid", "8x16")
        assert code == 1
        assert "FAIL: cross_check" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--a", "0.9899", "--n", "200"],
            ["--a", "0.998", "--n", "1000", "--grid", "512x256"],
            # A 128x256 quadrature misses ||f||^2 by 1.8e-8 here; the
            # default grid has 256 radial nodes above n = 256.
            ["--a", "0.998", "--n", "1000"],
        ],
    )
    def test_passes_near_the_merge_at_large_n(self, capsys, argv):
        # 1 - a is ~1e-2 or less, where a complex power z^n would fail the
        # domination grid falsely.
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert "domination: ok" in out
        assert out.endswith("PASS\n")


class TestNorms:
    def test_human_readable(self, capsys):
        code, out, _ = run_cli(capsys, "norms", *REFERENCE_ARGS)
        assert code == 0
        assert "||f||^2" in out and "estimated positive: yes" in out
        assert "certified" not in out

    def test_exact_json_round_trips_rationals(self, capsys):
        code, out, _ = run_cli(capsys, "norms", *REFERENCE_ARGS, "--exact", "--json")
        payload = json.loads(out)
        assert code == 0
        lower = decode_fraction(payload["delta"]["lower"])
        assert lower >= Fraction(22, 10**8)
        assert payload["delta"]["certified"] is True

    @pytest.mark.parametrize("mode_flags", [[], ["--exact"]])
    def test_gap_reuses_the_two_enclosures(self, capsys, monkeypatch, mode_flags):
        calls = []
        for module in (korenblum.cli, korenblum.series):
            for name in ("norm_sq_f", "norm_sq_g"):
                original = getattr(module, name)

                def counted(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        code, out, _ = run_cli(capsys, "norms", *REFERENCE_ARGS, *mode_flags, "--json")
        assert code == 0
        assert sorted(calls) == ["norm_sq_f", "norm_sq_g"]
        monkeypatch.undo()
        mode = "exact" if mode_flags else "float"
        delta = norm_difference(reference_params(), K=64, mode=mode)
        payload = json.loads(out)["delta"]
        if mode == "exact":
            assert decode_fraction(payload["lower"]) == delta.delta_lower
            assert decode_fraction(payload["upper"]) == delta.delta_upper
        else:
            assert (payload["lower"], payload["upper"]) == (delta.delta_lower, delta.delta_upper)


class TestGoldenOutput:
    def test_exact_norms_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "norms", "--a", "0.6666757", "--n", "10",
            "--exact", "--terms", "256", "--json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_NORMS_SHA256

    @pytest.mark.parametrize(
        "n, a, golden",
        [(4, "0.5898501", GOLDEN_NORMS_N4_SHA256), (14, "0.6795093", GOLDEN_NORMS_N14_SHA256)],
        ids=["n4", "n14"],
    )
    def test_exact_norms_json_at_other_pairs(self, capsys, n, a, golden):
        code, out, _ = run_cli(
            capsys, "norms", "--a", a, "--n", str(n), "--exact", "--terms", "256", "--json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden

    @staticmethod
    def _verify_sha256(capsys, *flags):
        code, out, _ = run_cli(capsys, "verify", "--a", "0.6666757", "--n", "10", *flags)
        assert code == 0
        cert = json.loads(out)
        del cert["wall_time_s"]
        return hashlib.sha256(json.dumps(cert, indent=2).encode()).hexdigest()

    def test_exact_verify_certificate(self, capsys):
        assert self._verify_sha256(capsys, "--exact", "--json") == GOLDEN_VERIFY_SHA256

    def test_verify_without_exact_flag_is_exact(self, capsys):
        # --exact is a no-op: the gap is always enclosed exactly.
        assert self._verify_sha256(capsys, "--json") == GOLDEN_VERIFY_SHA256

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["norms", "--a", "0.6666757", "--n", "10", "--json"], GOLDEN_FLOAT_NORMS_SHA256),
            (["search", "--n", "10", "--json"], GOLDEN_SEARCH_SHA256),
            (["scan", "--n-min", "4", "--n-max", "12", "--json"], GOLDEN_SCAN_SHA256),
            (["plot-data", *REFERENCE_ARGS, "--kind", "delta"], GOLDEN_PLOT_DELTA_SHA256),
        ],
        ids=["float-norms", "search", "scan", "plot-delta"],
    )
    def test_stdout(self, capsys, argv, golden):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden


class TestSearchAndScan:
    def test_search_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "10")
        assert code == 0
        assert "0.6666757" in out
        assert "improves 0.67795: yes" in out

    def test_search_json(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "10", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["improves_wang"] is True
        assert decode_fraction(payload["delta_lower"]) > 0

    def test_scan_json_records_failures(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n-min", "2", "--n-max", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        errors = [row for row in payload["rows"] if "error" in row]
        assert {row["n"] for row in errors} == {2, 3}
        assert payload["best"]["n"] == 4

    def test_scan_range_validation(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n-min", "5", "--n-max", "4")
        assert code == 2
        assert "n-max" in err


class TestPlotData:
    def test_envelope_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot-data", *REFERENCE_ARGS, "--kind", "envelope", "--points", "64"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 64
        assert abs(float(rows[0]["h"]) - 1.0) < 1e-9
        assert abs(float(rows[-1]["h"]) - 1.0) < 1e-9
        assert float(rows[0]["r"]) == pytest.approx(0.677904927421849, abs=1e-12)
        interior = [float(row["h"]) for row in rows[1:-1]]
        assert all(h <= 1.0 + 1e-12 for h in interior)

    def test_delta_sweep_crosses_zero(self, capsys, tmp_path):
        path = tmp_path / "delta.csv"
        code, out, _ = run_cli(
            capsys,
            "plot-data", *REFERENCE_ARGS,
            "--kind", "delta", "--points", "11",
            "--a-min", "0.6", "--a-max", "0.7",
            "--out", str(path),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert [row["a"] for row in rows][0] == "0.6"
        assert float(rows[0]["delta_upper"]) < 0
        assert float(rows[-1]["delta_lower"]) > 0

    def test_bad_sweep_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            "plot-data", *REFERENCE_ARGS,
            "--kind", "delta", "--a-min", "0.7", "--a-max", "0.6",
        )
        assert code == 2
        assert "a-max" in err


@contextlib.contextmanager
def _int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestDenominatorDigits:
    """``_positive_str`` prints what ``str`` prints."""

    @given(
        m=st.integers(min_value=1, max_value=10**60),
        i=st.integers(min_value=0, max_value=6000),
        j=st.integers(min_value=0, max_value=6000),
    )
    def test_powers_of_two_and_five(self, m, i, j):
        x = m * 2**i * 5**j
        with _int_max_str_digits(0):
            assert _positive_str(x) == str(x)

    @given(x=st.integers(min_value=1) | st.integers(min_value=1, max_value=10**3000))
    def test_any_positive_integer(self, x):
        with _int_max_str_digits(0):
            assert _positive_str(x) == str(x)

    def test_more_zeros_than_the_table_finds(self):
        x = 3 * 10**20000
        with _int_max_str_digits(0):
            assert _positive_str(x) == str(x)


def _digits_and_sign(digits):
    """Integers of exactly ``digits`` digits, of either sign."""
    magnitudes = st.integers(min_value=10 ** (digits - 1), max_value=10**digits - 1)
    return st.tuples(magnitudes, st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


def _with_finite_float(x):
    """x over a power of two that keeps its float finite; numerator x if x is odd."""
    return Fraction(x, 1 << max(0, x.bit_length() - 900))


@st.composite
def _zero_runs(draw):
    """Integers of at most 4300 digits with a run of zeros across 10^512, 10^1024 or 10^2048."""
    split = draw(st.sampled_from([512, 1024, 2048]))
    tail_digits = draw(st.integers(min_value=0, max_value=split - 1))
    zeros = draw(st.integers(min_value=split - tail_digits + 1, max_value=4299 - tail_digits))
    head_digits = draw(st.integers(min_value=1, max_value=4300 - zeros - tail_digits))
    head = draw(st.integers(min_value=10 ** (head_digits - 1), max_value=10**head_digits - 1))
    tail = draw(st.integers(min_value=0, max_value=10**tail_digits - 1))
    return head * 10 ** (zeros + tail_digits) + tail


# Around the leaf size and the split points 10^(2^j) of the printer.
POWER_EXPONENTS = sorted({k + d for k in (768, 1024, 2048, 3072, 4096) for d in (-1, 0, 1)}
                         | {1, 2, 17, 1000, 4299})


class TestIntegerDigits:
    """``_int_str``, the printer of numerators, prints what ``str`` prints."""

    @given(x=st.integers(min_value=1, max_value=4300).flatmap(_digits_and_sign))
    def test_up_to_the_digit_limit(self, x):
        with _int_max_str_digits(4300):
            assert _int_str(x) == str(x)
            q = _with_finite_float(x)
            assert encode_fraction(q)["numerator"] == str(q.numerator)

    @given(x=_zero_runs())
    def test_zeros_across_a_split_point(self, x):
        with _int_max_str_digits(4300):
            assert _int_str(x) == str(x)
            assert _int_str(-x) == str(-x)

    @pytest.mark.parametrize("k", POWER_EXPONENTS)
    def test_powers_of_ten_plus_and_minus_one(self, k):
        with _int_max_str_digits(4300):
            for x in (10**k - 1, 10**k, 10**k + 1):
                assert _int_str(x) == str(x)
                assert _int_str(-x) == str(-x)

    @pytest.mark.parametrize("digits, fails", [(4300, False), (4301, True), (5001, True)])
    def test_digit_limit(self, digits, fails):
        # Odd, so that each is the numerator of _with_finite_float(x).
        for x in (10 ** (digits - 1) + 7, 3 * 10 ** (digits - 1) - 1, -(10**digits - 1)):
            with _int_max_str_digits(4300):
                if fails:
                    with pytest.raises(ValueError) as expected:
                        str(x)
                    with pytest.raises(ValueError) as raised:
                        encode_fraction(_with_finite_float(x))
                    assert str(raised.value) == str(expected.value)
                else:
                    assert encode_fraction(_with_finite_float(x))["numerator"] == str(x)

    def test_past_the_limit_without_limit(self):
        with _int_max_str_digits(0):
            for x in (10**5000 + 1, -(7**12000), 3**40000):
                assert _int_str(x) == str(x)


class TestCertificateObject:
    def test_round_trip(self):
        cert = run_verification(reference_params())
        clone = Certificate.from_json(cert.to_json())
        assert clone == cert

    def test_exact_gap_embedded(self):
        cert = run_verification(reference_params())
        assert cert.passed
        lower = cert.delta_lower_fraction()
        assert lower is not None and lower > 0
        assert cert.norm_gap["certified"] is True

    def test_fraction_encoding_round_trip(self):
        x = Fraction(-22, 7)
        assert decode_fraction(encode_fraction(x)) == x

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="encode_fraction calls str() on integers past the 4300-digit limit",
    )
    def test_fraction_encoding_round_trip_past_digit_limit(self):
        x = Fraction(10**5000 + 1, 3)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert decode_fraction(encode_fraction(x)) == x
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="the exact gap at n = 15, K = 256 has integers past the 4300-digit limit",
    )
    def test_verify_encodes_a_gap_past_digit_limit(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, _, _ = run_cli(capsys, "verify", "--a", "0.6815637", "--n", "15",
                                 "--terms", "256")
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 0

    @pytest.mark.parametrize("digits, fails", [(4300, False), (4301, True), (5001, True)])
    def test_digit_limit_applies_to_the_printed_length(self, digits, fails):
        x = Fraction(1, 10 ** (digits - 1))
        with _int_max_str_digits(4300):
            if fails:
                with pytest.raises(ValueError) as expected:
                    str(x.denominator)
                with pytest.raises(ValueError) as raised:
                    encode_fraction(x)
                assert str(raised.value) == str(expected.value)
            else:
                assert encode_fraction(x)["denominator"] == str(x.denominator)

    def test_encoding_past_digit_limit_round_trips_without_limit(self):
        with _int_max_str_digits(0):
            for x in (Fraction(1, 10**5000), Fraction(-7, 2**20000 * 5**9000 * 3)):
                assert decode_fraction(encode_fraction(x)) == x

    def test_failure_is_named_and_ordered(self):
        from korenblum import Params

        cert = run_verification(Params("0.45", 2))
        assert not cert.passed
        assert cert.failed_check == "critical_root"
        assert cert.checks[0]["passed"] is False
        assert cert.norm_gap is None and cert.domination is None
