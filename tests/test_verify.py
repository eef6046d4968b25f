"""The verify machinery itself: the worst-case reducer and the runner,
bound directions, and the one table that declares every check."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import morseband
from morseband import ConfigError, verify
from morseband.cli import main


def run_cases(cases, tol, detail="worst at {}", bound="upper"):
    """The runner's result for a fixed case list."""
    return verify._run_check("t", verify._Check(tol, lambda: cases, detail, bound), tol)


class TestWorstCase:
    def test_nan_residual_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verify, "bessel_i", lambda *args, **kwargs: math.nan)
        result = verify._CHECKS["bessel_recurrence"](1e-11)
        assert result.passed is False
        assert math.isnan(result.measured)
        assert result.detail == "worst at nu=1, x=0.1"

    def test_nan_after_a_finite_maximum_still_wins(self):
        cases = [(0.5, "a"), (math.nan, "b"), (2.0, "c")]
        worst, where = verify._worst_case(cases)
        assert math.isnan(worst) and where == "b"
        result = run_cases(cases, 1.0)
        assert result.passed is False
        assert math.isnan(result.measured)
        assert result.detail == "worst at b"

    def test_tie_reports_the_first_maximum(self):
        cases = [(0.1, "a"), (0.5, "b"), (0.5, "c"), (0.2, "d")]
        assert verify._worst_case(cases) == (0.5, "b")
        result = run_cases(cases, 1.0, "pointwise, worst at {}")
        assert result.measured == 0.5
        assert result.detail == "pointwise, worst at b"
        assert result.passed is True and result.bound == "upper"
        assert verify._worst_case([(0.0, "a"), (0.0, "b")]) == (0.0, "a")
        assert run_cases([(0.0, "a"), (0.0, "b")], 1.0).detail == "worst at a"

    def test_upper_bound_passes_at_the_tolerance(self):
        assert run_cases([(0.5, "a")], 0.5).passed is True
        assert run_cases([(0.5000001, "a")], 0.5).passed is False

    def test_lower_bound_passes_only_at_or_above_the_tolerance(self):
        assert run_cases([(1.0, "")], 1.0, bound="lower").passed is True
        assert run_cases([(2.0, "")], 1.0, bound="lower").passed is True
        assert run_cases([(0.999, "")], 1.0, bound="lower").passed is False
        assert run_cases([(math.nan, "")], 1.0, bound="lower").passed is False
        assert run_cases([(2.0, "")], 1.0, bound="lower").bound == "lower"

    def test_lower_bound_reports_the_first_minimum(self):
        cases = [(3.0, "a"), (1.0, "b"), (1.0, "c"), (math.nan, "d")]
        assert verify._worst_case(cases[:3], "lower") == (1.0, "b")
        worst, where = verify._worst_case(cases, "lower")
        assert math.isnan(worst) and where == "d"

    def test_non_increasing_family_fails_uncertainty_limit_order(self, monkeypatch):
        # the N = 2 family's deltas stop increasing; N = 1 is left as it is
        closed = verify.moments_closed

        def flat_second_family(q, p):
            m = closed(q, p)
            if q.n - q.l - 1 == 2 and q.l >= 512:
                return dataclasses.replace(m, delta=6.0)
            return m

        monkeypatch.setattr(verify, "moments_closed", flat_second_family)
        result = verify._CHECKS["uncertainty_limit_order"](0.05)
        assert result.passed is False
        assert result.measured == math.inf
        assert result.detail == "convergence-order defect at l=1024, worst at N=2; monotone=False"

    def test_nan_report_is_valid_json_with_exit_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "bessel_i", lambda *args, **kwargs: math.nan)
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "verify", "--suite", "specfun"])
        assert code == 1
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["bessel_recurrence"]["measured"] == "nan"
        assert by_name["bessel_recurrence"]["passed"] is False
        assert report["passed"] is False


class TestSpecfunChecks:
    def test_laguerre_orthogonality_catches_a_wrong_alpha(self, monkeypatch):
        # the check's Gauss rule is numpy's, not built from the polynomials
        # it tests: shifting their alpha breaks the orthogonality it measures
        laguerre = verify.laguerre
        monkeypatch.setattr(verify, "laguerre", lambda m, alpha, x: laguerre(m, alpha + 1.0, x))
        result = verify._CHECKS["laguerre_orthogonality"](1e-9)
        assert result.passed is False
        assert result.measured > 1e-3

    def test_specfun_suite_does_not_import_scipy_linalg(self):
        src = os.path.dirname(os.path.dirname(morseband.__file__))
        code = (
            "import contextlib, io, sys; from morseband import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--suite', 'specfun'])\n"
            "sys.exit(code or 3 * ('scipy.linalg' in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


class TestPinnedReports:
    # sha256 of the reports at one worker thread as the scalar-call checks
    # and the per-call grid axes and weights wrote them; uncertainty's as
    # the einsum dots of the moments write it, the same bits at every BLAS
    # thread count
    PINNED = {
        ("verify", "--suite", "specfun"):
            "d20082bcb7dcba9ddef059b90be5c612989d9585cfab108dfd97ed521ff4eb39",
        ("verify", "--suite", "states"):
            "947bc223145e1616921f11f5048292db172345f590198fae1b645d2596240a22",
        ("uncertainty", "--l-max", "3"):
            "a1f691f804f1144a0677234d2fbff75e7617f7bda6411876d5e47dbf13fc3fcc",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MORSEBAND_THREADS", "1")
        assert main(list(argv)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.PINNED[argv]

    def test_uncertainty_is_independent_of_the_blas_thread_count(self):
        # a BLAS dot splits a long sum across its threads; the moments must not
        src = os.path.dirname(os.path.dirname(morseband.__file__))
        outs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": src,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
            }
            argv = [sys.executable, "-m", "morseband", "uncertainty", "--l-max", "3"]
            run = subprocess.run(argv, env=env, capture_output=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]


class TestTables:
    """DEFAULT_TOLERANCES, SUITES, SUITE_NAMES and _CHECKS all come from the
    one table, _TABLE."""

    def test_every_check_has_a_tolerance(self):
        names = [name for checks in verify._TABLE.values() for name in checks]
        assert list(verify._CHECKS) == names
        assert list(verify.DEFAULT_TOLERANCES) == names
        for checks in verify._TABLE.values():
            for name, check in checks.items():
                assert verify.DEFAULT_TOLERANCES[name] == check.tolerance

    def test_every_check_belongs_to_exactly_one_suite(self):
        names = [name for checks in verify._TABLE.values() for name in checks]
        assert len(set(names)) == len(names)
        for suite, checks in verify._TABLE.items():
            assert verify.SUITES[suite] == tuple(checks)
            for name in checks:
                assert [s for s, listed in verify.SUITES.items() if name in listed] == [suite]

    def test_suite_names_follow_the_suite_table(self, monkeypatch):
        # the report order is the table order, also when checks run on threads
        monkeypatch.setenv("MORSEBAND_THREADS", "2")
        for name in verify._CHECKS:
            stub = lambda tol, name=name: verify.CheckResult(name, True, 0.0, tol)  # noqa: E731
            monkeypatch.setitem(verify._CHECKS, name, stub)
        report = verify.run_suite("all")
        assert verify.SUITE_NAMES == tuple(verify.SUITES) == tuple(verify._TABLE)
        assert [r["suite"] for r in report["suites"]] == list(verify._TABLE)
        for r in report["suites"]:
            assert [c["name"] for c in r["checks"]] == list(verify._TABLE[r["suite"]])

    def test_unknown_suite_is_a_config_error(self):
        with pytest.raises(ConfigError, match="known suites: specfun, states"):
            verify.run_suite("nonesuch")
