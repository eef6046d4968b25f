"""The verify machinery itself: the worst-case reducer, bound directions,
and the consistency of the check, tolerance and suite tables."""

import json
import math

import pytest

from morseband import ConfigError, verify
from morseband.cli import main


class TestWorstCase:
    def test_nan_residual_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verify, "bessel_i", lambda *args, **kwargs: math.nan)
        result = verify._CHECKS["bessel_recurrence"](1e-11)
        assert result.passed is False
        assert math.isnan(result.measured)
        assert result.detail == "worst at nu=1, x=0.1"

    def test_nan_after_a_finite_maximum_still_wins(self):
        result = verify._worst("t", 1.0, [(0.5, "a"), (math.nan, "b"), (2.0, "c")])
        assert result.passed is False
        assert math.isnan(result.measured)
        assert result.detail == "worst at b"

    def test_tie_reports_the_first_maximum(self):
        cases = [(0.1, "a"), (0.5, "b"), (0.5, "c"), (0.2, "d")]
        result = verify._worst("t", 1.0, cases, "pointwise, worst at {}")
        assert result.measured == 0.5
        assert result.detail == "pointwise, worst at b"
        assert result.passed is True and result.bound == "upper"
        assert verify._worst("t", 1.0, [(0.0, "a"), (0.0, "b")]).detail == "worst at a"

    def test_upper_bound_passes_at_the_tolerance(self):
        assert verify._worst("t", 0.5, [(0.5, "a")]).passed is True
        assert verify._worst("t", 0.5, [(0.5000001, "a")]).passed is False

    def test_lower_bound_passes_only_at_or_above_the_tolerance(self):
        assert verify._lower("t", 1.0, 1.0).passed is True
        assert verify._lower("t", 2.0, 1.0).passed is True
        assert verify._lower("t", 0.999, 1.0).passed is False
        assert verify._lower("t", math.nan, 1.0).passed is False
        assert verify._lower("t", 2.0, 1.0).bound == "lower"

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


class TestTables:
    def test_every_check_has_a_tolerance(self):
        assert set(verify._CHECKS) == set(verify.DEFAULT_TOLERANCES)

    def test_every_check_belongs_to_exactly_one_suite(self):
        listed = [name for names in verify.SUITES.values() for name in names]
        assert sorted(listed) == sorted(verify._CHECKS)

    def test_suite_names_follow_the_suite_table(self):
        assert verify.SUITE_NAMES == tuple(verify.SUITES)

    def test_unknown_suite_is_a_config_error(self):
        with pytest.raises(ConfigError, match="known suites: specfun, states"):
            verify.run_suite("nonesuch")
