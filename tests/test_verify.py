"""Verification registry: determinism, aliases, failure reporting, parity."""

import collections
import dataclasses
import json
import os

import mpmath
import pytest

from hlcbs import series, verify
from hlcbs.floats import BigFloat, context
from hlcbs.report import CheckReport, Tally
from hlcbs.verify import UnknownCheck, VerifyConfig, check_ids, run_all, run_check, summarize

from conftest import empty_kit_caches


def report_key(report: CheckReport):
    dev = report.max_abs_deviation
    tol = report.tolerance
    return (
        report.check_id,
        report.passed,
        report.comparisons,
        dev if isinstance(dev, str) else mp_digits(dev),
        tol if isinstance(tol, str) else mp_digits(tol),
        report.parameter_grid,
    )


def mp_digits(x):
    import mpmath

    return mpmath.nstr(x, 12)


class TestRegistry:
    def test_seventeen_checks_registered(self):
        assert len(check_ids()) == 17

    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            run_check("nope")

    def test_aliases_resolve_to_merged_checks(self):
        assert run_check("bm_p").check_id == "bm_pq"
        assert run_check("bm_q").check_id == "bm_pq"
        assert run_check("p0_is_q").check_id == "p_interp"
        assert run_check("p1_is_p").check_id == "p_interp"

    def test_exact_check_report(self):
        report = run_check("bm1")
        assert report.passed
        assert report.max_abs_deviation == "exact"
        assert report.comparisons == 11

    def test_empty_filter_gives_empty_list(self):
        assert run_all(ids=[]) == []

    def test_subset_preserves_registry_order(self):
        reports = run_all(ids=["bm1", "ptoE"])
        assert [r.check_id for r in reports] == ["ptoE", "bm1"]


class TestClosedSides:
    def test_lehmer_arcsine_comes_from_the_kernel(self, monkeypatch):
        # arcsin z is z 2F1(1/2, 1/2; 3/2; z^2) through pfq_eval, never mpmath's asin
        def refuse(*args):
            raise AssertionError("mpmath asin called")

        monkeypatch.setattr(context(128), "asin", refuse)
        for check_id in ("lehmer1", "lehmer2"):
            assert run_check(check_id).passed


class TestDeterminism:
    def test_same_config_same_reports(self):
        config = VerifyConfig(precision_bits=96, seed=777)
        ids = ["thm31", "alpha_rec", "examples"]
        first = [report_key(r) for r in run_all(config, ids)]
        second = [report_key(r) for r in run_all(VerifyConfig(precision_bits=96, seed=777), ids)]
        assert first == second

    def test_seed_recorded_in_grid(self):
        report = run_check("alpha_rec", VerifyConfig(seed=424242))
        assert "424242" in report.parameter_grid


class TestOracleMemo:
    """A pass sums each distinct oracle query once, through ``verify._oracle``,
    and a warm memo changes no report."""

    def test_warm_pass_equals_each_check_alone(self):
        config = VerifyConfig(precision_bits=128)
        for report in run_all(config):
            empty_kit_caches()
            alone = run_check(report.check_id, config)
            assert dataclasses.replace(alone, elapsed_seconds=0) == dataclasses.replace(report, elapsed_seconds=0)

    def test_each_query_is_summed_once_per_pass(self, monkeypatch):
        seen = collections.Counter()
        phi = series.phi_numeric

        def counting(query):
            seen[query] += 1
            return phi(query)

        monkeypatch.setattr(series, "phi_numeric", counting)
        run_all(VerifyConfig(precision_bits=128))
        assert sum(seen.values()) == len(seen) == 137

    def test_each_arcsine_is_summed_once_per_pass(self, monkeypatch):
        # lehmer1's six z and lehmer2's three share z = 1/4 and 1/2
        seen = collections.Counter()
        pfq = verify.pfq_eval

        def counting(params, precision_bits):
            seen[params, precision_bits] += 1
            return pfq(params, precision_bits)

        monkeypatch.setattr(verify, "pfq_eval", counting)
        run_all(VerifyConfig(precision_bits=128))
        assert sum(seen.values()) == len(seen) == 7


class TestTally:
    def test_disagreement_is_reported_not_raised(self):
        ctx = context(128)
        bound = ctx.ldexp(1, -100)
        tally = Tally()
        tally.agree(BigFloat(ctx.mpf(1), 128, bound), BigFloat(1 + 5 * bound, 128, bound))
        tally.agree(BigFloat(ctx.mpf(2), 128, bound), BigFloat(2 + 4 * bound, 128, bound))
        report = tally.report("pair", "two pairs", 0.0)
        assert not report.passed  # reported, not thrown
        assert report.comparisons == 2
        # 5 bounds apart fails; 4 bounds apart is exactly 2 (bound + bound) and passes
        assert tally.numeric_failures == 1
        assert report.max_abs_deviation == 5 * bound
        assert report.tolerance == 4 * bound

    def test_exact_failures_are_counted(self):
        tally = Tally()
        for ok in (True, False, False):
            tally.exact(ok)
        report = tally.report("exact", "three comparisons", 0.0)
        assert not report.passed
        assert report.comparisons == 3
        assert report.max_abs_deviation == "2 exact comparisons failed"


with open(os.path.join(os.path.dirname(__file__), "data", "verify_parity.json")) as _fh:
    STORED = {entry["check_id"]: entry for entry in json.load(_fh)}


class TestParity:
    """Each report at 128 bits equals its record in
    ``data/verify_parity.json``, ``elapsed_ms`` aside.  A change that moves
    a record re-records it, and CHANGES.md lists every re-record with its
    old and new values."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {r.check_id: r.to_json_dict() for r in run_all(VerifyConfig(precision_bits=128))}

    def test_every_check_recorded(self, reports):
        assert sorted(reports) == sorted(STORED) == sorted(check_ids())

    @pytest.mark.parametrize("check_id", check_ids())
    def test_report_unchanged(self, reports, check_id):
        got = dict(reports[check_id])
        del got["elapsed_ms"]
        assert got == STORED[check_id]


class TestSummary:
    def test_summary_mentions_every_check(self):
        reports = run_all(ids=["bm1", "p_interp"])
        text = summarize(reports)
        assert "bm1" in text and "p_interp" in text
        assert "2/2 checks passed" in text

    def test_values_below_the_double_range_print_nonzero(self):
        ctx = context(2048)
        tiny = ctx.mpf("1e-500")
        report = CheckReport("tiny", "one point", 1, tiny, 2 * tiny, True)
        d = report.to_json_dict()
        assert d["max_abs_deviation"] == "1.000000e-500"
        assert abs(ctx.mpf(d["tolerance"]) / (2 * tiny) - 1) < 1e-6
        assert "max dev 1.000e-500" in summarize([report])

    def test_report_values_keep_no_private_context_alive(self):
        # an mpf keeps its context alive, and a report may outlive the kit's
        # cached per-precision contexts
        report = run_check("lehmer1")
        assert type(report.max_abs_deviation) is mpmath.mpf and type(report.tolerance) is mpmath.mpf

    def test_json_dict_schema(self):
        report = run_check("bm1")
        d = report.to_json_dict()
        for key in ("check_id", "passed", "max_abs_deviation", "comparisons", "elapsed_ms"):
            assert key in d
