"""The summation kernel, the shared contexts and certified output."""

import itertools
from fractions import Fraction as F

import mpmath
import pytest

from hlcbs import hyper
from hlcbs.exact import DomainError
from hlcbs.floats import BigFloat, BudgetExceeded, context, tail_bounded_sum
from hlcbs.hyper import NoConvergence, PFQParams, pfq_eval


def geometric(ctx, ratio):
    """(t_n, rho_n) of sum ratio^n with an exact cap from the first term."""
    for n in itertools.count():
        yield ctx.mpf(ratio) ** n, ctx.mpf(ratio)


class TestTailBoundedSum:
    def test_finished_iterator_has_no_tail(self):
        ctx = context(64)
        terms = [(ctx.mpf(1), None), (ctx.mpf(2), None), (ctx.mpf(3), None)]
        total, bound, used = tail_bounded_sum(ctx, iter(terms), 10)
        assert total == 6
        assert used == 3
        # only the rounding term is left: (3n + 12) ulp sum|t| at n = 2
        assert bound == 18 * ctx.ldexp(1, -ctx.prec + 1) * 6

    def test_empty_iterator(self):
        ctx = context(64)
        assert tail_bounded_sum(ctx, iter([]), 10) == (0, 0, 0)

    def test_geometric_series_contained(self):
        ctx = context(128)
        total, bound, used = tail_bounded_sum(ctx, geometric(ctx, 0.5), 1000)
        assert abs(total - 2) <= bound
        assert bound <= ctx.ldexp(1, -130)
        assert 130 < used < 145

    def test_no_cap_never_stops_early(self):
        ctx = context(64)
        terms = ((ctx.ldexp(1, -n), None) for n in range(50))
        total, _, used = tail_bounded_sum(ctx, terms, 100)
        assert used == 50
        assert total == 2 - ctx.ldexp(1, -49)

    def test_budget_raises(self):
        ctx = context(64)
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, geometric(ctx, 0.5), 5)

    def test_budget_met_on_last_allowed_term(self):
        ctx = context(64)
        _, _, used = tail_bounded_sum(ctx, geometric(ctx, 0.5), 1000)
        assert tail_bounded_sum(ctx, geometric(ctx, 0.5), used)[2] == used
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, geometric(ctx, 0.5), used - 1)

    def test_pfq_budget_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(hyper, "_MAX_PFQ_TERMS", 5)
        with pytest.raises(NoConvergence):
            pfq_eval(PFQParams((1, F(1, 2)), (F(3, 2),), F(1, 2)))


class TestContext:
    def test_shared_per_precision(self):
        assert context(96) is context(96)
        assert context(96) is not context(128)
        assert context(96).prec == 128

    def test_low_precision_is_a_domain_error(self):
        with pytest.raises(DomainError):
            context(16)


class TestCertifiedDigits:
    def test_digits_follow_the_bound(self):
        value = mpmath.mpf("1.1794912545437e-30")
        text = str(BigFloat(value, 128, mpmath.mpf("1.7e-45")))
        assert text == mpmath.nstr(value, 14)

    def test_digit_cap_without_bound(self):
        assert str(BigFloat(mpmath.mpf(1) / 3, 128, mpmath.mpf(0))) == mpmath.nstr(mpmath.mpf(1) / 3, 38)

    def test_at_least_one_digit(self):
        assert str(BigFloat(mpmath.mpf("0.001"), 128, mpmath.mpf(1))) == "0.001"
        assert str(BigFloat(mpmath.mpf(0), 128, mpmath.mpf("1e-40"))) == "0.0"

    @pytest.mark.parametrize("bound", ["1.7e-45", "9.99999999999e-3", "1", "123456789.5", "2.5e-3000"])
    def test_bound_rounded_up(self, bound):
        ctx = context(10000)
        exact = ctx.mpf(bound)
        text = BigFloat(ctx.mpf(1), 10000, exact).bound_str()
        assert ctx.mpf(text) >= exact
        assert ctx.mpf(text) <= exact * (1 + ctx.mpf(10) ** -7)

    def test_zero_bound(self):
        assert BigFloat(mpmath.mpf(1), 128, mpmath.mpf(0)).bound_str() == "0.0"
