"""Balls, the summation kernel, the shared contexts and certified output."""

import itertools
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcbs import hyper
from hlcbs.exact import DomainError
from hlcbs.floats import BigFloat, BudgetExceeded, ball, context, rational, tail_bounded_sum
from hlcbs.hyper import NoConvergence, PFQParams, pfq_eval


def geometric(ctx, ratio):
    """(t_n, units_n, rho_n) of sum ratio^n, exact terms, with an exact cap."""
    for n in itertools.count():
        yield ctx.mpf(ratio) ** n, 0, ctx.mpf(ratio)


def exact(x) -> F:
    """An mpf as the Fraction it is (``man_exp`` drops the sign)."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * F(man) * F(2) ** exp


def contains(out: BigFloat, value: F) -> bool:
    return abs(exact(out.value) - value) <= exact(out.error_bound)


def to_mid(ctx, q):
    """q rounded once in ``ctx``, with no ball around it."""
    return ctx.mpf(q.numerator) / q.denominator


class TestTailBoundedSum:
    def test_finished_iterator_has_no_tail(self):
        ctx = context(64)
        # 1/3 and 2/3 rounded once each, so 1 unit; 1 exact
        terms = [(ctx.mpf(1) / 3, 1, None), (ctx.mpf(2) / 3, 1, None), (ctx.mpf(1), 0, None)]
        out, used = tail_bounded_sum(ctx, iter(terms), 10)
        assert used == 3
        assert 0 < out.error_bound < ctx.ldexp(1, -ctx.prec + 4)
        assert contains(out, F(2))

    def test_alternating_terms_contain_the_exact_sum(self):
        # 2F1(-60, 1; 1; 1/2) = (1/2)^60: terms up to 1.2e17 cancel to 8.7e-19
        out = pfq_eval(PFQParams((-60, 1), (1,), F(1, 2)), 32)
        assert contains(out, F(1, 2**60))
        assert out.error_bound > abs(out.value)

    def test_rounded_additions_are_in_the_bound(self):
        # exact terms, but 1 + 2^-100 rounds to 1 at 64 bits
        ctx = context(32)
        out, _ = tail_bounded_sum(ctx, iter([(ctx.mpf(1), 0, None), (ctx.ldexp(1, -100), 0, None)]), 10)
        assert out.value == 1 and contains(out, 1 + F(1, 2**100))

    def test_empty_iterator(self):
        ctx = context(64)
        out, used = tail_bounded_sum(ctx, iter([]), 10)
        assert (out.value, out.error_bound, used) == (0, 0, 0)

    def test_geometric_series_contained(self):
        ctx = context(128)
        out, used = tail_bounded_sum(ctx, geometric(ctx, 0.5), 1000)
        assert contains(out, F(2))
        assert out.error_bound <= ctx.ldexp(1, -130)
        assert 130 < used < 145

    def test_no_cap_never_stops_early(self):
        ctx = context(64)
        terms = ((ctx.ldexp(1, -n), 0, None) for n in range(50))
        out, used = tail_bounded_sum(ctx, terms, 100)
        assert used == 50
        assert out.value == 2 - ctx.ldexp(1, -49)

    def test_budget_raises(self):
        ctx = context(64)
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, geometric(ctx, 0.5), 5)

    def test_budget_met_on_last_allowed_term(self):
        ctx = context(64)
        _, used = tail_bounded_sum(ctx, geometric(ctx, 0.5), 1000)
        assert tail_bounded_sum(ctx, geometric(ctx, 0.5), used)[1] == used
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


PRECISIONS = st.sampled_from([32, 64, 128, 512])
FRACTIONS = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
NONZERO = FRACTIONS.filter(bool)
BALLS = settings(max_examples=60, derandomize=True, deadline=None, database=None)


class TestBallRule:
    """Every ball operation contains the exact result, checked in Fractions."""

    @BALLS
    @given(x=FRACTIONS, y=NONZERO, precision=PRECISIONS, op=st.sampled_from(["+", "-", "*", "/"]))
    def test_each_operation(self, x, y, precision, op):
        ctx = context(precision)
        bx, by = rational(ctx, x), rational(ctx, y)
        apply = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v, "/": lambda u, v: u / v}[op]
        exact_result = apply(x, y)
        assert contains(apply(bx, by), exact_result)
        assert contains(apply(bx, y), exact_result)  # a Fraction operand, rounded once
        assert contains(apply(x, by), exact_result)
        assert contains(apply(bx, rational(context(precision + 16), y)), exact_result)  # mixed precisions

    @BALLS
    @given(x=NONZERO, y=NONZERO, precision=PRECISIONS)
    def test_operations_on_wide_balls(self, x, y, precision):
        # midpoints 1/1000 off the exact values, radii just wide enough: the
        # operands' radii must propagate in full, whichever side each is off
        ctx = context(precision)

        def off(q, side):
            return BigFloat(to_mid(ctx, q * (1 + F(side, 1000))), precision, to_mid(ctx, abs(q) * F(10001, 10**7)))

        for bx, by in ((off(x, sx), off(y, sy)) for sx in (1, -1) for sy in (1, -1)):
            for got, want in ((bx + by, x + y), (bx - by, x - y), (bx * by, x * y), (bx / by, x / y), (-bx, -x)):
                assert contains(got, want)
        root = off(abs(x), 1).sqrt()
        assert max(exact(root.value) - exact(root.error_bound), 0) ** 2 <= abs(x) <= (exact(root.value) + exact(root.error_bound)) ** 2

    @BALLS
    @given(start=NONZERO, ratios=st.lists(NONZERO, min_size=50, max_size=50), precision=PRECISIONS)
    def test_chain_of_products(self, start, ratios, precision):
        # like the oracle's lead: one running product, each ratio rounded once
        lead, exact_lead = rational(context(precision), start), start
        for r in ratios:
            lead, exact_lead = lead * r, exact_lead * r
        assert contains(lead, exact_lead)

    @BALLS
    @given(q=FRACTIONS.filter(lambda q: q > 0), precision=PRECISIONS)
    def test_sqrt(self, q, precision):
        root = rational(context(precision), q).sqrt()
        lo, hi = exact(root.value) - exact(root.error_bound), exact(root.value) + exact(root.error_bound)
        assert max(lo, 0) ** 2 <= q <= hi**2

    def test_trust_rule_is_one_ulp(self):
        ctx = context(64)
        out = ball(ctx, ctx.mpf(3))
        assert out.error_bound == 2 * ctx.ldexp(3, -ctx.prec)

    def test_division_by_a_ball_around_zero(self):
        ctx = context(64)
        with pytest.raises(ZeroDivisionError):
            rational(ctx, 1) / BigFloat(ctx.mpf(1), 64, ctx.mpf(2))
