"""Balls, the summation kernel, the shared contexts and certified output."""

import itertools
import math
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_rational, mpf_abs, mpf_add, mpf_mul, mpf_neg, mpf_shift

from hlcbs import floats, hyper, series
from hlcbs.exact import DomainError
from hlcbs.floats import GUARD_BITS, BigFloat, BudgetExceeded, _Run, context, rational, rational_root, tail_bounded_sum
from hlcbs.hyper import NoConvergence, PFQParams, pfq_eval

from conftest import is_pair


def pair(x, scale=1):
    """A rational x = p/q in lowest terms, an int or a Fraction, as the int
    pair (scale p, scale q) the kernel takes."""
    x = F(x)
    return scale * x.numerator, scale * x.denominator


def ratios(factors, ratio=0, cap=lambda n: None, scale=1, cap_scale=1):
    """A :class:`~hlcbs.floats.Ratios` run of the rationals ``factors``,
    f_1, f_2, ..., then ``ratio`` forever (0 ends a finite series), each as
    :func:`pair` with ``scale``; cap_n is the rational ``cap(n)`` as a pair
    with ``cap_scale``, or None."""

    def leaves(n0, n1):
        return [pair(factors[n - 1] if n <= len(factors) else ratio, scale) for n in range(n0, n1)]

    def caps(n):
        c = cap(n)
        return None if c is None else pair(c, cap_scale)

    return floats.Ratios(leaves, caps)


def geometric(ratio):
    """(head, run) of sum ratio^n: t_0 = 1, every later factor the ratio, an exact cap."""
    return pair(1), ratios([], ratio, lambda n: abs(ratio))


def exact(x) -> F:
    """An mpf as the Fraction it is (``man_exp`` drops the sign)."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * F(man) * F(2) ** exp


def fold_one(run, factor):
    """``run`` after one factor folded as the kernel folds it: a ball as its
    midpoint and units, a rational p/q as a block of one."""
    if isinstance(factor, BigFloat):
        value = factor.value._mpf_
        return run.fold(value, 1, value, factor.units(), 1)
    top = from_int(factor.numerator)
    return run.fold(top, factor.denominator, top, 0, 1)


def contains(out: BigFloat, value: F) -> bool:
    return abs(exact(out.value) - value) <= exact(out.error_bound)


def holds_root(root: BigFloat, num: int, den: int, v: int) -> bool:
    """(mid - rad)^v den <= num <= (mid + rad)^v den, decided in integers,
    with mid - rad >= 0."""
    lo, hi = exact(root.value) - exact(root.error_bound), exact(root.value) + exact(root.error_bound)
    return lo >= 0 and lo.numerator**v * den <= num * lo.denominator**v and num * hi.denominator**v <= hi.numerator**v * den


def to_mid(ctx, q):
    """q rounded once in ``ctx``, with no ball around it."""
    return ctx.mpf(q.numerator) / q.denominator


class TestTailBoundedSum:
    def test_zero_factor_leaves_no_tail(self):
        ctx = context(64)
        # terms 1/3, 2/3 and 1, then a zero factor: each rounded factor and
        # each rounded product adds a unit, and the tail is 0
        out, used = tail_bounded_sum(ctx, pair(F(1, 3)), ratios([2, F(3, 2)]), 10)
        assert used == 3
        assert 0 < out.error_bound < ctx.ldexp(1, -ctx.prec + 4)
        assert contains(out, F(2))

    def test_alternating_terms_contain_the_exact_sum(self):
        # 2F1(-60, 1; 1; 1/2) = (1/2)^60: terms up to 1.2e17 cancel to 8.7e-19
        out = pfq_eval(PFQParams((-60, 1), (1,), F(1, 2)), 32)
        assert contains(out, F(1, 2**60))
        assert out.error_bound > abs(out.value)

    def test_rounded_additions_are_in_the_bound(self):
        # exact terms 1 and 2^100, but their sum needs 101 bits, more than 64
        ctx = context(32)
        out, _ = tail_bounded_sum(ctx, pair(1), ratios([2**100]), 10)
        assert out.value == 2**100 and out.error_bound > 0
        assert contains(out, 2**100 + 1)

    def test_all_int_series_is_exact(self):
        # terms 1, 2, 6, 24: every product and partial sum fits, so the bound stays 0
        out, used = tail_bounded_sum(context(64), pair(1), ratios([2, 3, 4]), 10)
        assert (out.value, out.error_bound, used) == (33, 0, 4)

    def test_zero_term_ends_the_series(self):
        # an upper parameter reaching 0: no factor past the zero is summed
        out, used = tail_bounded_sum(context(64), pair(5), ratios([F(2, 3), 0, 7], 3), 10)
        assert used == 2 and contains(out, F(5) + F(10, 3))

    def test_zero_head_is_an_empty_sum(self):
        ctx = context(64)
        for head in (pair(0), rational(ctx, 0)):
            out, used = tail_bounded_sum(ctx, head, ratios([], F(1, 2)), 10)
            assert (out.value, out.error_bound, used) == (0, 0, 0)

    def test_geometric_series_contained(self):
        ctx = context(128)
        out, used = tail_bounded_sum(ctx, *geometric(F(1, 2)), 1000)
        assert contains(out, F(2))
        assert out.error_bound <= ctx.ldexp(1, -130)
        assert 130 < used < 145

    def test_ball_factor_at_the_edge_of_its_radius(self):
        # the true head 1/3 sits on the edge of its ball, 2^-70 relative off
        # its midpoint: far beyond the kernel's own roundings at 96 bits, so
        # only the ball's units keep the exact sum (1/3)/(1 - 1/3) = 1/2 inside
        precision = 64
        ctx = context(precision)
        mid = to_mid(ctx, F(1, 3) * (1 + F(1, 2**70)))
        edge = BigFloat(mid, precision, to_mid(ctx, (exact(mid) - F(1, 3)) * (1 + F(1, 2**40))))
        assert exact(edge.value) - exact(edge.error_bound) <= F(1, 3)
        out, _ = tail_bounded_sum(ctx, edge, ratios([], F(1, 3), lambda n: F(1, 2)), 1000)
        assert contains(out, F(1, 2))

    def test_no_cap_never_stops_early(self):
        ctx = context(64)
        out, used = tail_bounded_sum(ctx, pair(1), ratios([F(1, 2)] * 49), 100)
        assert used == 50
        assert out.value == 2 - ctx.ldexp(1, -49)

    def test_budget_raises(self):
        ctx = context(64)
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, *geometric(F(1, 2)), 5)

    def test_budget_met_on_last_allowed_term(self):
        ctx = context(64)
        _, used = tail_bounded_sum(ctx, *geometric(F(1, 2)), 1000)
        assert tail_bounded_sum(ctx, *geometric(F(1, 2)), used)[1] == used
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, *geometric(F(1, 2)), used - 1)

    def test_fold_counts_each_rounding(self):
        ctx = context(64)
        ball = rational(ctx, F(1, 3))
        run, terms, counts = _Run(ctx), [], []
        for factor in (3, F(1, 3), F(5), ball):
            run = fold_one(run, factor)
            terms.append(ctx.make_mpf(run.term))
            counts.append(run.rel)
        # E 2^prec, exactly: 3 is exact; 3 / 3 is a division that counts as
        # rounded, though it lands on 1; 1 (5/1) is exact; the ball adds its
        # units, rounded up to an int, and its product rounds
        assert terms[:3] == [3, 1, 5]
        assert counts == [0, 1, 1, 1 + math.ceil(ball.units()) + 1]

    def test_loose_cap_near_one_stops(self):
        # rho/(1-rho) = 2^26 - 1 from the cap itself: the tail bound meets the
        # target once 1024^-n falls below 2^-98, with no slack pushing rho to 1
        ctx = context(64)
        cap = 1 - F(1, 2**26)
        out, used = tail_bounded_sum(ctx, pair(1), ratios([], F(1, 1024), lambda n: cap), 1000)
        assert used <= 20
        assert contains(out, F(1024, 1023))

    def test_rounding_counts_round_up(self):
        # 60 balls around 5, each of a fractional unit count: every fold adds
        # its count rounded up to an int, and one more once 5^n outgrows the
        # working precision and its product rounds
        ctx = context(64)
        for share in (F(1, 3), F(5, 11), F(7, 3)):
            factor = BigFloat(ctx.mpf(5), 64, 5 * ctx.ldexp(to_mid(ctx, share), -ctx.prec))
            run, want = _Run(ctx), 0
            for _ in range(60):
                want += math.ceil(factor.units()) + (mpf_mul(run.term, factor.value._mpf_)[3] > ctx.prec)
                run = fold_one(run, factor)
            assert run.rel == want >= 60 * math.ceil(factor.units())
            assert want > 60 * math.ceil(factor.units())  # some of the folds rounded

    def test_long_sum_radius_is_first_order(self):
        # 500 terms (1/3) 2^-n: 500 factors counted as rounded and 499 rounded
        # additions, so c = 999 2^-prec and the radius is c/(1-c) sum|t| up to
        # a few 30-bit roundings; a sum|t| rounded up at 30 bits would gain an
        # ulp, 2^-29 of it, at every term
        ctx = context(64)
        out, used = tail_bounded_sum(ctx, pair(F(1, 3)), ratios([F(1, 2)] * 499), 1000)
        assert used == 500 and contains(out, F(2, 3) * (1 - F(1, 2**500)))
        assert exact(out.error_bound) <= 999 * F(1, 2**ctx.prec) * F(2, 3) * (1 + F(1, 2**24))

    def test_radii_swamping_the_sum_raise(self):
        ctx = context(64)
        with pytest.raises(NoConvergence):
            tail_bounded_sum(ctx, BigFloat(ctx.mpf(1), 64, ctx.mpf(2)), ratios([]), 10)

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

    def test_certified_digit_counts(self):
        # the CLI refuses a value whose count is below 1: |value| < 10 bound
        one = mpmath.mpf(1)
        counts = [BigFloat(one, 128, mpmath.mpf(b)).certified_digits() for b in ("1e-14", "0.09", "0.11", "1", "0")]
        assert counts == [14, 1, 0, 0, 38]
        assert BigFloat(mpmath.mpf(0), 128, mpmath.mpf("1e-40")).certified_digits() == 0
        # 2^-60 short of 10 bounds: a 53-bit log10 of the ratio reads 1.0
        ctx = context(128)
        assert BigFloat(ctx.mpf(1), 128, ctx.mpf(1) / 10 * (1 + ctx.ldexp(1, -60))).certified_digits() == 0

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


class TestRootFolds:
    """Every fold adds eps = (ceil(units) + [it rounded]) 2^-prec to E, and
    the radius is
    tail + g (sum|summand| + tail) + (1 + g)(W + E tail)/(1 - E), with
    W = sum |summand| E at each summand, g = c/(1-c) and c = adds 2^-prec."""

    @BALLS
    @given(
        precision=st.sampled_from([32, 64, 128]),
        adds=st.integers(0, 10**4),
        rel=st.floats(0, 0.45),
        moduli=st.lists(st.fractions(F(1, 2**40), 2**40, max_denominator=2**40), min_size=2, max_size=2),
        tail=st.fractions(0, 1, max_denominator=2**20),
    )
    def test_radius_is_the_stated_bound(self, precision, adds, rel, moduli, tail):
        # E is a fraction of 2^prec, so g, the share and their cross term all count
        ctx = context(precision)
        abs_sum, weighted = moduli
        e = int(F(rel) * 2**ctx.prec)
        raw = [from_rational(x.numerator, x.denominator, 30, "u") for x in (abs_sum, weighted, tail)]
        run = _Run(ctx, rel=e, adds=adds, exact=False, total=raw[0], abs_sum=raw[0], weighted=raw[1])
        out = run.ball(raw[2])
        abs_sum, weighted, tail = (exact(ctx.make_mpf(x)) for x in raw)
        c = F(adds, 2**ctx.prec)
        g, share = c / (1 - c), (weighted + F(e, 2**ctx.prec) * tail) / (1 - F(e, 2**ctx.prec))
        bound = tail + g * (abs_sum + tail) + (1 + g) * share
        assert bound <= exact(out.error_bound) <= bound * (1 + F(1, 2**20))


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

    @BALLS
    @given(start=NONZERO, ratios=st.lists(NONZERO, min_size=50, max_size=50), precision=PRECISIONS)
    def test_chain_of_products(self, start, ratios, precision):
        # a running product of balls, each ratio rounded once
        lead, exact_lead = rational(context(precision), start), start
        for r in ratios:
            lead, exact_lead = lead * r, exact_lead * r
        assert contains(lead, exact_lead)

    @BALLS
    @given(q=FRACTIONS.filter(lambda q: q > 0), precision=PRECISIONS)
    def test_sqrt(self, q, precision):
        # every square root is rational_root's v = 2 case
        root = rational_root(context(precision), q.numerator, q.denominator, 2)
        lo, hi = exact(root.value) - exact(root.error_bound), exact(root.value) + exact(root.error_bound)
        assert max(lo, 0) ** 2 <= q <= hi**2

    @BALLS
    @given(num=st.integers(1, 2**700), den=st.integers(1, 2**700), precision=st.sampled_from([32, 64, 128, 2048]))
    @example(num=9, den=4, precision=64)
    @example(num=1, den=2**700 - 1, precision=128)
    @example(num=2**700 - 1, den=3, precision=32)
    def test_rational_sqrt(self, num, den, precision):
        # the root is proved, not trusted: the ball holds sqrt(num/den),
        # decided in integers, within the 1 unit that rational_root's
        # docstring proves at v = 2; the root of a perfect square sits on
        # the ball's lower edge
        ctx = context(precision)
        root = rational_root(ctx, num, den, 2)
        mid, radius = exact(root.value), exact(root.error_bound)
        assert holds_root(root, num, den, 2)
        assert radius <= 2 * F(2) ** -precision * mid
        assert radius <= F(2) ** -ctx.prec * mid

    @BALLS
    @given(
        num=st.integers(1, 2**700),
        den=st.integers(1, 2**700),
        v=st.sampled_from([3, 7, 50, 1000]),
        precision=st.sampled_from([32, 64, 128, 2048]),
    )
    @example(num=9, den=4, v=3, precision=64)
    @example(num=1, den=2**700 - 1, v=3, precision=128)
    @example(num=2**700 - 1, den=3, v=3, precision=32)
    @example(num=3**50, den=1, v=50, precision=32)  # r 2^k an integer whose v-th power has more bits than the roundings
    @example(num=7**50, den=1, v=50, precision=64)
    @example(num=5**21, den=2**63, v=3, precision=32)  # r = 5^7/2^21
    def test_rational_root(self, num, den, v, precision):
        # the root is proved, not trusted: the ball holds (num/den)^(1/v),
        # decided in integers, within the 1 unit that rational_root's
        # docstring proves at every v from the integer root's bracket
        ctx = context(precision)
        root = rational_root(ctx, num, den, v)
        assert holds_root(root, num, den, v)
        assert exact(root.error_bound) <= F(2) ** -ctx.prec * exact(root.value)

    @pytest.mark.parametrize("v", [3, 7, 50, 1000])
    @pytest.mark.parametrize("precision", [32, 128, 512])
    @pytest.mark.parametrize("side", [1, -1])
    def test_rational_root_survives_a_moved_candidate(self, monkeypatch, v, precision, side):
        # libmp's root moved by 2^-(P/2) relative: the bracket refuses it
        # and its ends move out and halve back to the floor root, so the
        # ball is the unmoved candidate's, bit for bit
        candidate = floats.mpf_nthroot
        cases = ((3001, 3004), (2**700 - 1, 3), (1, 2**700 - 1))
        want = [rational_root(context(precision), num, den, v) for num, den in cases]

        def moved(*args):
            c = candidate(*args)
            return mpf_add(c, mpf_shift(c if side > 0 else mpf_neg(c), -(precision // 2)))

        monkeypatch.setattr(floats, "mpf_nthroot", moved)
        for (num, den), unmoved in zip(cases, want):
            root = rational_root(context(precision), num, den, v)
            assert holds_root(root, num, den, v)
            assert (root.value, root.error_bound) == (unmoved.value, unmoved.error_bound)

    def test_dyadic_rationals_are_exact(self):
        # 3/1024 and 5 (1/2) are exact in binary: no rounding unit in either ball
        ctx = context(64)
        assert rational(ctx, F(3, 1024)).error_bound == 0
        half = rational(ctx, 5) * F(1, 2)
        assert (half.value, half.error_bound) == (F(5, 2), 0)

    def test_exact_sums_and_dyadic_quotients_are_exact(self):
        # an exact sum that fits, and a quotient by +-2^e, add no rounding unit
        ctx = context(64)
        cases = [(rational(ctx, 1) + F(1, 2), F(3, 2)), (rational(ctx, 3) / 2, F(3, 2)), (rational(ctx, 1) - F(1, 4), F(3, 4)), (rational(ctx, 3) / -4, F(-3, 4))]
        for out, want in cases:
            assert (exact(out.value), out.error_bound) == (want, 0)
        # a rounded operand, and an exact sum wider than the precision, keep a radius
        assert (rational(ctx, F(1, 3)) + F(1, 3)).error_bound > 0
        wide = rational(ctx, 2**100) + 1
        assert wide.error_bound > 0 and contains(wide, F(2**100 + 1))

    def test_division_by_a_ball_around_zero(self):
        ctx = context(64)
        with pytest.raises(ZeroDivisionError):
            rational(ctx, 1) / BigFloat(ctx.mpf(1), 64, ctx.mpf(2))


def stream(ctx, head, ratio, ball=False, scale=1, cap_scale=1):
    """(t_0, run) of the series whose factors are the rationals ``head``,
    then ``ratio`` forever: t_0 the first of them (``ratio`` if there is
    none), :func:`rational`'s ball when ``ball`` and else a :func:`pair`
    with ``scale``, and the rest a :func:`ratios` run whose cap_n is the
    largest |f_m| after n, so every cap holds."""
    first, *rest = head or [ratio]
    t0 = rational(ctx, first) if ball else pair(first, scale)
    return t0, ratios(rest, ratio, lambda n: max(map(abs, [ratio, *rest[n:]])), scale, cap_scale)


def exact_sum(head, ratio) -> F:
    """The series' sum in Fractions: the head's terms up to a zero factor,
    or all of them plus the geometric tail t_{L-1} r/(1-r)."""
    total, term = F(0), F(1)
    for value in head:
        if not value:
            return total
        term *= value
        total += term
    return total + term * ratio / (1 - ratio)


def per_term_used(ctx, head, run) -> int:
    """The terms a per-term loop uses: t_0 = head and t_n = f_n t_{n-1} by
    the ball rule, the run read one leaf at a time, summed at the working
    precision, up to the first t_n whose tail bound |t_n| rho/(1-rho),
    rounded up at 30 bits as the kernel's, is at most 2^-stop max(|sum|, 1),
    or every term before a zero term."""
    stop, total, term = ctx.prec - GUARD_BITS + 8, ctx.mpf(0), rational(ctx, 1)
    for n in itertools.count():
        factor = run.leaves(n, n + 1)[0] if n else head
        term = (factor if isinstance(factor, BigFloat) else F(*factor)) * term
        if not term.value:
            return n
        total += term.value
        cap = run.cap(n) if n else None
        cap = cap and F(*cap)
        if cap is not None and cap < 1:
            odds = from_rational(cap.numerator, cap.denominator - cap.numerator, 30, "u")
            bound = ctx.make_mpf(mpf_mul(mpf_abs(term.value._mpf_), odds, 30, "u"))
            if exact(bound) * 2**stop <= max(abs(exact(total)), 1):
                return n + 1


# exact ints of both signs, and large Fractions
HEAD = st.lists(st.integers(-9, 9).filter(bool) | st.fractions(-4, 4, max_denominator=2**100).filter(bool), max_size=40)


class TestSplitKernel:
    """Runs of rational factors are summed by binary splitting: every
    series' ball holds its exact sum in Fractions.  The tail test runs on
    each block's last term, so a sum stops at the first block end that
    passes it: never before a per-term loop would, and past it when a block
    runs on beyond the first passing term."""

    @BALLS
    @given(
        head=HEAD,
        ratio=st.fractions(F(-1, 2), F(1, 2), max_denominator=1000),
        zero=st.none() | st.integers(0, 40),
        ball=st.booleans(),
        precision=st.sampled_from([32, 64, 128, 2048]),
    )
    # the sum grows by less than the whole tail that a block end's
    # prediction allows for, so the predicted end falls a term short
    @example(head=[1], ratio=F(1, 2), zero=None, ball=False, precision=32)
    @example(head=[3, F(9)], ratio=F(-1, 16), zero=None, ball=True, precision=32)
    # one block, ended by the zero factor: its rounding is the only one
    @example(head=[F(1, 3), F(-1, 5)], ratio=F(1, 2), zero=2, ball=False, precision=64)
    # power-of-two ratios: the tail test meets a tie where the per-term loop stops
    @example(head=[1], ratio=F(1, 16), zero=None, ball=False, precision=64)
    @example(head=[3], ratio=F(1, 256), zero=None, ball=False, precision=128)
    @example(head=[F(-7, 5)], ratio=F(1, 1024), zero=None, ball=False, precision=32)
    def test_streams_contain_their_exact_sum(self, head, ratio, zero, ball, precision):
        if zero is not None and zero <= len(head):
            head = head[:zero] + [0] + head[zero:]
        ctx = context(precision)
        out, used = tail_bounded_sum(ctx, *stream(ctx, head, ratio, ball), 10**6)
        assert contains(out, exact_sum(head, ratio))
        assert used >= per_term_used(ctx, *stream(ctx, head, ratio, ball))
        if zero is not None and zero <= len(head):
            assert used <= zero  # no term from the zero factor on is summed

    @BALLS
    @given(
        head=HEAD,
        ratio=st.fractions(F(-1, 2), F(1, 2), max_denominator=1000),
        ball=st.booleans(),
        precision=st.sampled_from([32, 64, 128, 2048]),
        scale=st.integers(1, 2**70),
        sign=st.sampled_from([1, -1]),
        cap_scale=st.integers(1, 2**70),
        max_terms=st.sampled_from([1, 5, 40, 10**6]),
    )
    @example(head=[F(-1, 3), F(2, 5)], ratio=F(1, 4), ball=False, precision=32, scale=6, sign=-1, cap_scale=10, max_terms=10**6)
    # (-1, -4): a block's Q is a power of two only once its sign is moved
    @example(head=[], ratio=F(1, 4), ball=False, precision=64, scale=1, sign=-1, cap_scale=1, max_terms=10**6)
    def test_scaled_pairs_sum_bit_for_bit(self, head, ratio, ball, precision, scale, sign, cap_scale, max_terms):
        # the kernel brings each factor to lowest terms with q > 0 as a
        # Fraction keeps it, and each cap where it reads it, so (k p, k q),
        # (-p, -q) and scaled caps give the same ball, terms and errors
        ctx = context(precision)

        def summed(scale, cap_scale):
            try:
                out, used = tail_bounded_sum(ctx, *stream(ctx, head, ratio, ball, scale, cap_scale), max_terms)
            except BudgetExceeded:
                return "BudgetExceeded"
            return out.value._mpf_, out.error_bound._mpf_, used

        assert summed(sign * scale, cap_scale) == summed(1, 1)

    @given(leaves=st.lists(st.tuples(st.integers(-2**80, 2**80), st.integers(1, 2**80)), min_size=1, max_size=40))
    # a block of _FOLD leaves is folded, one more is split
    @example(leaves=[(l, l + 1) for l in range(1, floats._FOLD + 1)])
    @example(leaves=[(-l, 2 * l + 1) for l in range(1, floats._FOLD + 2)])
    def test_split_gives_the_block_integers(self, leaves):
        # P and Q are the products of the p_l and q_l, and T/Q the sum of the
        # partial products, whatever the order of the merges
        p, q, t = floats._split(leaves, 0, len(leaves))
        partials = list(itertools.accumulate((F(p_l, q_l) for p_l, q_l in leaves), lambda x, y: x * y))
        assert (p, q) == (math.prod(p_l for p_l, _ in leaves), math.prod(q_l for _, q_l in leaves))
        assert F(t, q) == sum(partials)

    @pytest.mark.parametrize("precision", [32, 64, 128])
    @pytest.mark.parametrize("head", [1, 3, F(1, 3)])
    @pytest.mark.parametrize("ratio", [F(1, 3), F(1, 7)] + [F(1, 2**k) for k in range(4, 11)])
    def test_budget_counts_terms(self, ratio, head, precision):
        # blocks are cut at the budget, so it is met exactly when the per-term
        # stop p is within it, even where the unbudgeted sum stops past p
        ctx = context(precision)

        parts = pair(head), ratios([], ratio, lambda n: ratio)
        p = per_term_used(ctx, *parts)
        assert tail_bounded_sum(ctx, *parts, p)[1] == p
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(ctx, *parts, p - 1)

    @pytest.mark.parametrize("z", [F(9, 10), F(81, 100)])
    def test_long_sum_contains_mpmath(self, z):
        # 13,402 terms in 188 blocks at z = 9/10, and 6,703 in 97 at
        # z^2 = 81/100: the ball must hold mpmath's value at +64 bits
        ref = mpmath.mp.clone()
        ref.prec = 2048 + 64
        expected = ref.hyper([ref.mpf(1) / 2, ref.mpf(3) / 4], [ref.mpf(7) / 4], ref.mpf(z.numerator) / z.denominator)
        out = pfq_eval(PFQParams((F(1, 2), F(3, 4)), (F(7, 4),), z), 2048)
        assert contains(out, exact(expected))
        assert 0 < out.error_bound < abs(out.value) * ref.ldexp(1, -2048)


def _upper():
    """A pFq upper parameter: a negative integer (the sum terminates) or a
    fraction of either sign."""
    return st.integers(-12, -1).map(F) | st.fractions(F(-9, 2), F(9, 2), max_denominator=7)


def _lower():
    """A pFq lower parameter: never a nonpositive integer, and at times a
    negative fraction, so n_safe > 1."""
    return st.fractions(F(-9, 2), F(9, 2), max_denominator=7).filter(lambda l: l.denominator > 1 or l > 0)


@st.composite
def run_streams(draw):
    """(ctx, make, max_terms): ``make()`` is a fresh (head, run) of a pFq
    series or of the oracle at integer s, whose run is a
    :class:`~hlcbs.floats.Ratios`, at a precision of 32-4096 bits."""
    ctx = context(draw(st.sampled_from([32, 53, 128, 300, 1024, 4096])))
    if draw(st.booleans()):
        lower = draw(st.lists(_lower(), min_size=1, max_size=2))
        upper = draw(st.lists(_upper(), min_size=len(lower) + 1, max_size=len(lower) + 1))
        params = PFQParams(tuple(upper), tuple(lower), draw(st.fractions(F(-3, 4), F(3, 4), max_denominator=9)))
        return ctx, lambda: hyper._pfq_factors(params), hyper._MAX_PFQ_TERMS
    s = draw(st.integers(-4, 3))
    a = draw(st.fractions(F(-9, 2), F(9, 2), max_denominator=6).filter(lambda a: (2 * a).denominator > 1 or a > 0))
    query = series.SeriesQuery(s, a, draw(st.fractions(F(1, 10), F(3, 4), max_denominator=10)), ctx.prec - GUARD_BITS)
    return ctx, lambda: series._phi_factors(ctx, query.s, query.a, query.z), query.max_terms


def counted(parts, tally):
    """(head, run) with the run's calls counted in ``tally``: the caps read,
    and the leaves made."""
    head, run = parts

    def leaves(n0, n1):
        tally["leaves"] += n1 - n0
        return run.leaves(n0, n1)

    def cap(n):
        tally["caps"] += 1
        return run.cap(n)

    return head, floats.Ratios(leaves, cap)


def one_leaf_a_call(run):
    """``run`` handing out one leaf per call, however many are asked for:
    the kernel asks again from where the list ends."""
    return run._replace(leaves=lambda n0, n1: run.leaves(n0, n0 + 1))


class TestRunItems:
    """A :class:`~hlcbs.floats.Ratios` run sums bit for bit whatever chunks
    its leaves come in: its block cuts and stops do not depend on them."""

    @BALLS
    @given(case=run_streams())
    # terminating, with a negative lower parameter: n_safe = 5
    @example(case=(context(128), lambda: hyper._pfq_factors(PFQParams((F(-5, 2), F(-7)), (F(-7, 2),), F(-1, 3))), hyper._MAX_PFQ_TERMS))
    # negative a and s at 4096 bits: thousands of leaves in chunks
    @example(case=(context(4096), lambda: series._phi_factors(context(4096), F(-3), F(-5, 4), F(3, 4)), series.DEFAULT_MAX_TERMS))
    def test_a_run_sums_alike_in_any_chunks(self, case):
        ctx, make, max_terms = case

        def summed(head, run, max_terms):
            try:
                out, used = tail_bounded_sum(ctx, head, run, max_terms)
            except BudgetExceeded:
                return "BudgetExceeded"
            return out.value._mpf_, out.error_bound._mpf_, used

        head, run = make()
        assert is_pair(head) or isinstance(head, BigFloat)
        assert isinstance(run, floats.Ratios)
        whole = summed(head, run, max_terms)
        assert whole != "BudgetExceeded" and whole == summed(head, one_leaf_a_call(run), max_terms)
        assert summed(head, run, whole[2] - 1) == summed(head, one_leaf_a_call(run), whole[2] - 1)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=run_streams())
    def test_caps_only_where_blocks_end(self, case):
        # one cap per block, and no leaf made twice or more than one chunk
        # past the last term read
        ctx, make, max_terms = case
        tally, fold = {"caps": 0, "leaves": 0, "blocks": 0}, floats._block

        def block(*args):
            tally["blocks"] += 1
            return fold(*args)

        with mock.patch.object(floats, "_block", block):
            _, used = tail_bounded_sum(ctx, *counted(make(), tally), max_terms)
        assert tally["caps"] <= tally["blocks"] + 1
        assert tally["leaves"] - used <= floats._CHUNK

    @pytest.mark.parametrize(
        "precision,make",
        [
            (128, lambda: series._phi_factors(context(128), F(2), F(3, 2), F(9, 10))),
            (128, lambda: series._phi_factors(context(128), F(-3), F(-5, 4), F(1, 2))),
            (512, lambda: hyper._pfq_factors(PFQParams((F(1, 2), F(3, 4)), (F(7, 4),), F(-1, 2)))),
        ],
    )
    def test_chunks_end_at_the_predicted_stop(self, precision, make):
        # these sums stop in a block whose end was predicted, and no chunk
        # runs past a prediction, so no leaf is made past the last term read
        tally = {"caps": 0, "leaves": 0}
        _, used = tail_bounded_sum(context(precision), *counted(make(), tally), 10**4)
        assert 0 < tally["leaves"] <= used


class TestIntegerRoot:
    """floats._root_floor is the one integer v-th root, of rational_root and
    of the kernel's root runs: floor(r 2^k), r = (num/den)^(1/v), proved by
    y^v den <= num 2^(vk) < (y+1)^v den."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(bits=st.integers(0, 16000), low=st.integers(0, 2**64), v=st.integers(2, 7), move=st.sampled_from([0, 1, -1, 2, -2]))
    @example(bits=16000, low=0, v=5, move=2)  # Q = 2^16000, a perfect power
    @example(bits=554, low=3**350 - 2**554 + 1, v=7, move=-1)  # Q = 3^350, a perfect power past the roundings' bits
    @example(bits=6000, low=2**64, v=3, move=-2)
    @example(bits=0, low=0, v=5, move=-1)  # Q = 0
    def test_bracket_holds_for_a_moved_candidate(self, bits, low, v, move):
        # libmp's candidate for floor(Q^(1/v)), k = 0, moved by whole units: the floor root all the same
        big = (1 << bits) + low - (1 if low and bits else 0)
        candidate = floats.mpf_nthroot
        with mock.patch.object(floats, "mpf_nthroot", lambda *args: mpf_add(candidate(*args), from_int(move))):
            y = floats._root_floor(big, 1, v, 0)
        assert y >= 0 and y**v <= big < (y + 1) ** v

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(num=st.integers(0, 2**200), den=st.integers(1, 2**200), v=st.integers(2, 40), k=st.integers(-60, 300))
    @example(num=1, den=2**90, v=9, k=40)  # r 2^k = 2^30 exactly, a bracket end
    @example(num=3**36, den=1, v=12, k=0)  # r = 9
    @example(num=3**50, den=1, v=50, k=62)  # r 2^k = 3 2^62, y^v past the roundings' bits
    def test_root_floor_is_bracketed(self, num, den, v, k):
        # y <= r 2^k < y + 1 at every v, decided in integers
        y = floats._root_floor(num, den, v, k)
        scale = 1 << v * abs(k)
        lhs, rhs = (num * scale, den) if k >= 0 else (num, den * scale)
        assert y >= 0 and y**v * rhs <= lhs < (y + 1) ** v * rhs


class TestRootSteps:
    """One term of a root run in fixed point: from t within err units of the
    true term x, the next term lies within its units of x (p/q) r,
    r = (num/den)^(1/v) in (0, 1), decided in integers."""

    @staticmethod
    def holds(t, err, delta, p, q, num, den, v):
        x = t + delta  # the true term, within err of t
        t1, err1 = floats._root_step(t, err, p, q, num, den, v)
        c, lo, hi = x * F(p, q), t1 - err1, t1 + err1
        return (lo <= 0 or F(lo) ** v * den <= c**v * num) and hi >= 0 and c**v * num <= F(hi) ** v * den

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(
        t=st.integers(0, 2**700),
        err=st.integers(0, 60),
        side=st.fractions(-1, 1, max_denominator=8),
        p=st.integers(1, 2**80),
        q=st.integers(1, 2**80),
        root=st.tuples(st.integers(1, 2**90), st.integers(1, 2**90)).map(sorted).filter(lambda nd: nd[0] < nd[1]),
        v=st.integers(2, 12),
    )
    # the least K: a term of full length, p/q just under 2^(bitlen p - bitlen q + 1),
    # and a root just under a power of two, so that the root's share nears
    # its one unit and the floor its other
    @example(t=2**300 - 1, err=0, side=F(0), p=2**64 - 1, q=2**63, root=(2**2000 - 1, 2**2000), v=2)
    @example(t=2**40 - 1, err=0, side=F(0), p=2**64 - 1, q=2**63, root=(2**2000 - 1, 2**2000), v=3)
    # the units carried over: the true term err units above t, p/q and r near 1
    @example(t=2**100, err=50, side=F(1), p=2**64 - 1, q=2**64, root=(2**2000 - 1, 2**2000), v=2)
    def test_next_term_within_its_units(self, t, err, side, p, q, root, v):
        assert self.holds(max(t, err), err, side * err, p, q, *root, v)


def root_run(head, p, q, c, d, v, zero_at=None):
    """(head, run): the head as a pair, and a :class:`~hlcbs.floats.Roots`
    run whose every factor is (p/q) ((c/d)^v)^(1/v) = (p/q)(c/d), rational,
    with the exact cap p c/(q d), and a zero factor at index ``zero_at``."""

    def leaves(n0, n1):
        return [(0 if n == zero_at else p, q, c**v, d**v) for n in range(n0, n1)]

    return pair(head), floats.Roots(leaves, lambda n: (p * c, q * d), v)


class TestRootRuns:
    """A Roots run is summed in one int loop and folded once: its ball
    holds the exact sum, and it keeps the kernel's rules on zero factors,
    the budget and the stop."""

    @BALLS
    @given(
        head=st.fractions(F(-4), F(4), max_denominator=2**40).filter(bool),
        ratio=st.fractions(F(1, 100), F(99, 100), max_denominator=1000),
        c=st.integers(1, 40),
        extra=st.integers(1, 40),
        v=st.sampled_from([2, 3, 4, 9, 12]),
        precision=st.sampled_from([32, 64, 128, 512]),
        zero_at=st.none() | st.integers(1, 30),
    )
    def test_ball_holds_the_exact_sum(self, head, ratio, c, extra, v, precision, zero_at):
        # perfect powers under the root make every factor rational, so the
        # sum is exact in Fractions: a finite one up to a zero factor, or
        # the head over 1 - f
        p, q, d = ratio.numerator, ratio.denominator, c + extra
        f = ratio * F(c, d)
        out, used = tail_bounded_sum(context(precision), *root_run(head, p, q, c, d, v, zero_at), 10**4)
        want = head * (1 - f**zero_at) / (1 - f) if zero_at else head / (1 - f)
        assert contains(out, want)
        assert zero_at is None or used <= zero_at
        assert exact(out.error_bound) <= max(abs(want), 1) * F(2) ** -precision

    def test_budget_raises(self):
        parts = root_run(F(1), 1, 2, 1, 2, 2)
        assert tail_bounded_sum(context(64), *parts, 40)[1] < 40
        with pytest.raises(BudgetExceeded):
            tail_bounded_sum(context(64), *parts, 5)

    def test_stops_where_a_per_term_loop_stops(self):
        # the stop is tested on every term, as per_term_used's loop tests it
        for precision, (p, q, c, d) in itertools.product([32, 128, 512], [(1, 2, 1, 2), (9, 10, 7, 8), (1, 5, 1, 3)]):
            ctx = context(precision)
            _, used = tail_bounded_sum(ctx, *root_run(F(1), p, q, c, d, 2), 10**4)
            f = F(p * c, q * d)
            assert used == per_term_used(ctx, pair(1), ratios([], f, lambda n: f))
