"""Arbitrary-precision ball arithmetic shared by the numeric layers.

Every numeric routine works inside a private mpmath context created at the
requested precision plus guard bits, so nothing mutates global mpmath state.
Results are :class:`BigFloat` balls: a midpoint, the precision it was
requested at, and a radius that bounds its distance from the true value.

Two rules form every radius.  The ball rule: ``+ - * /`` on balls and exact
rationals widen the radius by what the operands' radii can move the result
and by the operation's own rounding, 2^-prec of the result.  The trust rule:
an mpmath result (gamma, power, sqrt, pi) enters through :func:`ball`,
within 1 ulp of the exact function at its argument.  No caller counts
roundings by hand.

:func:`tail_bounded_sum` is the one place that sums a series: it derives the
stop target from the context's precision, decides when to stop, states the
error bound, and raises the one budget error, :class:`BudgetExceeded`.  It
takes the series as its factors, t_0 = f_0 and t_n = t_{n-1} f_n, each an
exact int, a Fraction or a ball, with an exact rational cap on the later
ratios.  The kernel keeps the running product (:func:`products`) and takes
each rounding count from the factor's type, not a ball per term, which
keeps the loop as cheap as a plain sum.  Its bounds are raw libmp values
rounded up, as the ball rule's radii are (Arb's mag_t): the tail and the
rounding radius at 30 bits, and sum|t| at the working precision, with no
slack factor.  The series oracle and the pFq evaluator only supply exact
term ratios and caps; the oracle's ratios are the definition's, never a
closed form's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import fone, fzero, from_float, from_int, from_rational, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_pos, mpf_shift, mpf_sub, to_float

MIN_PRECISION_BITS = 32
GUARD_BITS = 32
# the trust rule in units of 2^-prec: an mpmath result is within 1 ulp
TRUST_UNITS = 2


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class NoConvergence(DomainError):
    """A series does not converge to the requested error bound: its argument
    lies outside the open unit disc, or its terms outrun the budget."""


class BudgetExceeded(NoConvergence):
    """The requested error bound was not met within max_terms."""


@lru_cache(maxsize=None)
def context(precision_bits: int) -> mpmath.ctx_mp.MPContext:
    """The mpmath context at ``precision_bits + GUARD_BITS`` bits, one per precision.

    Only this function sets a context's precision, so callers share it.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")
    ctx = mpmath.mp.clone()
    ctx.prec = precision_bits + GUARD_BITS
    return ctx


def ball(ctx, value, units=TRUST_UNITS) -> "BigFloat":
    """``value`` as a ball of radius ``units`` 2^-prec |value|, rounded up.

    2^-prec is one rounding at the working precision ``prec``, so a rational
    rounded once carries 1 unit.  The default is the trust rule.
    """
    return BigFloat(value, ctx.prec - GUARD_BITS, ctx.make_mpf(_up(mpf_mul, from_float(units), _unit(ctx, value._mpf_))))


def _midpoint(ctx, x):
    """(raw mpf, units) of a ball, or of an exact rational: an integer (an
    int, or a Fraction that is one) exact and unrounded, any other Fraction
    rounded once."""
    if isinstance(x, BigFloat):
        return x.value._mpf_, x.units()
    if x.denominator == 1:
        return from_int(x.numerator), 0
    return from_rational(x.numerator, x.denominator, ctx.prec, "n"), 1


def rational(ctx, q) -> "BigFloat":
    """The ball of an exact rational: an integer is exact, any other Fraction rounded once."""
    value, units = _midpoint(ctx, q)
    return ball(ctx, ctx.make_mpf(value), units)


def _up(op, x, y):
    """A libmp operation on raw mpf values, rounded up to 30 bits: radius
    arithmetic, as with Arb's mag_t (a lower bound rounds down instead)."""
    return op(x, y, 30, "u")


def _magnitude(x) -> Fraction:
    """|x| of an mpf, exactly (``man_exp`` drops the sign)."""
    return Fraction(x.man_exp[0]) * Fraction(2) ** x.man_exp[1]


def _unit(ctx, x):
    """2^-prec |x| as a raw mpf value: one rounding of x at the working precision."""
    return mpf_shift(mpf_abs(x), -ctx.prec)


def _rounded(ctx, mid, spread) -> "BigFloat":
    """The ball around the raw ``mid``, rounded once in ``ctx``: ``spread`` plus 2^-prec |mid|."""
    return BigFloat(ctx.make_mpf(mid), ctx.prec - GUARD_BITS, ctx.make_mpf(_up(mpf_add, spread, _unit(ctx, mid))))


def products(ctx, factors):
    """The terms of a series given by its factors: t_0 = f_0, t_n = t_{n-1} f_n.

    ``factors`` yields pairs ``(f_n, cap_n)``, f_n as :func:`tail_bounded_sum`
    takes them.  Yields ``(t_n, units_n, cap_n)``: t_n an mpf in ``ctx``
    whose units_n relative errors of 2^-prec, compounded, put it within
    c/(1-c) |t_n| of the exact term, c = units_n 2^-prec.  Each product
    adds the factor's units and 1 if it rounds, so an exact term times an
    integer stays exact while it fits the precision; the counts only grow,
    and a ball's fractional count is summed rounding up.  The stream ends
    at the first zero term: the series terminated.
    """
    term, units = fone, 0
    for factor, cap in factors:
        value, factor_units = _midpoint(ctx, factor)
        exact = mpf_mul(term, value)  # normalized operands: odd mantissas, so bc is the exact length
        term = mpf_pos(exact, ctx.prec, "n")
        units += factor_units + (exact[3] > ctx.prec)
        if isinstance(units, float):  # a float sum rounds to nearest: step it up
            units = math.nextafter(units, math.inf)
        if not term[1]:
            return
        yield ctx.make_mpf(term), units, cap


def tail_bounded_sum(ctx, factors, max_terms: int):
    """Sum a series, given by its factors, until a geometric tail bound meets
    the context's target.

    ``factors`` yields pairs ``(f_n, cap_n)`` with t_0 = f_0 and
    t_n = t_{n-1} f_n (:func:`products` keeps the running product and the
    rounding counts).  f_n is an int (exact), a Fraction (rounded once, unless
    it is an integer) or a :class:`BigFloat` ball at ``ctx``'s precision, its
    radius in :meth:`BigFloat.units`; cap_n is an exact rational
    with |f_m| <= cap_n for every m > n, or None while no cap is known.  The
    target is 2^-(P+8), P = ``ctx.prec - GUARD_BITS`` the requested
    precision.  The sum stops after the first t_n with
    |t_n| rho/(1-rho) <= target * max(|sum|, 1), rho = cap_n < 1.  A stream
    that runs out, or reaches a zero term, means the series terminated: its
    tail is 0.

    The midpoint is summed at the working precision ``prec``, exactly while
    every term and partial sum fits, and sum|t| beside it, rounded up.  The
    other bounds are radius arithmetic at 30 bits, rounded up as the ball
    rule's: rho/(1-rho) = num/(den-num) from the exact cap, rounded up once,
    and the tail |t_n| rho/(1-rho).  With c = (u + n) 2^-prec, u the last
    (largest) term count and n the additions, each within 2^-prec of a
    partial sum, the radius is tail + c/(1-c) (sum|t| + tail).  The u + n
    relative errors of at most 2^-prec compound to at most c/(1-c), against
    the computed terms and sums, so that factor covers the rounded terms and
    partial sums and the rounded t_n under the tail, with no higher-order
    term left over.  While every term and partial sum is exact, the radius
    is the tail.

    Returns ``(ball, terms_used)``; raises :class:`BudgetExceeded` when
    ``max_terms`` terms do not meet the target, and :class:`NoConvergence`
    when c >= 1: the factors' radii swamp the sum.
    """
    stop = ctx.prec - GUARD_BITS + 8  # the target is 2^-stop
    total = abs_sum = tail = fzero
    units, n, exact = 0, -1, True
    for n, (term, units, cap) in enumerate(products(ctx, factors)):
        if n == max_terms:
            raise BudgetExceeded(f"error bound not met within {max_terms} terms")
        exact = exact and not units
        # while every term is exact, add exactly and see whether the sum fits
        raw = mpf_add(total, term._mpf_, 0 if exact else ctx.prec, "n")
        total, exact = mpf_pos(raw, ctx.prec, "n"), exact and raw[3] <= ctx.prec
        # at the working precision: rounded up at 30 bits, every term would add an ulp
        abs_sum = mpf_add(abs_sum, mpf_abs(term._mpf_), ctx.prec, "u")
        if cap is not None and cap.numerator < cap.denominator:
            bound = _up(mpf_mul, mpf_abs(term._mpf_), from_rational(cap.numerator, cap.denominator - cap.numerator, 30, "u"))
            if mpf_le(mpf_shift(bound, stop), fone) or mpf_le(mpf_shift(bound, stop), mpf_abs(total)):
                tail = bound
                break
    c = fzero if exact else mpf_shift(_up(mpf_add, from_float(units), from_int(n)), -ctx.prec)
    if not mpf_lt(c, fone):
        raise NoConvergence("the factors' radii swamp the sum")
    radius = _up(mpf_add, tail, _up(mpf_mul, _up(mpf_div, c, mpf_sub(fone, c, 30, "d")), _up(mpf_add, abs_sum, tail)))
    return BigFloat(ctx.make_mpf(total), ctx.prec - GUARD_BITS, ctx.make_mpf(radius)), n + 1


@dataclass(frozen=True)
class BigFloat:
    """A ball: the midpoint ``value`` and the radius ``error_bound``, an
    absolute bound on ``|value - true value|``.

    ``value`` was computed at ``precision_bits`` plus guard bits.  ``+ - * /``
    take BigFloats, ints (exact) and Fractions (rounded once unless integral,
    as :func:`rational`) on either side: the midpoint is the operation on the
    midpoints, rounded once at the lower of the two precisions, and the
    radius adds how far the operands' radii can move the result and
    2^-prec |midpoint| for that rounding, all rounded up.
    """

    value: object  # mpmath.mpf, the midpoint
    precision_bits: int
    error_bound: object  # mpmath.mpf, the radius

    def _with(self, other):
        """(ctx, self's raw midpoint and radius, other's) at the lower of the two precisions."""
        if not isinstance(other, BigFloat):  # a rational, as :func:`rational` without the ball
            ctx = context(self.precision_bits)
            y, units = _midpoint(ctx, other)
            return ctx, self.value._mpf_, self.error_bound._mpf_, y, _unit(ctx, y) if units else fzero
        ctx = context(min(self.precision_bits, other.precision_bits))
        return ctx, self.value._mpf_, self.error_bound._mpf_, other.value._mpf_, other.error_bound._mpf_

    def __add__(self, other):
        ctx, x, rx, y, ry = self._with(other)
        return _rounded(ctx, mpf_add(x, y, ctx.prec, "n"), _up(mpf_add, rx, ry))

    __radd__ = __add__

    def __neg__(self):
        return BigFloat(-self.value, self.precision_bits, self.error_bound)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        ctx, x, rx, y, ry = self._with(other)
        # |XY - xy| <= |x| ry + (|y| + ry) rx for X, Y in the balls
        spread = _up(mpf_add, _up(mpf_mul, mpf_abs(x), ry), _up(mpf_mul, _up(mpf_add, mpf_abs(y), ry), rx))
        return _rounded(ctx, mpf_mul(x, y, ctx.prec, "n"), spread)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ctx, x, rx, y, ry = self._with(other)
        low = mpf_sub(mpf_abs(y), ry, 30, "d")
        if ctx.make_mpf(low) <= 0:
            raise ZeroDivisionError("the divisor's ball contains 0")
        # |X/Y - x/y| <= (rx + |x/y| ry) / (|y| - ry) for X, Y in the balls
        spread = _up(mpf_add, rx, _up(mpf_div, _up(mpf_mul, mpf_abs(x), ry), mpf_abs(y)))
        return _rounded(ctx, mpf_div(x, y, ctx.prec, "n"), _up(mpf_div, spread, low))

    def __rtruediv__(self, other):
        return rational(context(self.precision_bits), other) / self

    def sqrt(self) -> "BigFloat":
        """The root of a ball of positive numbers: mpmath's sqrt under the trust
        rule, widened by radius/sqrt(value) >= |sqrt(X) - sqrt(value)|."""
        ctx = context(self.precision_bits)
        root = ball(ctx, ctx.sqrt(self.value))
        below = mpf_sub(root.value._mpf_, root.error_bound._mpf_, 30, "d")  # <= sqrt(value)
        spread = _up(mpf_div, self.error_bound._mpf_, below)
        return BigFloat(root.value, self.precision_bits, ctx.make_mpf(_up(mpf_add, root.error_bound._mpf_, spread)))

    def units(self) -> float:
        """The radius in units 2^-prec of |value|, rounded up: the count a
        kernel factor carries (0 for an exact ball)."""
        unit = _unit(context(self.precision_bits), self.value._mpf_)
        return to_float(mpf_div(self.error_bound._mpf_, unit, 53, "u")) if self.error_bound else 0.0

    def __float__(self) -> float:
        return float(self.value)

    def certified_digits(self) -> int:
        """The significant digits the bound certifies, the one rule for what
        may be printed: the largest d <= 0.301 precision_bits (at least 8)
        with |value| >= 10^d error_bound, decided exactly, or 0 when the
        ball certifies no digit."""
        digits = max(8, int(self.precision_bits * 0.301))
        whole = int(_magnitude(self.value) / _magnitude(self.error_bound)) if self.error_bound else 10**digits
        # log10(whole) < 0.30103 bit_length, so the first d tried is never too low
        return next((d for d in range(min(digits, int(whole.bit_length() * 0.30103)), 0, -1) if whole >= 10**d), 0)

    def __str__(self) -> str:
        """The value to its :meth:`certified_digits`, and at least 1."""
        return mpmath.nstr(self.value, max(1, self.certified_digits()))

    def bound_str(self) -> str:
        """The error bound to 9 significant digits, rounded up, never down."""
        if not self.error_bound:
            return "0.0"
        exponent = int(mpmath.floor(mpmath.log10(self.error_bound))) - 8
        mantissa = str(math.ceil(_magnitude(self.error_bound) / Fraction(10) ** exponent))
        return f"{mantissa[0]}.{mantissa[1:].rstrip('0') or '0'}e{exponent + len(mantissa) - 1}"
