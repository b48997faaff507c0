"""Arbitrary-precision floating-point plumbing shared by the numeric layers.

Every numeric routine works inside a private mpmath context created at the
requested precision plus guard bits, so nothing mutates global mpmath state.
Results are returned as :class:`BigFloat`, which pairs the value with the
precision it was requested at and an absolute error bound the computation
actually guarantees.

:func:`tail_bounded_sum` is the one place that sums a series: it derives the
stop target from the context's precision, decides when to stop, states the
error bound, and raises the one budget error, :class:`BudgetExceeded`.  The
series oracle and the pFq evaluator only supply terms and ratio caps; the
oracle builds its terms from the definition of the series, never from a
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

MIN_PRECISION_BITS = 32
GUARD_BITS = 32


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


def to_mpf(ctx, value):
    """Convert ``value`` (Fraction, int, float, str, mpf) in ``ctx``; a
    Fraction is rounded once, however long its numerator."""
    if isinstance(value, Fraction):
        return ctx.fdiv(value.numerator, value.denominator)
    return ctx.convert(value)


def ulp_scale(ctx) -> "mpmath.mpf":
    """One unit of relative rounding error at the context's working precision.

    The error counts next to each ulp constant use this unit: an arithmetic
    operation or :func:`to_mpf` rounds once, at most 0.5 ulp; an mpmath
    function (power, gamma, sqrt, asin) is counted at 1 ulp.
    """
    return ctx.ldexp(1, -ctx.prec + 1)


def tail_bounded_sum(ctx, terms, max_terms: int):
    """Sum a series until a geometric tail bound meets the context's target.

    The target is 2^-(P+8), P = ``ctx.prec - GUARD_BITS`` the requested
    precision.  ``terms`` yields pairs ``(t_n, rho_n)``, where ``rho_n`` caps
    |t_{m+1}/t_m| for every m >= n, or is None while no cap is known.  The
    sum stops after the first t_n with |t_n| rho/(1-rho) <= target *
    max(|sum|, 1), rho carrying 1 + 2^-24 slack for the rounding of the cap
    itself.  An iterator that runs out means the series terminated: its tail
    is 0.  The bound adds (3n + 12) ulp sum|t| of rounding: each caller's
    t_m carries at most 12 + 2.5m ulp (see ``series._phi_terms`` and
    ``hyper._pfq_terms``), and each of the n additions 0.5 ulp of a partial
    sum.

    Returns ``(sum, error_bound, terms_used)``; raises :class:`BudgetExceeded`
    when ``max_terms`` terms do not meet the target.
    """
    target = ctx.ldexp(1, -(ctx.prec - GUARD_BITS + 8))
    total = ctx.mpf(0)
    abs_sum = ctx.mpf(0)
    slack = 1 + ctx.ldexp(1, -24)
    tail = ctx.mpf(0)
    n = -1
    for term, rho in terms:
        if n + 1 == max_terms:
            raise BudgetExceeded(f"error bound not met within {max_terms} terms")
        n += 1
        total += term
        abs_sum += abs(term)
        if rho is not None:
            rho *= slack
            if rho < 1:
                bound = abs(term) * rho / (1 - rho)
                if bound <= target * max(abs(total), ctx.mpf(1)):
                    tail = bound
                    break
    rounding = (3 * n + 12) * ulp_scale(ctx) * abs_sum
    return total, tail + rounding, n + 1


@dataclass(frozen=True)
class BigFloat:
    """An arbitrary-precision value with a guaranteed absolute error bound.

    ``value`` was computed at ``precision_bits`` plus internal guard bits;
    ``error_bound`` is an absolute bound on ``|value - true value|``.
    """

    value: object  # mpmath.mpf
    precision_bits: int
    error_bound: object  # mpmath.mpf, absolute

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        """The value to the significant digits its bound certifies.

        That is min(0.301 precision_bits (at least 8), floor(log10(|value| /
        error_bound))) digits, and at least 1.
        """
        digits = max(8, int(self.precision_bits * 0.301))
        if self.error_bound:
            ratio = abs(self.value) / self.error_bound
            certified = int(mpmath.floor(mpmath.log10(ratio))) if ratio else 1
            digits = max(1, min(digits, certified))
        return mpmath.nstr(self.value, digits)

    def bound_str(self) -> str:
        """The error bound to 9 significant digits, rounded up, never down."""
        if not self.error_bound:
            return "0.0"
        man, exp = self.error_bound.man_exp
        exponent = int(mpmath.floor(mpmath.log10(self.error_bound))) - 8
        mantissa = str(math.ceil(Fraction(man) * Fraction(2) ** exp / Fraction(10) ** exponent))
        return f"{mantissa[0]}.{mantissa[1:].rstrip('0') or '0'}e{exponent + len(mantissa) - 1}"
