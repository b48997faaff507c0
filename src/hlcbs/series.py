"""Direct summation of the Hurwitz-Lerch type central binomial series.

This is the kit's brute-force numeric oracle: every closed form elsewhere is
compared against the sums computed here.  The series is

    Phi(s, a, z) = sum_{n>=0} (2z)^(2(n+a)) / ( C(2(n+a), n+a) (n+a)^s ),

with the real-argument binomial C(x,y) = Gamma(x+1)/(Gamma(y+1) Gamma(x-y+1)).
The series is handed to the one summation kernel,
:func:`hlcbs.floats.tail_bounded_sum`, as a head and a run, built from this
definition and never from a closed form: the first term as a ball, then
every term ratio (2z)^2 r(nu+1)/r(nu) (nu/(nu+1))^s,
r(nu) = 1/C(2nu, nu), which is 2z^2 (nu+1)/(2nu+1) (nu/(nu+1))^s.  At
integer s each ratio is an exact int pair (p, q) of integer products, left
for the kernel to reduce, and the run is one :class:`~hlcbs.floats.Ratios`,
which builds them a chunk at a time and a cap only where the kernel ends a
block.  At any other s the run is one :class:`~hlcbs.floats.Roots`: each
factor the exact part at floor(s) apart from the v-th root of
(nu/(nu+1))^u, u/v the fractional part of s, which the kernel sums in
fixed point, each root an integer root at the least precision its term
allows, an integer square root at half-integer s.  The ratio tends to
z^2, which yields a provable geometric tail bound from an exact cap, an
int pair too.  The kernel keeps the running product and
every rounding count, owns the stop target and the budget error
(:class:`~hlcbs.floats.BudgetExceeded`), stops on the bound and states it.
Where the series is defined is :func:`hlcbs.hyper.check_domain`'s call
alone.  This module only sums; the checks on the series live in
:mod:`hlcbs.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, as_fraction
from .floats import BigFloat, Ratios, Roots, context, rational_root, tail_bounded_sum
from .floats import BudgetExceeded  # noqa: F401  (re-exported for callers of the oracle)
from .hyper import central_binomial_reciprocal_seed, check_domain, rational_power

DEFAULT_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SeriesQuery:
    """One evaluation request; z = 1/2 is the zeta-series case."""

    s: Fraction
    a: Fraction
    z: Fraction
    precision_bits: int = 128
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        s = as_fraction(self.s)
        a, z = check_domain(self.a, self.z)
        if a < 0 and s.denominator != 1:
            raise DomainError("negative a needs integer s (negative bases in (n+a)^s)")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")
        context(self.precision_bits)  # rejects a precision below MIN_PRECISION_BITS
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)


def _phi_factors(ctx, s, a, z):
    """(head, run): the terms T_n, n >= 0, of the definition as the kernel
    takes them.

    The head is the term at nu = a, (2z)^(2a) g(a) a^-s, a ball from
    hyper's powers and seed.  The run gives every later factor, the
    definition's term ratio T_{n+1}/T_n = 2z^2 (nu+1)/(2nu+1) (nu/(nu+1))^s at
    nu = a + n, with r = 2z^2 (nu+1)/(2nu+1) (nu/(nu+1))^floor(s) exact.  At
    integer s it is r, the int pair (num, den) of its products, unreduced
    and of either sign (a may be negative there), and the run is one
    :class:`~hlcbs.floats.Ratios`: its leaves built a chunk at a time, its
    caps only where the kernel asks.  At any other s it is one
    :class:`~hlcbs.floats.Roots`, whose leaves are
    ``(num, den, p^u, (p+d)^u)``, the factor r (nu/(nu+1))^(u/v) for the
    fractional part u/v of s and nu = p/d, which the kernel sums in fixed
    point; r stays apart from the root, so the rooted integers do not grow
    with v.
    For nu > 0 past the first term, both parts decrease in nu, so every
    later ratio is capped by
    2z^2 (nu+1)/(2nu+1) max(1, ((nu+1)/nu)^-s), its second part bounded
    exactly at s < 0: the power at the integer part k of -s, and
    Bernoulli's (1 + 1/nu)^f <= 1 + f/nu at the fractional part f.  Each cap
    is an unreduced int pair of nonnegative products.
    """
    head = rational_power(ctx, 2 * z, 2 * a) * central_binomial_reciprocal_seed(ctx, a) * rational_power(ctx, a, -s)
    # every Fraction is read here, once: the leaves and caps are built in ints
    two_z_sq, p0, d = 2 * z * z, a.numerator, a.denominator  # nu = p/d with p = p0 + n d at term n
    two_z_num, two_z_den = two_z_sq.numerator, two_z_sq.denominator
    whole, frac = divmod(s, 1)
    k, f = divmod(-s, 1)
    u, v, f_num, f_den, power = frac.numerator, frac.denominator, f.numerator, f.denominator, abs(whole)

    def exact(p: int):
        # r at nu = p/d, the powers of nu/(nu+1) on the side their sign puts them
        rise, fall = (p, p + d) if whole >= 0 else (p + d, p)
        return two_z_num * (p + d) * rise**power, two_z_den * (2 * p + d) * fall**power

    def cap(n: int):  # n >= 1
        p = p0 + n * d
        if p <= 0:
            return None
        top, bottom = two_z_num * (p + d), two_z_den * (2 * p + d)
        return (top, bottom) if whole >= 0 else (top * (p + d) ** k * (p * f_den + f_num * d), bottom * p ** (k + 1) * f_den)

    def span(n0: int, n1: int):  # p of factors n0 <= n < n1: factor n is r at nu = a + n - 1
        return range(p0 + (n0 - 1) * d, p0 + (n1 - 1) * d, d)

    if u:
        return head, Roots(lambda n0, n1: [(*exact(p), p**u, (p + d) ** u) for p in span(n0, n1)], cap, v)
    return head, Ratios(lambda n0, n1: [exact(p) for p in span(n0, n1)], cap)


def phi_numeric(query: SeriesQuery) -> BigFloat:
    """Brute-force sum of Phi(s, a, z) with a guaranteed error bound."""
    ctx = context(query.precision_bits)
    return tail_bounded_sum(ctx, *_phi_factors(ctx, query.s, query.a, query.z), query.max_terms)[0]


def phi_terms(query: SeriesQuery, count: int):
    """First ``count`` series terms as mpf values (diagnostic/monotonicity
    aid): the head times the run's factors by the ball rule, a root factor
    as its ball, up to the first zero term."""
    ctx = context(query.precision_bits)
    head, run = _phi_factors(ctx, query.s, query.a, query.z)
    leaves = run.leaves(1, count)
    if isinstance(run, Roots):
        factors = [rational_root(ctx, num, den, run.v) * Fraction(p, q) for p, q, num, den in leaves]
    else:
        factors = [Fraction(*leaf) for leaf in leaves]
    terms = itertools.accumulate(factors, lambda term, factor: factor * term, initial=head)
    return [term.value for term in itertools.islice(itertools.takewhile(lambda term: term.value, terms), count)]


def zeta_hcb_numeric(s, a, precision_bits: int = 128, max_terms: int = DEFAULT_MAX_TERMS) -> BigFloat:
    """zeta(s, a): the z = 1/2 slice of the series."""
    return phi_numeric(SeriesQuery(s, a, Fraction(1, 2), precision_bits, max_terms))
