"""Generalized hypergeometric evaluation with rigorous truncation bounds,
plus incomplete beta (numeric and exact at the special parameters),
real-argument central binomial coefficients, and the one domain check on
(a, z) shared by the series and its closed forms.

This module is the only one that forms a quantity with a in its argument or
exponent, save the series oracle's term ratio at non-integer s: that is
:func:`~hlcbs.floats.rational_root`'s proven root of an exact rational,
where no rounded input is amplified.  It splits a = m + a0 exactly,
m = floor(a), a0 in [0, 1): Gamma(a+1)^2/Gamma(2a+1) is an exact rational
shift from a0 times 1, pi/4 or, off the lattice, the incomplete beta
2 (2 a0 + 1) B(1/2; a0+1, a0+1)
(:func:`central_binomial_reciprocal_seed`, :func:`exact_gamma_ratio`).
q^e, e = u/v, is the proven v-th root of the exact q^u
(:func:`rational_power`).  A rounded input is thus never amplified by
|a psi(a)| or |a ln q|.  Every value here is a
:class:`~hlcbs.floats.BigFloat` ball formed by the ball rule, the proven
roots and the kernel's sums, pi among them: pi = 3 2F1(1/2, 1/2; 3/2; 1/4),
and this module owns it and :func:`piext_to_float`, the numeric image of an
exact value.  No mpmath special function stands under a radius.

The pFq evaluator supplies the exact term ratios of the defining series,
z prod(alpha+n) / (prod(beta+n) (n+1)), to the one summation kernel,
:func:`hlcbs.floats.tail_bounded_sum`, which keeps the running product,
owns the stop target and the budget error and stops only once a provable
geometric tail bound falls below that target: each ratio factor
(alpha+n)/(beta+n) is monotone in n with limit 1, so past any index N the
term ratio is bounded by the exact |z| * prod_c max(h_c(N), 1).  After
the head t_0 = 1 the ratios reach the kernel as one
:class:`~hlcbs.floats.Ratios` run: a chunk of leaves is one exact product
per parameter over an arithmetic progression of n, and a cap is built only
where a block ends.

:func:`check_domain` is the one place that decides where the series is
defined.  At z = 0 it needs a > 0, where the factor (2z)^(2a) is 0, so every
value of Phi and of the incomplete beta at z = 0 comes out 0 with bound 0 on
the general path, and no caller forks on z = 0.  :func:`lattice` is the one
place that decides where an exact value exists: the half-integers
a in {1/2, 1, 3/2, ...}, shared by the exact gamma ratio, the exact
incomplete beta and :func:`hlcbs.closedform.zeta_exact`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import DomainError, PiExtValue, as_fraction
from .floats import GUARD_BITS, BigFloat, NoConvergence, Ratios, balanced_product, context, rational, rational_root, tail_bounded_sum


class LowerParamPole(DomainError):
    """A lower pFq parameter is a nonpositive integer."""


class PoleError(DomainError):
    """a is a half-integer <= 0, where the series meets gamma poles."""


_MAX_PFQ_TERMS = 200_000


def check_domain(a, z=None):
    """The series' (a, z) as Fractions, after checking their domain.

    a must avoid the half-integers <= 0 (:class:`PoleError`), where the
    gammas in C(2a, a) or the first term's (n+a)^s meet a pole.  A given z
    must be an exact rational in [0, 1), and z = 0 needs a > 0: for a < 0
    the first term (2z)^(2a) diverges as z -> 0.  Without z only a is
    checked, and z comes back None.  Floats are rejected, as
    :func:`as_fraction` documents.
    """
    a = as_fraction(a)
    if (2 * a).denominator == 1 and a <= 0:
        raise PoleError(f"a must avoid half-integers <= 0, got {a}")
    if z is None:
        return a, None
    z = as_fraction(z)
    if not 0 <= z < 1:
        raise DomainError(f"z must lie in [0, 1), got {z}")
    if z == 0 and a < 0:
        raise DomainError(f"z = 0 needs a > 0: the first term (2z)^(2a) diverges there, got a = {a}")
    return a, z


def lattice(a) -> Fraction:
    """a as a Fraction on the half-integer lattice {1/2, 1, 3/2, ...}, where
    every exact value of the kit lives; :class:`DomainError` elsewhere."""
    a = as_fraction(a)
    if a <= 0 or (2 * a).denominator != 1:
        raise DomainError(f"exact values need a in {{1/2, 1, 3/2, ...}}, got {a}")
    return a


def pochhammer(alpha, n: int) -> Fraction:
    """Shifted factorial (alpha)_n = alpha (alpha+1) ... (alpha+n-1)."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    alpha = as_fraction(alpha)
    result = Fraction(1)
    for l in range(n):
        result *= alpha + l
    return result


@dataclass(frozen=True)
class PFQParams:
    """Parameters of a (p+1)Fp series: one more upper than lower entry.

    The implicit (1)_n = n! denominator of the series is separate from
    ``lower``.  Lower parameters must avoid nonpositive integers.
    """

    upper: tuple
    lower: tuple
    z: Fraction

    def __post_init__(self):
        upper = tuple(as_fraction(u) for u in self.upper)
        lower = tuple(as_fraction(l) for l in self.lower)
        if len(upper) != len(lower) + 1:
            raise DomainError(f"need exactly one more upper than lower parameter, got {len(upper)} vs {len(lower)}")
        for l in lower:
            if l.denominator == 1 and l <= 0:
                raise LowerParamPole(f"lower parameter {l} is a nonpositive integer")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "z", as_fraction(self.z))


def _pfq_factors(params: PFQParams):
    """(head, run) of the series as the kernel takes them: the head
    t_0 = (1, 1), and one :class:`~hlcbs.floats.Ratios` run of every later
    factor, the exact term ratio f_{n+1} = z prod(u+n) / (prod(l+n) (n+1)),
    z folded in, as an unreduced int pair, its leaves built a chunk at a
    time, and cap_n, built only where the kernel asks for it.  An upper
    parameter that reaches 0 makes a factor 0, where the kernel stops."""
    # each upper paired with a lower, the implicit 1 of n! among them
    pairs = list(zip(sorted(params.upper), sorted(params.lower + (Fraction(1),))))
    # below n_safe a ratio factor may still be negative or non-monotone
    n_safe = 1 + max(
        [0] + [math.ceil(-u) for u, _ in pairs if u < 0] + [math.ceil(-l) for _, l in pairs if l < 0]
    )
    # u + n = (num + n den)/den: each factor and cap is a pair of integer
    # products, the parameters' denominators in fixed scales; every Fraction
    # is read here, once, so the leaves and caps are built in ints
    z, rising = params.z, [(u, l) for u, l in pairs if u > l]
    uppers, lowers = _ints(params.upper), _ints(params.lower + (Fraction(1),))
    rising_uppers, rising_lowers = _ints(u for u, _ in rising), _ints(l for _, l in rising)
    top_scale = z.numerator * math.prod(den for _, den in lowers)
    bottom_scale = z.denominator * math.prod(den for _, den in uppers)
    cap_top_scale = abs(z.numerator) * math.prod(den for _, den in rising_lowers)
    cap_bottom_scale = z.denominator * math.prod(den for _, den in rising_uppers)

    def leaves(n0: int, n1: int) -> list:
        # f_n is the ratio at n - 1; the lower 1 gives its (n - 1) + 1
        return list(zip(_shifted(uppers, n0 - 1, n1 - 1, top_scale), _shifted(lowers, n0 - 1, n1 - 1, bottom_scale)))

    def cap(n: int):
        # past n_safe each (u+m)/(l+m) is positive and monotone with limit 1
        # for m >= n, so it is capped by max(value, 1): above 1 only if u > l
        if n < n_safe:
            return None
        return _shifted(rising_uppers, n, n + 1, cap_top_scale)[0], _shifted(rising_lowers, n, n + 1, cap_bottom_scale)[0]

    return (1, 1), Ratios(leaves, cap)


def _ints(params):
    """Each parameter x as its (numerator, denominator)."""
    return [(x.numerator, x.denominator) for x in params]


def _shifted(ints, m0: int, m1: int, scale: int) -> list:
    """scale prod (num + m den) over ``ints``, the numerators of
    scale prod (x + m), for each m0 <= m < m1: one exact product per
    parameter over the whole range, each x + m an arithmetic progression."""
    values = [scale] * (m1 - m0)
    for num, den in ints:
        values = list(map(operator.mul, values, range(num + m0 * den, num + m1 * den, den)))
    return values


def pfq_eval(params: PFQParams, precision_bits: int = 128) -> BigFloat:
    """Sum the pFq series at |z| < 1 with a guaranteed error bound.

    A sum that outruns its term budget ends in the kernel's
    :class:`~hlcbs.floats.BudgetExceeded`, a :class:`NoConvergence`.
    """
    if abs(params.z) >= 1:
        raise NoConvergence(f"pFq series needs |z| < 1, got z = {params.z}")
    return tail_bounded_sum(context(precision_bits), *_pfq_factors(params), _MAX_PFQ_TERMS)[0]


# ---------------------------------------------------------------------------
# incomplete beta function


def incomplete_beta_numeric(z, alpha, beta, precision_bits: int = 128) -> BigFloat:
    """B(z; alpha, beta) = int_0^z x^(alpha-1) (1-x)^(beta-1) dx for z in [0,1).

    Uses B(z;a,b) = (z^a/a) 2F1(a, 1-b; a+1; z), the standard series route,
    which the tests validate against adaptive quadrature of the integral.
    """
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise DomainError(f"incomplete beta needs alpha, beta > 0, got {alpha}, {beta}")
    alpha, z = check_domain(alpha, z)
    ctx = context(precision_bits)  # before the 2F1's P + 16: a precision below MIN_PRECISION_BITS is named as given
    f = pfq_eval(PFQParams((alpha, 1 - beta), (alpha + 1,), z), precision_bits + 16)
    return rational_power(ctx, z, alpha) / alpha * f


@lru_cache(maxsize=None)
def incomplete_beta_exact(alpha) -> PiExtValue:
    """Exact B(1/4; alpha, 1/2) on the half-integer lattice alpha >= 1/2.

    Anchored at B(1/4;1/2,1/2) = pi/3 and B(1/4;1,1/2) = 2 - sqrt3, climbing
    with B(x;a+1,b) = a/(a+b) B(x;a,b) - x^a (1-x)^b / (a+b); at x = 1/4,
    b = 1/2 the subtracted term is rational * sqrt3, so the half-integer
    chain stays in Q*pi + Q*sqrt3 and the integer chain in Q + Q*sqrt3.
    """
    alpha = lattice(alpha)
    if alpha == Fraction(1, 2):
        return PiExtValue(c_pi=Fraction(1, 3))
    if alpha == 1:
        return PiExtValue(c_one=2, c_sqrt3=-1)
    prev = alpha - 1
    for j in range(int(prev - Fraction(1, 2)), 0, -1):  # fill the cache bottom-up
        incomplete_beta_exact(prev - j)
    step = incomplete_beta_exact(prev).scale(prev / (prev + Fraction(1, 2)))
    # x^prev (1-x)^(1/2) at x = 1/4 is (1/2)^(2 prev) sqrt3/2
    return step - PiExtValue(c_sqrt3=Fraction(1, 2) ** int(2 * prev) / 2 / (prev + Fraction(1, 2)))


# ---------------------------------------------------------------------------
# quantities with a in the argument or exponent: a = floor(a) + a0, split once
#
# g(x) = Gamma(x+1)^2/Gamma(2x+1) = 1/C(2x, x) and every power whose exponent
# is built from a are formed here and nowhere else.  The integer part of a is
# carried exactly; only a0 in [0, 1) reaches a sum, the incomplete beta with
# exact parameters, so no rounding of an input is amplified by |a psi(a)|; a
# power roots an exact rational and amplifies none.


def gamma_ratio_shift(a):
    """(a0, num, den) with g(a) = g(a0) num/den, a0 = a - floor(a) in [0, 1).

    The floor(a) steps g(x+1) = g(x) (x+1)/(2(2x+1)) give num/den as two
    integer products, left unreduced.  At a half-integer a <= -1/2 the factor
    2x+1 = 0 makes num 0: the pole of Gamma(2a+1).
    """
    a = as_fraction(a)
    m = math.floor(a)
    a0 = a - m
    p, d = a0.numerator, a0.denominator
    lo, hi = min(m, 0), max(m, 0)  # the steps j, x = a0 + j
    up = balanced_product(range(p + (lo + 1) * d, p + (hi + 1) * d, d))  # d (x+1)
    down = balanced_product(range(2 * p + (2 * lo + 1) * d, 2 * p + (2 * hi + 1) * d, 2 * d))  # d (2x+1)
    if m >= 0:
        return a0, up, down << m
    return a0, down << -m, up


# g at the two lattice values of a0
_LATTICE_G = {Fraction(0): PiExtValue(c_one=1), Fraction(1, 2): PiExtValue(c_pi=Fraction(1, 4))}


def exact_gamma_ratio(a) -> PiExtValue:
    """Gamma(a+1)^2 / Gamma(2a+1), exact on the half-integer lattice a > 0:
    the exact shift of :func:`gamma_ratio_shift` times g(0) = 1 or g(1/2) = pi/4."""
    a0, num, den = gamma_ratio_shift(lattice(a))
    return _LATTICE_G[a0].scale(Fraction(num, den))


@lru_cache(maxsize=None)
def _pi(precision_bits: int) -> BigFloat:
    """pi = 6 arcsin(1/2) = 3 2F1(1/2, 1/2; 3/2; 1/4) as a ball, once per
    precision: the 2F1 summed 32 bits past the precision, times an exact 3
    at it, which rounds once."""
    return rational(context(precision_bits), 3) * pfq_eval(PFQParams((Fraction(1, 2),) * 2, (Fraction(3, 2),), Fraction(1, 4)), precision_bits + 32)


def piext_to_float(value: PiExtValue, precision_bits: int = 128) -> BigFloat:
    """Numeric image of an exact value: a ball, with pi the kernel's sum and
    sqrt3 a proven root, summed over the nonzero coefficients only."""
    ctx = context(precision_bits)
    sqrt3 = rational_root(ctx, 3, 1, 2) if value.c_sqrt3 or value.c_sqrt3pi else None
    pi = _pi(precision_bits) if value.c_pi or value.c_sqrt3pi else None
    parts = [rational(ctx, value.c_one)] if value.c_one else []
    parts += [c * x for c, x in ((value.c_sqrt3, sqrt3), (value.c_pi, pi)) if c]
    if value.c_sqrt3pi:
        parts.append(value.c_sqrt3pi * sqrt3 * pi)
    return sum(parts[1:], parts[0]) if parts else rational(ctx, 0)


@lru_cache(maxsize=256)
def _beta_seed(a0: Fraction, precision_bits: int) -> BigFloat:
    """g(a0) = (2 a0 + 1) B(a0+1, a0+1) = 2 (2 a0 + 1) B(1/2; a0+1, a0+1) off
    the lattice as a ball, once per (a0, precision): the incomplete beta
    (DLMF 8.17.7) summed 16 bits past the precision, then rounded once to it
    as its product with an exact 1 there."""
    beta = incomplete_beta_numeric(Fraction(1, 2), a0 + 1, a0 + 1, precision_bits + 16)
    return rational(context(precision_bits), 1) * (2 * (2 * a0 + 1) * beta)


def central_binomial_reciprocal_seed(ctx, a: Fraction) -> BigFloat:
    """Gamma(a+1)^2/Gamma(2a+1) as a ball: the exact shift num/den times g(a0).

    g(a0) is the lattice value 1 or pi/4 at a0 = 0 or 1/2, and an incomplete
    beta at 1/2 otherwise (:func:`_beta_seed`); num is rounded once, den
    divides exactly.
    """
    a0, num, den = gamma_ratio_shift(a)
    if a0 in _LATTICE_G:
        g0 = piext_to_float(_LATTICE_G[a0], ctx.prec - GUARD_BITS)
    else:
        g0 = _beta_seed(a0, ctx.prec - GUARD_BITS)
    return Fraction(num) * g0 / den


_POWER_BITS = 2**27  # the widest exact power q^u formed, in bits: at the limit, an evaluation takes about 1 s


def rational_power(ctx, q, e) -> BigFloat:
    """q^e as a ball for rational q >= 0 (any q != 0 at integer e) and rational e.

    With e = u/v in lowest terms, q^u is exact: at integer e it is rounded
    once, and otherwise its v-th root is :func:`~hlcbs.floats.rational_root`'s
    proven ball.  0^e = 0 and 1^e = 1 are exact at every e.  The larger part
    of q^u has at least |u| (b - 1) + 1 bits, b the larger bit length of q's
    parts, and a power whose |u| (b - 1) exceeds :data:`_POWER_BITS` raises
    :class:`DomainError` naming e before any of it is formed.
    """
    q, e = as_fraction(q), as_fraction(e)
    bits = abs(e.numerator) * (max(q.numerator.bit_length(), q.denominator.bit_length()) - 1)
    if bits > _POWER_BITS:
        raise DomainError(f"the exponent {e} needs the exact power ({q})^{e.numerator}, over {bits} bits: the limit is {_POWER_BITS} bits")
    power = q**e.numerator
    if e.denominator == 1 or q in (0, 1):
        return rational(ctx, power)
    return rational_root(ctx, power.numerator, power.denominator, e.denominator)


def real_central_binomial(a, precision_bits: int = 128) -> BigFloat:
    """C(2a, a) = Gamma(2a+1)/Gamma(a+1)^2 for real a outside the poles."""
    a, _ = check_domain(a)
    return 1 / central_binomial_reciprocal_seed(context(precision_bits), a)
