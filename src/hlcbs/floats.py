"""Arbitrary-precision ball arithmetic shared by the numeric layers.

Every numeric routine works inside a private mpmath context created at the
requested precision plus guard bits, so nothing mutates global mpmath state.
Results are :class:`BigFloat` balls: a midpoint, the precision it was
requested at, and a radius that bounds its distance from the true value.

One rule, one root constructor and the kernel's tail bound form every
radius, and no mpmath special function stands under one.  The ball rule:
an exact rational enters through :func:`rational`, rounded once or exact,
and ``+ - * /`` on balls and exact rationals widen the radius by what the
operands' radii can move the result and by the operation's own rounding,
2^-prec of the result (none for an exact product or sum that fits the
precision, or a quotient by a power of two).  No caller counts roundings by
hand.  Every fractional power and square root is proved: :func:`rational_root`
is the one root constructor, the ball of (num/den)^(1/v), and it shares
the one integer root (:func:`_root_floor`) with the kernel's root runs: y
with y <= (num/den)^(1/v) 2^k < y + 1, proved by the exact bracket
y^v den <= num 2^(vk) < (y+1)^v den, each side decided by libmp's
outward-rounded powers of y and in exact integers only where those cannot
decide it.  Every other transcendental, the
off-lattice gamma seed and pi among them, is a series summed by
:func:`tail_bounded_sum`.

:func:`tail_bounded_sum` is the one place that sums a series: it derives the
stop target from the context's precision, decides when to stop, states the
error bound, and raises the one budget error, :class:`BudgetExceeded`.  It
takes a series as a first term and a rule for the ratios, as binary
splitting does (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
section 4.9): a head t_0, an exact ratio as an int pair (p, q), q != 0, or
a ball, and one run of every later factor, t_n = t_{n-1} f_n.  A
:class:`Ratios` run builds the pairs of a range of exact factors in one go
and gives an exact cap on the later ratios, an int pair too, as a function
of n; its twin, a :class:`Roots` run, gives root factors, the exact p/q
times (num/den)^(1/v).  A zero factor ends a finite series.  The kernel
asks a :class:`Ratios` run for its leaves a chunk at a time, no further
than the open block's predicted end, and for a cap only where a block
ends; a series whose ratios are rational functions of n, the pFq series
and the oracle at integer s, thus pays per term only for its integer
products, a gcd and a leaf of the binary split.  A run hands over its
integer products unreduced; the kernel brings each exact factor to lowest
terms once (:func:`_lowest`: the sign to the denominator, then one gcd), as
a Fraction would, so its leaves, its block cuts on denominator bits and
every stop are those of the reduced ratios, and it reduces a cap only at a
block end, where it reads one.  It sums each run of rational factors
f_{i+1..j} = p_l/q_l, a pair head the first of the first, as one block, by
binary splitting in integers with no further gcd:
P/Q = prod f_l and T/Q = sum_m prod_{l<=m} f_l, merged as P1 P2, Q1 Q2,
T1 Q2 + P1 T2.  A block ends where its denominators reach the working
precision in bits, at a zero factor, at the term budget, or at the stop
index predicted from the last cap; a ball head is a block of one.  Each
block is folded into the sum by one exact product and one rounded division
for each of two values: t_i T/Q becomes one summand, and t_i P/Q the next
running term; a power-of-two Q divides exactly.  The exact tail test then
runs on the block's last term, and the sum stops at the first block end
that passes it, which may lie a few terms past the first term that would.
A float screen skips that test where log2 of the tail bound's lower
estimate exceeds the target by more than 1 bit, so no decision changes.
Its bounds are raw libmp values rounded up, as the ball rule's radii are
(Arb's mag_t): the tail and the rounding radius at 30 bits, and
sum|summand| at the working precision, with no slack factor.

A root run is summed in fixed point, in one loop over Python ints
(:func:`_roots`), as mpmath sums its own hypergeometric series (Brent and
Zimmermann, Modern Computer Arithmetic, 2010, ch. 4): every value a whole
number of units 2^e, about 2^-prec max(|sum|, 1), each term one
:func:`_root_step` from the last, its root taken at the least K that keeps
the root's share below one unit, so the precision falls as the terms
shrink, and its error an exact count of units.  The stop, the zero-factor
rule and the budget are int comparisons on every term, and the run is
folded into the sum once, as one summand with its units and its tail.

One rule carries the running term's errors, as Arb's one radius does:
every fold adds eps = (ceil(units) + [it rounded]) 2^-prec to E, units the
radius of a ball head in units 2^-prec of its midpoint, and E is kept
exactly as an integer multiple of 2^-prec.  Each summand adds |summand| E
to W, at 30 bits, and a root run's summand its units 2^e too.  The folds
move a summand's ratio to its computed value by at most
1/prod(1 - eps) - 1 <= E/(1 - E), and the n additions, each within 2^-prec
of a partial sum, give c = n 2^-prec and g = c/(1-c), so the radius is
tail + g (sum|summand| + tail) + (1 + g)(W + E tail)/(1 - E).

The series oracle and the pFq evaluator only supply a head, exact term
ratios and caps; the oracle's ratios are the definition's, never a closed
form's: at integer s a :class:`Ratios` run, as every pFq series' after its
head, and at non-integer s a :class:`Roots` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import mpmath
from mpmath.libmp import fone, fzero, from_int, from_man_exp, from_rational, mpf_abs, mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_nthroot, mpf_pos, mpf_pow_int, mpf_shift, mpf_sub, to_float, to_int

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


def _midpoint(ctx, x):
    """(raw mpf, units) of a ball, or of an exact rational: a dyadic one (an
    int, or a Fraction whose denominator is a power of two) exact and
    unrounded, any other Fraction rounded once."""
    if isinstance(x, BigFloat):
        return x.value._mpf_, x.units()
    if x.denominator & (x.denominator - 1) == 0:  # libmp strips trailing zeros 8 at a time, each a shift of the whole int
        zeros = (x.numerator & -x.numerator).bit_length() - 1 if x.numerator else 0
        return from_man_exp(x.numerator >> zeros, zeros + 1 - x.denominator.bit_length()), 0
    return from_rational(x.numerator, x.denominator, ctx.prec, "n"), 1


def rational(ctx, q) -> "BigFloat":
    """The ball of an exact rational: a dyadic one is exact, any other
    Fraction rounded once, with radius 2^-prec of the result."""
    value, rounds = _midpoint(ctx, q)
    return _rounded(ctx, value, fzero, rounds)


def rational_root(ctx, num: int, den: int, v: int) -> "BigFloat":
    """The ball of r = q^(1/v), q = num/den, for ints num >= 0, den > 0 and
    v >= 2, proved at the context's precision: no result is trusted.  0 is
    exact.

    The one integer root (:func:`_root_floor`) puts r in [y, y+1) 2^-k:
    the ball (y + 1/2) 2^-k of radius 2^-(k+1).  k makes
    num 2^(vk)/den >= 2^(v(prec-1)), so y >= 2^(prec-1) and the radius is
    at most 1 unit 2^-prec of the midpoint."""
    if not num:
        return rational(ctx, 0)
    k = -((num.bit_length() - den.bit_length() - 1 - v * (ctx.prec - 1)) // v)
    y = _root_floor(num, den, v, k)
    return BigFloat(ctx.make_mpf(from_man_exp(2 * y + 1, -k - 1)), ctx.prec - GUARD_BITS, ctx.make_mpf(from_man_exp(1, -k - 1)))


def _root_floor(num: int, den: int, v: int, k: int) -> int:
    """floor(r 2^k), r = (num/den)^(1/v), for ints num >= 0, den > 0, v >= 2
    and k: the one integer v-th root, of :func:`rational_root` and of the
    kernel's root runs, proved by the exact bracket
    y^v den <= num 2^(vk) < (y+1)^v den.

    At v = 2, y is :func:`math.isqrt` of floor(num 2^(2k) / den).  Above it
    libmp's rounded root is a candidate, never trusted, and each side of the
    bracket is decided without the v k-bit integers where that can be: y^v
    is rounded outward by ``mpf_pow_int`` at a few bits past y's, down and
    up, and each bound compared exactly with num 2^(vk)/den; only where the
    two bounds straddle it, as where r 2^k is an integer, is y^v den
    compared with num 2^(vk) in exact integers.  The candidate's ends move
    out by steps that double until the bracket holds, and the bracket then
    halves to width 1."""
    if v == 2:
        return math.isqrt((num << 2 * k) // den if k >= 0 else num // (den << -2 * k))
    bits = max(k + (num.bit_length() - den.bit_length()) // v, 0) + 10  # y's bits, and a margin
    shift = bits + den.bit_length() - num.bit_length()  # num/den to about ``bits`` bits, in one int division
    scaled = (num << shift) // den if shift >= 0 else num // (den << -shift)
    candidate = max(to_int(mpf_shift(mpf_nthroot(from_man_exp(scaled, -shift), v, bits, "d"), k), "f"), 0)

    def above(y: int, first: str) -> bool:  # y^v den > num 2^(vk), the rounding ``first`` tried first
        for rnd in (first, "d" if first == "u" else "u"):
            _, m, e, _ = mpf_pow_int(from_int(y), v, bits, rnd)
            shift = e - v * k
            left, right = (m * den << shift, num) if shift >= 0 else (m * den, num << -shift)
            if rnd == "d" and left > right or rnd == "u" and left <= right:
                return rnd == "d"
        left, right = (y**v * den, num << v * k) if k >= 0 else (y**v * (den << -v * k), num)
        return left > right

    low, step = candidate, 1
    while above(low, "u"):
        low, step = max(low - step, 0), 2 * step
    high, step = low + 1, 1
    while not above(high, "d"):
        low, high, step = high, high + step, 2 * step
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if above(mid, "d") else (mid, high)
    return low


class Ratios(NamedTuple):
    """A series' run of exact factors f_n, n >= 1, the ratios t_n/t_{n-1}
    after its head: ``leaves(n0, n1)`` is the list of unreduced int pairs
    (p, q), q != 0, of the factors n0 <= n < n1, and ``cap(n)`` an exact cap
    on every later factor, |f_m| <= cap_n for m > n, an unreduced int pair,
    or None while none is known.  :func:`tail_bounded_sum` asks for the
    leaves a chunk at a time and for a cap only where a block ends, so a
    series builds its leaves in bulk and its caps only there."""

    leaves: Callable[[int, int], list]
    cap: Callable[[int], tuple | None]


class Roots(NamedTuple):
    """The twin of :class:`Ratios` for root factors (p/q) (num/den)^(1/v),
    n >= 1: ``leaves(n0, n1)`` is the list of int tuples (p, q, num, den),
    q > 0 and 0 < num < den, of the factors n0 <= n < n1, and ``cap(n)`` as
    :class:`Ratios` gives it.  :func:`tail_bounded_sum` sums the run in
    fixed point (:func:`_roots`), and reads every cap, as it tests the tail
    on every term."""

    leaves: Callable[[int, int], list]
    cap: Callable[[int], tuple | None]
    v: int


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


def _fit(prec: int, exact):
    """An exact raw result rounded at ``prec`` bits: (raw mpf, whether it
    rounded).  libmp normalizes an exact product, sum or shift to an odd
    mantissa, so its bc is its exact length."""
    return mpf_pos(exact, prec, "n"), exact[3] > prec


def _rounded(ctx, mid, spread, rounds) -> "BigFloat":
    """The ball around the raw ``mid``, rounded once in ``ctx``: ``spread``
    plus 2^-prec |mid| when the operation ``rounds``."""
    return BigFloat(ctx.make_mpf(mid), ctx.prec - GUARD_BITS, ctx.make_mpf(_up(mpf_add, spread, _unit(ctx, mid)) if rounds else spread))


def _lowest(pair):
    """An exact ratio ``(p, q)``, q != 0, in lowest terms with q > 0, as a
    Fraction keeps it: the sign to the denominator, then one gcd.  None
    stays None."""
    if pair is None:
        return None
    p, q = pair
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


_FOLD = 6  # the most leaves :func:`_split` folds in a loop
_CHUNK = 64  # the most leaves :func:`tail_bounded_sum` asks a run for at once


def _split(leaves, lo: int, hi: int):
    """(P, Q, T) of the factors p_l/q_l, ``leaves[l] = (p_l, q_l)``, lo <= l < hi, by
    binary splitting: P/Q = prod f_l and T/Q = sum_m prod_{l<=m} f_l, as
    integers with no gcd.  A range of at most :data:`_FOLD` leaves is folded
    from the left, one leaf at a time, by the same merge; above that the
    merges stay balanced, as a left fold over a long block would multiply
    ever longer integers.  P and Q are the products of the p_l and q_l, and
    T is Q times the sum, so every order of merges gives the same three
    integers."""
    if hi - lo <= _FOLD:
        p, q = leaves[lo]
        t = p
        for p2, q2 in leaves[lo + 1 : hi]:
            p, q, t = p * p2, q * q2, t * q2 + p * p2
        return p, q, t
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(leaves, lo, mid)
    p2, q2, t2 = _split(leaves, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def balanced_product(factors: range) -> int:
    """The product of an arithmetic progression of ints by balanced halves,
    ranges of at most :data:`_FOLD` factors by :func:`math.prod`, as
    :func:`_split` merges its leaves: a product from the left over many
    factors multiplies ever longer integers."""
    if len(factors) <= _FOLD:
        return math.prod(factors)
    mid = len(factors) // 2
    return balanced_product(factors[:mid]) * balanced_product(factors[mid:])


def _times(prec: int, term, top, bottom: int):
    """``term`` top/bottom for raw mpf values term and top and an int
    bottom > 0: one exact product and one division rounded at ``prec``
    bits.  Returns (raw mpf, whether it rounded); a power of two divides
    exactly."""
    exact = mpf_mul(term, top)
    if bottom & (bottom - 1):
        return mpf_div(exact, from_int(bottom), prec, "n"), True
    return _fit(prec, mpf_shift(exact, 1 - bottom.bit_length()))


def _log2(x) -> float:
    """log2 |x| of a nonzero raw mpf, as a float whatever its exponent."""
    return math.log2(x[1]) + x[2]


class _Run(NamedTuple):
    """The state of one kernel sum after a block: the running term t_j (raw
    mpf), E 2^prec with E the sum of eps over its folds (an int), the terms
    read, the additions, whether everything so far is exact, the sum of the
    summands and sum|summand| at the working precision prec, and
    W = sum |summand| E at 30 bits."""

    ctx: object
    term: tuple = fone
    rel: int = 0
    terms: int = 0
    adds: int = -1
    exact: bool = True
    total: tuple = fzero
    abs_sum: tuple = fzero
    weighted: tuple = fzero

    def fold(self, top, bottom: int, partial, units, count: int) -> "_Run":
        """The run after a block of ``count`` terms t_{i+1..j}: t_i
        partial/bottom is one summand and t_j = t_i top/bottom the next
        running term (``partial is top`` for a block of one), both rounded
        at the working precision.  E gains eps = (ceil(units) + [it rounded])
        2^-prec, ``units`` a ball's (0 for a block of rational factors), and
        W gains |summand| E, this fold's eps included."""
        ctx = self.ctx
        term, rounded = _times(ctx.prec, self.term, top, bottom)
        summand, summand_rounded = (term, rounded) if partial is top else _times(ctx.prec, self.term, partial, bottom)
        rel = self.rel + math.ceil(units) + (rounded or summand_rounded)
        exact = self.exact and not rel
        # while every summand is exact, add exactly and see whether the sum fits
        raw = mpf_add(self.total, summand, 0 if exact else ctx.prec, "n")
        # sum|summand| at the working precision: rounded up at 30 bits, every summand would add an ulp
        abs_sum = mpf_add(self.abs_sum, mpf_abs(summand), ctx.prec, "u")
        weighted = _up(mpf_add, self.weighted, _up(mpf_mul, mpf_abs(summand), (0, rel, -ctx.prec, rel.bit_length()))) if rel else self.weighted
        return _Run(ctx, term, rel, self.terms + count, self.adds + 1, exact and raw[3] <= ctx.prec, mpf_pos(raw, ctx.prec, "n") if exact else raw, abs_sum, weighted)

    def tail(self, cap, stop: int):
        """The tail test on the running term t_j: with rho = num/den < 1, the
        cap in lowest terms, the bound |t_j| rho/(1-rho) when it is
        <= 2^-stop max(|sum|, 1), else None.  A float screen skips the exact
        test where log2 |t_j| rho/(1-rho) exceeds log2 of that limit by more
        than 1: the bound is at least that product, so such a test fails."""
        if cap is None or cap[0] >= cap[1]:
            return None
        num, den = cap
        total = self.total
        if num and _log2(self.term) + math.log2(num) - math.log2(den - num) + stop - (max(_log2(total), 0) if total[1] else 0) > 1:
            return None
        bound = _up(mpf_mul, mpf_abs(self.term), from_rational(num, den - num, 30, "u"))
        if mpf_le(mpf_shift(bound, stop), fone) or mpf_le(mpf_shift(bound, stop), mpf_abs(total)):
            return bound
        return None

    def steps(self, cap, stop: int):
        """The terms after t_j until :meth:`tail` should pass, if every later
        term shrank by rho = cap and the sum grew by the whole tail: the
        least k >= 1 with
        |t_j| rho^k rho/(1-rho) <= 2^-stop max(|sum| + |t_j| rho/(1-rho), 1),
        as a float estimate, or None when no cap in (0, 1) is known; the cap
        is in lowest terms, so the estimate is a Fraction's."""
        if cap is None or not 0 < cap[0] < cap[1]:
            return None
        num, den = cap
        # -log2 rho, with no cancellation as rho -> 1
        shrink = math.log2(den) - math.log2(num) if 2 * num < den else -math.log1p(-((den - num) / den)) / math.log(2)
        if not shrink:
            return None
        grown = mpf_add(mpf_abs(self.total), mpf_mul(mpf_abs(self.term), from_rational(num, den - num, 53, "u"), 53, "u"), 53, "u")
        excess = _log2(self.term) + math.log2(num) - math.log2(den - num) + stop - max(_log2(grown), 0)
        return max(1, math.ceil(excess / shrink - 1e-6))

    def ball(self, tail) -> "BigFloat":
        """The sum as a ball: tail + g (sum|summand| + tail) + (1 + g) x,
        g = c/(1-c), c = adds 2^-prec, and x = (W + E tail)/(1 - E) the
        share of the folds' errors."""
        ctx = self.ctx
        c = fzero if self.exact else from_man_exp(self.adds, -ctx.prec)
        if not mpf_lt(c, fone) or self.rel >= 1 << ctx.prec:
            raise NoConvergence("the factors' radii swamp the sum")
        grown = _up(mpf_div, c, mpf_sub(fone, c, 30, "d"))
        rel = from_man_exp(self.rel, -ctx.prec)
        share = _up(mpf_div, _up(mpf_add, self.weighted, _up(mpf_mul, rel, tail)), mpf_sub(fone, rel, 30, "d"))
        spread = _up(mpf_add, _up(mpf_mul, grown, _up(mpf_add, self.abs_sum, tail)), _up(mpf_add, share, _up(mpf_mul, grown, share)))
        return BigFloat(ctx.make_mpf(self.total), ctx.prec - GUARD_BITS, ctx.make_mpf(_up(mpf_add, tail, spread)))


def _block(run, leaves, cap, stop: int):
    """Fold the rational factors ``leaves``, (p, q) pairs in lowest terms,
    into ``run`` as one block and test the tail on its last term with its
    ``cap``, an int pair or None, reduced here: (run, tail or None, the cap
    in lowest terms)."""
    cap = _lowest(cap)
    p, q, t = _split(leaves, 0, len(leaves))
    top = from_int(p)
    run = run.fold(top, q, top if t == p else from_int(t), 0, len(leaves))
    return run, run.tail(cap, stop), cap


def _root_step(t: int, err: int, p: int, q: int, num: int, den: int, v: int):
    """One term of a root run in fixed point: from t, within err units of
    the true term x, the next term within the returned units of
    x (p/q) r, r = (num/den)^(1/v) in (0, 1), as (t, err).

    The root is y with y <= r 2^K < y + 1 (:func:`_root_floor`), and the
    term floor(t p y / (2^K q)).  K is the least that keeps the root's share
    |x p/q| (r - y 2^-K) below 1 unit, read off bit lengths:
    |x| <= |t| + err < 2^b and |p|/q < 2^(bitlen p - bitlen q + 1), so
    K = b + bitlen p - bitlen q + 1, and the precision falls with the term.
    With y 2^-K <= r < 1, err carries over as err |p|/q, and the root and
    the floor add under 1 unit each: err' = ceil(err |p|/q) + 2."""
    k = max((abs(t) + err).bit_length() + p.bit_length() - q.bit_length() + 1, 0)
    return (t * p * _root_floor(num, den, v, k) >> k) // q, -(-err * abs(p) // q) + 2


def _whole(x, e: int) -> int:
    """A raw mpf x as a whole number of units 2^e, e at most its exponent."""
    return 0 if not x[1] else -(x[1] << x[2] - e) if x[0] else x[1] << x[2] - e


def _roots(run, item, n: int, max_terms: int, stop: int):
    """Sum the :class:`Roots` run ``item``, factors n, n+1, ..., into
    ``run`` in one Python-int loop: (run, tail or None).

    Every value is a whole number of units 2^e, e set once from bit lengths:
    2^-prec max(|sum|, 1), no coarser than the last bits of t_i and of the
    sum, so both are exact.  Each term is one :func:`_root_step` from the
    last, T_0 = t_i, its error an exact count E_n of units, and the sum S
    and sum E_n add exactly.  The zero-factor rule, the budget and the tail
    test run on every term in ints, the test on the bound |T_n| + E_n
    against the kernel's target 2^-stop max(|sum|, 1), after a screen on
    bit lengths that skips only tests that fail.  The run is then folded
    into ``run`` once: one summand S 2^e, one rounded addition, and
    W gains |S 2^e| E_i + (sum E_n) 2^e, E_i the running term's relative
    error, which the run leaves as it is."""
    ctx, term, total = run.ctx, run.term, run.total
    lead = max(total[2] + total[3] - 1, 0) if total[1] else 0  # floor(log2 max(|sum|, 1))
    e = min([lead - ctx.prec] + [x[2] for x in (term, total) if x[1]])
    t, base, one = _whole(term, e), _whole(total, e), 1 << -e if e < 0 else 1  # one: 1, or a unit when that is more
    first, s, units, err, tail = n, 0, 0, 0, None

    def leaves():  # a chunk no longer than the run so far, up to _CHUNK
        m = first
        while True:
            size = min(_CHUNK, max(m - first, 1))
            yield from item.leaves(m, m + size)
            m += size

    for p, q, num, den in leaves():
        if not p:
            break  # a zero factor: the series terminated
        if n == max_terms:
            raise BudgetExceeded(f"error bound not met within {max_terms} terms")
        t, err = _root_step(t, err, p, q, num, den, item.v)
        s, units, n = s + t, units + err, n + 1
        cap = _lowest(item.cap(n - 1))
        if cap is None or cap[0] >= cap[1]:
            continue
        top, bottom = cap[0], cap[1] - cap[0]  # rho/(1-rho)
        bound, size = abs(t) + err, max(abs(base + s), one)
        # bound top 2^stop <= bottom size; bit lengths put the left side at 2^(bits - 2) or more
        if top and bound.bit_length() + top.bit_length() + stop - 2 >= bottom.bit_length() + size.bit_length():
            continue
        if bound * top << stop <= bottom * size:
            tail = _up(mpf_mul, from_man_exp(bound, e, 30, "u"), from_rational(top, bottom, 30, "u"))
            break
    if n == first:
        return run, tail
    summand = from_man_exp(s, e)
    share = _up(mpf_add, from_man_exp(units, e, 30, "u"), _up(mpf_mul, mpf_abs(summand), from_man_exp(run.rel, -ctx.prec)))
    total = mpf_add(total, summand, ctx.prec, "n")
    abs_sum = mpf_add(run.abs_sum, mpf_abs(summand), ctx.prec, "u")
    return run._replace(term=from_man_exp(t, e), terms=run.terms + n - first, adds=run.adds + 1, exact=False, total=total, abs_sum=abs_sum, weighted=_up(mpf_add, run.weighted, share)), tail


def tail_bounded_sum(ctx, head, run, max_terms: int):
    """Sum a series, given as its head and its run of term ratios, until a
    geometric tail bound meets the context's target.

    ``head`` is t_0: an exact ratio p/q as an int pair ``(p, q)``, q != 0
    and either sign, or a :class:`BigFloat` ball at ``ctx``'s precision, its
    radius in :meth:`BigFloat.units`.  ``run`` gives every later factor,
    t_n = t_{n-1} f_n for n >= 1: a :class:`Ratios` run of exact ratios, or
    a :class:`Roots` run of root factors (p/q) (num/den)^(1/v), summed in
    fixed point (below).  Its ``cap(n)`` is cap_n, an exact rational as an
    int pair with |f_m| <= cap_n for every m > n, or None while no cap is
    known; the head has none.  The kernel asks a :class:`Ratios` run for its
    leaves, ``leaves(n0, n1)`` the pairs of the factors n0 <= n < n1, a
    chunk of at most :data:`_CHUNK` at a time, no further than the open
    block's predicted end, and for a cap only where a block ends.  Neither a
    factor nor a cap need be in lowest terms: the kernel reduces each exact
    factor once as it reads it, the sign to the denominator and then one gcd
    (:func:`_lowest`), and a cap only at a block end, where the tail test and
    the stop prediction read it, so a run of ``(k p, k q)`` sums bit for bit
    as one of ``(p, q)``.  The target is 2^-(P+8), P = ``ctx.prec -
    GUARD_BITS`` the requested precision.  The sum stops after the first
    folded t_n with |t_n| rho/(1-rho) <= target * max(|sum|, 1),
    rho = cap_n < 1.  A zero head or factor ends a finite series: its tail
    is 0, and no factor past it is summed.

    Blocks: a ball head is a block of one, folded with its units.  Each run
    of rational factors f_{i+1..j} = p_l/q_l, a pair head the first of the
    first, is summed exactly by binary splitting (:func:`_split`) into
    integers P, Q and T, and folded into the sum with one exact product and
    one rounded division for each of two values (:func:`_times`): t_i T/Q is
    one summand and t_i P/Q the next running term t_j.  A block ends at the
    first of: its denominators reaching the working precision ``prec`` in
    bits; a zero factor; the ``max_terms``-th term; the stop index
    predicted, as the block opens, from the last cap rho < 1 and the folded
    |t_i| and |sum| (:meth:`_Run.steps`); a root run, after a pair head.
    The tail test then runs on the block's last term (:func:`_block`), so a
    prediction that falls short costs one more block, never a wrong stop,
    and the sum stops at the first block end that passes it: never before a
    per-term loop would, and past it when the block runs on beyond the first
    passing term, which the prediction and the cut at ``prec`` bits keep to
    a short block.  Before the exact test, a float screen (:meth:`_Run.tail`)
    skips it where log2 |t_n| + log2 num - log2(den - num) + stop
    - max(log2 |sum|, 0) > 1: the exact bound is at least
    |t_n| num/(den - num), so a screened term could never pass, and the
    decisions are those of the exact test alone.

    Root runs (:func:`_roots`): the kernel sums every factor
    f_n = (p/q) (num/den)^(1/v), n >= 1, in one loop over Python ints, each
    value a whole number of units 2^e, 2^-prec max(|sum|, 1) as the run
    opens, from T_0 = t_0.  Each term is one :func:`_root_step`:
    T_n = floor(T_{n-1} p Y / (2^K q)), Y <= (num/den)^(1/v) 2^K < Y + 1
    by the one integer root (:func:`_root_floor`), K the least that keeps
    the root's share below 1 unit, so the precision falls with the term;
    its error is an exact count, E_n = ceil(E_{n-1} |p|/q) + 2.  The
    sum S adds exactly; the zero-factor rule, the budget and the tail test,
    on |T_n| + E_n against the same target, run on every term in ints.  The
    run is folded in once: the summand S 2^e, within (sum E_n) 2^e of t_0
    times the run's exact sum, and t_0 within E of its own, so one rounded
    addition, and W gains |S 2^e| E + (sum E_n) 2^e; the tail is
    (|T_n| + E_n) 2^e rho/(1-rho).

    The summands are added at the working precision, exactly while every
    summand and partial sum fits, and sum|summand| beside it, rounded up.
    The other bounds are radius arithmetic at 30 bits, rounded up as the ball
    rule's: rho/(1-rho) = num/(den-num) from the exact cap, rounded up once,
    and the tail |t_n| rho/(1-rho).  Every fold, a block or a ball head,
    adds eps = (ceil(units) + [it rounded]) 2^-prec to E, units the ball's
    own (0 for a block), and E is kept exactly as an integer multiple of
    2^-prec; each summand adds |summand| E to W.
    A summand is the exact block sum times t_i, so the folds move its ratio
    to its computed value by at most 1/prod(1 - eps) - 1 <= E/(1 - E), and
    the tail's t_n likewise.  With c = n 2^-prec for the n additions, each
    within 2^-prec of a partial sum, and g = c/(1-c), the radius is
    tail + g (sum|summand| + tail) + (1 + g)(W + E tail)/(1 - E): g covers
    the rounded partial sums against the summands, and (1 + g) the cross
    term, with no higher-order term left over.  Inside a block the terms
    cancel exactly, so sum|summand| <= sum|t|.  While every summand and
    partial sum is exact, the radius is the tail.

    Returns ``(ball, terms_used)``; raises :class:`BudgetExceeded` when
    ``max_terms`` terms do not meet the target, and :class:`NoConvergence`
    when c >= 1 or E >= 1: the factors' radii swamp the sum.
    """
    stop, width = ctx.prec - GUARD_BITS + 8, ctx.prec  # the target is 2^-stop; a block ends where its denominators reach width bits
    acc, tail, last = _Run(ctx), None, None  # last: the cap of the last folded term, in lowest terms
    leaves, bits, end = [], 0, 0  # the open block: its leaves in lowest terms, their denominators' bits, its last index
    pairs, n = [head], 0  # the rational factors to read next, from index n

    def cap(m: int):  # cap_m: the head has none
        return run.cap(m) if m else None

    if isinstance(head, BigFloat):  # a block of one
        if not head.value:
            return acc.ball(fzero), 0  # a zero head: the series is 0
        if not max_terms:
            raise BudgetExceeded(f"error bound not met within {max_terms} terms")
        top, units = _midpoint(ctx, head)
        acc, pairs, n = acc.fold(top, 1, top, units, 1), [], 1
    while True:
        for pair in pairs:
            if not pair[0]:
                break  # a zero factor: the series terminated
            if not leaves:  # a block opens at factor n: the budget, and where its stop should fall
                if n == max_terms:
                    raise BudgetExceeded(f"error bound not met within {max_terms} terms")
                steps = acc.steps(last, stop)
                end = max_terms - 1 if steps is None else min(max_terms - 1, n - 1 + steps)
            p, q = pair  # to lowest terms, as :func:`_lowest`
            g = math.gcd(p, q)
            if q < 0:
                g = -g
            q //= g
            leaves.append((p // g, q))
            bits += q.bit_length()
            n += 1
            if bits >= width or n > end:  # the block ends with factor n - 1
                (acc, tail, last), leaves, bits = _block(acc, leaves, cap(n - 1), stop), [], 0
                if tail is not None:
                    break
        else:
            if isinstance(run, Ratios):  # its next leaves: up to the open block's predicted end, or the one that opens a block
                pairs = run.leaves(n, n + (min(_CHUNK, end + 1 - n) if leaves else 1))
                continue
            if leaves:  # a pair head's block ends before the root run
                acc, leaves = _block(acc, leaves, None, stop)[0], []
            acc, tail = _roots(acc, run, n, max_terms, stop)
        break
    if leaves:  # a zero factor ended the open block
        acc, tail, _ = _block(acc, leaves, cap(n - 1), stop)
    return acc.ball(fzero if tail is None else tail), acc.terms


@dataclass(frozen=True)
class BigFloat:
    """A ball: the midpoint ``value`` and the radius ``error_bound``, an
    absolute bound on ``|value - true value|``.

    ``value`` was computed at ``precision_bits`` plus guard bits.  ``+ - * /``
    take BigFloats, ints (exact) and Fractions (rounded once unless dyadic,
    as :func:`rational`) on either side: the midpoint is the operation on the
    midpoints, rounded once at the lower of the two precisions, and the
    radius adds how far the operands' radii can move the result and
    2^-prec |midpoint| for that rounding, all rounded up; an exact product
    or sum that fits the precision, or a quotient by a power of two, does
    not round.
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
        # the exact sum first, unless both are nonzero with lowest bits over prec apart
        near = not (x[1] and y[1]) or abs(x[2] - y[2]) <= ctx.prec
        mid, rounds = _fit(ctx.prec, mpf_add(x, y)) if near else (mpf_add(x, y, ctx.prec, "n"), True)
        return _rounded(ctx, mid, _up(mpf_add, rx, ry), rounds)

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
        mid, rounds = _fit(ctx.prec, mpf_mul(x, y))
        return _rounded(ctx, mid, spread, rounds)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ctx, x, rx, y, ry = self._with(other)
        low = mpf_sub(mpf_abs(y), ry, 30, "d")
        if ctx.make_mpf(low) <= 0:
            raise ZeroDivisionError("the divisor's ball contains 0")
        # |X/Y - x/y| <= (rx + |x/y| ry) / (|y| - ry) for X, Y in the balls
        spread = _up(mpf_add, rx, _up(mpf_div, _up(mpf_mul, mpf_abs(x), ry), mpf_abs(y)))
        # a quotient by +-2^e is a shift
        mid, rounds = _fit(ctx.prec, mpf_shift(mpf_neg(x) if y[0] else x, -y[2])) if y[1] == 1 else (mpf_div(x, y, ctx.prec, "n"), True)
        return _rounded(ctx, mid, _up(mpf_div, spread, low), rounds)

    def __rtruediv__(self, other):
        return rational(context(self.precision_bits), other) / self

    def units(self) -> float:
        """The radius in units 2^-prec of |value|, rounded up (0 for an exact
        ball): a kernel head's count, whose ceiling its fold adds to E."""
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
