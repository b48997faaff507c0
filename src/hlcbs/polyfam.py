"""Generators for the polynomial and number families used by the series kit.

Everything here is exact rational arithmetic.  Each family is produced by its
defining first-order recursion (memoized, since the recursions are inherently
sequential); independent generating-function expansions are provided as
oracles so the recursions can be machine-checked against the definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import BiPoly, DomainError, UniPoly, as_fraction

# x(1-x), the common transport term of the recursions
_X_ONE_MINUS_X = UniPoly((0, 1, -1))


def binomial(n: int, k: int) -> int:
    """Exact integer binomial coefficient, 0 outside the triangle."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# polynomial ladders behind the negative-integer series values


@lru_cache(maxsize=None)
def q_poly(k: int) -> UniPoly:
    """q_k(x):  q_{k+1} = (2(k+1)x+1) q_k + 2x(1-x) q_k',  q_{-1} = 1."""
    if k < -1:
        raise DomainError(f"q_poly needs k >= -1, got {k}")
    if k == -1:
        return UniPoly.const(1)
    for j in range(-1, k - 1):  # fill the cache bottom-up: recursion stays shallow
        q_poly(j)
    prev = q_poly(k - 1)
    return UniPoly((1, 2 * k)) * prev + 2 * _X_ONE_MINUS_X * prev.derivative()


@lru_cache(maxsize=None)
def p_poly(k: int) -> UniPoly:
    """p_k(x):  p_{k+1} = 2(kx+1) p_k + 2x(1-x) p_k' + q_k,  p_{-1} = 0,
    which is :func:`p_a_ladder` at a = 1."""
    if k < -1:
        raise DomainError(f"p_poly needs k >= -1, got {k}")
    return p_a_ladder(k, 1)


def _p_step(p, j: int, a):
    """p_j(a, x) from p = p_{j-1}(a, x), in the class of p:
    (2a + (2j - 2a)x) p + 2x(1-x) p' + q_{j-1}(x).  With p a BiPoly, a is
    the indeterminate UniPoly.x(); with p a UniPoly, a is a rational."""
    poly = type(p)
    return poly((2 * a, 2 * j - 2 * a)) * p + poly((0, 2, -2)) * p.derivative() + poly(q_poly(j - 1).coeffs)


@lru_cache(maxsize=None)
def p_a_poly(k: int) -> BiPoly:
    """One-parameter interpolation p_k(a,x).

    Recursion: p_{k+1}(a,x) = 2((k+1-a)x + a) p_k(a,x) + 2x(1-x) d/dx p_k(a,x)
    + q_k(x), starting from p_{-1}(a,x) = 0.  Specializes to q_k at a=0 and
    to p_k at a=1.
    """
    if k < -1:
        raise DomainError(f"p_a_poly needs k >= -1, got {k}")
    if k == -1:
        return BiPoly()
    for j in range(-1, k - 1):  # fill the cache bottom-up: recursion stays shallow
        p_a_poly(j)
    return _p_step(p_a_poly(k - 1), k, UniPoly.x())


def p_a_ladder(k: int, a) -> UniPoly:
    """p_k(a, x) at one rational a: the :func:`p_a_poly` step run in x
    alone, O(k^2) rather than the O(k^3) of the bivariate ladder.  An int a
    stays an int, so p_k(1, x) = p_k(x) is built in integers."""
    a = a if isinstance(a, int) else as_fraction(a)
    p = UniPoly()
    for j in range(k + 1):
        p = _p_step(p, j, a)
    return p


# ---------------------------------------------------------------------------
# bivariate Eulerian polynomials E_n(x, y)
#
# Represented as BiPoly with main variable x and coefficient variable y.

EulerianPoly = BiPoly


@lru_cache(maxsize=None)
def eulerian(n: int) -> EulerianPoly:
    """E_n(x,y), coefficient of t^n/n! in ((1-x)/(e^{t(x-1)}-x))^y.

    Generated by E_{n+1} = (y + n x) E_n + x(1-x) dE_n/dx with E_0 = 1; the
    recursion is validated against :func:`eulerian_gf_oracle`.
    """
    if n < 0:
        raise DomainError(f"eulerian needs n >= 0, got {n}")
    if n == 0:
        return BiPoly.const(1)
    for j in range(n - 1):  # fill the cache bottom-up: recursion stays shallow
        eulerian(j)
    prev = eulerian(n - 1)
    multiplier = BiPoly((UniPoly((0, 1)), UniPoly((n - 1,))))  # y + (n-1) x
    return multiplier * prev + BiPoly.from_x_poly(_X_ONE_MINUS_X) * prev.derivative()


def _series_mul(a, b, order):
    """Truncated Cauchy product of UniPoly-coefficient power series."""
    out = [UniPoly() for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order or ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def eulerian_gf_oracle(n: int) -> EulerianPoly:
    """E_n(x,y) read off the generating function itself.

    Expands ((1-x)/(e^{t(x-1)}-x))^y as a formal power series in t to order n
    with exact rational coefficients, treating y formally via the binomial
    series (1+v)^y = sum_j binom(y,j) v^j.
    """
    if n < 0:
        raise DomainError(f"eulerian_gf_oracle needs n >= 0, got {n}")
    order = n
    # W(t) = (e^{t(x-1)} - x)/(1-x) = 1 - sum_{m>=1} (x-1)^{m-1}/m! t^m
    x_minus_1 = UniPoly((-1, 1))
    w = [UniPoly.const(1)]
    for m in range(1, order + 1):
        w.append(-(x_minus_1 ** (m - 1)) * Fraction(1, math.factorial(m)))
    # u = 1/W by the standard series-inverse recurrence (W_0 = 1)
    u = [UniPoly.const(1)] + [UniPoly() for _ in range(order)]
    for m in range(1, order + 1):
        acc = UniPoly()
        for j in range(1, m + 1):
            acc = acc + w[j] * u[m - j]
        u[m] = -acc
    # v = u - 1 vanishes at t=0, so v^j only reaches t-order >= j
    v = list(u)
    v[0] = UniPoly()
    # accumulate sum_j binom(y,j) v^j; coefficient of t^n times n! is E_n,
    # with binom(y,j) the falling-factorial binomial as a polynomial in y
    binom_y = UniPoly.const(1)
    v_power = [UniPoly.const(1)] + [UniPoly() for _ in range(order)]
    y_poly = UniPoly.x()
    target = [BiPoly() for _ in range(order + 1)]
    target[0] = BiPoly.const(1)
    for j in range(1, order + 1):
        binom_y = binom_y * (y_poly - (j - 1)) * Fraction(1, j)
        v_power = _series_mul(v_power, v, order)
        for m in range(j, order + 1):
            target[m] = target[m] + BiPoly.from_x_poly(v_power[m]) * binom_y
    return target[n] * Fraction(math.factorial(n))


# ---------------------------------------------------------------------------
# poly-Bernoulli numbers


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind S(n, m), by inclusion-exclusion:
    m! S(n, m) = sum_j (-1)^(m-j) C(m, j) j^n, with no recursion in n."""
    if m < 0 or m > n:
        return 0
    return sum((-1) ** (m - j) * math.comb(m, j) * j**n for j in range(m + 1)) // math.factorial(m)


@lru_cache(maxsize=None)
def poly_bernoulli(n: int, k: int) -> Fraction:
    """B_n^{(k)} via the Stirling closed form.

    B_n^{(k)} = sum_{m=0}^{n} (-1)^{m+n} m! S(n,m) / (m+1)^k, which matches
    the generating function sum_{m>=1} (1-e^{-t})^{m-1}/m^k order by order
    (see :func:`poly_bernoulli_gf_oracle`).
    """
    if n < 0:
        raise DomainError(f"poly_bernoulli needs n >= 0, got {n}")
    total = Fraction(0)
    for m in range(n + 1):
        s = stirling2(n, m)
        if s:
            total += Fraction((-1) ** (m + n) * math.factorial(m) * s) / Fraction(m + 1) ** k
    return total


def poly_bernoulli_gf_oracle(n_max: int, k: int) -> list:
    """[B_0^{(k)}, ..., B_{n_max}^{(k)}] by expanding the generating function.

    Expands sum_{m>=1} (1-e^{-t})^{m-1}/m^k as a rational power series in t;
    only m <= n_max + 1 contribute since (1-e^{-t})^{m-1} = O(t^{m-1}).
    """
    if n_max < 0:
        raise DomainError(f"poly_bernoulli_gf_oracle needs n_max >= 0, got {n_max}")
    order = n_max
    one_minus_exp = [Fraction(0)] + [
        -Fraction((-1) ** m, math.factorial(m)) for m in range(1, order + 1)
    ]
    coeffs = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # (1-e^{-t})^{m-1}, starting at m=1
    for m in range(1, order + 2):
        weight = Fraction(1) / Fraction(m) ** k
        for i, c in enumerate(power):
            coeffs[i] += weight * c
        if m <= order:
            nxt = [Fraction(0)] * (order + 1)
            for i, a in enumerate(power):
                if a:
                    for j, b in enumerate(one_minus_exp):
                        if i + j > order:
                            break
                        nxt[i + j] += a * b
            power = nxt
    return [coeffs[i] * math.factorial(i) for i in range(order + 1)]


# ---------------------------------------------------------------------------
# the alpha sequence and Eulerian representations


@lru_cache(maxsize=None)
def alpha(n: int, a) -> Fraction:
    """alpha_n(a) = (2/3)^n p_n(a, 1/4), generated by its own recursion.

    3 alpha_n = 2 alpha_{n-1} + sum_{l=0}^{n-1} C(n,l) alpha_l + 3 a^n,
    with alpha_0 = 1.  It runs on the integers beta_n = (3d)^n alpha_n, a = c/d:
    beta_n = 2d beta_{n-1} + (3c)^n + sum_{l<n} C(n,l) (3d)^(n-l) beta_l / 3,
    with one division at the end, so no step pays a gcd.
    """
    if n < 0:
        raise DomainError(f"alpha needs n >= 0, got {n}")
    a = as_fraction(a)
    c, d = a.numerator, a.denominator
    scale = [(3 * d) ** j for j in range(n + 1)]
    betas = [1]
    for m in range(1, n + 1):
        tail = sum(math.comb(m, l) * scale[m - l] * betas[l] for l in range(m))
        betas.append(2 * d * betas[m - 1] + (3 * c) ** m + tail // 3)
    return Fraction(betas[n], scale[n])


def p_from_eulerian(n: int) -> BiPoly:
    """p_n(a,z) assembled from bivariate Eulerian polynomials at y = 1/2.

    p_n(a,z) = 2^n sum_{j=0}^{n} sum_{l=0}^{j} C(n+1,j+1) C(j,l)
               (a-1)^{j-l} (1-z)^{j-l} E_{n-j}(z,1/2) E_l(z,1/2).
    Must agree with :func:`p_a_poly` coefficient-wise.
    """
    if n < 0:
        raise DomainError(f"p_from_eulerian needs n >= 0, got {n}")
    e_half = [eulerian(m).substitute_a(Fraction(1, 2)) for m in range(n + 1)]
    a_minus_1 = UniPoly((-1, 1))  # in a
    one_minus_z = UniPoly((1, -1))  # in z
    total = BiPoly()
    for j in range(n + 1):
        for l in range(j + 1):
            c = binomial(n + 1, j + 1) * binomial(j, l)
            z_part = (one_minus_z ** (j - l)) * e_half[n - j] * e_half[l] * c
            total = total + BiPoly.from_x_poly(z_part) * a_minus_1 ** (j - l)
    return total * 2**n


def bm_p_poly(n: int) -> UniPoly:
    """p_n(x) from the Eulerian convolution 2^n sum_k C(n+1,k) E_{n-k} E_k at y=1/2."""
    if n < 0:
        raise DomainError(f"bm_p_poly needs n >= 0, got {n}")
    e_half = [eulerian(m).substitute_a(Fraction(1, 2)) for m in range(n + 1)]
    total = UniPoly()
    for k in range(n + 1):
        total = total + binomial(n + 1, k) * e_half[n - k] * e_half[k]
    return total * 2**n


def bm_q_poly(n: int) -> UniPoly:
    """q_{n-1}(x) = 2^n E_n(x, 1/2), the companion identity."""
    if n < 0:
        raise DomainError(f"bm_q_poly needs n >= 0, got {n}")
    return eulerian(n).substitute_a(Fraction(1, 2)) * 2**n
