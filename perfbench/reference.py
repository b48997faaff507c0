"""Independent references and the correctness gate.

Every reference here is computed with mpmath alone, from the definition of
the series, never through the kit's closed forms:

    Phi(s, a, z) = sum_{n>=0} (2z)^(2(n+a)) Gamma(n+a+1)^2 / (Gamma(2(n+a)+1) (n+a)^s).

For integer s the term ratio is a rational function of n, so Phi is a
prefactor times a generalized hypergeometric series that ``mpmath.hyper``
sums; for non-integer s the terms are summed directly.  A numeric result
passes when its distance from the reference is within its ``error_bound``;
exact results (zeta values, polynomial families) pass when they satisfy the
paper's identities against the same reference to 128 bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

# references are computed this many bits beyond the precision they judge
EXTRA_BITS = 64
# exact outputs carry no precision; they must agree with the reference to at
# least this many bits (see _check_bits)
EXACT_CHECK_BITS = 128


def make_ctx(bits: int):
    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def mpf_of(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / q.denominator


_RECIP_CACHE = {}


def reciprocal_binomial(ctx, a: Fraction):
    """Gamma(a+1)^2 / Gamma(2a+1) from mpmath's gamma (no lattice shortcut)."""
    key = (a, ctx.prec)
    if key not in _RECIP_CACHE:
        af = mpf_of(ctx, a)
        _RECIP_CACHE[key] = ctx.gamma(af + 1) ** 2 / ctx.gamma(2 * af + 1)
    return _RECIP_CACHE[key]


def phi_hyper_params(s: int, a: Fraction):
    """Upper and lower parameters of the series at integer s.

    The term ratio is z^2 (nu+1)/(nu+1/2) (nu/(nu+1))^s with nu = n + a,
    written over the (1)_n of the hypergeometric convention.
    """
    half = Fraction(1, 2)
    if s >= 1:
        return [Fraction(1)] + [a] * s, [a + half] + [a + 1] * (s - 1)
    m = -s
    return [Fraction(1)] + [a + 1] * (m + 1), [a + half] + [a] * m


def phi_ref(s, a: Fraction, z: Fraction, bits: int):
    """Phi(s, a, z) to about ``bits`` bits, for a > 0 and 0 < z < 1."""
    ctx = make_ctx(bits + 16)
    s = Fraction(s)
    if s.denominator == 1:
        upper, lower = phi_hyper_params(int(s), a)
        t0 = ctx.power(2 * mpf_of(ctx, z), 2 * mpf_of(ctx, a)) * reciprocal_binomial(ctx, a)
        t0 *= ctx.power(mpf_of(ctx, a), -int(s))
        series = ctx.hyper([mpf_of(ctx, u) for u in upper], [mpf_of(ctx, l) for l in lower], mpf_of(ctx, z * z))
        return t0 * series
    return _phi_direct(ctx, s, a, z, bits)


def _phi_direct(ctx, s: Fraction, a: Fraction, z: Fraction, bits: int):
    """Direct sum of the definition; needs s > 0 for the tail bound below."""
    if s <= 0:
        raise ValueError("direct reference sum needs s > 0")
    zf = mpf_of(ctx, z)
    z2 = zf * zf
    sf = mpf_of(ctx, s)
    recip = reciprocal_binomial(ctx, a)
    power = ctx.power(2 * zf, 2 * mpf_of(ctx, a))
    target = ctx.ldexp(1, -(bits + 8))
    total = ctx.mpf(0)
    nu = a
    while True:
        nuf = mpf_of(ctx, nu)
        term = power * recip * ctx.power(nuf, -sf)
        total += term
        # for s > 0 every later ratio is below z^2 (nu+1)/(nu+1/2), which falls with nu
        rho = z2 * (nuf + 1) / (nuf + ctx.mpf(0.5))
        if rho < 1 and term * rho / (1 - rho) < target * abs(total):
            return total
        power *= 4 * z2
        recip *= (nuf + 1) / (2 * (2 * nuf + 1))
        nu += 1


def pfq_ref(upper, lower, arg: Fraction, bits: int):
    ctx = make_ctx(bits + 16)
    return ctx.hyper([mpf_of(ctx, u) for u in upper], [mpf_of(ctx, l) for l in lower], mpf_of(ctx, arg))


def beta_ref(z: Fraction, alpha: Fraction, beta: Fraction, bits: int):
    ctx = make_ctx(bits + 16)
    return ctx.betainc(mpf_of(ctx, alpha), mpf_of(ctx, beta), 0, mpf_of(ctx, z))


def reference(spec, bits: int):
    """Reference value for a request spec (see workloads.numeric_ref_spec)."""
    kind = spec[0]
    if kind == "phi":
        _, s, a, z = spec
        return phi_ref(s, a, z, bits)
    if kind == "pfq":
        _, upper, lower, arg = spec
        return pfq_ref(upper, lower, arg, bits)
    if kind == "beta":
        _, z, alpha, beta = spec
        return beta_ref(z, alpha, beta, bits)
    raise ValueError(f"unknown reference kind {kind!r}")


# ---------------------------------------------------------------------------
# the gate for numeric results


def containment(value, error_bound, ref, precision_bits: int):
    """(passed, |value - ref| / error_bound) for one numeric result.

    The reference is good to about precision_bits + 64 bits; its own error
    is allowed for with 2^-(precision_bits + 56) |ref|, far below any bound
    the kit reports.
    """
    ctx = make_ctx(precision_bits + EXTRA_BITS + 32)
    dev = abs(ctx.mpf(value) - ref)
    bound = ctx.mpf(error_bound)
    slack = abs(ref) * ctx.ldexp(1, -(precision_bits + 56))
    ratio = float(dev / bound) if bound else (0.0 if dev == 0 else math.inf)
    return bool(dev <= bound + slack), ratio


def cert_bits(value, error_bound, precision_bits: int):
    """log2(|value| / error_bound) / precision_bits, or None when undefined."""
    value = abs(mpmath.mpf(value))
    error_bound = mpmath.mpf(error_bound)
    if value == 0 or error_bound <= 0:
        return None
    return float(mpmath.log(value / error_bound, 2)) / precision_bits


# ---------------------------------------------------------------------------
# exact outputs of the command line, judged against the same reference


def _check_bits(*values: Fraction) -> int:
    """Bits an exact check must resolve: 128 beyond the size of the largest
    numerator and denominator, so a change in the last unit of any printed
    coefficient shows."""
    return EXACT_CHECK_BITS + max(q.numerator.bit_length() + q.denominator.bit_length() for q in values)


def _agree(lhs, rhs, scale, bits: int):
    return bool(abs(lhs - rhs) <= abs(scale) * mpmath.ldexp(1, -bits))


def ladder_rhs(ctx, k: int, a: Fraction, z: Fraction, p_val, q_val):
    """Right side of the ladder formula for 2^(k-1) Phi(1-k, a, z).

    4^a z^(2a) / (2a C(2a,a) (1-z^2)^(k+1/2))
        * ((2a-1) sqrt(1-z^2) p_{k-1}(a, z^2) + 2F1(1/2, a-1/2; a+1/2; z^2) q_{k-1}(z^2)).
    Returns (value, scale) where scale bounds the magnitudes that were added.
    """
    af = mpf_of(ctx, a)
    zf = mpf_of(ctx, z)
    one_minus = 1 - zf * zf
    pre = ctx.power(4, af) * ctx.power(zf, 2 * af) * reciprocal_binomial(ctx, a)
    pre /= 2 * af * ctx.power(one_minus, k + ctx.mpf(0.5))
    gauss = ctx.hyp2f1(ctx.mpf(0.5), af - ctx.mpf(0.5), af + ctx.mpf(0.5), zf * zf)
    p_term = (2 * af - 1) * ctx.sqrt(one_minus) * p_val
    q_term = gauss * q_val
    return pre * (p_term + q_term), abs(pre) * (abs(p_term) + abs(q_term))


def _lhs(ctx, k: int, a: Fraction, z: Fraction):
    return ctx.ldexp(phi_ref(1 - k, a, z, ctx.prec), k - 1)


def check_zeta_exact(k: int, a: Fraction, value) -> bool:
    """An exact zeta(1-k, a) = Phi(1-k, a, 1/2), given as a PiExtValue."""
    bits = _check_bits(value.c_one, value.c_sqrt3, value.c_pi, value.c_sqrt3pi)
    ctx = make_ctx(bits + EXTRA_BITS)
    sqrt3, pi = ctx.sqrt(3), ctx.pi
    terms = [
        mpf_of(ctx, value.c_one),
        mpf_of(ctx, value.c_sqrt3) * sqrt3,
        mpf_of(ctx, value.c_pi) * pi,
        mpf_of(ctx, value.c_sqrt3pi) * sqrt3 * pi,
    ]
    scale = sum(abs(t) for t in terms)
    return _agree(ctx.fsum(terms), phi_ref(1 - k, a, Fraction(1, 2), ctx.prec), scale, bits)


def check_structured_parts(k: int, a: Fraction, rational_part: Fraction, q_part: Fraction) -> bool:
    """zeta(1-k, a) = (2a-1) G/a (2/3)^k (r + 4^(a-1) (2/sqrt3) B(1/4; a-1/2, 1/2) q),
    with G = Gamma(a+1)^2/Gamma(2a+1), r = p_{k-1}(a, 1/4), q = q_{k-1}(1/4)."""
    bits = _check_bits(rational_part, q_part)
    ctx = make_ctx(bits + EXTRA_BITS)
    af = mpf_of(ctx, a)
    pre = (2 * af - 1) * reciprocal_binomial(ctx, a) / af * ctx.power(ctx.mpf(2) / 3, k)
    beta = ctx.betainc(af - ctx.mpf(0.5), ctx.mpf(0.5), 0, ctx.mpf(0.25))
    r_term = mpf_of(ctx, rational_part)
    q_term = ctx.power(4, af - 1) * 2 / ctx.sqrt(3) * beta * mpf_of(ctx, q_part)
    value = pre * (r_term + q_term)
    scale = abs(pre) * (abs(r_term) + abs(q_term))
    return _agree(value, phi_ref(1 - k, a, Fraction(1, 2), ctx.prec), scale, bits)


def check_p_a_poly(n: int, evaluate) -> bool:
    """p_n(a, x) through the ladder at one off-lattice point.

    ``evaluate(a, x)`` evaluates the printed polynomial exactly; q_n(x) is
    its a = 0 specialization.
    """
    a, z = Fraction(5, 4), Fraction(1, 2)
    x = z * z
    p_val, q_val = evaluate(a, x), evaluate(Fraction(0), x)
    bits = _check_bits(p_val, q_val)
    ctx = make_ctx(bits + EXTRA_BITS)
    rhs, scale = ladder_rhs(ctx, n + 1, a, z, mpf_of(ctx, p_val), mpf_of(ctx, q_val))
    return _agree(_lhs(ctx, n + 1, a, z), rhs, scale, bits)


def _q_from_reference(ctx, n: int, z: Fraction):
    """q_n(z^2) from Phi(-n, 1/2, z): at a = 1/2 the ladder keeps only q."""
    unit, _ = ladder_rhs(ctx, n + 1, Fraction(1, 2), z, 0, 1)
    return _lhs(ctx, n + 1, Fraction(1, 2), z) / unit


def check_eulerian(n: int, evaluate) -> bool:
    """E_n(x, y) at y = 1/2, where 2^n E_n(x, 1/2) = q_{n-1}(x), and at y = 1,
    where E_n(x, 1) = (1-x)^(n+1) Li_{-n}(x) / x is the Eulerian polynomial."""
    z = Fraction(1, 2)
    x = z * z
    at_half, at_one = evaluate(x, Fraction(1, 2)), evaluate(x, Fraction(1))
    bits = _check_bits(at_half, at_one)
    ctx = make_ctx(bits + EXTRA_BITS)
    q = _q_from_reference(ctx, n - 1, z)
    xf = mpf_of(ctx, x)
    eulerian_one = ctx.power(1 - xf, n + 1) * ctx.polylog(-n, xf) / xf
    return _agree(ctx.ldexp(mpf_of(ctx, at_half), n), q, q, bits) and _agree(
        mpf_of(ctx, at_one), eulerian_one, eulerian_one, bits
    )


def check_alpha(n: int, a: Fraction, value: Fraction) -> bool:
    """alpha_n(a) = (2/3)^n p_n(a, 1/4) through the ladder at z = 1/2 (a != 1/2)."""
    z = Fraction(1, 2)
    p_val = value * Fraction(3, 2) ** n
    bits = _check_bits(p_val)
    ctx = make_ctx(bits + EXTRA_BITS)
    rhs, scale = ladder_rhs(ctx, n + 1, a, z, mpf_of(ctx, p_val), _q_from_reference(ctx, n, z))
    return _agree(_lhs(ctx, n + 1, a, z), rhs, scale, bits)


def printed_rounding(text: str):
    """Half a unit in the last digit of a printed decimal."""
    mantissa, _, exponent = text.lower().partition("e")
    digits_after = len(mantissa.partition(".")[2])
    return mpmath.ldexp(1, -1) * mpmath.power(10, int(exponent or 0) - digits_after)


# ---------------------------------------------------------------------------
# exact evaluation of printed polynomials


def evaluate_text(text: str, env: dict) -> Fraction:
    """Evaluate a printed polynomial such as ``(4*a^2 - 8*a)*x + 1`` exactly.

    Grammar: sums of products of rationals, variables, ``var^int`` and
    parenthesized sums; independent of the kit's own parser.
    """
    tokens = text.replace(" ", "")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ""

    def expr():
        nonlocal pos
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if peek() == "-" else 1
            pos += 1
        total = sign * term()
        while peek() in ("+", "-"):
            op = peek()
            pos += 1
            total += term() if op == "+" else -term()
        return total

    def term():
        nonlocal pos
        value = factor()
        while peek() == "*":
            pos += 1
            value *= factor()
        return value

    def factor():
        nonlocal pos
        if peek() == "(":
            pos += 1
            value = expr()
            if peek() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return value
        start = pos
        while pos < len(tokens) and (tokens[pos].isalnum() or tokens[pos] == "/"):
            pos += 1
        word = tokens[start:pos]
        if not word:
            raise ValueError(f"unexpected {peek()!r} in {text!r}")
        value = env[word] if word[0].isalpha() else Fraction(word)
        if peek() == "^":
            pos += 1
            start = pos
            while pos < len(tokens) and tokens[pos].isdigit():
                pos += 1
            value = value ** int(tokens[start:pos])
        return value

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return Fraction(value)
