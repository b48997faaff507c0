"""Exact arithmetic foundation: rationals, polynomials, and the
Q-span of {1, sqrt3, pi, sqrt3*pi}.

A rational number is an ``int`` or a :class:`fractions.Fraction` (always
reduced, positive denominator), kept as it comes: integers stay integers,
so the integer ladders pay no gcd, and ``1 == Fraction(1)`` keeps equality,
hashing and text forms independent of which one a value is.  Floats are
rejected.  Polynomials are stored dense by degree, with schoolbook
products, and one arithmetic serves every coefficient ring: a
:class:`BiPoly` is a :class:`UniPoly` whose coefficients are UniPolys.  The
families reach degree 600 and more, where those products, not storage,
set the cost.  :class:`PiExtValue` holds every exact
special value produced by the kit: all of them live in the Q-vector space
spanned by 1, sqrt3, pi and sqrt3*pi, and that basis is Q-linearly
independent, so the representation is unique.  This layer holds no ball and
no float: the numeric image of a value, with pi summed by the kernel, is
:func:`hlcbs.hyper.piext_to_float`.

Both value types print canonical text through :func:`format_terms` and read
it back through the one reader :func:`_read`, which walks the text's Python
syntax tree (``^`` read as ``**``), admits only int literals, the type's
symbols and + - * / and powers to an int literal, and evaluates nothing.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from fractions import Fraction

from .floats import DomainError


class MultiplicationOutOfBasis(ArithmeticError):
    """A PiExtValue product would need pi^2, which the basis cannot hold."""


def as_fraction(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; reject floats (be explicit)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# dense polynomials over a coefficient ring


def _strip(coeffs) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over Q.

    ``coeffs[d]`` is the coefficient of x^d; trailing zeros are stripped, so
    the zero polynomial has an empty coefficient tuple.  A coefficient is an
    ``int`` or a ``Fraction``, kept as given (a str is parsed, a float
    raises TypeError), so an integer ladder runs in integers.

    The arithmetic is written once for any coefficient ring and returns
    ``type(self)``.  A subclass names its ring by ``_coefficient`` (the
    coercion of one coefficient) and ``_scalars`` (the operand types that
    act as constants).
    """

    coeffs: tuple

    _scalars = (int, Fraction)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([self._coefficient(c) for c in coeffs]))

    @staticmethod
    def _coefficient(c):
        return c if isinstance(c, (int, Fraction)) else as_fraction(c)

    @classmethod
    def _of(cls, coeffs):
        """The polynomial with these coefficients, already in the ring."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _strip(coeffs))
        return poly

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _lift(self, other):
        """``other`` as a polynomial of this class, or None if it is neither
        one nor a constant of the ring."""
        if type(other) is type(self):
            return other
        if isinstance(other, self._scalars):
            return self._of([self._coefficient(other)])
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._of(out)

    __radd__ = __add__

    def __neg__(self):
        return self._of([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) <= 1:  # one coefficient (or none): a scaling
            return self._of([c * b[0] for c in a] if b else [])
        out = [self._coefficient(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return self._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        if self.coeffs and not any(self.coeffs[:-1]):  # a monomial c x^k: c^n x^(kn)
            return self._of([self._coefficient(0)] * (self.degree * n) + [self.coeffs[-1] ** n])
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self):
        """Formal d/dx."""
        return self._of([c * d for d, c in enumerate(self.coeffs[1:], 1)])

    def __call__(self, point):
        """Horner evaluation at a rational point; a float raises TypeError."""
        point = as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def to_text(self, var: str = "x") -> str:
        return format_terms(
            [(c, _power_token(var, d)) for d, c in reversed(list(enumerate(self.coeffs)))]
        )

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str, var: str = "x") -> "UniPoly":
        """Inverse of :meth:`to_text` (also accepts '**' for powers)."""
        return cls.const(0) + _read(text, {var: cls.x()})


# ---------------------------------------------------------------------------
# polynomials in x whose coefficients are polynomials in the parameter a


class BiPoly(UniPoly):
    """Polynomial in x over the ring of :class:`UniPoly` in a.

    ``coeffs[d]`` is the UniPoly in a at x^d; a rational coefficient is
    lifted to a constant.  A UniPoly operand is a coefficient (a polynomial
    in a); embed a polynomial in x with :meth:`from_x_poly`.
    """

    _scalars = (int, Fraction, UniPoly)

    @staticmethod
    def _coefficient(c):
        return c if type(c) is UniPoly else UniPoly((c,))

    # named here so the class dict binds them: callers that wrap methods by
    # class attribute see BiPoly's own entries
    __add__ = __radd__ = UniPoly.__add__
    __mul__ = __rmul__ = UniPoly.__mul__

    @classmethod
    def from_x_poly(cls, p: UniPoly) -> "BiPoly":
        """Embed a polynomial in x (constant in a)."""
        return cls(p.coeffs)

    @classmethod
    def from_a_poly(cls, p: UniPoly) -> "BiPoly":
        """Embed a polynomial in a (degree 0 in x)."""
        return cls((p,))

    def substitute_a(self, a_value) -> UniPoly:
        """Coefficient-wise substitution of a rational value for a."""
        return UniPoly(tuple(c(a_value) for c in self.coeffs))

    def to_unipoly(self) -> UniPoly:
        """Round-trip for BiPoly with all a-degrees zero."""
        if any(c.degree > 0 for c in self.coeffs):
            raise DomainError("BiPoly depends on the parameter; cannot drop it")
        return UniPoly(tuple(c.coeffs[0] if c else 0 for c in self.coeffs))

    def __call__(self, a_value, x_value):
        return self.substitute_a(a_value)(x_value)

    def to_text(self, var: str = "x", coeff_var: str = "a") -> str:
        terms = []
        for d in range(self.degree, -1, -1):
            c, power = self.coeffs[d], _power_token(var, d)
            if c.degree > 0:
                body = f"({c.to_text(coeff_var)})"
                terms.append((1, f"{body}*{power}" if power else body))
            else:
                terms.append((c.coeffs[0] if c else 0, power))
        return format_terms(terms)


# ---------------------------------------------------------------------------
# exact values in Q + Q*sqrt3 + Q*pi + Q*sqrt3*pi


@dataclass(frozen=True)
class PiExtValue:
    """c_one + c_sqrt3*sqrt3 + c_pi*pi + c_sqrt3pi*sqrt3*pi with Fraction c's.

    Closed under addition and under scaling by elements q0 + q1*sqrt3 of
    Q(sqrt3); note pi/sqrt3 = (1/3)*sqrt3*pi, so all values handled by the
    kit embed here.  General multiplication is deliberately unsupported:
    anything needing pi^2 raises :class:`MultiplicationOutOfBasis`.
    """

    c_one: Fraction = Fraction(0)
    c_sqrt3: Fraction = Fraction(0)
    c_pi: Fraction = Fraction(0)
    c_sqrt3pi: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("c_one", "c_sqrt3", "c_pi", "c_sqrt3pi"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @classmethod
    def rational(cls, q) -> "PiExtValue":
        return cls(c_one=q)

    def is_zero(self) -> bool:
        return not (self.c_one or self.c_sqrt3 or self.c_pi or self.c_sqrt3pi)

    def in_q_sqrt3(self) -> bool:
        """True when the value lies in Q(sqrt3) (no pi part)."""
        return self.c_pi == 0 and self.c_sqrt3pi == 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiExtValue.rational(other)
        if not isinstance(other, PiExtValue):
            return NotImplemented
        return PiExtValue(
            self.c_one + other.c_one,
            self.c_sqrt3 + other.c_sqrt3,
            self.c_pi + other.c_pi,
            self.c_sqrt3pi + other.c_sqrt3pi,
        )

    __radd__ = __add__

    def __neg__(self):
        return PiExtValue(-self.c_one, -self.c_sqrt3, -self.c_pi, -self.c_sqrt3pi)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiExtValue.rational(other)
        if not isinstance(other, PiExtValue):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q0, q1=0) -> "PiExtValue":
        """Multiply by q0 + q1*sqrt3 (exact; uses sqrt3*sqrt3 = 3)."""
        q0 = as_fraction(q0)
        q1 = as_fraction(q1)
        return PiExtValue(
            q0 * self.c_one + 3 * q1 * self.c_sqrt3,
            q0 * self.c_sqrt3 + q1 * self.c_one,
            q0 * self.c_pi + 3 * q1 * self.c_sqrt3pi,
            q0 * self.c_sqrt3pi + q1 * self.c_pi,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, PiExtValue):
            if other.in_q_sqrt3():
                return self.scale(other.c_one, other.c_sqrt3)
            if self.in_q_sqrt3():
                return other.scale(self.c_one, self.c_sqrt3)
            raise MultiplicationOutOfBasis("product would require pi^2")
        return NotImplemented

    __rmul__ = __mul__

    def to_text(self) -> str:
        return format_terms(
            [
                (self.c_one, ""),
                (self.c_sqrt3, "sqrt3"),
                (self.c_pi, "pi"),
                (self.c_sqrt3pi, "sqrt3*pi"),
            ]
        )

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str) -> "PiExtValue":
        """Inverse of :meth:`to_text`."""
        return cls() + _read(text, {"sqrt3": cls(c_sqrt3=1), "pi": cls(c_pi=1)})


# ---------------------------------------------------------------------------
# canonical text form helpers


def _power_token(var: str, degree: int) -> str:
    if degree == 0:
        return ""
    if degree == 1:
        return var
    return f"{var}^{degree}"


def format_terms(terms) -> str:
    """Join (coefficient, symbolic-part) pairs into canonical text.

    Descending-degree ordering is the caller's responsibility.  Coefficients
    of +/-1 are suppressed next to a symbolic part; an all-zero term list
    renders as "0".
    """
    parts = []
    for coeff, sym in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if sym and mag == 1:
            body = sym
        elif sym:
            body = f"{mag}*{sym}"
        else:
            body = str(mag)
        parts.append(("-" if coeff < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# the binary operators of exact text; a divisor must be a rational
_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: lambda x, y: x * Fraction(1, y)
}


def _read(text: str, symbols: dict):
    """The value of exact text, read from its Python syntax tree.

    Int literals stay ints, a name must be one of ``symbols`` (name
    to value), and the operators are unary +/-, + - * /, and ** (or ^) to an
    int literal.  Anything else, and an operation the values do not support
    (a division by a symbol, pi^2), raises ValueError; no text is evaluated
    as Python.  A sum nests to the left, one level per term, so its left
    spine is walked in a loop; a text too long for ``ast.parse`` itself
    (about 3,000 terms) raises ValueError too.
    """

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in symbols:
            return symbols[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and type(node.right.value) is int:
                return walk(node.left) ** node.right.value
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            spine = []
            while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                spine.append(node)
                node = node.left
            value = walk(node)
            for step in reversed(spine):
                value = _OPERATORS[type(step.op)](value, walk(step.right))
            return value
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](walk(node.left), walk(node.right))
        raise ValueError(f"not exact text: {ast.unparse(node)!r}")

    try:
        return walk(ast.parse(text.strip().replace("^", "**"), mode="eval").body)
    except (SyntaxError, TypeError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"not exact text: {text!r}") from exc
