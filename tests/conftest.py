"""Shared helpers for the test suite."""

import sys
from fractions import Fraction

import mpmath
import pytest

from hlcbs import closedform, verify


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with the verify oracle's, the arcsines' and the
    ladder's memos empty, so no monkeypatched fault and no refused mpmath
    call is answered by a ball that an earlier test left there."""
    verify._oracle.cache_clear()
    verify._asin_and_cos.cache_clear()
    closedform._ladder_balls.cache_clear()


def empty_kit_caches():
    """Empty every functools cache held by a kit module, as a fresh process
    starts: the contexts, the seed, pi, the polynomial families and the
    memos above."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hlcbs" or name.startswith("hlcbs.")):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(scope="session")
def ctx():
    """A 256-bit mpmath context for reference computations in tests."""
    c = mpmath.mp.clone()
    c.prec = 256
    return c


def mpf_lit(ctx, digits: str):
    """Parse a decimal literal at the context's precision."""
    return ctx.mpf(digits)


def brute_force_zeta(ctx, s, a: Fraction, terms: int = 200):
    """Independent direct summation of the zeta-type series at z = 1/2.

    Deliberately written against mpmath's gamma directly, so it shares no
    code with the library paths it is used to check.
    """
    total = ctx.mpf(0)
    for n in range(terms):
        nu = ctx.mpf((a + n).numerator) / (a + n).denominator
        recip = ctx.gamma(nu + 1) ** 2 / ctx.gamma(2 * nu + 1)
        total += recip / nu**s
    return total


def is_pair(x) -> bool:
    """x is an exact ratio as the summation kernel takes it: a pair of ints
    (p, q) with q != 0."""
    return type(x) is tuple and len(x) == 2 and all(type(i) is int for i in x) and x[1] != 0
