"""Bit-identity guard for the summation kernel.

``data/kernel_bits.json`` holds, for each sum below, ``repr`` of its
midpoint and radius and the terms it used, or the name of the exception it
raised.  A change to how a series' head and run reach
:func:`hlcbs.floats.tail_bounded_sum` that keeps every leaf, block cut and
stop leaves each record unchanged to the bit.  Re-record with ``PYTHONPATH=src python tests/test_kernel_bits.py``
only for a change meant to move a stop or a radius, and say which moved.
"""

import functools
import itertools
import json
import os
from fractions import Fraction as F

import pytest

from hlcbs import hyper, series
from hlcbs.floats import BudgetExceeded, context, tail_bounded_sum

DATA = os.path.join(os.path.dirname(__file__), "data", "kernel_bits.json")

PRECISIONS = [32, 128, 512, 2048]
INTEGER_S = [F(-3), F(0), F(1), F(3)]
ROOT_S = [F(-5, 2), F(1, 2), F(3, 2), F(7, 3), F(-1, 3)]  # v = 2 and v = 3
POSITIVE_A = [F(1), F(3, 2), F(5, 4), F(1, 3)]  # on and off the lattice
NEGATIVE_A = [F(-1, 3), F(-5, 4)]  # integer s only
ZS = [F(0), F(1, 5), F(1, 2), F(9, 10)]
PFQ = [
    ((F(-5, 2), F(1)), (F(-7, 2),), F(-1, 3)),
    ((F(-4), F(1, 2)), (F(3, 2),), F(3, 4)),
    ((F(-9, 4), F(3, 2)), (F(-7, 3),), F(3, 5)),
    ((F(1), F(1)), (F(-3, 2),), F(1, 3)),
    ((F(-7), F(2, 3), F(1, 5)), (F(3, 7), F(5, 2)), F(-2, 3)),
    ((F(1, 2), F(1, 2)), (F(1),), F(-1, 3)),
    ((F(1, 2), F(3, 4)), (F(7, 4),), F(-1, 2)),
    ((F(1, 2), F(1, 2)), (F(3, 2),), F(1, 4)),
]


def _phi_points():
    """Every (s, a, z) of the grid, each at one precision in turn; the
    2048-bit turn skips z = 9/10, whose sums run to thousands of terms."""
    points = [(s, a, z) for s in INTEGER_S for a in POSITIVE_A + NEGATIVE_A for z in ZS if z or a > 0]
    points += [(s, a, z) for s in ROOT_S for a in POSITIVE_A for z in ZS]
    turns = itertools.cycle(PRECISIONS)
    for s, a, z in points:
        precision = next(turns)
        if precision == 2048 and z == F(9, 10):
            precision = 512
        yield f"phi-s={s}-a={a}-z={z}-P={precision}", ("phi", s, a, z, precision)


def _cases():
    cases = dict(_phi_points())
    for (upper, lower, z), precision in itertools.product(PFQ, PRECISIONS):
        name = f"pfq-{','.join(map(str, upper))};{','.join(map(str, lower))}-z={z}-P={precision}"
        cases[name] = ("pfq", upper, lower, z, precision)
    # budgets that run out: the last term read and the error raised
    cases["phi-budget-s=2-a=1-z=9/10-P=128"] = ("phi", F(2), F(1), F(9, 10), 128, 40)
    cases["phi-budget-s=3/2-a=5/4-z=1/2-P=512"] = ("phi", F(3, 2), F(5, 4), F(1, 2), 512, 12)
    return cases


CASES = _cases()


def run_case(case):
    """``[repr(value), repr(error_bound), terms_used]`` of one sum, or
    ``["raises", name]`` for the error it raised."""
    if case[0] == "phi":
        _, s, a, z, precision, *budget = case
        query = series.SeriesQuery(s, a, z, precision)
        ctx = context(precision)
        (head, run), max_terms = series._phi_factors(ctx, query.s, query.a, query.z), budget[0] if budget else query.max_terms
    else:
        _, upper, lower, z, precision = case
        ctx = context(precision)
        (head, run), max_terms = hyper._pfq_factors(hyper.PFQParams(upper, lower, z)), hyper._MAX_PFQ_TERMS
    try:
        ball, terms = tail_bounded_sum(ctx, head, run, max_terms)
    except BudgetExceeded as error:
        return ["raises", type(error).__name__]
    return [repr(ball.value), repr(ball.error_bound), terms]


@functools.cache
def _load():
    with open(DATA) as fh:
        return json.load(fh)


def test_every_case_recorded():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sum_is_bit_identical(name):
    assert run_case(CASES[name]) == _load()[name]


if __name__ == "__main__":
    with open(DATA, "w") as out:
        json.dump({name: run_case(case) for name, case in sorted(CASES.items())}, out, indent=1)
        out.write("\n")
