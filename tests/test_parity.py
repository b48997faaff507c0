"""Parity guard for the public numeric entry points.

``data/parity_values.json`` holds values and error bounds, as decimal
strings, computed before the summation loops were merged into
:func:`hlcbs.floats.tail_bounded_sum`.  Each point must still agree within
the sum of both bounds, and its bound may at most double.
"""

import json
import os
from fractions import Fraction as F

import mpmath
import pytest

from hlcbs import closedform, hyper, series

with open(os.path.join(os.path.dirname(__file__), "data", "parity_values.json")) as _fh:
    STORED = json.load(_fh)


def _fracs(values):
    return [F(v) for v in values]


ENTRY_POINTS = {
    "phi_numeric": lambda s, a, z, p: series.phi_numeric(series.SeriesQuery(F(s), F(a), F(z), p)),
    "pfq_eval": lambda u, l, z, p: hyper.pfq_eval(hyper.PFQParams(_fracs(u), _fracs(l), F(z)), p),
    "incomplete_beta_numeric": lambda z, al, be, p: hyper.incomplete_beta_numeric(F(z), F(al), F(be), p),
    "phi_pos_hyper": lambda k, a, z, p: closedform.phi_pos_hyper(k, F(a), F(z), p),
    "phi_neg_hyper": lambda k, a, z, p: closedform.phi_neg_hyper(k, F(a), F(z), p),
    "phi_neg_closed": lambda k, a, z, p: closedform.phi_neg_closed(k, F(a), F(z), p),
    "phi_one_closed": lambda a, z, p: closedform.phi_one_closed(F(a), F(z), p),
    "zeta_structured": lambda k, a, p: closedform.zeta_structured(k, F(a), p)[1],
    "real_central_binomial": lambda a, p: hyper.real_central_binomial(F(a), p),
}

CASES = [(name, row) for name, rows in STORED.items() for row in rows]


def test_every_entry_point_is_guarded():
    assert set(STORED) == set(ENTRY_POINTS)
    assert all(len(rows) >= 11 for rows in STORED.values())


@pytest.mark.parametrize("name,row", CASES, ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_matches_stored_value(name, row):
    *args, value_text, bound_text = row
    out = ENTRY_POINTS[name](*args)
    ctx = mpmath.mp.clone()
    ctx.prec = out.precision_bits + 128
    stored, stored_bound = ctx.mpf(value_text), ctx.mpf(bound_text)
    assert abs(out.value - stored) <= out.error_bound + stored_bound
    assert out.error_bound <= 2 * stored_bound
