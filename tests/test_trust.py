"""No mpmath special function stands under a radius.

Every kit context made while an entry point runs has its ``power``,
``sqrt``, ``nthroot``, ``ln``, ``log``, ``exp``, ``gamma`` and ``pi``
replaced by a raise: every root is proved, and the off-lattice seed and pi
are the kernel's own sums.  Each entry point must still return a ball that
holds the certifier's reference, computed beforehand in a context of its
own.  The cases start cold: every functools cache held by a kit module,
the seed, pi and the verify and ladder memos among them, is emptied too.
"""

from fractions import Fraction as F

import mpmath
import pytest

from hlcbs import closedform, hyper, series
from hlcbs.hyper import piext_to_float
from hlcbs.floats import context
from hlcbs.verify import run_check
from conftest import empty_kit_caches
from test_certify import _ctx, _mp, assert_certified, ref_phi

REFUSED = ("power", "sqrt", "nthroot", "ln", "log", "exp", "gamma", "pi")
A, Z, P = F(1, 3), F(2, 5), 128


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"mpmath's {name} was called under a radius")

    return refused


@pytest.fixture
def untrusted(monkeypatch):
    """Run a call with every kit context refusing :data:`REFUSED`; every kit
    cache is emptied before and after, so no cached value hides a call and
    no context escapes."""
    clone = mpmath.mp.clone

    def refusing_clone():
        ctx = clone()
        for name in REFUSED:
            setattr(ctx, name, _refuse(name))
        return ctx

    def run(call):
        empty_kit_caches()
        with monkeypatch.context() as patch:
            patch.setattr(mpmath.mp, "clone", refusing_clone)
            try:
                return call()
            finally:
                empty_kit_caches()

    return run


def _gamma_quotient(a):
    c = _ctx(P)
    x = _mp(c, a)
    return c.gamma(2 * x + 1) / c.gamma(x + 1) ** 2


def _betainc(z, alpha, beta):
    c = _ctx(P)
    return c.betainc(_mp(c, alpha), _mp(c, beta), 0, _mp(c, z))


CASES = {
    "phi_numeric s=2": (lambda: series.phi_numeric(series.SeriesQuery(2, A, Z, P)), lambda: ref_phi(2, A, Z, P)),
    "phi_numeric s=5/2": (lambda: series.phi_numeric(series.SeriesQuery(F(5, 2), A, Z, P)), lambda: ref_phi(F(5, 2), A, Z, P)),
    "phi_numeric s=7/3": (lambda: series.phi_numeric(series.SeriesQuery(F(7, 3), A, Z, P)), lambda: ref_phi(F(7, 3), A, Z, P)),
    "phi_numeric s=-1/3": (lambda: series.phi_numeric(series.SeriesQuery(F(-1, 3), A, Z, P)), lambda: ref_phi(F(-1, 3), A, Z, P)),
    "phi_pos_hyper": (lambda: closedform.phi_pos_hyper(2, A, Z, P), lambda: ref_phi(2, A, Z, P)),
    "phi_neg_hyper": (lambda: closedform.phi_neg_hyper(2, A, Z, P), lambda: ref_phi(-1, A, Z, P)),
    "phi_neg_closed": (lambda: closedform.phi_neg_closed(2, A, Z, P), lambda: ref_phi(-1, A, Z, P)),
    "phi_one_closed": (lambda: closedform.phi_one_closed(A, Z, P), lambda: ref_phi(1, A, Z, P)),
    "zeta_structured": (lambda: closedform.zeta_structured(2, A, P)[1], lambda: ref_phi(-1, A, F(1, 2), P)),
    "incomplete_beta_numeric": (lambda: hyper.incomplete_beta_numeric(Z, A, F(1, 2), P), lambda: _betainc(Z, A, F(1, 2))),
    "real_central_binomial": (lambda: hyper.real_central_binomial(A, P), lambda: _gamma_quotient(A)),
    "piext_to_float": (lambda: piext_to_float(closedform.zeta_exact(2, F(3, 2)), P), lambda: ref_phi(-1, F(3, 2), F(1, 2), P)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_entry_point_needs_no_trusted_power_or_root(untrusted, name):
    call, reference = CASES[name]
    want = reference()
    assert_certified(untrusted(call), want)


def test_lehmer1_needs_no_trusted_power_or_root(untrusted):
    assert untrusted(lambda: run_check("lehmer1")).passed


def test_diff_relation_needs_no_trusted_power_or_root(untrusted):
    # its truncation bound is one more oracle sum, under the ball rule
    assert untrusted(lambda: run_check("diff_relation")).passed


def test_refused_functions_do_raise(untrusted):
    # the guard is live: a kit context made under it refuses each function
    for name in REFUSED:
        with pytest.raises(AssertionError, match=name):
            untrusted(lambda: getattr(context(P), name)(2))
