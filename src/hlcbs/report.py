"""Outcome record for a named identity verification, and the tally that
judges each comparison of a check."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import mpmath

EXACT = "exact"


def sci(x, digits: int = 6) -> str:
    """The mpf ``x`` laid out as ``f"{float(x):.6e}"``, but rounded from x
    itself: a float underflows to 0 below about 1e-308."""
    if not x:
        return f"{0:.{digits}e}"
    man, exp = x.man_exp  # |x| = man * 2^exp = man * 5^-exp * 10^exp
    man = -man if x < 0 else man
    exact = Decimal(f"{man * 5 ** -exp}e{exp}" if exp < 0 else man << exp)
    mantissa, exponent = f"{exact:.{digits}e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


@dataclass
class CheckReport:
    """Result of one named check: parameters swept, worst deviation, verdict.

    ``max_abs_deviation`` and ``tolerance`` are mpf values for numeric checks
    and the string ``"exact"`` for checks decided in rational arithmetic.
    ``passed`` holds iff every comparison met its tolerance (or held exactly).
    """

    check_id: str
    parameter_grid: str
    comparisons: int
    max_abs_deviation: object
    tolerance: object
    passed: bool
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        dev = self.max_abs_deviation
        tol = self.tolerance
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "max_abs_deviation": dev if isinstance(dev, str) else sci(dev),
            "tolerance": tol if isinstance(tol, str) else sci(tol),
            "comparisons": self.comparisons,
            "parameter_grid": self.parameter_grid,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
        }


class Tally:
    """Accumulates comparisons for one check."""

    def __init__(self):
        self.comparisons = 0
        self.max_dev = None  # mpf, None while only exact comparisons seen
        self.max_tol = None
        self.numeric_failures = 0
        self.exact_failures = 0

    def exact(self, ok: bool):
        self.comparisons += 1
        if not ok:
            self.exact_failures += 1

    def agree(self, lhs, rhs):
        """Record |lhs - rhs| of two BigFloats against twice their summed bounds.

        This is the one tolerance rule for every numeric comparison: both
        sides are balls whose honest bounds make it self-calibrating, and
        hold the deviation to at most half the tolerance.
        """
        dev, tol = abs(lhs.value - rhs.value), 2 * (lhs.error_bound + rhs.error_bound)
        self.comparisons += 1
        if self.max_dev is None or dev > self.max_dev:
            self.max_dev = dev
        if self.max_tol is None or tol > self.max_tol:
            self.max_tol = tol
        if not dev <= tol:
            self.numeric_failures += 1

    @property
    def passed(self) -> bool:
        return self.exact_failures == 0 and self.numeric_failures == 0

    def report(self, check_id: str, grid: str, elapsed: float) -> CheckReport:
        """The check's report.  Its mpf values are moved, exactly, to
        mpmath's shared context: an mpf keeps its context alive, and a report
        may outlive the private context it was computed in."""
        dev = EXACT if self.max_dev is None else mpmath.mp.make_mpf(self.max_dev._mpf_)
        tol = EXACT if self.max_dev is None else mpmath.mp.make_mpf(self.max_tol._mpf_)
        if not self.passed and self.max_dev is None:
            dev = f"{self.exact_failures} exact comparisons failed"
        return CheckReport(
            check_id=check_id,
            parameter_grid=grid,
            comparisons=self.comparisons,
            max_abs_deviation=dev,
            tolerance=tol,
            passed=self.passed,
            elapsed_seconds=elapsed,
        )
