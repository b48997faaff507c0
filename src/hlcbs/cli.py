"""Command-line interface: series evaluation, polynomial families, exact
zeta values, table generation, and the verification harness.

Rational arguments are written as "P/Q" (decimal strings like "0.25" are
also accepted and parsed exactly); a negative one is joined to its flag, as
in --a=-1/3, since argparse reads "--a -1/3" as two options.  z = 0 needs
a > 0.  Numeric values print only the digits their error bound certifies;
a value whose bound certifies no digit is an error that asks for more
--precision.  Exit codes: 0 success, 1 domain error or usage error (a
precision below 32 bits, a series that does not converge within its budget
and a value with no certified digit included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import closedform, polyfam, series, verify
from .exact import DomainError
from .hyper import PFQParams, incomplete_beta_numeric, pfq_eval


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _fraction_list(text: str):
    return tuple(_fraction(part) for part in text.split(",") if part.strip())


@dataclass
class OutputRecord:
    """One CLI result: exact/structured/numeric value plus echoed parameters."""

    mode: str
    value: str
    error_bound: str = None
    metadata: dict = None

    def to_json(self) -> str:
        record = {"mode": self.mode, "value": self.value}
        if self.error_bound is not None:
            record["error_bound"] = self.error_bound
        record.update(self.metadata or {})
        return json.dumps(record)


def _numeric(mode: str, result, meta: dict) -> OutputRecord:
    """The record of a numeric result, refused when its bound certifies no digit."""
    if result.certified_digits() < 1:
        raise DomainError(f"error bound {result.bound_str()} certifies no digit; rerun with a higher --precision")
    return OutputRecord(mode, str(result), error_bound=result.bound_str(), metadata=meta)


def _emit(record: OutputRecord, as_json: bool):
    if as_json:
        print(record.to_json())
    else:
        print(record.value)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_zeta(args) -> int:
    k, a = args.k, args.a
    meta = {"k": str(k), "a": str(a), "s": str(1 - k), "precision": args.precision}
    if args.mode == "exact":
        value = closedform.zeta_exact(k, a)
        _emit(OutputRecord("exact", value.to_text(), metadata=meta), args.json)
    elif args.mode == "structured":
        record, numeric = closedform.zeta_structured(k, a, args.precision)
        meta.update({"rational_part": str(record.rational_part), "q_part": str(record.q_part)})
        out = _numeric("structured", numeric, meta)
        if args.json:
            _emit(out, True)
        else:
            print(f"rational_part = {record.rational_part}")
            print(f"q_part        = {record.q_part}")
            print(f"value         = {out.value}")
    else:
        numeric = series.zeta_hcb_numeric(1 - k, a, args.precision, args.max_terms)
        _emit(_numeric("numeric", numeric, meta), args.json)
    return 0


def _cmd_poly(args) -> int:
    family, index = args.family, args.index
    meta = {"family": family, "index": index}
    if family == "q":
        text = polyfam.q_poly(index).to_text()
    elif family == "p":
        text = polyfam.p_poly(index).to_text()
    elif family == "pa":
        text = polyfam.p_a_poly(index).to_text()
    elif family == "eulerian":
        text = polyfam.eulerian(index).to_text(coeff_var="y")
    elif family == "polybernoulli":
        if args.k is None:
            raise DomainError("poly polybernoulli needs --k")
        meta["k"] = str(args.k)
        text = str(polyfam.poly_bernoulli(index, args.k))
    elif family == "alpha":
        if args.a is None:
            raise DomainError("poly alpha needs --a")
        meta["a"] = str(args.a)
        text = str(polyfam.alpha(index, args.a))
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown family {family}")
    _emit(OutputRecord("exact", text, metadata=meta), args.json)
    return 0


def _cmd_eval(args) -> int:
    prec = args.precision
    if args.what == "phi":
        result = series.phi_numeric(series.SeriesQuery(args.s, args.a, args.z, prec, args.max_terms))
        meta = {"s": str(args.s), "a": str(args.a), "z": str(args.z), "precision": prec}
    elif args.what == "pfq":
        result = pfq_eval(PFQParams(args.upper, args.lower, args.z), prec)
        meta = {
            "upper": [str(u) for u in args.upper],
            "lower": [str(l) for l in args.lower],
            "z": str(args.z),
            "precision": prec,
        }
    else:  # beta
        result = incomplete_beta_numeric(args.z, args.alpha, args.beta, prec)
        meta = {"z": str(args.z), "alpha": str(args.alpha), "beta": str(args.beta), "precision": prec}
    _emit(_numeric("numeric", result, meta), args.json)
    return 0


def _cmd_table(args) -> int:
    for flag in ("n", "k"):
        if getattr(args, flag, 0) < 0:
            raise DomainError(f"table {args.what} needs --{flag} >= 0, got {getattr(args, flag)}")
    if args.what == "polybernoulli":
        n_max, k_max = args.n, args.k
        header = ["k\\n"] + [str(n) for n in range(n_max + 1)]
        rows = []
        for k in range(k_max + 1):
            rows.append([str(k)] + [str(polyfam.poly_bernoulli(n, -k)) for n in range(n_max + 1)])
        if args.json:
            for k, row in enumerate(rows):
                print(json.dumps({"k": k, "values": row[1:]}))
        else:
            print("\t".join(header))
            for row in rows:
                print("\t".join(row))
    else:  # polys
        if not args.json:
            print("\t".join(["n", "p_n(x)", "p_n(a,x)", "q_n(x)"]))
        for n in range(-1, args.n + 1):
            row = {
                "n": n,
                "p": polyfam.p_poly(n).to_text(),
                "pa": polyfam.p_a_poly(n).to_text(),
                "q": polyfam.q_poly(n).to_text(),
            }
            print(json.dumps(row) if args.json else "\t".join(str(v) for v in row.values()))
    return 0


def _cmd_verify(args) -> int:
    config = verify.VerifyConfig(precision_bits=args.precision, seed=args.seed)
    reports = verify.run_all(config, args.checks or None)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        print(verify.summarize(reports))
    return 0 if all(r.passed for r in reports) else 2


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser, max_terms=False):
    parser.add_argument("--precision", type=int, default=128, help="working precision in bits (default 128)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    if max_terms:
        parser.add_argument("--max-terms", type=int, default=series.DEFAULT_MAX_TERMS, dest="max_terms")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, like every other bad input: its
    own exit code 2 means a failed verification here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hlcbs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_zeta = sub.add_parser("zeta", help="zeta values at s = 1-k")
    p_zeta.add_argument("--k", type=int, required=True, help="evaluate at s = 1-k")
    p_zeta.add_argument("--a", type=_fraction, required=True, help="shift parameter, e.g. 2 or 7/2")
    mode = p_zeta.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact", default="exact")
    mode.add_argument("--structured", dest="mode", action="store_const", const="structured")
    mode.add_argument("--numeric", dest="mode", action="store_const", const="numeric")
    _add_common(p_zeta, max_terms=True)
    p_zeta.set_defaults(handler=_cmd_zeta)

    p_poly = sub.add_parser("poly", help="print a polynomial/number family member")
    p_poly.add_argument("family", choices=["q", "p", "pa", "eulerian", "polybernoulli", "alpha"])
    p_poly.add_argument("index", type=int)
    p_poly.add_argument("--k", type=int, default=None, help="second index for polybernoulli")
    p_poly.add_argument("--a", type=_fraction, default=None, help="parameter for alpha")
    _add_common(p_poly)
    p_poly.set_defaults(handler=_cmd_poly)

    p_eval = sub.add_parser("eval", help="numeric evaluation (series, pFq, incomplete beta)")
    eval_sub = p_eval.add_subparsers(dest="what", required=True)

    p_phi = eval_sub.add_parser("phi", help="brute-force series value")
    p_phi.add_argument("--s", type=_fraction, required=True)
    p_phi.add_argument("--a", type=_fraction, required=True)
    p_phi.add_argument("--z", type=_fraction, required=True)
    _add_common(p_phi, max_terms=True)
    p_phi.set_defaults(handler=_cmd_eval)

    p_pfq = eval_sub.add_parser("pfq", help="generalized hypergeometric series")
    p_pfq.add_argument("--upper", type=_fraction_list, required=True, help="comma-separated upper parameters")
    p_pfq.add_argument("--lower", type=_fraction_list, required=True, help="comma-separated lower parameters")
    p_pfq.add_argument("--z", type=_fraction, required=True)
    _add_common(p_pfq)
    p_pfq.set_defaults(handler=_cmd_eval)

    p_beta = eval_sub.add_parser("beta", help="incomplete beta function")
    p_beta.add_argument("--z", type=_fraction, required=True)
    p_beta.add_argument("--alpha", type=_fraction, required=True)
    p_beta.add_argument("--beta", type=_fraction, required=True)
    _add_common(p_beta)
    p_beta.set_defaults(handler=_cmd_eval)

    p_table = sub.add_parser("table", help="emit family grids as TSV or line-delimited JSON")
    table_sub = p_table.add_subparsers(dest="what", required=True)

    p_pb = table_sub.add_parser("polybernoulli", help="grid of B_n^(-k)")
    p_pb.add_argument("--n", type=int, default=4, help="max column index n")
    p_pb.add_argument("--k", type=int, default=4, help="max row index k")
    _add_common(p_pb)
    p_pb.set_defaults(handler=_cmd_table)

    p_pt = table_sub.add_parser("polys", help="p_n, p_n(a,x), q_n side by side")
    p_pt.add_argument("--n", type=int, default=3, help="max index n")
    _add_common(p_pt)
    p_pt.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("checks", nargs="*", help="check ids (default: all)")
    p_verify.add_argument("--seed", type=int, default=verify.VerifyConfig.seed)
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, verify.UnknownCheck) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
