"""Command-line interface: golden outputs, round-trips, exit codes."""

import json
import time
from fractions import Fraction as F

import pytest

from hlcbs import verify
from hlcbs.cli import main
from hlcbs.exact import PiExtValue, UniPoly
from hlcbs.closedform import zeta_exact
from hlcbs.polyfam import q_poly
from hlcbs.report import Tally


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaCommand:
    def test_exact_golden(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--k", "4", "--a", "2", "--exact")
        assert code == 0
        assert out.strip() == "17/6 + 74/243*sqrt3*pi"

    def test_exact_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--k", "3", "--a", "7/2", "--exact")
        assert code == 0
        assert PiExtValue.parse(out.strip()) == zeta_exact(3, F(7, 2))

    def test_numeric_json(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--k", "0", "--a", "1", "--numeric", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["mode"] == "numeric"
        assert record["value"].startswith("0.6045997880780726")
        assert "error_bound" in record

    def test_structured(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--k", "1", "--a", "5/4", "--structured", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["rational_part"] == "1"
        assert record["q_part"] == "1"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--k", "0", "--a", "5/4", "--exact")
        assert code == 1
        assert "error:" in err

    def test_structured_precision_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--k", "2", "--a", "5/4", "--structured", "--precision", "16")
        assert code == 1
        assert err.startswith("error: precision_bits must be >= 32")


class TestPolyCommand:
    def test_q_golden(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "q", "3")
        assert code == 0
        assert out.strip() == "8*x^3 + 60*x^2 + 36*x + 1"

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "poly", "q", "3")
        assert UniPoly.parse(out.strip()) == q_poly(3)

    def test_pa_and_eulerian(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "pa", "1")
        assert code == 0
        assert out.strip() == "(-2*a + 2)*x + (2*a + 1)"
        code, out, _ = run_cli(capsys, "poly", "eulerian", "2")
        assert code == 0
        assert out.strip() == "(y)*x + (y^2)"

    def test_polybernoulli_needs_k(self, capsys):
        code, _, err = run_cli(capsys, "poly", "polybernoulli", "4")
        assert code == 1
        code, out, _ = run_cli(capsys, "poly", "polybernoulli", "4", "--k=-4")
        assert code == 0
        assert out.strip() == "6902"

    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "alpha", "3", "--a", "1")
        assert code == 0
        assert out.strip() == "10"


@pytest.mark.parametrize(
    "argv",
    [("zeta", "--exact", "--k", "600", "--a", "1/2"), ("poly", "alpha", "600", "--a", "1"), ("poly", "q", "600")],
    ids=["zeta_exact_600", "poly_alpha_600", "poly_q_600"],
)
def test_index_600_runs(capsys, argv):
    """Index 600 lies past the default recursion limit of a recursive ladder."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.strip() and not err


class TestEvalCommand:
    def test_phi(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "phi", "--s", "1", "--a", "1", "--z", "0.3")
        assert code == 0
        assert out.strip().startswith("0.191642813438939351")

    def test_pfq(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "pfq", "--upper", "1,1/2", "--lower", "1", "--z", "1/4")
        assert code == 0
        assert out.strip().startswith("1.154700538379251529")

    def test_beta(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "beta", "--z", "1/4", "--alpha", "1/2", "--beta", "1/2")
        assert code == 0
        assert out.strip().startswith("1.047197551196597746")

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "phi", "--s", "1", "--a=-1/2", "--z", "0.3")
        assert code == 1
        assert "error:" in err
        # z = 0 needs a > 0: the first term (2z)^(2a) diverges there
        code, _, err = run_cli(capsys, "eval", "phi", "--s", "1", "--a=-1/3", "--z", "0")
        assert code == 1
        assert "error: z = 0 needs a > 0" in err

    @pytest.mark.parametrize(
        "argv",
        [("eval", "phi", "--s", "1", "--a", "1", "--z", "1/0"), ("eval", "phi", "--s", "1", "--a", "1")],
        ids=["not_a_rational", "missing_argument"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        """argparse's own exit code 2 would read as a failed verification."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "phi", "--help"])
        assert exc.value.code == 0
        assert "--precision" in capsys.readouterr().out

    def test_pfq_precision_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, "eval", "pfq", "--upper", "1,1/2", "--lower", "3/2", "--z", "1/4", "--precision", "16")
        assert code == 1
        assert err.startswith("error: precision_bits must be >= 32")

    def test_beta_precision_below_minimum(self, capsys):
        # the precision named is the one given, not the 2F1's own P + 16
        code, out, err = run_cli(capsys, "eval", "beta", "--z", "1/4", "--alpha", "1/2", "--beta", "1/2", "--precision", "8")
        assert code == 1 and not out
        assert err == "error: precision_bits must be >= 32, got 8\n"

    def test_large_a_ends_fast(self, capsys):
        # g(a) at a = 100000 takes two exact products of 10^5 factors each,
        # formed by balanced halves: the evaluation ends within 2 s
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "eval", "phi", "--s", "3/2", "--a", "100000", "--z", "1/2")
        assert code == 0 and out.strip()
        assert time.perf_counter() - start < 2

    def test_tiny_a_ends_fast(self, capsys):
        # the seed's exact power (1/2)^(1 + a) at a = 10^-12 would take 10^12
        # bits: it is refused at once, its exponent named; at a = 10^-7 it
        # takes 10^7 bits and the evaluation ends
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "phi", "--s", "2", "--a", "1/1000000000000", "--z", "1/2")
        assert code == 1 and not out and "the exponent 1000000000001/1000000000000 " in err
        assert time.perf_counter() - start < 1
        code, out, _ = run_cli(capsys, "eval", "phi", "--s", "2", "--a", "1/10000000", "--z", "1/2")
        assert code == 0 and out.strip()

    def test_prints_only_certified_digits(self, capsys):
        # the bound 1.7e-45 on 1.18e-30 certifies 14 significant digits
        code, out, _ = run_cli(capsys, "eval", "phi", "--s", "60", "--a", "3", "--z", "1/2", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "1.1794912545437e-30"
        assert record["error_bound"] == "1.71565701e-45"

    @pytest.mark.parametrize("upper,precision", [("-60,1", "32"), ("-200,1", "64")])
    def test_no_certified_digit_exits_1(self, capsys, upper, precision):
        # 2F1(-n, 1; 1; 1/2) = 2^-n, but its terms cancel below the bound
        argv = ["eval", "pfq", f"--upper={upper}", "--lower", "1", "--z", "1/2", "--precision", precision]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: error bound ") and "--precision" in err

    def test_more_precision_certifies_the_digits(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "pfq", "--upper=-60,1", "--lower", "1", "--z", "1/2", "--json")
        assert code == 0
        assert json.loads(out)["value"].startswith("8.67361737988403")  # 2^-60


class TestTableCommand:
    def test_poly_bernoulli_reproduces_reference_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "polybernoulli", "--n", "4", "--k", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["k\\n", "0", "1", "2", "3", "4"]
        grid = [line.split("\t")[1:] for line in lines[1:]]
        assert grid == [
            ["1", "1", "1", "1", "1"],
            ["1", "2", "4", "8", "16"],
            ["1", "4", "14", "46", "146"],
            ["1", "8", "46", "230", "1066"],
            ["1", "16", "146", "1066", "6902"],
        ]

    def test_poly_bernoulli_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "table", "polybernoulli", "--n", "2", "--k", "1", "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows == [{"k": 0, "values": ["1", "1", "1"]}, {"k": 1, "values": ["1", "2", "4"]}]

    def test_polys_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "polys", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split("\t") == ["-1", "0", "0", "1"]
        assert lines[-1].split("\t")[3] == "8*x^3 + 60*x^2 + 36*x + 1"

    @pytest.mark.parametrize(
        "argv", [("polybernoulli", "--n", "-1"), ("polybernoulli", "--k=-1"), ("polys", "--n", "-5")]
    )
    def test_negative_index_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 1
        assert not out
        assert err.startswith("error: table ")

    def test_polys_table_json_lines_match_the_tsv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "polys", "--n", "3", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:3] == [
            '{"n": -1, "p": "0", "pa": "0", "q": "1"}',
            '{"n": 0, "p": "1", "pa": "1", "q": "1"}',
            '{"n": 1, "p": "3", "pa": "(-2*a + 2)*x + (2*a + 1)", "q": "2*x + 1"}',
        ]
        _, tsv, _ = run_cli(capsys, "table", "polys", "--n", "3")
        tsv_rows = [line.split("\t") for line in tsv.strip().splitlines()[1:]]
        json_rows = [json.loads(line) for line in lines]
        assert [[str(r["n"]), r["p"], r["pa"], r["q"]] for r in json_rows] == tsv_rows


class TestVerifyCommand:
    def test_single_check_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bm1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["check_id"] == "bm1"
        assert payload[0]["passed"] is True
        assert payload[0]["max_abs_deviation"] == "exact"
        assert set(payload[0]) == {
            "check_id",
            "passed",
            "max_abs_deviation",
            "tolerance",
            "comparisons",
            "parameter_grid",
            "elapsed_ms",
        }

    def test_precision_below_minimum_names_it(self, capsys):
        # the precision named is the one given, not a check's own P + 16
        code, out, err = run_cli(capsys, "verify", "--precision", "8")
        assert code == 1 and not out
        assert err.startswith("error: precision_bits must be >= 32, got 8")

    def test_unknown_check_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "verify", "definitely_not_a_check")
        assert code == 1
        assert "unknown check" in err

    def test_subset_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "bm1", "ptoE", "p0_is_q")
        assert code == 0
        assert "3/3 checks passed" in out

    def test_failed_check_exit_code(self, capsys, monkeypatch):
        def failing(cfg):
            tally = Tally()
            tally.exact(False)
            return "one false comparison", tally

        monkeypatch.setitem(verify._CHECKS, "bm1", failing)
        code, out, _ = run_cli(capsys, "verify", "bm1")
        assert code == 2
        assert "bm1            FAIL" in out
        assert "0/1 checks passed" in out
