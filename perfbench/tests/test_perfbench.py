"""Tests of the benchmark itself: generators, references, gate, tracer and
the metric names promised in BENCHMARK.json.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import reference
import run
import tracer
import workloads
from hlcbs import closedform, hyper, polyfam, series

ROOT = os.path.dirname(run.HERE)


def first_cycles(workload, seed, n=2):
    return list(itertools.islice(workloads.cycles(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_cycles(workload, 7) == first_cycles(workload, 7)
    if workload != "verify":  # verify draws nothing: its seed goes to VerifyConfig
        assert first_cycles(workload, 7) != first_cycles(workload, 8)


def test_numeric_cycle_cost_mix_is_the_same_for_every_seed():
    def mix(cycle):
        return sorted((op["fn"], op["P"], op["k"], op["z"], op["s"], op["a"] in workloads.LATTICE_A) for op in cycle)

    first = mix(first_cycles("numeric-deep", 0, 1)[0])
    for seed in range(1, 5):
        assert mix(first_cycles("numeric-deep", seed, 1)[0]) == first
    assert sum(cell[1] == 2048 for cell in first) == 9
    assert not any(cell[1] == 8192 and cell[3] == F(9, 10) for cell in first)


def test_exact_cycle_cost_mix_is_the_same_for_every_seed():
    def mix(cycle):
        return sorted((op["kind"], op.get("k", op.get("n")), op.get("a") == F(1, 2)) for op in cycle)

    first = mix(first_cycles("exact-cold", 0, 1)[0])
    for seed in range(1, 5):
        assert mix(first_cycles("exact-cold", seed, 1)[0]) == first
    # the k = 32 cells and poly pa 32, the costliest, are over a quarter of
    # the cycle, so op_p90_ms falls among them
    heavy = [cell for cell in first if cell[1] == 32 and cell[0] in ("zeta_exact", "zeta_structured", "poly_pa")]
    assert len(heavy) / len(first) > 0.25


@pytest.mark.parametrize(
    "op",
    [
        {"fn": "phi_numeric", "s": F(3, 2), "k": 1, "a": F(5, 4), "z": F(1, 2)},
        {"fn": "phi_numeric", "s": F(2), "k": 2, "a": F(1, 3), "z": F(9, 10)},
        {"fn": "phi_pos_hyper", "s": None, "k": 3, "a": F(7, 2), "z": F(1, 5)},
        {"fn": "phi_neg_closed", "s": None, "k": 4, "a": F(7, 4), "z": F(1, 2)},
        {"fn": "pfq_eval", "s": None, "k": 2, "a": F(5, 4), "z": F(1, 2)},
        {"fn": "incomplete_beta_numeric", "s": None, "k": 1, "a": F(3, 2), "z": F(1, 2)},
    ],
)
def test_reference_agrees_with_kit_at_128_bits(op):
    op = dict(op, kind="numeric", P=128)
    result = workloads.call_numeric(op)
    ref = reference.reference(workloads.numeric_ref_spec(op), 128 + reference.EXTRA_BITS)
    passed, ratio = reference.containment(result.value, result.error_bound, ref, 128)
    assert passed and ratio <= 1


def test_gate_flags_value_shifted_by_twice_its_bound():
    result = closedform.phi_pos_hyper(2, F(5, 4), F(1, 2), 128)
    ref = reference.phi_ref(2, F(5, 4), F(1, 2), 128 + reference.EXTRA_BITS)
    assert reference.containment(result.value, result.error_bound, ref, 128)[0]
    shifted = result.value + 2 * result.error_bound
    assert not reference.containment(shifted, result.error_bound, ref, 128)[0]


def test_gate_flags_wrong_exact_values():
    value = closedform.zeta_exact(40, F(7, 2))
    assert reference.check_zeta_exact(40, F(7, 2), value)
    assert not reference.check_zeta_exact(40, F(7, 2), value + 1)
    alpha = polyfam.alpha(20, F(5, 4))
    assert reference.check_alpha(20, F(5, 4), alpha)
    assert not reference.check_alpha(20, F(5, 4), alpha + F(1, 10**6))
    text = polyfam.p_a_poly(12).to_text()
    assert reference.check_p_a_poly(12, lambda a, x: reference.evaluate_text(text, {"a": a, "x": x}))
    wrong = text + " + a*x^3"
    assert not reference.check_p_a_poly(12, lambda a, x: reference.evaluate_text(wrong, {"a": a, "x": x}))
    text = polyfam.eulerian(9).to_text(coeff_var="y")
    assert reference.check_eulerian(9, lambda x, y: reference.evaluate_text(text, {"x": x, "y": y}))
    wrong = text.replace("y^2", "2*y^2", 1)
    assert not reference.check_eulerian(9, lambda x, y: reference.evaluate_text(wrong, {"x": x, "y": y}))


def test_evaluate_text_matches_kit_polynomials():
    poly = polyfam.p_a_poly(6)
    assert reference.evaluate_text(poly.to_text(), {"a": F(2, 7), "x": F(-3, 5)}) == poly(F(2, 7), F(-3, 5))


def test_tracer_wraps_every_binding_site_and_restores_them():
    trace = tracer.Tracer()
    trace.install()
    try:
        from hlcbs import cli

        for namespace in (closedform, cli):
            assert namespace.pfq_eval.__wrapped__ is trace.originals["hyper.pfq_eval"]
        assert series.central_binomial_reciprocal_seed.__wrapped__ is trace.originals[tracer.SEED]
        assert polyfam.q_poly.__wrapped__ is trace.originals["polyfam.q_poly"]
    finally:
        trace.uninstall()
    assert not hasattr(closedform.pfq_eval, "__wrapped__")
    assert closedform.pfq_eval is hyper.pfq_eval


def traced_counts(ops):
    tracer.clear_kit_caches()
    trace = tracer.Tracer()
    trace.install()
    try:
        for op in ops:
            workloads.execute(op, 1, ROOT)
    finally:
        trace.uninstall()
    snap = trace.snapshot()
    return snap["calls"], snap["seed_routes"], snap["cache"]


def test_traced_call_counts_repeat_exactly():
    ops = [
        {"kind": "numeric", "fn": "phi_neg_closed", "P": 128, "k": 6, "a": F(5, 4), "z": F(1, 2), "s": None},
        {"kind": "numeric", "fn": "phi_numeric", "P": 128, "k": 1, "a": F(3, 2), "z": F(1, 5), "s": F(2)},
        {"kind": "verify", "id": "ptoE", "P": 128},
    ]
    first = traced_counts(ops)
    assert first == traced_counts(ops)
    calls = first[0]
    assert calls["polyfam.q_poly"] > 6  # each recursion level is a span
    assert calls["hyper.pfq_eval"] >= 1  # reached through closedform's own binding


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-cold", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_the_kit_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
