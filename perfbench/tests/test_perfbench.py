"""Tests of the benchmark itself: its checkers, its request generation and its names.

    python3 -m pytest perfbench/tests -q
"""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostref  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qobf import circuit, cli, obfuscator, statevector  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def obfuscate_output(target, shots=1024, seed=3):
    return obfuscator.to_json_dict(obfuscator.run(obfuscator.plan(target), shots, seed))


def build_output(target, capsys):
    cli.main(["inspect", "--n-value", str(target), "--format", "json"])
    inspect = json.loads(capsys.readouterr().out)
    cli.main(["export", "--n-value", str(target), "--decompose"])
    return inspect, capsys.readouterr().out


@pytest.mark.parametrize("target", [1, 7, 19])
def test_checker_accepts_real_output(target):
    assert reference.check_obfuscate(obfuscate_output(target), target, 1024) == []


def test_checker_rejects_corrupted_histogram():
    out = obfuscate_output(7)
    out["counts"][0]["count"] += 1
    assert any("sum to shots" in p for p in reference.check_obfuscate(out, 7, 1024))

    out = obfuscate_output(7)
    out["counts"][0]["x"] = 4  # does not fit 2 bits
    assert any("fit" in p for p in reference.check_obfuscate(out, 7, 1024))

    out = obfuscate_output(7)
    out["valid_fraction"] = 1.0 - out["valid_fraction"]
    assert any("recount" in p for p in reference.check_obfuscate(out, 7, 1024))


def test_checker_rejects_wrong_exact_success():
    out = obfuscate_output(19)
    out["exact_success"] += 1e-7
    assert any("closed form" in p for p in reference.check_obfuscate(out, 19, 1024))


def test_build_checker(capsys):
    inspect, export = build_output(19, capsys)
    assert reference.check_build(inspect, export, 19) == []
    wrong = dict(inspect, iterations=inspect["iterations"] + 1)
    assert reference.check_build(wrong, export, 19)
    wrong = dict(inspect, gates=dict(inspect["gates"], total=inspect["gates"]["total"] + 1))
    assert reference.check_build(wrong, export, 19)
    assert reference.check_build(inspect, export + "h 0\n", 19)


def test_expected_matches_the_table():
    # N, bits, rounds, solutions from the README benchmark table
    for target, bits, rounds, solutions in [(7, 2, 3, 6), (15, 3, 3, 28), (31, 4, 5, 120),
                                            (63, 5, 6, 496), (765, 8, 3217, 1)]:
        want = reference.expected(target)
        assert (want.bits, want.rounds, want.solutions) == (bits, rounds, solutions)


@pytest.mark.parametrize("target", [5, 19, 31])
def test_reference_model_matches_gate_level_marginal(target):
    obf_plan = obfuscator.plan(target)
    state, _ = obfuscator.simulate(obf_plan)
    marginal = statevector.marginal_probabilities(state, obf_plan.input_qubits)
    want = reference.expected(target)
    model = reference.reference_marginal(target, want.bits, want.rounds)
    assert np.max(np.abs(marginal - model)) < reference.HEALTH_TOLERANCE


def first_epochs(workload, seed, count=3):
    stream = workloads.epochs(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_requests(workload):
    assert first_epochs(workload, 11) == first_epochs(workload, 11)
    for epoch in first_epochs(workload, 11):
        assert sorted(r.target for r in epoch) == sorted(workloads.WORKLOADS[workload].targets)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_other_seed_other_requests(workload):
    assert first_epochs(workload, 1) != first_epochs(workload, 2)


def test_benchmark_json_names():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_anchor_is_the_readme_quick_start():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("$ qobf obfuscate --n-value 19 --shots 1024 --seed 7\n", 1)[1]
    block = block.split("```", 1)[0]
    assert (BENCH / "anchor.txt").read_text() == block


def test_self_fractions_subtract_children():
    spans = [
        {"id": 0, "name": "request", "request": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "statevector.run_circuit.adder", "request": 0, "parent": 0,
         "start": 1.0, "end": 7.0},
        {"id": 2, "name": "obfuscator.build_full_circuit", "request": 0, "parent": 0,
         "start": 7.0, "end": 9.0},
        {"id": 3, "name": "circuit.inverse", "request": 0, "parent": 2, "start": 7.5, "end": 8.5},
        {"id": 4, "name": "request", "request": "probe-build", "parent": None,
         "start": 20.0, "end": 30.0},
        {"id": 5, "name": "circuit.depth", "request": "probe-build", "parent": 4,
         "start": 20.0, "end": 30.0},
    ]
    assert tracing.self_fractions(spans) == {"simulate": 0.6, "build": 0.2}


def test_segment_costs_cover_every_gate():
    import worker

    seg = circuit.Circuit(4, [circuit.h(0), circuit.cx(0, 1), circuit.ccx(0, 1, 2)])
    assert worker.segment_cost(seg) == {"gates": 3, "width": 4,
                                        "bytes": 32 * (16 + 8 + 4)}


def test_traced_build_spans_the_real_cli_calls():
    import worker

    originals = {(module, name): getattr(module, name) for module, name in worker.BUILD_CALLS}
    req = workloads.Request(workloads.BUILD, 19)
    tracer = tracing.Tracer()
    out, _, problems = worker.traced_build(req, 0, tracer)
    assert problems == []
    assert out == worker.serve(req)
    names = {s["name"] for s in tracer.spans}
    for module, name in worker.BUILD_CALLS:
        assert f"{module.__name__.rsplit('.', 1)[-1]}.{name}" in names
        assert getattr(module, name) is originals[module, name]


def test_reference_loops_run_no_qobf_code():
    # a change to qobf must not move the loop that scales the gated throughput
    tree = ast.parse((BENCH / "hostref.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported <= {"__future__", "time", "numpy"}
    object_s, array_s = hostref.time_pass()
    assert object_s > 0 and array_s > 0
    at_ref = [(hostref.OBJECT_REF_S, hostref.ARRAY_REF_S)]
    assert hostref.speed_factor(at_ref, 0.5) == pytest.approx(1.0)
    slow_python = [(2 * hostref.OBJECT_REF_S, hostref.ARRAY_REF_S)]
    assert hostref.speed_factor(slow_python, 1.0) == pytest.approx(2.0)
    assert hostref.speed_factor(slow_python, 0.5) == pytest.approx(1.5)
