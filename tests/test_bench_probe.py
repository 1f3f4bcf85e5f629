"""The benchmark's traced obfuscate request, run as a test.

It is the only caller of ``statevector.sample``, ``circuit.inverse`` and
the per-segment dense runs, so a change to any of them shows here
before the benchmark runs. The traced segments and the names the
worker reads off qobf are checked here too: only a traced benchmark
run calls ``gate_microbench``.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from qobf import circuit, obfuscator, statevector

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_module(monkeypatch):
    """Import a perfbench module for this test only.

    perfbench's modules import each other by bare name, so its directory
    goes on ``sys.path``, and every bare-named module it loads leaves
    ``sys.modules``, after the test.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield importlib.import_module
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def test_traced_obfuscate_probe_matches_the_untraced_request(bench_module):
    worker, tracing, workloads = map(bench_module, ("worker", "tracing", "workloads"))
    rid, req = worker.PROBES[0]
    assert req == workloads.Request(workloads.OBFUSCATE, 19, 1024, 7)
    out, _, problems = worker.traced_obfuscate(req, rid, tracing.Tracer())
    assert problems == []
    assert out == worker.serve(req)


@pytest.mark.parametrize("target", [19, 31])
def test_traced_segments_reach_split_as_whole_layers(bench_module, target):
    # so the traced run_circuit_s.* figures time the kernels simulate runs
    worker, tracing = map(bench_module, ("worker", "tracing"))
    obf_plan = obfuscator.plan(target)
    segments = worker.build_segments(obf_plan, "segments", tracing.Tracer())
    state = statevector.zero_state(obf_plan.total_qubits)
    inputs = range(3 * obf_plan.bits)
    kernels = {name: [step for step in statevector._split(segment.ops, state, {})
                      if isinstance(step, (range, circuit.GateOp))]
               for name, segment in segments.items()}
    assert kernels == {
        "init": [inputs, circuit.h(obf_plan.qubit_map["grover_ancilla"])],
        "adder": [], "query": [], "uncompute": [],
        "diffuser": [inputs, inputs[::-1]],
    }


def test_every_name_the_worker_reads_off_qobf_exists():
    # module.name reads, and BUILD_CALLS' (module, "name") pairs, which it getattrs
    tree = ast.parse((BENCH / "worker.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "qobf"
                for alias in node.names]
    modules = {name: importlib.import_module(f"qobf.{name}") for name in imported}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add((node.value.id, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, name = node.elts
            if isinstance(module, ast.Name) and isinstance(name, ast.Constant):
                read.add((module.id, name.value))
    read = {(module, name) for module, name in read if module in modules}
    assert sorted(modules) == ["arithmetic", "circuit", "cli", "grover", "obfuscator",
                               "statevector"]
    assert {module for module, _ in read} == set(modules)
    assert sorted(f"{module}.{name}" for module, name in read
                  if not hasattr(modules[module], name)) == []
