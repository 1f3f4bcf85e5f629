"""The benchmark's traced obfuscate request, run as a test.

It is the only caller of ``statevector.sample``, ``obfuscator.decode``,
``circuit.inverse`` and the per-segment dense runs, so a change to any
of them shows here before the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
