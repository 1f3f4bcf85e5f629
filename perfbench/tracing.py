"""Spans kept in memory during the traced run, and the per-layer metrics made from them.

A span is a dict with an id, a name, a start, an end, the id of the span
open around it (its parent) and a request id; callers may add counters
to it. Span names are ``<module>.<function>`` for the qobf call the
span wraps, so the module is the layer. A layer's self time is its
span's duration minus the part its child spans cover.

Workload requests have integer ids. The traced run also makes two probe
requests (ids starting with ``probe``), one of each kind, so that a
metric of a layer the workload never reaches still has a measured value:
such a metric is taken from the probe alone, and every other metric
from the workload's requests alone.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

SEGMENTS = ("init", "adder", "query", "uncompute", "diffuser")
GATE_KINDS = ("h", "x", "z", "cx", "ccx", "mcx")

# self time of these spans, over the request time, gives trace.self_frac.*
SIMULATE_SPANS = ("statevector.zero_state", "statevector.run_circuit")
BUILD_SPANS = ("obfuscator.plan", "obfuscator.build_full_circuit",
               "arithmetic.", "grover.", "circuit.")


class Tracer:
    """Records nested spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, request):
        record = {"id": len(self.spans), "name": name, "request": request,
                  "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def is_probe(span: dict) -> bool:
    return str(span["request"]).startswith("probe")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def select(spans, prefix: str) -> list[dict]:
    """Workload spans named ``prefix...``, or the probe's when the workload has none."""
    matching = [s for s in spans if s["name"].startswith(prefix)]
    return [s for s in matching if not is_probe(s)] or [s for s in matching if is_probe(s)]


def _per_request(spans, prefix: str, counter: str | None = None) -> float:
    """Mean over requests of the summed duration (or counter) of matching spans."""
    totals: dict = defaultdict(float)
    for s in select(spans, prefix):
        totals[s["request"]] += _duration(s) if counter is None else s[counter]
    return statistics.fmean(totals.values())


def _rate(spans, prefix: str, counter: str) -> float:
    chosen = select(spans, prefix)
    return sum(s[counter] for s in chosen) / sum(_duration(s) for s in chosen)


def self_fractions(spans) -> dict[str, float]:
    """Share of workload request time spent in simulation and in circuit building."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)

    def root(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    requests = [s for s in spans if s["name"] == "request" and not is_probe(s)]
    total = sum(_duration(s) for s in requests)
    shares = {"simulate": 0.0, "build": 0.0}
    for s in spans:
        top = root(s)
        if s is top or top["name"] != "request" or is_probe(top):
            continue
        if s["name"].startswith(SIMULATE_SPANS):
            shares["simulate"] += own[s["id"]]
        elif s["name"].startswith(BUILD_SPANS):
            shares["build"] += own[s["id"]]
    return {group: value / total for group, value in shares.items()}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics that come straight from the spans and their counters."""
    metrics = {
        "statevector.run_circuit_s": _per_request(spans, "statevector.run_circuit."),
        "statevector.gates": _per_request(spans, "statevector.run_circuit.", "gates"),
        "statevector.bytes_computed": _per_request(spans, "statevector.run_circuit.", "bytes"),
        "statevector.bytes_per_s": _rate(spans, "statevector.run_circuit.", "bytes"),
        "statevector.sample_s": _per_request(spans, "statevector.sample"),
        "statevector.sample_distinct": _per_request(spans, "statevector.sample", "distinct"),
        "statevector.marginal_s": _per_request(spans, "statevector.marginal_probabilities"),
        "obfuscator.decode_s": _per_request(spans, "obfuscator.decode"),
        "obfuscator.solution_probability_s": _per_request(spans, "obfuscator.solution_probability"),
        "obfuscator.to_json_dict_s": _per_request(spans, "obfuscator.to_json_dict"),
        "obfuscator.plan_s": _per_request(spans, "obfuscator.plan"),
        "obfuscator.build_full_circuit_s": _per_request(spans, "obfuscator.build_full_circuit"),
        "circuit.ops": _per_request(spans, "obfuscator.build_full_circuit", "ops"),
        "circuit.ops_per_s": _rate(spans, "obfuscator.build_full_circuit", "ops"),
        "circuit.ops_decomposed": _per_request(spans, "circuit.decompose_mcx", "ops"),
        "circuit.decompose_mcx_s": _per_request(spans, "circuit.decompose_mcx"),
        "circuit.depth_s": _per_request(spans, "circuit.depth"),
        "circuit.gate_counts_s": _per_request(spans, "circuit.gate_counts"),
        "circuit.serialize_s": _per_request(spans, "circuit.serialize"),
    }
    for seg in SEGMENTS:
        metrics[f"statevector.run_circuit_s.{seg}"] = _per_request(
            spans, f"statevector.run_circuit.{seg}")
    checked = [s for s in spans if s["name"] == "request" and "health" in s]
    health = [s["health"] for s in checked if not is_probe(s)] or [
        s["health"] for s in checked if is_probe(s)]
    metrics["obfuscator.valid_fraction"] = statistics.fmean(h["valid_fraction"] for h in health)
    for key in ("success_gap", "norm_error", "ancilla_leak", "marginal_max_err"):
        layer = "obfuscator" if key == "success_gap" else "statevector"
        metrics[f"{layer}.{key}"] = max(h[key] for h in health)
    for group, share in self_fractions(spans).items():
        metrics[f"trace.self_frac.{group}"] = share
    return metrics
