"""One fresh benchmark process.

It imports qobf from the checkout's ``src``, runs the README quick start
as its warm-up request (the determinism anchor), and then serves the
workload's requests in a closed loop with one client: the next request
starts only after the previous one has returned and been checked. It
prints one JSON object as the last line of its standard output.

    python3 perfbench/worker.py '{"mode": "measure", "workload": "shots-31",
                                 "seed": 1, "seconds": 55, "trace": 0}'

Mode ``setup`` stops after the warm-up request. With ``trace`` 0 the
worker times one pass of the reference loops in hostref.py after every
request, outside its latency. With ``trace`` 1 the
worker serves every request twice, untraced and then traced, then makes
the two probe requests, times single gates and a plain array copy, and
writes the spans to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qobf  # noqa: E402
from qobf import arithmetic, circuit, cli, grover, obfuscator, statevector  # noqa: E402

import hostref  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import BUILD, OBFUSCATE, Request, epochs  # noqa: E402

ANCHOR_ARGV = ["obfuscate", "--n-value", "19", "--shots", "1024", "--seed", "7"]
PROBES = (("probe-obfuscate", Request(OBFUSCATE, 19, 1024, 7)),
          ("probe-build", Request(BUILD, 19)))
# one target per simulated width, for the single-gate timings
GATE_TARGETS = {8: 3, 11: 7, 14: 19, 17: 31, 20: 63}
GATES_PER_KIND = 8
MIN_TIMED_S = 0.02


class Sink:
    """Stand-in for stdout that keeps what cli.main writes without copying it."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


def cli_call(argv) -> tuple[int, str]:
    sink = Sink()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.text()


def anchor_ok() -> bool:
    code, text = cli_call(ANCHOR_ARGV)
    return code == 0 and text == (HERE / "anchor.txt").read_text()


def serve(req: Request):
    """The untraced request, through the public API a user would call."""
    if req.kind == OBFUSCATE:
        obf_plan = obfuscator.plan(req.target)
        return obfuscator.to_json_dict(obfuscator.run(obf_plan, shots=req.shots, seed=req.seed))
    target = str(req.target)
    return (cli_call(["inspect", "--n-value", target, "--format", "json"])
            + cli_call(["export", "--n-value", target, "--decompose"]))


def check(req: Request, out) -> list[str]:
    if req.kind == OBFUSCATE:
        return reference.check_obfuscate(out, req.target, req.shots)
    inspect_code, inspect_text, export_code, export_text = out
    if inspect_code or export_code:
        return [f"exit codes {inspect_code} and {export_code}"]
    return reference.check_build(json.loads(inspect_text), export_text, req.target)


def fingerprint(req: Request, out) -> int:
    """A hash of the output, which a traced request must reproduce exactly."""
    return hash(json.dumps(out) if req.kind == OBFUSCATE else out)


def segment_cost(seg: circuit.Circuit) -> dict:
    """Gates and computed bytes: each gate reads and writes 2^(width - controls) amplitudes."""
    return {"gates": len(seg.ops), "width": seg.width,
            "bytes": sum(2 * 16 * 2 ** (seg.width - len(op.controls)) for op in seg.ops)}


def build_segments(obf_plan, rid, tracer) -> dict[str, circuit.Circuit]:
    """The full circuit's pieces, rebuilt from the public build functions."""
    width = obf_plan.total_qubits
    ancilla = obf_plan.qubit_map["grover_ancilla"]
    with tracer.span("circuit.init", rid):
        init = circuit.Circuit(width)
        for q in obf_plan.input_qubits:
            init.append(circuit.h(q))
        init.append(circuit.x(ancilla))
        init.append(circuit.h(ancilla))
    with tracer.span("arithmetic.build_triple_sum", rid):
        adder, layout = arithmetic.build_triple_sum(obf_plan.bits, width=width)
    with tracer.span("grover.build_query", rid):
        query = grover.build_query(layout, obf_plan.target, ancilla, width=width)
    with tracer.span("circuit.inverse", rid):
        uncompute = circuit.inverse(adder)
    with tracer.span("grover.build_diffuser", rid):
        diffuser = grover.build_diffuser(obf_plan.input_qubits, ancilla, width=width)
    return {"init": init, "adder": adder, "query": query,
            "uncompute": uncompute, "diffuser": diffuser}


def health(obf_plan, state, out, rid, tracer) -> dict:
    """Gate-level state against the input-register model and the closed form."""
    want = reference.expected(obf_plan.target)
    with tracer.span("statevector.marginal_probabilities", rid):
        marginal = statevector.marginal_probabilities(state, obf_plan.input_qubits)
    model = reference.reference_marginal(obf_plan.target, obf_plan.bits, want.rounds)
    # axes: Grover ancilla, the four adder work qubits, the 3n inputs
    blocks = state.amplitudes.reshape(2, 16, 2 ** (3 * obf_plan.bits))
    minus = (blocks[0, 0] - blocks[1, 0]) / math.sqrt(2.0)
    return {
        "valid_fraction": out["valid_fraction"],
        "success_gap": abs(out["exact_success"] - want.success),
        "norm_error": state.norm_error(),
        "ancilla_leak": abs(1.0 - float(np.vdot(minus, minus).real)),
        "marginal_max_err": float(np.max(np.abs(marginal - model))),
    }


def traced_obfuscate(req: Request, rid, tracer):
    """plan -> build -> simulate by segment -> sample -> decode -> exact success -> JSON."""
    span = tracer.span
    with span("request", rid) as root:
        with span("obfuscator.plan", rid):
            obf_plan = obfuscator.plan(req.target)
        with span("obfuscator.build_full_circuit", rid) as built:
            full = obfuscator.build_full_circuit(obf_plan)
        built["ops"] = len(full.ops)
        segments = build_segments(obf_plan, rid, tracer)
        schedule = ["init"] + ["adder", "query", "uncompute", "diffuser"] * obf_plan.iterations
        with span("statevector.zero_state", rid):
            state = statevector.zero_state(obf_plan.total_qubits)
        ran = []
        for name in schedule:
            with span(f"statevector.run_circuit.{name}", rid) as record:
                statevector.run_circuit(state, segments[name])
            ran.append(record)
        with span("statevector.sample", rid) as sampled:
            histogram = statevector.sample(state, obf_plan.input_qubits, req.shots, req.seed)
        sampled["distinct"] = len(histogram.entries)
        with span("obfuscator.decode", rid):
            entries = {}
            valid = 0
            for key, count in histogram.entries.items():
                triplet = obfuscator.decode(key, obf_plan.bits)
                entries[triplet] = count
                if sum(triplet) == obf_plan.target:
                    valid += count
        with span("obfuscator.solution_probability", rid):
            exact = obfuscator.solution_probability(obf_plan, state)
        with span("obfuscator.DecodedHistogram", rid):
            decoded = obfuscator.DecodedHistogram(
                target=obf_plan.target, bits=obf_plan.bits, iterations=obf_plan.iterations,
                shots=req.shots, valid_fraction=valid / req.shots,
                exact_success=exact, entries=entries)
        with span("obfuscator.to_json_dict", rid):
            out = obfuscator.to_json_dict(decoded)
    costs = {name: segment_cost(seg) for name, seg in segments.items()}
    for name, record in zip(schedule, ran):
        record.update(costs[name])
    problems = check(req, out)
    joined = [op for name in schedule for op in segments[name].ops]
    if joined != full.ops:
        problems.append("segment circuits do not concatenate to build_full_circuit")
    root["health"] = health(obf_plan, state, out, rid, tracer)
    for key in ("success_gap", "norm_error", "ancilla_leak", "marginal_max_err"):
        if not root["health"][key] <= reference.HEALTH_TOLERANCE:
            problems.append(f"{key} {root['health'][key]:.3g} over {reference.HEALTH_TOLERANCE}")
    return out, root["end"] - root["start"], problems


# the module functions cli calls by name; a traced build request wraps each in a span
BUILD_CALLS = (
    (cli, "main"),
    (obfuscator, "plan"), (obfuscator, "build_full_circuit"),
    (circuit, "decompose_mcx"), (circuit, "gate_counts"), (circuit, "depth"),
    (circuit, "serialize"),
    (arithmetic, "build_half_adder"), (arithmetic, "cuccaro_reference_counts"),
)


def spanned(name: str, function, rid, tracer):
    def call(*args, **kwargs):
        with tracer.span(name, rid) as record:
            result = function(*args, **kwargs)
        if isinstance(result, circuit.Circuit):
            record["ops"] = len(result.ops)
        return result
    return call


@contextlib.contextmanager
def traced_calls(rid, tracer):
    """Replace each of BUILD_CALLS by a spanned wrapper while the block runs."""
    originals = [(module, name, getattr(module, name)) for module, name in BUILD_CALLS]
    for module, name, function in originals:
        layer = module.__name__.rsplit(".", 1)[-1]
        setattr(module, name, spanned(f"{layer}.{name}", function, rid, tracer))
    try:
        yield
    finally:
        for module, name, function in originals:
            setattr(module, name, function)


def traced_build(req: Request, rid, tracer):
    """The untraced build request, with a span around each call cli makes into qobf."""
    with tracer.span("request", rid) as root, traced_calls(rid, tracer):
        out = serve(req)
    return out, root["end"] - root["start"], check(req, out)


def run_request(req: Request, rid, tracer):
    """Serve one request; returns (output, latency in seconds, problems)."""
    if tracer is None:
        start = time.perf_counter()
        out = serve(req)
        latency = time.perf_counter() - start
        return out, latency, check(req, out)
    if req.kind == OBFUSCATE:
        return traced_obfuscate(req, rid, tracer)
    return traced_build(req, rid, tracer)


class Tally:
    """Latencies, failures and fingerprints of the requests one phase served."""

    def __init__(self):
        self.latencies: list[float] = []
        self.targets: list[int] = []
        self.fingerprints: list = []
        self.failed_ids: set = set()
        self.errors: list[str] = []
        self.host_s: list[tuple[float, float]] = []

    def fail(self, rid, message: str):
        self.failed_ids.add(rid)
        if len(self.errors) < 10:
            self.errors.append(f"request {rid}: {message}")


def scheduled(workload: str, seed: int, seconds: float):
    """(id, request) over whole epochs, while another epoch is expected to end within ``seconds``."""
    start = time.perf_counter()
    rid = 0
    for done, epoch in enumerate(epochs(workload, seed), start=1):
        for req in epoch:
            yield rid, req
            rid += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def serve_one(tally: Tally, rid, req: Request, tracer=None):
    tally.targets.append(req.target)
    began = time.perf_counter()
    try:
        out, latency, problems = run_request(req, rid, tracer)
    except Exception:  # a request that raises counts as failed; the loop goes on
        tally.latencies.append(time.perf_counter() - began)
        tally.fingerprints.append(None)
        tally.fail(rid, traceback.format_exc(limit=3))
        return
    tally.latencies.append(latency)
    tally.fingerprints.append(fingerprint(req, out))
    del out  # free it before the next request runs
    if problems:
        tally.fail(rid, "; ".join(problems))


def time_gates(state, ops) -> float:
    """Median microseconds per op, over at least three passes and MIN_TIMED_S."""
    samples = []
    while len(samples) < 3 or sum(samples) * len(ops) < MIN_TIMED_S:
        start = time.perf_counter()
        for op in ops:
            statevector.apply_gate(state, op)
        samples.append((time.perf_counter() - start) / len(ops))
    return statistics.median(samples) * 1e6


def gate_microbench() -> dict[str, float]:
    """apply_gate per kind and width on a warm state, with the gates the circuit uses."""
    metrics = {}
    for width, target in GATE_TARGETS.items():
        obf_plan = obfuscator.plan(target)
        full = obfuscator.build_full_circuit(obf_plan)
        init_len = len(obf_plan.input_qubits) + 2
        state = statevector.zero_state(width)
        statevector.run_circuit(state, circuit.Circuit(width, full.ops[:init_len]))
        distinct = list(dict.fromkeys(full.ops))
        for kind in tracing.GATE_KINDS:
            # the pipeline never emits z; time it on the input qubits
            ops = ([op for op in distinct if op.kind == kind]
                   or [circuit.z(q) for q in obf_plan.input_qubits])
            metrics[f"statevector.gate_us.{kind}.w{width}"] = time_gates(
                state, ops[:GATES_PER_KIND])
    return metrics


def copy_bytes_per_s(width: int) -> float:
    """Bytes read plus written per second by a numpy copy of a state-sized array."""
    source = np.ones(2**width, dtype=np.complex128)
    target = np.empty_like(source)
    samples = []
    while len(samples) < 5 or sum(samples) < MIN_TIMED_S:
        start = time.perf_counter()
        np.copyto(target, source)
        samples.append(time.perf_counter() - start)
    return 2 * source.nbytes / statistics.median(samples)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Serve each request untraced and then traced, so drift in machine speed hits both."""
    tracer = tracing.Tracer()
    untraced, traced = Tally(), Tally()
    for rid, req in scheduled(workload, seed, seconds):
        serve_one(untraced, rid, req)
        serve_one(traced, rid, req, tracer)
        got, want = traced.fingerprints[-1], untraced.fingerprints[-1]
        if got is not None and want is not None and got != want:
            traced.fail(rid, "traced output differs from the untraced one")
    probes = Tally()
    for rid, req in PROBES:
        serve_one(probes, rid, req, tracer)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(gate_microbench())
    width = max(s["width"] for s in tracing.select(tracer.spans, "statevector.run_circuit."))
    metrics["statevector.copy_bytes_per_s"] = copy_bytes_per_s(width)
    metrics["statevector.bw_fraction"] = (metrics["statevector.bytes_per_s"]
                                          / metrics["statevector.copy_bytes_per_s"])
    metrics["trace.overhead_frac"] = (statistics.median(traced.latencies)
                                      / statistics.median(untraced.latencies) - 1.0)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    tallies = (untraced, traced, probes)
    return {
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(len(t.failed_ids) for t in tallies),
        "errors": [error for t in tallies for error in t.errors],
        "per_layer": metrics,
    }


def main(argv) -> int:
    config = json.loads(argv[1])
    if Path(qobf.__file__).resolve().parent != ROOT / "src" / "qobf":
        print(f"error: imported qobf from {qobf.__file__}, not the checkout", file=sys.stderr)
        return 2
    result = {"anchor_ok": anchor_ok(), "ready_at": time.monotonic(),
              "numpy": np.__version__}
    if config["mode"] == "measure":
        if config["trace"]:
            result.update(traced_run(config["workload"], config["seed"], config["seconds"]))
        else:
            tally = Tally()
            for rid, req in scheduled(config["workload"], config["seed"], config["seconds"]):
                serve_one(tally, rid, req)
                tally.host_s.append(hostref.time_pass())
            result.update(attempted=len(tally.latencies), failed=len(tally.failed_ids),
                          errors=tally.errors, latencies=tally.latencies,
                          targets=tally.targets, host_s=tally.host_s)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
