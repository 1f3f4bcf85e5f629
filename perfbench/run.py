"""qobf benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload shots-31 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from anywhere; the checkout is the directory above this file. Each
workload is served by a fresh worker process (perfbench/worker.py) in a
closed loop with one client. With ``--trace 0`` the run starts
SETUP_SAMPLES fresh workers in turn, times each from its start through
``import qobf`` and one warm-up request, and reports the end-to-end
metrics. With ``--trace 1`` it reports the per-layer metrics of a
separate traced run instead. The last line of standard output is one
JSON object; a fuller record with quartiles and the run context goes to
``.bench_out/`` in the checkout. Exit code 1 means the benchmark could
not run (no result is printed); failed requests are reported in the
result, not by the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref
from workloads import BUILD, OBFUSCATE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# the workloads, the metrics and their units are named there and nowhere else
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 7
# a run must end within 180 s; leave room to report
TIME_LIMIT_S = 170
P90_MIN_SAMPLES = 100
# share of a request's work that is Python object work, which weighs the
# object loop against the array loop in hostref.speed_factor: a build
# request never touches numpy; an obfuscate request simulates in numpy
# and plans, samples and decodes in Python
OBJECT_SHARE = {BUILD: 1.0, OBFUSCATE: 0.5}
# set-up loads numpy and runs one obfuscate request: both kinds alike
SETUP_OBJECT_SHARE = 0.5
SETUP_PASSES = 4


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(config: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its set-up seconds."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(config)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {config['mode']} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {config['mode']} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {config['mode']} printed no result")
    result = json.loads(lines[-1])
    # time.monotonic is one system-wide clock on Linux, so the two processes agree
    return result, result["ready_at"] - started


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cache_size(level: int) -> str:
    """Size of the CPU cache at ``level`` as the kernel reports it, or 'unknown'."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def run_context(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "l2_per_core": cache_size(2),
        "l3": cache_size(3),
        "client": "closed loop, one client: the next request starts after the previous returns",
        "notes": [
            "statevector.bytes_computed is computed from gate shapes, 2 x 16 B x "
            "2^(width - controls) per gate, not measured",
            "the largest state is 16 MiB (20 qubits, in the traced run's single-gate "
            "timings; 2 MiB in shots-31), far inside the L3 above, so nothing is DRAM-bound",
            "N=127 and N=255 (23 and 26 qubits) are left out: each takes roughly "
            "1 to 20 minutes per request",
            "setup_s covers interpreter start, import qobf and the README quick-start "
            "request, which is checked byte for byte and excluded from latency",
            "setup_s and requests_per_s_at_ref are scaled to a reference host speed "
            "by the reference loops in perfbench/hostref.py; the raw figures are "
            "kept beside them",
        ],
    }


def metric_entries(spec: dict, key: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for each metric listed under ``key`` in the spec."""
    units = {m["name"]: m["unit"] for m in spec[key]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for {key} metrics {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups, anchors, setup_passes = [], [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            result, setup = spawn({"mode": "setup"}, deadline)
            setups.append(setup)
            anchors.append(result["anchor_ok"])
            # the host's speed right after each set-up, for scaling setup_s
            setup_passes += [hostref.time_pass() for _ in range(SETUP_PASSES)]
    config = {"mode": "measure", "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace)}
    result, setup = spawn(config, deadline)
    setups.append(setup)
    anchors.append(result["anchor_ok"])

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "anchor_ok": all(anchors),
        "errors": result["errors"],
        "context": run_context(result["numpy"]),
    }
    if trace:
        record["metrics"] = metric_entries(spec, "per_layer", result["per_layer"])
    else:
        latencies = result["latencies"]
        completed = attempted - failed
        requests_per_s = completed / sum(latencies)
        speed = hostref.speed_factor(result["host_s"], OBJECT_SHARE[WORKLOADS[workload].kind])
        setup_speed = hostref.speed_factor(setup_passes, SETUP_OBJECT_SHARE)
        record["metrics"] = metric_entries(spec, "end_to_end", {
            "setup_s": statistics.median(setups) / setup_speed,
            "requests_per_s_at_ref": requests_per_s * speed,
            "peak_rss_mb": result["peak_rss_mb"],
        })
        # printed, not gated: they move with the host's speed (README)
        record["requests_per_s"] = requests_per_s
        record["host_speed_factor"] = speed
        q1, q3 = quartiles(setups)
        record["setup_s_raw"] = {"value": statistics.median(setups),
                                 "samples": len(setups), "q1": q1, "q3": q3}
        record["setup_speed_factor"] = setup_speed
        q1, q3 = quartiles(latencies)
        record["latency_p50_s"] = {"value": statistics.median(latencies),
                                   "samples": len(latencies), "q1": q1, "q3": q3}
        if len(latencies) >= P90_MIN_SAMPLES:
            record["latency_p90_s"] = statistics.quantiles(latencies, n=10)[8]
        else:
            record["latency_p90_s"] = f"omitted: {len(latencies)} requests, fewer than {P90_MIN_SAMPLES}"
        record["requests"] = [[target, latency, *passes] for target, latency, passes
                              in zip(result["targets"], latencies, result["host_s"])]
    record["correct"] = failed == 0 and record["anchor_ok"]
    return record


def report(record: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"requests {record['attempted']}  failed_fraction {record['failed_fraction']:g}  "
          f"anchor {'ok' if record['anchor_ok'] else 'FAILED'}")
    for name, entry in record["metrics"].items():
        extra = ""
        if "samples" in entry:
            extra = f"  (n={entry['samples']}, q1={entry['q1']:.6g}, q3={entry['q3']:.6g})"
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}{extra}")
    if not record["trace"]:
        raw = record["setup_s_raw"]
        print(f"  {'setup_s_raw':<40} {raw['value']:.6g} s  (n={raw['samples']}, "
              f"q1={raw['q1']:.6g}, q3={raw['q3']:.6g})")
        print(f"  {'setup_speed_factor':<40} {record['setup_speed_factor']:.6g}  "
              "(reference loop times over their reference; above 1 is a slow host)")
        print(f"  {'requests_per_s':<40} {record['requests_per_s']:.6g} 1/s")
        print(f"  {'host_speed_factor':<40} {record['host_speed_factor']:.6g}")
        p50 = record["latency_p50_s"]
        print(f"  {'latency_p50_s':<40} {p50['value']:.6g} s  (n={p50['samples']}, "
              f"q1={p50['q1']:.6g}, q3={p50['q3']:.6g})")
        p90 = record["latency_p90_s"]
        print(f"  {'latency_p90_s':<40} " + (f"{p90:.6g} s" if isinstance(p90, float) else p90))
    for error in record["errors"]:
        print(f"  error: {error}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2))


def result_line(record: dict) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in record["metrics"].items()}}


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="qobf benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qobf" / "__init__.py").is_file():
        print(f"error: no qobf sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"error: no requests defined for workloads {unknown}", file=sys.stderr)
        return 1
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            record = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
            report(record)
            results[name] = result_line(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
