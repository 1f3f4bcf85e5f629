"""Fixed reference loops that measure how fast the host runs right now.

On a shared host the speed of a core drifts by tens of percent over
minutes (README, Metrics), so the throughput of two runs of the same
code can differ by more than any useful bound. The worker times one
pass of each loop after every request, outside the request's latency.
The loops do the two kinds of work the requests do, but with no qobf
code in them, so a change to qobf cannot move them:

- the object loop is Python object work, as in building, decomposing
  and writing circuits: it builds small gate-like objects, counts them,
  walks them like a depth pass and writes them as text;
- the array loop is numpy work on a 2 MiB array, as in simulating.

The host's slow spells slow the first kind far more than the second, so
``speed_factor`` weighs each loop by the share of a workload's work that
is of its kind. Throughput times that factor is the throughput the same
run would have had on a host that runs the loops in OBJECT_REF_S and
ARRAY_REF_S.
"""

from __future__ import annotations

import time

import numpy as np

OBJECTS = 5_000
WIRES = 17
ARRAY_PASSES = 30
# median seconds of one pass on a quiet 2-vCPU Xeon VM at 2.1 GHz
# (Python 3.11, numpy 2.4); they only set the scale of the scaled metric
OBJECT_REF_S = 0.0097
ARRAY_REF_S = 0.0120


class _Gate:
    __slots__ = ("kind", "targets", "controls")

    def __init__(self, kind: str, targets: tuple, controls: tuple):
        self.kind = kind
        self.targets = targets
        self.controls = controls


def _object_work() -> int:
    gates = [_Gate("cx", (i % WIRES,), (i % 13, i % 7)) for i in range(OBJECTS)]
    counts: dict = {}
    for gate in gates:
        key = (gate.kind, len(gate.controls))
        counts[key] = counts.get(key, 0) + 1
    depth = [0] * WIRES
    for gate in gates:
        wires = gate.targets + gate.controls
        level = max(depth[w] for w in wires) + 1
        for w in wires:
            depth[w] = level
    text = "\n".join(f"{g.kind} {g.targets[0]} {g.controls[0]}" for g in gates)
    return len(text) + max(depth) + len(counts)


def _array_work(state: np.ndarray, out: np.ndarray) -> None:
    for _ in range(ARRAY_PASSES):
        np.multiply(state, 0.5, out=out)
        np.add(out, state, out=out)


def time_pass() -> tuple[float, float]:
    """Seconds one pass of the object loop and of the array loop take now."""
    state = np.ones(2**17, dtype=np.complex128)
    out = np.empty_like(state)
    start = time.perf_counter()
    _object_work()
    middle = time.perf_counter()
    _array_work(state, out)
    return middle - start, time.perf_counter() - middle


def speed_factor(passes, object_share: float) -> float:
    """How much slower than the reference the host ran over ``passes``.

    ``passes`` holds (object seconds, array seconds) pairs from time_pass;
    ``object_share`` is the share of the workload's work that is Python
    object work.
    """
    object_s = sum(p[0] for p in passes) / len(passes)
    array_s = sum(p[1] for p in passes) / len(passes)
    return (object_share * object_s / OBJECT_REF_S
            + (1.0 - object_share) * array_s / ARRAY_REF_S)
