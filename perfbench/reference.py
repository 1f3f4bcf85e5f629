"""The benchmark's own model of a correct answer, independent of qobf.

Register width, solution count, round count and the closed-form success
probability are recomputed here with numpy, so a defect in qobf's
planner cannot hide behind a check that reuses it. The checkers return
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUCCESS_TOLERANCE = 1e-9
HEALTH_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Expected:
    bits: int
    solutions: int
    rounds: int
    success: float

    @property
    def space(self) -> int:
        return 2 ** (3 * self.bits)


@functools.cache
def expected(target: int) -> Expected:
    """Minimal register width, counted solutions, rounds and closed-form success."""
    bits = 1
    while 3 * (2**bits - 1) < target:
        bits += 1
    values = np.arange(2**bits)
    rest = target - (values[:, None] + values[None, :])
    solutions = int(np.count_nonzero((rest >= 0) & (rest < 2**bits)))
    space = 2 ** (3 * bits)
    rounds = math.floor(math.pi / 4 * math.sqrt(space / solutions) + 0.5)
    angle = math.asin(math.sqrt(solutions / space))
    return Expected(bits, solutions, rounds, math.sin((2 * rounds + 1) * angle) ** 2)


def reference_marginal(target: int, bits: int, rounds: int) -> np.ndarray:
    """Input-register model: sign flip on the marked inputs, then 2*mean - a, R times.

    Index bit k is input qubit k, so the index is x + y*2^n + z*2^(2n),
    the order qobf's marginal over the input qubits uses.
    """
    index = np.arange(2 ** (3 * bits))
    mask = 2**bits - 1
    marked = (index & mask) + ((index >> bits) & mask) + (index >> (2 * bits)) == target
    amplitudes = np.full(index.size, 2.0 ** (-1.5 * bits))
    for _ in range(rounds):
        amplitudes[marked] *= -1.0
        amplitudes = 2.0 * amplitudes.mean() - amplitudes
    return amplitudes**2


def check_obfuscate(out: dict, target: int, shots: int) -> list[str]:
    """Problems with one ``to_json_dict`` result for (target, shots)."""
    want = expected(target)
    problems = []
    for key, value in (("n_value", target), ("bits", want.bits),
                       ("iterations", want.rounds), ("shots", shots)):
        if out.get(key) != value:
            problems.append(f"{key} {out.get(key)!r} != {value}")
    counts = out.get("counts", [])
    if sum(entry["count"] for entry in counts) != shots:
        problems.append("counts do not sum to shots")
    top = 2**want.bits
    triplets = [(entry["x"], entry["y"], entry["z"]) for entry in counts]
    if any(not 0 <= v < top for triplet in triplets for v in triplet):
        problems.append(f"a triplet does not fit {want.bits} bits")
    if len(set(triplets)) != len(triplets):
        problems.append("a triplet appears twice")
    valid = sum(entry["count"] for entry in counts
                if entry["x"] + entry["y"] + entry["z"] == target)
    if out.get("valid_fraction") != valid / shots:
        problems.append(f"valid_fraction {out.get('valid_fraction')!r} != recount {valid / shots}")
    gap = abs(out.get("exact_success", -1.0) - want.success)
    if not gap <= SUCCESS_TOLERANCE:
        problems.append(f"exact_success off the closed form by {gap:.3g}")
    return problems


def check_build(inspect: dict, export_text: str, target: int) -> list[str]:
    """Problems with one inspect JSON document and its decomposed export."""
    want = expected(target)
    problems = []
    for key, value in (("target", target), ("bits", want.bits),
                       ("qubits", 3 * want.bits + 5), ("iterations", want.rounds),
                       ("solutions", want.solutions)):
        if inspect.get(key) != value:
            problems.append(f"{key} {inspect.get(key)!r} != {value}")
    for key in ("gates", "decomposed_gates"):
        counts = dict(inspect[key])
        total = counts.pop("total")
        if sum(counts.values()) != total:
            problems.append(f"{key} kinds sum to {sum(counts.values())}, total {total}")
    if inspect["gates"]["mcx"] != 2 * want.rounds:
        problems.append(f"{inspect['gates']['mcx']} mcx gates for {want.rounds} rounds")
    if inspect["decomposed_gates"]["mcx"] != 0:
        problems.append("mcx gates left after decomposition")
    header = f"width {inspect['decomposed_width']}\n"
    labels = export_text.count("\nlabel ")
    ops = export_text.count("\n") - 1 - labels
    if not export_text.startswith(header):
        problems.append(f"export does not start with {header.strip()!r}")
    if ops != inspect["decomposed_gates"]["total"]:
        problems.append(f"export has {ops} ops, inspect says {inspect['decomposed_gates']['total']}")
    return problems
