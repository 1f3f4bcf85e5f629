"""End-to-end pipeline: plan, build, simulate, sample, decode.

A target natural number is hidden as the set of register triplets
(x, y, z) with x + y + z = target, each register n bits wide. The full
circuit puts the 3n input qubits into uniform superposition, prepares
the phase ancilla in |->, and applies the planned number of
oracle-plus-diffuser rounds. Measuring the input qubits then lands on a
valid triplet with probability close to the closed-form ideal.

Register layout over 3n+5 qubits: x on [0, n), y on [n, 2n), z on
[2n, 3n), followed by the two carry qubits and two adder ancillas of
the triple sum, with the |-> phase ancilla last (index 3n+4). The
simulation stores amplitudes for the 3n inputs only: the phase
ancilla's |1> half is the negation of its |0> half, and the other four
qubits stay |0> (see ``simulate``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields, replace
from operator import itemgetter

import numpy as np

from . import grover
from .arithmetic import triple_sum_layout
from .circuit import Circuit, h, x
from .errors import ConstraintError, ResourceLimitError
from .statevector import (
    StateVector,
    check_sampling,
    check_width,
    marginal_probabilities,
    run_circuit,
    sample_counts,
    zero_state,
)

DEFAULT_SHOTS = 1024
DEFAULT_SEED = 0

# ops in one full circuit; every target with n <= 8 fits (at most 997,296, at N=765)
MAX_CIRCUIT_OPS = 1 << 21

# the round count divides 2^(3*bits) by the solution count as a float;
# up to this width that quotient fits for every target
MAX_PLAN_BITS = (sys.float_info.max_exp - 1) // 3

# shots one run may draw; sampling N=31's marginal takes about 0.6-0.7 s per 10^8 shots
MAX_SHOTS = 10**9


@dataclass(frozen=True)
class ObfuscationPlan:
    """The search for one target: register width and Grover rounds.

    Everything else about the plan is derived from these three fields.
    """

    target: int
    bits: int
    iterations: int

    def __post_init__(self):
        if self.target < 1:
            raise ConstraintError(f"target must be >= 1, got {self.target}")
        if self.bits < 1:
            raise ConstraintError(f"bits must be >= 1, got {self.bits}")
        bound = grover.reachable_bound(self.bits)
        if self.target > bound:
            raise ConstraintError(
                f"target {self.target} exceeds 3*(2^{self.bits} - 1) = {bound}; "
                f"use wider registers"
            )
        if self.iterations < 0:
            raise ConstraintError(f"iterations must be >= 0, got {self.iterations}")

    @property
    def space_size(self) -> int:
        return 2 ** (3 * self.bits)

    @property
    def solution_count(self) -> int:
        return grover.count_solutions(self.target, self.bits)

    @property
    def theoretical_success(self) -> float:
        return grover.theoretical_success(
            self.space_size, self.solution_count, self.iterations
        )

    @property
    def total_qubits(self) -> int:
        return 3 * self.bits + 5

    @property
    def qubit_map(self) -> dict:
        """Register name -> qubits: the triple-sum layout plus the phase ancilla."""
        layout = triple_sum_layout(self.bits)
        qubit_map = {f.name.removesuffix("_qubits"): getattr(layout, f.name)
                     for f in fields(layout)}
        qubit_map["grover_ancilla"] = self.total_qubits - 1
        return qubit_map

    @property
    def input_qubits(self) -> tuple[int, ...]:
        """x, y then z: the low 3n qubits, which ``simulate`` stores."""
        return tuple(range(3 * self.bits))


@dataclass(frozen=True)
class DecodedHistogram:
    """Sampled measurement outcomes decoded into integer triplets.

    ``valid_fraction`` is the sampled estimate; ``exact_success`` is the
    exact marginal probability of the solution set read straight off the
    final state, immune to shot noise.
    """

    target: int
    bits: int
    iterations: int
    shots: int
    valid_fraction: float
    exact_success: float
    entries: dict

    def __post_init__(self):
        if sum(self.entries.values()) != self.shots:
            raise ValueError("entry counts must sum to shots")
        if not 0.0 <= self.valid_fraction <= 1.0:
            raise ValueError("valid_fraction must be a probability")
        if not 0.0 <= self.exact_success <= 1.0:
            raise ValueError("exact_success must be a probability")


def plan(target: int, bits: int | None = None) -> ObfuscationPlan:
    """Choose the register width (minimal unless given) and the Grover rounds.

    Raises a constraint error for target < 1, when an explicit ``bits``
    is too small for the target, or when the registers are so wide that
    the round count overflows a float.
    """
    if bits is None:
        bits = 1
        while grover.reachable_bound(bits) < target:
            bits += 1
    too_wide = ConstraintError(
        f"{bits}-bit registers are too wide to plan: the round count "
        f"(pi/4)*sqrt(2^{3 * bits}/solutions) overflows a float; every "
        f"target plans up to --bits {MAX_PLAN_BITS}"
    )
    # fewer than (target+2)^2 triplets solve it, so from here on the
    # quotient exceeds 2^max_exp; deciding that from bit lengths builds
    # no 2^bits integer
    if 3 * bits - 2 * (target + 2).bit_length() >= sys.float_info.max_exp:
        raise too_wide
    base = ObfuscationPlan(target, bits, 0)
    try:
        rounds = grover.optimal_iterations(base.space_size, base.solution_count)
    except OverflowError:
        raise too_wide from None
    return replace(base, iterations=rounds)


def build_full_circuit(obf_plan: ObfuscationPlan) -> Circuit:
    """Initialization layer plus the planned number of Grover rounds.

    One round (oracle then diffuser) is built once and is the circuit's
    block, repeated once per round. Raises a resource error when the
    circuit would have more than MAX_CIRCUIT_OPS ops.
    """
    width = obf_plan.total_qubits
    qubit_map = obf_plan.qubit_map
    grover_ancilla = qubit_map["grover_ancilla"]
    labels = {
        name: spec if isinstance(spec, tuple) else (spec,)
        for name, spec in qubit_map.items()
    }
    prologue = [h(q) for q in obf_plan.input_qubits]
    prologue += [x(grover_ancilla), h(grover_ancilla)]
    oracle = grover.build_oracle(obf_plan.bits, obf_plan.target)
    diffuser = grover.build_diffuser(obf_plan.input_qubits, grover_ancilla, width=width)
    one_round = oracle.ops + diffuser.ops
    total = len(prologue) + obf_plan.iterations * len(one_round)
    if total > MAX_CIRCUIT_OPS:
        raise ResourceLimitError(
            f"target {obf_plan.target} with {obf_plan.bits}-bit registers needs "
            f"{obf_plan.iterations} rounds of {len(one_round)} ops ({total} ops); "
            f"the circuit budget is {MAX_CIRCUIT_OPS} ops"
        )
    return Circuit(width, prologue, labels, one_round, obf_plan.iterations)


def simulate(obf_plan: ObfuscationPlan) -> tuple[StateVector, float]:
    """Run the full circuit from |0...0>; returns (state, simulation seconds).

    The width is checked against the qubit cap first, so a width over
    it fails before the circuit is built. The state stores only the
    3n inputs, which the register layout puts on the low qubits. The
    phase ancilla starts in |-> (``zero_state``'s ``minus``) in place of
    the prologue's X and H on it, and is then only ever flipped, so its
    |1> half stays the negation of the stored |0> half. The carries and
    adder ancillas stay |0>, because every permutation run returns them
    there, which ``run_circuit`` checks before it starts. The timing
    covers simulation, including compiling the permutation runs, but
    not circuit construction.
    """
    check_width(obf_plan.total_qubits)
    circuit = build_full_circuit(obf_plan)
    ancilla = obf_plan.qubit_map["grover_ancilla"]
    body = Circuit(circuit.width, [op for op in circuit.prologue if op.target != ancilla],
                   circuit.labels, circuit.block, circuit.copies)
    state = zero_state(body.width, stored=3 * obf_plan.bits, minus=ancilla)
    start = time.perf_counter()
    run_circuit(state, body)
    elapsed = time.perf_counter() - start
    return state, elapsed


def _solution_mass(obf_plan: ObfuscationPlan, marginal: np.ndarray) -> float:
    # the solutions' indices x + y*2^n + z*2^(2n), ascending: by z, then y,
    # with x = target - y - z in range. A mask over every outcome picks the
    # same entries in the same order, so the pairwise sum has the same bits.
    n, target = obf_plan.bits, obf_plan.target
    top = (1 << n) - 1
    pieces = []
    for z in range(min(top, target) + 1):
        y = np.arange(max(0, target - z - top), min(top, target - z) + 1)
        pieces.append((target - z - y) + (y << n) + (z << 2 * n))
    value = float(marginal[np.concatenate(pieces)].sum())
    return min(max(value, 0.0), 1.0)


def solution_probability(obf_plan: ObfuscationPlan, state: StateVector) -> float:
    """Exact marginal probability that the inputs decode to a valid triplet."""
    return _solution_mass(obf_plan, marginal_probabilities(state, obf_plan.input_qubits))


def decode(index: int | np.ndarray, bits: int):
    """Split input-register outcome indices into (x, y, z).

    ``index`` is one index or an array of them; bit k is input qubit k,
    so x is the low n bits, y the next n and z the top n. Python ints
    give Python ints, arrays give arrays. Any index outside
    0..2^(3n)-1 is refused, and so is anything that is not an integer
    or an integer array, a bitstring among them.
    """
    try:
        # count_nonzero, not any: on one Python int it takes 0.5 us against 3.4 us
        if np.count_nonzero((index < 0) | (index >= 1 << 3 * bits)):
            raise ConstraintError(
                f"outcome index outside 0..2^{3 * bits}-1 for {bits}-bit registers"
            )
        mask = (1 << bits) - 1
        return index & mask, (index >> bits) & mask, index >> (2 * bits)
    except TypeError:
        raise ConstraintError(
            f"outcome index must be an integer or an integer array, not {type(index).__name__}"
        ) from None


def run(obf_plan: ObfuscationPlan, shots: int = DEFAULT_SHOTS,
        seed: int = DEFAULT_SEED) -> DecodedHistogram:
    """Simulate, sample the input qubits, and decode every outcome.

    Raises, before simulating, a resource error for more than MAX_SHOTS
    shots and a constraint error for fewer than one shot or a negative
    seed.
    """
    if shots > MAX_SHOTS:
        raise ResourceLimitError(
            f"{shots} shots exceed the sampling budget of {MAX_SHOTS} shots"
        )
    check_sampling(shots, seed)
    state, _ = simulate(obf_plan)
    marginal = marginal_probabilities(state, obf_plan.input_qubits)
    counts = sample_counts(marginal, shots, seed)
    outcomes = np.flatnonzero(counts)
    xs, ys, zs = decode(outcomes, obf_plan.bits)
    # entries in (x, y, z) order, which sorted_entries' first sort then keeps
    order = np.lexsort((zs, ys, xs))
    xs, ys, zs, hits = xs[order], ys[order], zs[order], counts[outcomes[order]]
    entries = dict(zip(zip(xs.tolist(), ys.tolist(), zs.tolist()), hits.tolist()))
    valid = int(hits[xs + ys + zs == obf_plan.target].sum())
    return DecodedHistogram(
        target=obf_plan.target,
        bits=obf_plan.bits,
        iterations=obf_plan.iterations,
        shots=shots,
        valid_fraction=valid / shots,
        exact_success=_solution_mass(obf_plan, marginal),
        entries=entries,
    )


def sorted_entries(histogram: DecodedHistogram) -> list[tuple[tuple[int, int, int], int]]:
    """Entries by count descending, ties by (x, y, z) ascending.

    Two stable sorts: by triplet, then by count, which keeps the
    triplet order among equal counts.
    """
    items = sorted(histogram.entries.items(), key=itemgetter(0))
    items.sort(key=itemgetter(1), reverse=True)
    return items


def to_json_dict(histogram: DecodedHistogram) -> dict:
    """Stable wire form of a decoded histogram."""
    return {
        "n_value": histogram.target,
        "bits": histogram.bits,
        "iterations": histogram.iterations,
        "shots": histogram.shots,
        "valid_fraction": histogram.valid_fraction,
        "exact_success": histogram.exact_success,
        "counts": [
            {"x": xv, "y": yv, "z": zv, "count": count}
            for (xv, yv, zv), count in sorted_entries(histogram)
        ],
    }
