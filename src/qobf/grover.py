"""Grover planning math and the search-circuit components.

Planning: the number of triplets 0 <= x,y,z <= 2^n - 1 with
x + y + z = target is counted in closed form by inclusion-exclusion
over bounded compositions; the iteration count is the usual
round((pi/4) sqrt(T/M)) with T = 2^(3n); the ideal success probability
after R rounds is sin^2((2R+1) asin(sqrt(M/T))).

Circuits: phase kickback onto an ancilla prepared in |-> realizes both
reflections. The oracle sandwiches an equality query on the sum register
between the triple-sum adder and its inverse, so it acts diagonally on
the 3n input qubits, flipping the sign exactly where x + y + z = target.
The diffuser is the standard H / X / multi-controlled-X / X / H sandwich
on the input qubits, which inverts amplitudes about the mean.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arithmetic import SumLayout, build_triple_sum
from .circuit import Circuit, GateOp, h, mcx, x
from .errors import ConstraintError

# register widths whose target-independent round parts, the triple sum's
# ops and the diffuser's ops, one process keeps
ROUND_CACHE = 8


def reachable_bound(bits: int) -> int:
    """Largest target expressible as a sum of three ``bits``-bit values."""
    return 3 * (2**bits - 1)


def count_solutions(target: int, bits: int) -> int:
    """Number of (x, y, z) with 0 <= x,y,z <= 2^bits - 1 summing to target.

    Inclusion-exclusion over the cap: sum over j of
    (-1)^j C(3,j) C(target - j*2^bits + 2, 2), keeping terms with
    target - j*2^bits >= 0. Returns 0 when the target is unreachable.
    """
    if bits < 1:
        raise ConstraintError(f"bits must be >= 1, got {bits}")
    if target < 0:
        raise ConstraintError(f"target must be >= 0, got {target}")
    if target.bit_length() <= bits:
        # target < 2^bits: only the j = 0 term counts, and deciding that
        # from bit lengths builds no 2^bits integer
        return math.comb(target + 2, 2)
    cap = 2**bits
    total = 0
    for j in range(4):
        rest = target - j * cap
        if rest < 0:
            continue
        total += (-1) ** j * math.comb(3, j) * math.comb(rest + 2, 2)
    return total


def brute_force_solutions(target: int, bits: int) -> int:
    """Triple-loop enumeration of the same count; the slow cross-check."""
    if bits < 1:
        raise ConstraintError(f"bits must be >= 1, got {bits}")
    top = 2**bits
    count = 0
    for xv in range(top):
        for yv in range(top):
            for zv in range(top):
                if xv + yv + zv == target:
                    count += 1
    return count


def optimal_iterations(space_size: int, solution_count: int) -> int:
    """round((pi/4) sqrt(T/M)) with ties rounded away from zero."""
    if solution_count == 0:
        raise ConstraintError("no solutions: the target cannot be decomposed")
    if not 1 <= solution_count <= space_size:
        raise ConstraintError(
            f"solution count {solution_count} out of range for space {space_size}"
        )
    value = (math.pi / 4.0) * math.sqrt(space_size / solution_count)
    return int(math.floor(value + 0.5))


def theoretical_success(space_size: int, solution_count: int, iterations: int) -> float:
    """Ideal probability of landing on a solution after ``iterations`` rounds."""
    if not 1 <= solution_count <= space_size:
        raise ConstraintError(
            f"solution count {solution_count} out of range for space {space_size}"
        )
    if iterations < 0:
        raise ConstraintError(f"iterations must be >= 0, got {iterations}")
    angle = math.asin(math.sqrt(solution_count / space_size))
    return math.sin((2 * iterations + 1) * angle) ** 2


def build_query(sum_layout: SumLayout, target: int, grover_ancilla: int,
                width: int) -> Circuit:
    """Equality test of the sum register against ``target``, kicked onto the ancilla.

    X gates flip every sum qubit whose bit of ``target`` (little-endian,
    n+2 bits) is 0, a multi-controlled X over the whole sum register
    targets the ancilla, and the X gates are undone. With the ancilla in
    |-> this flips the sign exactly when the register holds ``target``.
    """
    sum_qubits = sum_layout.sum_qubits
    bits = len(sum_qubits)
    if not 0 <= target < 2**bits:
        raise ConstraintError(
            f"target {target} does not fit the {bits}-bit sum register"
        )
    if grover_ancilla in sum_qubits:
        raise ValueError("grover ancilla collides with the sum register")
    flips = [x(q) for i, q in enumerate(sum_qubits) if not (target >> i) & 1]
    return Circuit(width, flips + [mcx(sum_qubits, grover_ancilla)] + flips[::-1])


def build_oracle(bits: int, target: int) -> Circuit:
    """Sign flip on exactly the inputs with x + y + z = target.

    Width 3n+5: triple sum, equality query, then the triple sum's ops
    reversed, which undo it (every adder gate is its own inverse). The
    triple sum is built once per width; only the query depends on the
    target. Needs the last qubit (the Grover ancilla) prepared in |->
    and all carry and ancilla qubits in |0>; it returns them all
    unchanged.
    """
    reachable = reachable_bound(bits)
    if not 0 <= target <= reachable:
        raise ConstraintError(
            f"target {target} is not reachable with {bits}-bit registers "
            f"(bound {reachable})"
        )
    width = 3 * bits + 5
    grover_ancilla = width - 1
    adder, layout = _triple_sum(bits)
    query = build_query(layout, target, grover_ancilla, width=width)
    return Circuit(width, [*adder, *query.ops, *adder[::-1]])


@lru_cache(maxsize=ROUND_CACHE)
def _triple_sum(bits: int) -> tuple[tuple[GateOp, ...], SumLayout]:
    """The triple sum's ops and layout at ``bits``, built once per width."""
    adder, layout = build_triple_sum(bits)
    return tuple(adder.ops), layout


def build_diffuser(input_qubits, grover_ancilla: int, width: int) -> Circuit:
    """Inversion about the mean over the input register, via kickback on the ancilla."""
    return Circuit(width, list(_diffuser_ops(tuple(input_qubits), grover_ancilla)))


@lru_cache(maxsize=ROUND_CACHE)
def _diffuser_ops(input_qubits: tuple[int, ...], grover_ancilla: int) -> tuple[GateOp, ...]:
    """The diffuser's ops, built and checked once per register."""
    if len(set(input_qubits)) != len(input_qubits):
        raise ValueError("input qubits must be distinct")
    if grover_ancilla in input_qubits:
        raise ValueError("grover ancilla collides with the input register")
    hs = [h(q) for q in input_qubits]
    xs = [x(q) for q in input_qubits]
    return (*hs, *xs, mcx(input_qubits, grover_ancilla), *xs[::-1], *hs[::-1])
