"""Planning math and the oracle/diffuser circuit components."""

import itertools
import math

import numpy as np
import pytest

from qobf import grover
from qobf.arithmetic import build_triple_sum, triple_sum_layout
from qobf.circuit import Circuit, gate_counts, h, inverse, mcx, x
from qobf.errors import ConstraintError
from qobf.grover import (
    brute_force_solutions,
    build_diffuser,
    build_oracle,
    build_query,
    count_solutions,
    optimal_iterations,
    theoretical_success,
)
from qobf.obfuscator import ObfuscationPlan, plan
from qobf.statevector import apply_gate, run_circuit, zero_state
from states import fidelity

# benchmark-table anchor values: (target, bits, iterations, solutions)
TABLE_ROWS = [
    (7, 2, 3, 6),
    (15, 3, 3, 28),
    (31, 4, 5, 120),
    (63, 5, 6, 496),
    (127, 6, 9, 2016),
    (255, 7, 13, 8128),
]


def test_count_solutions_known_values():
    assert count_solutions(19, 3) == 6
    for target, bits, _, solutions in TABLE_ROWS:
        assert count_solutions(target, bits) == solutions
    # single-solution corners and unreachable targets
    assert count_solutions(0, 3) == 1
    assert count_solutions(21, 3) == 1
    assert count_solutions(9, 2) == 1
    assert count_solutions(10, 2) == 0
    assert count_solutions(100, 3) == 0


def test_count_solutions_input_validation():
    with pytest.raises(ConstraintError):
        count_solutions(5, 0)
    with pytest.raises(ConstraintError):
        count_solutions(-1, 2)
    with pytest.raises(ConstraintError):
        brute_force_solutions(5, 0)


def test_count_matches_brute_force_small():
    for bits in (1, 2, 3):
        for target in range(3 * (2 ** bits - 1) + 2):
            assert count_solutions(target, bits) == brute_force_solutions(target, bits)


def test_optimal_iterations_known_values():
    assert optimal_iterations(512, 6) == 7
    for target, bits, iterations, solutions in TABLE_ROWS:
        assert optimal_iterations(2 ** (3 * bits), solutions) == iterations
    assert optimal_iterations(4, 4) == 1  # round(pi/4)


def test_optimal_iterations_rounds_ties_away_from_zero():
    # (pi/4) sqrt(T/M) = 0.5 exactly requires T/M = (2/pi)^2, impossible
    # for integers, so exercise the .5 boundary through the helper itself
    assert optimal_iterations(1, 1) == 1
    with pytest.raises(ConstraintError):
        optimal_iterations(8, 0)
    with pytest.raises(ConstraintError):
        optimal_iterations(8, 9)


def test_theoretical_success_values():
    assert theoretical_success(4, 4, 0) == pytest.approx(1.0)
    expected = math.sin(15 * math.asin(math.sqrt(6 / 512))) ** 2
    assert theoretical_success(512, 6, 7) == pytest.approx(expected, abs=1e-12)
    assert 0.9968 < theoretical_success(512, 6, 7) < 0.9969
    with pytest.raises(ConstraintError):
        theoretical_success(8, 0, 1)
    with pytest.raises(ConstraintError):
        theoretical_success(8, 1, -1)


def test_plan_bundles_consistently():
    case = plan(19, 3)
    assert case == ObfuscationPlan(target=19, bits=3, iterations=7)
    assert (case.space_size, case.solution_count) == (512, 6)
    assert case.iterations == optimal_iterations(512, 6)
    assert case.theoretical_success == theoretical_success(512, 6, 7)
    with pytest.raises(ConstraintError):
        plan(10, 2)  # unreachable: no solutions


def test_obfuscation_plan_invariants():
    # the derived fields cannot disagree with the planning math
    for target, bits in [(1, 1), (3, 2), (7, 2), (6, 3)]:
        case = ObfuscationPlan(target, bits, 1)
        assert case.space_size == 2 ** (3 * bits)
        assert case.solution_count == brute_force_solutions(target, bits) > 0
    with pytest.raises(ValueError):
        ObfuscationPlan(target=10, bits=2, iterations=1)  # zero solutions
    with pytest.raises(ValueError):
        ObfuscationPlan(target=3, bits=2, iterations=-1)


def minus_state_circuit(width, ancilla):
    return Circuit(width, [x(ancilla), h(ancilla)])


def test_build_query_gate_pattern():
    layout = triple_sum_layout(3)
    # 19 = 10011b over the 5 sum qubits: bits 2 and 3 are zero
    query = build_query(layout, 19, grover_ancilla=13, width=14)
    kinds = [op.kind for op in query.ops]
    assert kinds == ["x", "x", "mcx", "x", "x"]
    flipped = {op.target for op in query.ops if op.kind == "x"}
    assert flipped == {layout.sum_qubits[2], layout.sum_qubits[3]}
    the_mcx = query.ops[2]
    assert the_mcx.controls == tuple(sorted(layout.sum_qubits))
    assert the_mcx.target == 13

    # all-ones target: no X gates at all
    bare = build_query(layout, 31, grover_ancilla=13, width=14)
    assert [op.kind for op in bare.ops] == ["mcx"]

    with pytest.raises(ConstraintError):
        build_query(layout, 32, grover_ancilla=13, width=14)
    with pytest.raises(ValueError):
        build_query(layout, 3, grover_ancilla=layout.sum_qubits[0], width=14)


def test_query_applied_twice_is_identity():
    layout = triple_sum_layout(1)
    width = 8
    query = build_query(layout, 3, grover_ancilla=7, width=width)
    doubled = Circuit(width, query.ops + query.ops)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=2 ** width)
    amps /= np.linalg.norm(amps)
    state = zero_state(width)
    state.amplitudes[:] = amps
    run_circuit(state, doubled)
    np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)


def oracle_sign_on_basis_state(oracle, bits, index):
    """Sign acquired by |index> on the inputs, ancillas 0, flag in |->."""
    width = oracle.width
    state = zero_state(width)
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    apply_gate(state, x(width - 1))
    apply_gate(state, h(width - 1))
    reference = state.amplitudes.copy()
    run_circuit(state, oracle)
    overlap = np.vdot(reference, state.amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-12, "oracle must act as +/-1 here"
    return 1 if overlap > 0 else -1


def test_oracle_diagonal_sign_pattern_exhaustive_n1():
    bits = 1
    for target in range(0, 4):  # reachable range for n=1 plus bound
        if target > 3 * (2 ** bits - 1):
            break
        oracle = build_oracle(bits, target)
        assert oracle.width == 3 * bits + 5
        flipped = 0
        for index in range(2 ** (3 * bits)):
            xv = index & 1
            yv = (index >> 1) & 1
            zv = (index >> 2) & 1
            sign = oracle_sign_on_basis_state(oracle, bits, index)
            expected = -1 if xv + yv + zv == target else 1
            assert sign == expected
            if sign == -1:
                flipped += 1
        assert flipped == count_solutions(target, bits)


def test_oracle_rejects_unreachable_targets():
    with pytest.raises(ConstraintError):
        build_oracle(2, 10)
    with pytest.raises(ConstraintError):
        build_oracle(2, -1)


def test_oracle_squared_is_identity():
    oracle = build_oracle(2, 7)
    width = oracle.width
    rng = np.random.default_rng(8)
    for trial in range(5):
        amps = rng.normal(size=2 ** width)
        amps /= np.linalg.norm(amps)
        state = zero_state(width)
        state.amplitudes[:] = amps
        run_circuit(state, Circuit(width, oracle.ops + oracle.ops))
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-10)


def test_diffuser_structure():
    diffuser = build_diffuser(range(9), 13, width=14)
    counts = gate_counts(diffuser)
    assert counts == {"h": 18, "x": 18, "z": 0, "cx": 0, "ccx": 0, "mcx": 1,
                      "total": 37}
    with pytest.raises(ValueError):
        build_diffuser((0, 0, 1), 5, width=6)
    with pytest.raises(ValueError):
        build_diffuser((0, 1), 1, width=2)


def test_diffuser_fixes_uniform_superposition():
    width = 4  # 3 inputs + flag
    prep = Circuit(width, [h(0), h(1), h(2), x(3), h(3)])
    state = zero_state(width)
    run_circuit(state, prep)
    reference = zero_state(width)
    run_circuit(reference, prep)
    diffuser = build_diffuser((0, 1, 2), 3, width=width)
    run_circuit(state, diffuser)
    assert fidelity(state, reference) == pytest.approx(1.0, abs=1e-12)
    # and twice is the identity, not just fidelity 1
    run_circuit(state, diffuser)
    np.testing.assert_allclose(state.amplitudes, reference.amplitudes, atol=1e-12)


def test_two_qubit_single_round_grover_is_exact():
    # textbook exact case: 4 states, 1 marked, one round succeeds with
    # certainty; marked state |10> via an X-sandwiched mcx kickback
    width = 3
    mark = Circuit(width, [x(0), mcx((0, 1), 2), x(0)])
    diffuser = build_diffuser((0, 1), 2, width=width)
    state = zero_state(width)
    run_circuit(state, Circuit(width, [h(0), h(1), x(2), h(2)]))
    run_circuit(state, Circuit(width, mark.ops + diffuser.ops))
    probs = np.abs(state.amplitudes) ** 2
    p_marked = probs[0b010] + probs[0b110]  # flag qubit either way
    assert p_marked == pytest.approx(1.0, abs=1e-12)


# the build-edge workload's targets: N=375..379 at 7 bits, 744..757 at 8 bits
EDGE_TARGETS = {7: range(375, 380), 8: range(744, 758)}


def appended_query(layout, target, ancilla, width):
    circuit = Circuit(width)
    flips = [q for i, q in enumerate(layout.sum_qubits) if not (target >> i) & 1]
    for q in flips:
        circuit.append(x(q))
    circuit.append(mcx(layout.sum_qubits, ancilla))
    for q in reversed(flips):
        circuit.append(x(q))
    return circuit


def appended_diffuser(inputs, ancilla, width):
    circuit = Circuit(width)
    for q in inputs:
        circuit.append(h(q))
    for q in inputs:
        circuit.append(x(q))
    circuit.append(mcx(inputs, ancilla))
    for q in reversed(inputs):
        circuit.append(x(q))
    for q in reversed(inputs):
        circuit.append(h(q))
    return circuit


@pytest.mark.parametrize("bits", range(1, 9))
def test_query_and_diffuser_hand_over_the_gate_by_gate_op_list(bits):
    layout = triple_sum_layout(bits)
    width = 3 * bits + 5
    ancilla = width - 1
    targets = range(3 * (2**bits - 1) + 1) if bits <= 3 else EDGE_TARGETS.get(bits, ())
    for target in targets:
        query = build_query(layout, target, ancilla, width=width)
        assert query.ops == appended_query(layout, target, ancilla, width).ops, target
        assert query.width == width
    inputs = tuple(range(3 * bits))
    diffuser = build_diffuser(inputs, ancilla, width=width)
    assert diffuser.ops == appended_diffuser(inputs, ancilla, width).ops
    assert diffuser == appended_diffuser(inputs, ancilla, width)


@pytest.mark.parametrize("bits", [1, 2, 3, 7, 8])
def test_oracle_is_the_sum_the_query_and_the_sum_undone(bits):
    # the reference builds the same sandwich from the checked adder, the query and inverse
    width = 3 * bits + 5
    adder, layout = build_triple_sum(bits, width=width)
    targets = range(3 * (2**bits - 1) + 1) if bits <= 3 else EDGE_TARGETS[bits]
    for target in targets:
        query = build_query(layout, target, width - 1, width=width)
        oracle = build_oracle(bits, target)
        assert type(oracle) is Circuit
        assert oracle.width == width
        assert oracle.ops == adder.ops + query.ops + inverse(adder).ops, target


def test_appending_to_a_built_circuit_leaves_the_width_memo_alone():
    # the oracle and the diffuser come from per-width memos; each call must
    # hand out a fresh Circuit, so growing one cannot reach the next build
    bits, target = 3, 11
    width = 3 * bits + 5
    inputs = tuple(range(3 * bits))

    def builds():
        return [build_oracle(bits, target), build_diffuser(inputs, width - 1, width=width),
                build_triple_sum(bits)[0]]

    grown = builds()
    for built in grown:
        size = len(built)
        built.append(x(0))
        assert len(built) == size + 1
    again = builds()
    assert grover._triple_sum.cache_info().hits and grover._diffuser_ops.cache_info().hits
    grover._triple_sum.cache_clear()
    grover._diffuser_ops.cache_clear()
    assert again == builds()
    assert all(len(a) + 1 == len(g) for a, g in zip(again, grown))
