"""Pipeline: planning, circuit assembly, simulation, decoding, wire format."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qobf import grover
from qobf.arithmetic import triple_sum_layout
from qobf.circuit import Circuit, decompose_mcx, depth, gate_counts, h, x
from qobf.errors import ConstraintError
from qobf.obfuscator import (
    MAX_PLAN_BITS,
    DecodedHistogram,
    ObfuscationPlan,
    build_full_circuit,
    _registers,
    _solution_mass,
    decode,
    plan,
    run,
    simulate,
    solution_probability,
    sorted_entries,
    to_json_dict,
)
from qobf.statevector import marginal_probabilities, sample
from test_circuit import reference_depth


def test_plan_picks_minimal_register_width():
    assert plan(7).bits == 2  # 3*(2^2-1)=9 >= 7 but 3*(2^1-1)=3 < 7
    assert plan(22).bits == 4  # 21 < 22 <= 45
    assert plan(1).bits == 1
    assert plan(3).bits == 1
    assert plan(4).bits == 2


def test_plan_case_study_values():
    case = plan(19, 3)
    assert case.bits == 3
    assert case.space_size == 512
    assert case.solution_count == 6
    assert case.iterations == 7
    assert case.total_qubits == 14
    assert case.theoretical_success == pytest.approx(
        math.sin(15 * math.asin(math.sqrt(6 / 512))) ** 2
    )


def test_plan_rejects_bad_targets():
    with pytest.raises(ConstraintError):
        plan(0)
    with pytest.raises(ConstraintError):
        plan(-4)
    with pytest.raises(ConstraintError):
        plan(5, 0)
    with pytest.raises(ConstraintError) as info:
        plan(7, 1)
    assert "3" in str(info.value)  # message cites the 3*(2^bits - 1) bound


def test_plan_refuses_widths_whose_round_count_overflows_a_float():
    assert MAX_PLAN_BITS == 341
    assert plan(3, MAX_PLAN_BITS).iterations > 0
    # 2^1026 / 10 solutions still fits a float, so this width plans as before
    assert plan(3, 342).iterations == grover.optimal_iterations(2**1026, 10)
    for target, bits in [(3, 343), (3, 400), (3, 10**9)]:
        with pytest.raises(ConstraintError) as info:
            plan(target, bits)
        assert f"--bits {MAX_PLAN_BITS}" in str(info.value)


def test_plan_refuses_exactly_the_widths_whose_float_round_count_overflows():
    # the check from bit lengths must not refuse a width the float math plans
    for target in (1, 3, 19, 2**40 + 7, 2**300):
        for bits in range(max(target.bit_length(), 330), 560):
            try:
                expected = grover.optimal_iterations(
                    2 ** (3 * bits), grover.count_solutions(target, bits))
            except OverflowError:
                with pytest.raises(ConstraintError):
                    plan(target, bits)
            else:
                assert plan(target, bits).iterations == expected


def test_plan_qubit_map_layout():
    case = plan(19, 3)
    assert case.qubit_map["x"] == (0, 1, 2)
    assert case.qubit_map["y"] == (3, 4, 5)
    assert case.qubit_map["z"] == (6, 7, 8)
    assert case.qubit_map["cout0"] == 9
    assert case.qubit_map["shared_ancilla"] == 10
    assert case.qubit_map["cout1"] == 11
    assert case.qubit_map["adder2_ancilla"] == 12
    assert case.qubit_map["grover_ancilla"] == 13
    assert case.input_qubits == tuple(range(9))


@pytest.mark.parametrize("bits", range(1, 9))
def test_qubit_map_and_inputs_equal_the_layout_as_a_dict(bits):
    case = ObfuscationPlan(1, bits, 0)
    layout = dataclasses.asdict(triple_sum_layout(bits))
    want = {name.removesuffix("_qubits"): spec for name, spec in layout.items()}
    want["grover_ancilla"] = 3 * bits + 4
    assert case.qubit_map == want
    assert list(case.qubit_map) == list(want)
    assert case.input_qubits == want["x"] + want["y"] + want["z"]


def test_obfuscation_plan_validation():
    case = plan(19, 3)
    assert case == ObfuscationPlan(19, 3, 7)
    assert hash(case) == hash(ObfuscationPlan(19, 3, 7))
    assert case != ObfuscationPlan(19, 3, 6)
    assert [f.name for f in dataclasses.fields(case)] == ["target", "bits", "iterations"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.iterations = 1
    for target, bits, iterations in [(0, 3, 7), (22, 3, 7), (3, 0, 1), (3, 1, -1)]:
        with pytest.raises(ConstraintError):
            ObfuscationPlan(target, bits, iterations)


def test_full_circuit_width_and_prelude():
    for target, bits in [(3, 1), (7, 2), (19, 3)]:
        case = plan(target, bits)
        circuit = build_full_circuit(case)
        assert circuit.width == 3 * bits + 5
        prelude = circuit.ops[: 3 * bits + 2]
        kinds = [op.kind for op in prelude]
        assert kinds == ["h"] * (3 * bits) + ["x", "h"]
        assert prelude[-1].target == case.qubit_map["grover_ancilla"]
        assert circuit.labels["x"] == case.qubit_map["x"]


def reference_full_circuit(case):
    """The full circuit appended op by op, one round after another."""
    circuit = Circuit(case.total_qubits)
    for q in case.input_qubits:
        circuit.append(h(q))
    circuit.append(x(case.total_qubits - 1))
    circuit.append(h(case.total_qubits - 1))
    oracle, _ = grover.build_oracle(case.bits, case.target)
    diffuser = grover.build_diffuser(case.input_qubits, case.total_qubits - 1,
                                     width=case.total_qubits)
    for _ in range(case.iterations):
        circuit.extend(oracle.ops + diffuser.ops)
    return circuit


@pytest.mark.parametrize("target", [*range(1, 64), 375, 382, 757, 765])
def test_full_circuit_equals_the_round_by_round_build(target):
    case = plan(target)
    built = build_full_circuit(case)
    reference = reference_full_circuit(case)
    assert built.ops == reference.ops
    assert built.copies == case.iterations
    assert reference.copies == 0  # appending leaves it flat
    assert gate_counts(built) == gate_counts(reference)
    assert depth(built) == reference_depth(reference)
    expanded, flat_expanded = decompose_mcx(built), decompose_mcx(reference)
    assert expanded.ops == flat_expanded.ops
    assert depth(expanded) == reference_depth(flat_expanded)


def test_building_and_measuring_the_rounds_lays_out_no_flat_op_list():
    # N=757 runs 480 rounds. A flat list of even the unexpanded ops would
    # take 8 bytes a pointer; the build, the expansion and the metrics stay
    # below that
    tracemalloc.start()
    try:
        built = build_full_circuit(plan(757))
        expanded = decompose_mcx(built)
        for circuit in (built, expanded):
            gate_counts(circuit)
            depth(circuit)
        ops = len(built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.copies == 480
    assert len(expanded) > ops > 10**5
    assert peak < 8 * ops


def test_zero_iteration_plan_builds_bare_initialization():
    base = plan(3, 1)
    degenerate = dataclasses.replace(base, iterations=0)
    assert degenerate.theoretical_success == pytest.approx(
        base.solution_count / base.space_size
    )
    circuit = build_full_circuit(degenerate)
    assert gate_counts(circuit)["total"] == 3 * base.bits + 2


def test_simulation_preserves_norm():
    state, elapsed = simulate(plan(7, 2))
    assert state.norm_error() < 1e-9
    assert elapsed >= 0.0


def input_register_model(case):
    """Input marginal after R ideal rounds on the 2^(3n) input amplitudes alone.

    With clean ancillas the oracle flips the sign of every marked
    triplet and the diffuser maps each amplitude a to 2*mean - a.
    """
    index = np.arange(case.space_size)
    mask = (1 << case.bits) - 1
    total = (index & mask) + ((index >> case.bits) & mask) + (index >> 2 * case.bits)
    marked = total == case.target
    amplitudes = np.full(case.space_size, case.space_size ** -0.5)
    for _ in range(case.iterations):
        amplitudes[marked] *= -1.0
        amplitudes = 2.0 * amplitudes.mean() - amplitudes
    return amplitudes**2


# every reachable target for n <= 4, and N=127 at n = 6 (19 stored qubits)
DIFFERENTIAL_CASES = [
    (target, bits) for bits in (1, 2, 3, 4) for target in range(1, 3 * (2**bits - 1) + 1)
] + [(127, 6)]


@pytest.mark.parametrize("target, bits", DIFFERENTIAL_CASES)
def test_gate_level_marginal_matches_input_register_model(target, bits):
    # three models of one run: gate level, input register and closed form
    case = plan(target, bits)
    state, _ = simulate(case)
    marginal = marginal_probabilities(state, case.input_qubits)
    np.testing.assert_allclose(marginal, input_register_model(case), rtol=0, atol=1e-11)
    assert abs(solution_probability(case, state) - case.theoretical_success) < 1e-9


# every minimal-width target with n = 5: N = 46..93, 15 stored qubits, up to 142 rounds
@pytest.mark.parametrize("target", range(46, 94))
def test_exact_success_matches_closed_form_at_five_bits(target):
    # Boyer, Brassard, Hoyer and Tapp: sin^2((2R+1) theta) after R rounds
    case = plan(target)
    assert case.bits == 5
    state, _ = simulate(case)
    assert abs(solution_probability(case, state) - case.theoretical_success) < 1e-9


def test_exact_success_matches_closed_form_smallest_case():
    case = plan(3, 1)
    state, _ = simulate(case)
    got = solution_probability(case, state)
    assert got == pytest.approx(case.theoretical_success, abs=1e-9)


def test_run_smallest_case_favors_the_single_triplet():
    case = plan(3, 1)
    histogram = run(case, shots=512, seed=1)
    top_triplet, top_count = sorted_entries(histogram)[0]
    assert top_triplet == (1, 1, 1)
    assert top_count / 512 > 0.8
    assert histogram.valid_fraction == top_count / 512
    assert histogram.exact_success == pytest.approx(
        case.theoretical_success, abs=1e-9
    )


def masked_solution_mass(case, marginal):
    """The marginal summed through a mask over every outcome."""
    xs, ys, zs = _registers(np.arange(marginal.size), case.bits)
    return float(marginal[xs + ys + zs == case.target].sum())


def test_solution_mass_sums_the_masked_entries_in_order():
    # random entries summing to under 1/2, so no clamp hides a difference;
    # only the same entries in the same order give the same bits every time
    rng = np.random.default_rng(17)
    for bits in (1, 2, 3, 4):
        for target in range(1, 3 * (2**bits - 1) + 1):
            case = plan(target, bits)
            marginal = rng.random(case.space_size) / (2 * case.space_size)
            assert _solution_mass(case, marginal) == masked_solution_mass(case, marginal)


def test_solution_mass_holds_only_solution_sized_arrays():
    # N=255 has 2^21 outcomes. Summing the marginal through a mask over all
    # of them, built from index arrays, takes tens of MiB; the solution
    # indices, their pieces and the gathered entries take 8 bytes each
    case = plan(255)
    assert case.bits == 7
    marginal = np.random.default_rng(3).random(case.space_size)
    marginal /= marginal.sum()
    expected = masked_solution_mass(case, marginal)
    tracemalloc.start()
    try:
        got = _solution_mass(case, marginal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected  # the same entries summed in the same order
    assert peak <= 3 * 8 * case.solution_count + 2**16


def test_run_is_deterministic():
    case = plan(7, 2)
    first = run(case, shots=200, seed=11)
    second = run(case, shots=200, seed=11)
    assert first == second
    assert run(case, shots=200, seed=12) != first


@pytest.mark.parametrize("target, bits", [(3, 1), (7, 2), (19, 3)])
def test_run_decodes_like_sample_and_decode(target, bits):
    case = plan(target, bits)
    histogram = run(case, shots=4000, seed=5)
    state, _ = simulate(case)
    drawn = sample(state, case.input_qubits, 4000, 5)
    entries = {decode(key, bits): count for key, count in drawn.entries.items()}
    assert histogram.entries == entries
    valid = sum(count for triplet, count in entries.items() if sum(triplet) == target)
    assert histogram.valid_fraction == valid / 4000
    assert histogram.exact_success == solution_probability(case, state)


def test_decode_known_bitstring():
    # qubit values q0..q8 = 1,1,1,1,1,1,1,0,1 written msb-first
    assert decode("101111111", 3) == (7, 7, 5)
    assert decode("000000000", 3) == (0, 0, 0)
    assert decode("001", 1) == (1, 0, 0)
    with pytest.raises(ConstraintError):
        decode("0101", 3)


def test_decode_matches_register_split_exhaustive_n2():
    for index in range(64):
        assert decode(format(index, "06b"), 2) == _registers(index, 2)
    with pytest.raises(ConstraintError):
        decode("0000000", 2)


def test_histogram_invariants_enforced():
    with pytest.raises(ValueError):
        DecodedHistogram(target=3, bits=1, iterations=2, shots=10,
                         valid_fraction=0.5, exact_success=0.5,
                         entries={(1, 1, 1): 9})
    with pytest.raises(ValueError):
        DecodedHistogram(target=3, bits=1, iterations=2, shots=10,
                         valid_fraction=1.5, exact_success=0.5,
                         entries={(1, 1, 1): 10})


def test_sorted_entries_breaks_count_ties_by_triplet():
    # inserted in neither count nor triplet order
    scrambled = {(2, 0, 1): 5, (0, 3, 0): 9, (1, 1, 1): 5, (0, 0, 3): 9, (3, 0, 0): 1,
                 (0, 2, 1): 5, (1, 0, 2): 9}
    histogram = DecodedHistogram(target=3, bits=2, iterations=1, shots=43,
                                 valid_fraction=1.0, exact_success=1.0, entries=scrambled)
    assert sorted_entries(histogram) == [
        ((0, 0, 3), 9), ((0, 3, 0), 9), ((1, 0, 2), 9),
        ((0, 2, 1), 5), ((1, 1, 1), 5), ((2, 0, 1), 5),
        ((3, 0, 0), 1),
    ]


def test_json_wire_format():
    case = plan(3, 1)
    histogram = run(case, shots=64, seed=5)
    wire = to_json_dict(histogram)
    assert list(wire) == ["n_value", "bits", "iterations", "shots",
                          "valid_fraction", "exact_success", "counts"]
    assert wire["n_value"] == 3
    assert wire["bits"] == 1
    assert wire["iterations"] == case.iterations
    assert wire["shots"] == 64
    counts = wire["counts"]
    assert counts[0]["x"] == 1 and counts[0]["y"] == 1 and counts[0]["z"] == 1
    assert sum(entry["count"] for entry in counts) == 64
    # sorted by count descending, ties by ascending triplet
    for earlier, later in zip(counts, counts[1:]):
        key_e = (-earlier["count"], earlier["x"], earlier["y"], earlier["z"])
        key_l = (-later["count"], later["x"], later["y"], later["z"])
        assert key_e <= key_l


def test_run_shot_validation_propagates():
    with pytest.raises(ConstraintError):
        run(plan(3, 1), shots=0, seed=0)
