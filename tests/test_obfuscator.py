"""Pipeline: planning, circuit assembly, simulation, decoding, wire format."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qobf import grover
from qobf.arithmetic import triple_sum_layout
from qobf.cli import BAR_WIDTH, _format_csv, _format_text
from qobf.circuit import Circuit, decompose_mcx, depth, gate_counts, h, x
from qobf.errors import ConstraintError
from qobf.obfuscator import (
    MAX_PLAN_BITS,
    DecodedHistogram,
    ObfuscationPlan,
    build_full_circuit,
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
    oracle = grover.build_oracle(case.bits, case.target)
    diffuser = grover.build_diffuser(case.input_qubits, case.total_qubits - 1,
                                     width=case.total_qubits)
    for _ in range(case.iterations):
        for op in oracle.ops + diffuser.ops:
            circuit.append(op)
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
    xs, ys, zs = decode(np.arange(marginal.size), case.bits)
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


def two_stable_sorts(entries: dict) -> list:
    """The output order as first defined: by triplet, then stably by count descending."""
    items = sorted(entries.items(), key=itemgetter(0))
    items.sort(key=itemgetter(1), reverse=True)
    return items


def assert_run_decodes_like_sample_and_decode(case, shots, seed):
    histogram = run(case, shots=shots, seed=seed)
    state, _ = simulate(case)
    drawn = sample(state, case.input_qubits, shots, seed)
    # the dict the benchmark's traced request builds: sample, then decode key by key
    entries = {decode(key, case.bits): count for key, count in drawn.entries.items()}
    valid = sum(count for triplet, count in entries.items() if sum(triplet) == case.target)
    assert histogram == DecodedHistogram(
        target=case.target, bits=case.bits, iterations=case.iterations, shots=shots,
        valid_fraction=valid / shots, exact_success=solution_probability(case, state),
        entries=entries)
    assert histogram.entries == entries
    assert list(histogram.entries) == [triplet for triplet, _ in two_stable_sorts(entries)]


@pytest.mark.parametrize("target, bits", [(3, 1), (7, 2), (19, 3)])
def test_run_decodes_like_sample_and_decode(target, bits):
    assert_run_decodes_like_sample_and_decode(plan(target, bits), 4000, 5)


# the benchmark's probe request, and N=31 at 10^6 shots, where many counts tie
@pytest.mark.parametrize("target, shots, seed", [(19, 1024, 7), (31, 10**6, 2), (31, 10**6, 4)])
def test_run_equals_the_traced_requests_histogram(target, shots, seed):
    assert_run_decodes_like_sample_and_decode(plan(target), shots, seed)


def test_wire_form_holds_only_python_scalars():
    # a numpy scalar would make json.dumps raise
    wire = to_json_dict(run(plan(31), shots=10**6, seed=4))
    assert all(type(wire[key]) is int for key in ("n_value", "bits", "iterations", "shots"))
    assert type(wire["valid_fraction"]) is float and type(wire["exact_success"]) is float
    assert len(wire["counts"]) > 1000
    assert all(type(entry[key]) is int
               for entry in wire["counts"] for key in ("x", "y", "z", "count"))
    json.dumps(wire)


def test_decode_known_bitstring():
    # qubit values q0..q8 = 1,1,1,1,1,1,1,0,1, as an index written msb-first
    assert decode(0b101111111, 3) == (7, 7, 5)
    assert decode(0b000000000, 3) == (0, 0, 0)
    assert decode(0b001, 1) == (1, 0, 0)
    assert decode(0b111, 1) == (1, 1, 1)


def test_decode_matches_register_split_exhaustive_n2():
    indices = np.arange(64)
    xs, ys, zs = decode(indices, 2)
    assert np.array_equal(xs + 4 * ys + 16 * zs, indices)
    assert xs.max() == ys.max() == zs.max() == 3
    for index in range(64):
        triplet = decode(index, 2)
        assert triplet == (xs[index], ys[index], zs[index])
        assert triplet == (index & 3, (index >> 2) & 3, index >> 4)
        assert all(type(value) is int for value in triplet)


# indices just outside 0..2^(3n)-1, alone and among good ones, given top = 2^(3n)
BAD_INDICES = {
    "minus-one": lambda top: -1,
    "top": lambda top: top,
    "array-holding-top": lambda top: np.array([0, top - 1, top]),
    "array-holding-minus-one": lambda top: np.array([top - 1, -1, 0]),
}


@pytest.mark.parametrize("case", BAD_INDICES)
@pytest.mark.parametrize("bits", [1, 2, 3])
def test_decode_refuses_indices_outside_3n_bits(bits, case):
    with pytest.raises(ConstraintError, match=f"outside 0..2\\^{3 * bits}-1"):
        decode(BAD_INDICES[case](2 ** (3 * bits)), bits)



# decode takes integer outcome indices: a bitstring is refused, whether or not
# int(s, 2) would take it (0b prefix, underscores, surrounding whitespace)
@pytest.mark.parametrize("bitstring, bits", [
    ("0b1", 1), ("1_0", 1), (" 01", 1), ("01 ", 1), ("012", 1), ("+01", 1),
    ("0b1111111", 3), ("1_1111111", 3), (" 11111111", 3),
    ("", 1), ("01", 1), ("0101", 1), ("0" * 10, 3),
])
def test_decode_refuses_anything_but_3n_binary_digits(bitstring, bits):
    with pytest.raises(ConstraintError, match="must be an integer"):
        decode(bitstring, bits)
    with pytest.raises(ConstraintError, match="must be an integer"):
        decode(np.array([bitstring]), bits)


@pytest.mark.parametrize("index", [1.0, np.float64(1.0), np.array([0.0, 1.0])])
def test_decode_refuses_non_integer_indices(index):
    with pytest.raises(ConstraintError, match="must be an integer"):
        decode(index, 1)


# each change makes the histogram impossible, with the message it is refused with
IMPOSSIBLE = [
    ({"entries": {(1, 1, 1): 9}}, "sum to shots"),
    ({"valid_fraction": 1.5}, "valid_fraction"),
    ({"exact_success": 1.5}, "exact_success"),
    # from here on the counts sum to shots
    ({"entries": {(1, 1, 1): 12, (0, 0, 0): -2, (5, 0, 0): 0}}, "at least 1"),
    ({"entries": {(1, 1, 1): 10, (0, 0, 0): 0}}, "at least 1"),
    ({"entries": {(1, 1, 1): 8, (2, 0, 1): 2}}, r"outside 0..2\^1-1"),
    ({"entries": {(1, 1, 1): 12, (0, -1, 0): -2}}, "at least 1"),
    ({"entries": {(1, 1, 1): 8, (0, -1, 0): 2}}, r"outside 0..2\^1-1"),
    ({"entries": {(1, 1, 1, 0): 10}}, "triplets"),
    ({"entries": {(1, 1): 10}}, "triplets"),
    ({"entries": {(1, 1, 1): 8, (1, 1): 2}}, "triplets"),
    ({"entries": {7: 10}}, "triplets"),
    ({"entries": {(1, 1, 1.0): 10}}, "integers"),
    ({"entries": {(1, 1, 1): 10.0}}, "integers"),
    ({"entries": {("1", "1", "1"): 10}}, "integers"),
    ({"entries": {(2**63, 0, 0): 10}}, "fit int64"),
]


def test_histogram_invariants_enforced():
    good = dict(target=3, bits=1, iterations=2, shots=10, valid_fraction=0.5,
                exact_success=0.5, entries={(1, 1, 1): 10})
    DecodedHistogram(**good)
    for change, message in IMPOSSIBLE:
        with pytest.raises(ValueError, match=message):
            DecodedHistogram(**(good | change))


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


def reference_text(histogram, items, top):
    """cli._format_text as first written, over ((x, y, z), count) items in output order."""
    ranked = items[:top]
    peak = ranked[0][1] if ranked else 1
    lines = [
        f"target {histogram.target}  bits {histogram.bits}  "
        f"iterations {histogram.iterations}  shots {histogram.shots}",
        f"{'x':>4} {'y':>4} {'z':>4} {'count':>7}",
    ]
    for (xv, yv, zv), count in ranked:
        bar = "#" * max(1, round(BAR_WIDTH * count / peak))
        lines.append(f"{xv:>4} {yv:>4} {zv:>4} {count:>7}  {bar}")
    lines.append(f"valid_fraction {histogram.valid_fraction:.6f}")
    lines.append(f"exact_success {histogram.exact_success:.6f}")
    return "\n".join(lines) + "\n"


def reference_csv(histogram, items):
    """cli._format_csv as first written."""
    lines = ["x,y,z,count,valid"]
    for (xv, yv, zv), count in items:
        valid = int(xv + yv + zv == histogram.target)
        lines.append(f"{xv},{yv},{zv},{count},{valid}")
    return "\n".join(lines) + "\n"


@st.composite
def scrambled_histograms(draw):
    """Random triplet -> count dicts, counts 1..4 so that many tie, in a drawn order."""
    bits = draw(st.integers(1, 4))
    value = st.integers(0, 2**bits - 1)
    drawn = draw(st.dictionaries(st.tuples(value, value, value), st.integers(1, 4),
                                 max_size=60))
    entries = {key: drawn[key] for key in draw(st.permutations(list(drawn)))}
    target = draw(st.integers(1, 3 * (2**bits - 1)))
    shots = sum(entries.values())
    valid = sum(count for triplet, count in entries.items() if sum(triplet) == target)
    return entries, DecodedHistogram(
        target=target, bits=bits, iterations=1, shots=shots,
        valid_fraction=valid / shots if shots else 0.0,
        exact_success=draw(st.floats(0.0, 1.0)), entries=entries)


@given(scrambled_histograms(), st.integers(1, 70))
def test_every_output_reads_the_one_order(case, top):
    entries, histogram = case
    items = two_stable_sorts(entries)
    assert sorted_entries(histogram) == items
    wire = {"n_value": histogram.target, "bits": histogram.bits,
            "iterations": histogram.iterations, "shots": histogram.shots,
            "valid_fraction": histogram.valid_fraction,
            "exact_success": histogram.exact_success,
            "counts": [{"x": xv, "y": yv, "z": zv, "count": count}
                       for (xv, yv, zv), count in items]}
    assert to_json_dict(histogram) == wire
    assert json.dumps(to_json_dict(histogram)) == json.dumps(wire)
    assert _format_csv(histogram) == reference_csv(histogram, items)
    assert _format_text(histogram, top) == reference_text(histogram, items, top)
    assert histogram.entries == entries and dict(histogram.entries) == entries


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
