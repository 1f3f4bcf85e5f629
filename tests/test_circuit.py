"""Circuit representation: construction, metrics, MCX expansion, text format."""

import gc
import pickle
import sys
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qobf.circuit as circuit_module
from qobf.circuit import (
    GATE_KINDS,
    Circuit,
    GateOp,
    ccx,
    cx,
    decompose_mcx,
    depth,
    gate_counts,
    h,
    inverse,
    mcx,
    parse,
    serialize,
    x,
    z,
)
from qobf.errors import CircuitParseError
from qobf.obfuscator import build_full_circuit, plan
from qobf.statevector import run_circuit, zero_state


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("h", (0,), 1)  # h takes no controls
    with pytest.raises(ValueError):
        GateOp("cx", (), 1)
    with pytest.raises(ValueError):
        GateOp("cx", (1,), 1)  # control equals target
    with pytest.raises(ValueError):
        GateOp("ccx", (2, 2), 0)
    with pytest.raises(ValueError):
        GateOp("x", (), -1)
    with pytest.raises(ValueError):
        GateOp("spin", (), 0)


def test_controls_canonicalized():
    assert ccx(3, 1, 0) == ccx(1, 3, 0)
    assert GateOp("ccx", (3, 1), 0).controls == (1, 3)
    assert mcx((4, 2, 3), 0).controls == (2, 3, 4)


def test_mcx_factory_normalizes_small_cases():
    assert mcx((1,), 0) == cx(1, 0)
    assert mcx((1, 2), 0) == ccx(1, 2, 0)
    assert mcx((1, 2, 3), 0).kind == "mcx"
    with pytest.raises(ValueError):
        mcx((), 0)


def test_circuit_validates_ops_and_labels():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(2, [x(2)])
    with pytest.raises(ValueError):
        Circuit(2, labels={"a": (0,), "b": (0, 1)})  # overlap
    with pytest.raises(ValueError):
        Circuit(2, labels={"a": (2,)})
    circuit = Circuit(2, labels={"a": (0,), "b": (1,)})
    circuit.append(cx(0, 1))
    with pytest.raises(ValueError):
        circuit.append(x(5))
    assert len(circuit) == 1


def test_inverse_reverses_the_op_list_and_undoes_the_circuit():
    both = Circuit(2, [h(0), cx(0, 1)])
    undone = inverse(both)
    assert [op.kind for op in undone.ops] == ["cx", "h"]
    # every gate in the set is self-inverse, so this is exact identity
    state = zero_state(2)
    state.amplitudes[:] = [0.5, 0.5, 0.5, 0.5]
    run_circuit(state, Circuit(2, both.ops + undone.ops))
    np.testing.assert_allclose(state.amplitudes, [0.5] * 4, atol=1e-12)


def test_depth_hand_computed_cases():
    assert depth(Circuit(3)) == 0
    assert depth(Circuit(3, [h(0), h(1), h(2)])) == 1
    assert depth(Circuit(3, [h(0), cx(0, 1), h(2)])) == 2
    assert depth(Circuit(2, [h(0), h(0), h(0)])) == 3
    # ccx blocks all three lines, the trailing h must wait
    assert depth(Circuit(3, [ccx(0, 1, 2), h(1)])) == 2
    assert depth(Circuit(4, [cx(0, 1), cx(2, 3), cx(1, 2)])) == 2


def test_gate_counts_totals():
    circuit = Circuit(4, [h(0), h(1), x(2), ccx(0, 1, 2), mcx((0, 1, 2), 3)])
    counts = gate_counts(circuit)
    assert counts == {"h": 2, "x": 1, "z": 0, "cx": 0, "ccx": 1, "mcx": 1,
                      "total": 5}


def test_decompose_mcx_matches_original_on_fresh_ancillas():
    for k in (3, 4, 5):
        width = k + 1
        original = Circuit(width, [mcx(tuple(range(k)), k)])
        expanded = decompose_mcx(original)
        assert expanded.width == width + (k - 2)
        counts = gate_counts(expanded)
        assert counts["mcx"] == 0
        assert counts["ccx"] == 2 * k - 3
        # fresh ancillas start and end in |0>, so the action on the
        # original qubits must agree with the native mcx
        seed = 31 * k
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2 ** width)
        amps /= np.linalg.norm(amps)

        native = zero_state(width)
        native.amplitudes[:] = amps
        run_circuit(native, original)

        padded = zero_state(expanded.width)
        padded.amplitudes[: 2 ** width] = amps
        run_circuit(padded, expanded)
        np.testing.assert_allclose(
            padded.amplitudes[: 2 ** width], native.amplitudes, atol=1e-12
        )
        # nothing leaked onto the ancilla block
        assert np.abs(padded.amplitudes[2 ** width:]).max() < 1e-12


def test_decompose_leaves_small_gates_alone():
    circuit = Circuit(3, [h(0), cx(0, 1), ccx(0, 1, 2)])
    expanded = decompose_mcx(circuit)
    assert expanded.ops == circuit.ops
    assert expanded.width == 3


def test_serialize_minimal_example():
    assert serialize(Circuit(2, [h(0)])) == "width 2\nh 0\n"


def test_serialize_parse_round_trip_with_labels():
    circuit = Circuit(
        5,
        [h(0), x(1), z(2), cx(0, 1), ccx(1, 2, 3), mcx((0, 1, 2), 4)],
        labels={"in": (0, 1, 2), "work": (3,), "flag": (4,)},
    )
    again = parse(serialize(circuit))
    assert again == circuit


def test_serialize_lays_out_the_text_once():
    # N=765 repeats a block of 2,502 bytes 3,217 times. Beside the 8 MB
    # result, serialize holds one block's text and a list of references.
    circuit = build_full_circuit(plan(765))
    tracemalloc.start()
    try:
        text = serialize(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(text) + 2**16
    assert text == serialize(Circuit(circuit.width, circuit.ops, circuit.labels))


def test_parse_accepts_comments_and_blank_lines():
    text = "# header comment\nwidth 2\n\nh 0  # trailing note\ncx 0 1\n"
    circuit = parse(text)
    assert circuit.width == 2
    assert circuit.ops == [h(0), cx(0, 1)]


def test_parse_error_reporting():
    with pytest.raises(CircuitParseError) as info:
        parse("h 0\n")
    assert info.value.line_number == 1

    with pytest.raises(CircuitParseError) as info:
        parse("width 2\nswap 0 1\n")
    assert info.value.token == "swap"

    with pytest.raises(CircuitParseError):
        parse("width 2\nh zero\n")
    with pytest.raises(CircuitParseError):
        parse("width 2\nh 0 1\n")  # wrong arity
    with pytest.raises(CircuitParseError):
        parse("width 2\nh 5\n")  # out of range
    with pytest.raises(CircuitParseError):
        parse("")

    # a bad gate, label or width is reported on its own line, naming its token
    for text, line_number, token in [
        ("width 2\nh 0\nh 5\n", 3, "h"),
        ("width 2\nh 0\n\n# note\nccx 0 1 2\n", 5, "ccx"),
        ("width 2\nlabel a 0 7\n", 2, "a"),
        ("width 2\nlabel a 0\nlabel b 0\n", 3, "b"),
        ("width 2\nlabel a 0\nlabel b 1 1\n", 3, "b"),
        ("width 2\nlabel a 0\nlabel a 1\n", 3, "a"),  # a label is defined once
        ("# note\nwidth 0\n", 2, "0"),
        ("width 2\nwidth 2\n", 2, "width"),  # a header is given once
        ("width 3 4\n", 1, "width"),
        ("width 3\nlabel x\n", 2, "label"),  # no indices
        ("width 3\nh\n", 2, "h"),  # no target
        ("width 4\nmcx 0 1 2\n", 2, "mcx"),  # mcx takes 3 or more controls
    ]:
        with pytest.raises(CircuitParseError) as info:
            parse(text)
        assert (info.value.line_number, info.value.token) == (line_number, token), text
        assert str(info.value).startswith(f"line {line_number}: "), text


def test_a_parsed_circuit_keeps_only_its_op_list():
    # N=127's expanded circuit is 117 distinct gates in 2,540 op lines;
    # every parsed op is the gate table's instance, so the circuit holds
    # its list of pointers and little else
    text = serialize(decompose_mcx(build_full_circuit(plan(127))))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        circuit = parse(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= sys.getsizeof(circuit.prologue) + 2**16
    assert serialize(circuit) == text


def test_parse_numbers_lines_as_splitlines_does_at_every_line_break():
    # the text is read a line at a time, but a line ends wherever
    # str.splitlines ends one: at \r\n (one break), \r, \v, \x85 and \u2028
    # as at \n. An error names the line splitlines gives it, and its token.
    lines = ["width 3", "label a 0 1", "h 0", "# note", "", "cx 0 1", "ccx 0 1 2", "h 2"]
    breaks = ["\r\n", "\r", "\v", "\x85", "\u2028", "\n"]

    def joined(lines):
        return "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))

    assert serialize(parse(joined(lines))) == serialize(parse("\n".join(lines)))
    for bad, token in [("h 7", "h"), ("swap 0 1", "swap"), ("cx 0 one", "one")]:
        for at in range(1, len(lines) + 1):
            text = joined([*lines[:at], bad, *lines[at:]])
            with pytest.raises(CircuitParseError) as info:
                parse(text)
            line_number = text.splitlines().index(bad) + 1
            assert (info.value.line_number, info.value.token) == (line_number, token), text
    # \r then \r\n are two breaks, so an empty line lies between them
    with pytest.raises(CircuitParseError) as info:
        parse("width 2\r\r\nh 5")
    assert info.value.line_number == 3


def test_parse_peaks_near_its_op_list():
    # N=255's expanded circuit is 4,235 op lines. Parsing holds the text,
    # which the caller owns, one line at a time, the growing op list (twice
    # its final size while a resize copies it) and small objects; the
    # text's lines as one list of strings would be several times the list.
    text = serialize(decompose_mcx(build_full_circuit(plan(255))))
    parse(text)  # the gate table holds every gate from here on
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        circuit = parse(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sys.getsizeof(circuit.prologue) + 2**16
    assert serialize(circuit) == text


def reference_depth(circuit):
    """Greedy ASAP layering over the flat op list, gate by gate."""
    level = [0] * circuit.width
    for op in circuit.ops:
        layer = 1 + max(level[q] for q in op.qubits())
        for q in op.qubits():
            level[q] = layer
    return max(level)


def test_depth_walks_copies_until_a_copy_lifts_every_touched_qubit_alike():
    # the first copy lifts qubit 0 by 1 and qubits 1-2 by 7; from the
    # second on, each copy lifts all three by 2
    settles = Circuit(4, [h(0)] * 5, block=[cx(0, 1), cx(1, 2)], copies=50)
    assert depth(settles) == reference_depth(settles) == 7 + 2 * 49
    # qubits 0-1 rise by 2 per copy and qubits 2-3 by 1, so no copy ever
    # lifts them alike; qubit 4 is untouched
    uneven = Circuit(5, [h(4)], block=[cx(0, 1), cx(1, 0), cx(2, 3)], copies=60)
    assert depth(uneven) == reference_depth(uneven) == 2 * 60


def test_depth_of_an_empty_block_returns_at_once():
    start = time.perf_counter()
    assert depth(Circuit(2, [h(0)], copies=10**9)) == 1
    assert time.perf_counter() - start < 0.1


def test_depth_stops_after_the_first_copy_that_lifts_its_qubits_alike(monkeypatch):
    # qubits 2-4 are untouched and rise by 0; the first copy lifts 0 and 1
    # by 1 each, so the walk stops there: the prologue, then one copy
    walks = []
    layer = circuit_module._layer
    monkeypatch.setattr(circuit_module, "_layer",
                        lambda level, ops: walks.append(len(ops)) or layer(level, ops))
    assert depth(Circuit(5, [], block=[cx(0, 1)], copies=10**6)) == 10**6
    assert len(walks) <= 3


def flat(circuit):
    return Circuit(circuit.width, circuit.ops, dict(circuit.labels))


def test_prologue_and_block_describe_the_op_list():
    ops = [h(0), cx(0, 1), x(1), cx(0, 1), x(1)]
    for prologue, block, copies in (([h(0)], [cx(0, 1), x(1)], 2),
                                    (ops[:4], [x(1)], 1), (ops, [], 0)):
        circuit = Circuit(2, prologue, block=block, copies=copies)
        assert circuit.ops == ops
        assert len(circuit) == len(ops)
    # ops is built on each read: changing it does not reach the circuit
    circuit.ops.append(x(0))
    assert len(circuit) == len(circuit.ops) == len(ops)
    assert Circuit(2, [h(0)], block=[x(1)], copies=0).block == []  # run no times
    with pytest.raises(ValueError):
        Circuit(2, [h(0)], block=[x(1)], copies=-1)
    with pytest.raises(ValueError):
        Circuit(2, [h(0)], block=[x(2)], copies=3)  # block out of range


def test_block_split_is_not_part_of_equality():
    ops = [h(0)] + [cx(0, 1)] * 3
    assert Circuit(2, [h(0)], block=[cx(0, 1)], copies=3) == Circuit(2, list(ops))
    assert Circuit(2, [h(0)], block=[cx(0, 1)], copies=2) != Circuit(2, list(ops))


def test_append_flattens_the_block_and_metrics_stay_right():
    circuit = Circuit(3, [h(0)], block=[cx(0, 1), ccx(0, 1, 2)], copies=4)
    assert depth(circuit) == 9
    circuit.append(h(2))
    assert (circuit.block, circuit.copies) == ([], 0)
    assert depth(circuit) == reference_depth(circuit) == 10
    assert gate_counts(circuit) == {"h": 2, "x": 0, "z": 0, "cx": 4, "ccx": 4,
                                    "mcx": 0, "total": 10}
    circuit.append(x(0))
    assert (circuit.block, circuit.copies) == ([], 0)
    assert serialize(circuit).endswith("h 2\nx 0\n")


def test_inverse_and_the_ops_of_a_repeated_circuit_are_flat():
    rounds = Circuit(5, [h(0), x(4)], block=[mcx((0, 1, 2), 3), cx(3, 4), h(1)], copies=6)
    for derived in (inverse(rounds), Circuit(5, rounds.ops + [z(2)]),
                    Circuit(5, [z(2)] + rounds.ops)):
        assert derived.copies == 0
        assert depth(derived) == reference_depth(derived)
        assert gate_counts(derived)["mcx"] == 6
    assert depth(inverse(rounds)) == depth(rounds)
    assert gate_counts(inverse(rounds)) == gate_counts(rounds)


def test_decompose_keeps_the_copies_of_the_expanded_block():
    rounds = Circuit(6, [h(0)], block=[mcx((0, 1, 2, 3), 4), x(5)], copies=3)
    expanded = decompose_mcx(rounds)
    assert (len(expanded.block), expanded.copies) == (6, 3)
    flat_expanded = decompose_mcx(flat(rounds))
    assert expanded.ops == flat_expanded.ops
    assert expanded.width == flat_expanded.width == 8
    # one V-chain per distinct MCX: every copy's chain is the same op objects
    assert all(a is b for a, b in zip(flat_expanded.ops[1:6], flat_expanded.ops[7:12]))


# fewest controls each kind takes
MIN_CONTROLS = {"h": 0, "x": 0, "z": 0, "cx": 1, "ccx": 2, "mcx": 3}


@st.composite
def gate_ops(draw, qubits):
    """One gate on distinct qubits drawn from ``qubits``."""
    room = len(qubits) - 1
    kind = draw(st.sampled_from([k for k in GATE_KINDS if MIN_CONTROLS[k] <= room]))
    controls = draw(st.integers(3, room)) if kind == "mcx" else MIN_CONTROLS[kind]
    chosen = draw(st.permutations(qubits))[:controls + 1]
    return GateOp(kind, tuple(chosen[1:]), chosen[0])


@st.composite
def repeated_circuits(draw):
    width = draw(st.integers(4, 7))
    prologue = draw(st.lists(gate_ops(range(width)), max_size=6))
    # the block's gates may leave some qubits untouched
    span = draw(st.permutations(range(width)))[:draw(st.integers(1, width))]
    block = draw(st.lists(gate_ops(span), max_size=6))
    copies = draw(st.integers(0, 300))
    labels = {"in": (0, 1)} if draw(st.booleans()) else {}
    return Circuit(width, prologue, labels, block, copies)


def _decomposed(circuit):
    out = decompose_mcx(circuit)
    return out.width, out.ops, len(out), depth(out), gate_counts(out), serialize(out)


@given(repeated_circuits())
def test_repeated_circuit_metrics_match_the_flat_op_list(circuit):
    plain = flat(circuit)
    assert len(circuit) == len(plain)
    assert depth(circuit) == depth(plain) == reference_depth(plain)
    assert gate_counts(circuit) == gate_counts(plain)
    assert serialize(circuit) == serialize(plain)
    assert _decomposed(circuit) == _decomposed(plain)


@given(repeated_circuits())
def test_parse_inverts_serialize_on_random_circuits(circuit):
    again = parse(serialize(circuit))
    assert again == circuit
    assert again.labels == circuit.labels


def test_the_width_check_names_the_first_offending_gate():
    with pytest.raises(ValueError, match="^gate cx touches qubit 5, circuit width 3$"):
        Circuit(3, [cx(0, 5)])
    with pytest.raises(ValueError, match="^gate ccx touches qubit 4, circuit width 3$"):
        Circuit(3, [h(0), ccx(4, 1, 0), x(7)], block=[x(9)], copies=2)
    with pytest.raises(ValueError, match="^gate x touches qubit 3, circuit width 3$"):
        Circuit(3, [h(0)], block=[cx(0, 1), x(3)], copies=1)
    assert len(Circuit(3, [h(2)], block=[x(5)], copies=0)) == 1  # a block run zero times


def test_a_gate_keeps_its_qubit_tuple_outside_its_fields():
    op = GateOp("ccx", (2, 1), 0)
    assert op == GateOp("ccx", (1, 2), 0)
    assert hash(op) == hash(GateOp("ccx", (1, 2), 0))
    assert op.qubits() == op.controls + (op.target,) == (1, 2, 0)
    assert op.qubits() is op.qubits()
    assert repr(op) == "GateOp(kind='ccx', controls=(1, 2), target=0)"
    assert op._top == 2
    assert [f.name for f in fields(op)] == ["kind", "controls", "target"]
    copied = pickle.loads(pickle.dumps(op))
    assert copied == op and hash(copied) == hash(op)
    assert copied.qubits() == (1, 2, 0) and copied._top == 2
    # so is its line of the text format, which serialize writes as it is
    assert op._line == copied._line == "ccx 1 2 0\n"
    assert serialize(Circuit(3, [op])) == "width 3\n" + op._line
    assert {op: 1}[copied] == 1
    # the constructors hand out one shared instance per distinct gate
    assert cx(0, 1) is cx(0, 1)
    assert mcx([0, 1, 2], 3) is mcx((0, 1, 2), 3)
    assert mcx([0], 1) is cx(0, 1) and mcx([0, 1], 2) is ccx(0, 1, 2)
    assert parse("width 3\nccx 0 1 2\n").prologue[0] is ccx(0, 1, 2)
    assert ccx(2, 1, 0) == op and repr(ccx(2, 1, 0)) == repr(op)
    assert hash(ccx(2, 1, 0)) == hash(op)
