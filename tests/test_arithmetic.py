"""Reversible adders checked exhaustively on computational-basis inputs."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qobf.arithmetic import (
    AdderLayout,
    SumLayout,
    build_half_adder,
    build_triple_sum,
    cuccaro_reference_counts,
    maj,
    triple_sum_layout,
    uma,
)
from qobf.circuit import Circuit, ccx, cx, gate_counts, inverse
from qobf.statevector import run_circuit
from states import basis_state


def final_basis_index(circuit, start_index):
    """Index of the single hot amplitude after an X-family-only circuit."""
    state = basis_state(circuit.width, start_index)
    run_circuit(state, circuit)
    hot = int(np.argmax(np.abs(state.amplitudes)))
    # X-family gates permute basis states, so the amplitude stays exactly 1
    assert state.amplitudes[hot] == 1.0 + 0.0j
    return hot


def permuted_index(circuit, index):
    """Basis index after an X-family-only circuit, one gate at a time on the integer."""
    for op in circuit.ops:
        assert op.kind in ("x", "cx", "ccx", "mcx")
        if all((index >> c) & 1 for c in op.controls):
            index ^= 1 << op.target
    return index


def read_bits(index, qubits):
    value = 0
    for k, q in enumerate(qubits):
        value |= ((index >> q) & 1) << k
    return value


def test_maj_computes_majority_and_parities():
    # wires (c, b, a) = (0, 1, 2)
    circuit = Circuit(3, maj(0, 1, 2))
    for c0, b0, a0 in itertools.product((0, 1), repeat=3):
        out = final_basis_index(circuit, c0 | (b0 << 1) | (a0 << 2))
        majority = int(a0 + b0 + c0 >= 2)
        assert (out >> 2) & 1 == majority
        assert (out >> 1) & 1 == a0 ^ b0
        assert out & 1 == a0 ^ c0


def test_maj_then_uma_is_one_adder_column():
    circuit = Circuit(3, maj(0, 1, 2) + uma(0, 1, 2))
    for c0, b0, a0 in itertools.product((0, 1), repeat=3):
        out = final_basis_index(circuit, c0 | (b0 << 1) | (a0 << 2))
        assert out & 1 == c0  # carry-in wire restored
        assert (out >> 2) & 1 == a0  # a wire restored
        assert (out >> 1) & 1 == a0 ^ b0 ^ c0  # sum bit on b


def test_adder_layout_validation():
    with pytest.raises(ValueError):
        AdderLayout(a_qubits=(0, 1), b_qubits=(2,), ancilla=3, carry_out=4)
    with pytest.raises(ValueError):
        AdderLayout(a_qubits=(0,), b_qubits=(0,), ancilla=1, carry_out=2)
    with pytest.raises(ValueError):
        AdderLayout(a_qubits=(0,), b_qubits=(1,), ancilla=2, carry_out=2)
    with pytest.raises(ValueError):
        AdderLayout((), (), 0, 1)  # empty operands


@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_adder_exhaustive(n):
    layout = AdderLayout(
        a_qubits=tuple(range(n)),
        b_qubits=tuple(range(n, 2 * n)),
        ancilla=2 * n,
        carry_out=2 * n + 1,
    )
    circuit = build_half_adder(layout)
    for a_val, b_val in itertools.product(range(2 ** n), repeat=2):
        start = a_val | (b_val << n)
        out = final_basis_index(circuit, start)
        total = read_bits(out, layout.b_qubits + (layout.carry_out,))
        assert total == a_val + b_val
        assert read_bits(out, layout.a_qubits) == a_val
        assert (out >> layout.ancilla) & 1 == 0


def test_half_adder_gate_counts():
    # our wiring spends 2n toffolis and 4n+1 cx; the reference figures
    # (2n-1, 5n-3) belong to the fully optimized construction
    for n in (1, 2, 3, 4):
        layout = AdderLayout(
            a_qubits=tuple(range(n)),
            b_qubits=tuple(range(n, 2 * n)),
            ancilla=2 * n,
            carry_out=2 * n + 1,
        )
        counts = gate_counts(build_half_adder(layout))
        assert counts["ccx"] == 2 * n
        assert counts["cx"] == 4 * n + 1
        assert counts["h"] == 0


def test_reference_counts_formula():
    assert cuccaro_reference_counts(3) == {"ccx": 5, "cx": 12}
    assert cuccaro_reference_counts(1) == {"ccx": 1, "cx": 2}


def test_triple_sum_layout_is_contiguous():
    layout = triple_sum_layout(3)
    assert layout.x_qubits == (0, 1, 2)
    assert layout.y_qubits == (3, 4, 5)
    assert layout.z_qubits == (6, 7, 8)
    assert layout.cout0 == 9
    assert layout.shared_ancilla == 10
    assert layout.cout1 == 11
    assert layout.adder2_ancilla == 12
    assert layout.sum_qubits == (6, 7, 8, 10, 11)
    assert len(layout.x_qubits) == 3


def test_sum_layout_rejects_collisions():
    with pytest.raises(ValueError):
        SumLayout(
            x_qubits=(0,), y_qubits=(1,), z_qubits=(2,),
            cout0=3, shared_ancilla=3, cout1=4, adder2_ancilla=5,
        )
    with pytest.raises(ValueError):
        triple_sum_layout(0)
    with pytest.raises(ValueError):
        build_triple_sum(0)


@pytest.mark.parametrize("n", [1, 2])
def test_triple_sum_exhaustive(n):
    circuit, layout = build_triple_sum(n)
    assert circuit.width == 3 * n + 4
    for x_val, y_val, z_val in itertools.product(range(2 ** n), repeat=3):
        start = x_val | (y_val << n) | (z_val << (2 * n))
        out = final_basis_index(circuit, start)
        assert read_bits(out, layout.sum_qubits) == x_val + y_val + z_val
        assert read_bits(out, layout.x_qubits) == x_val
        # first-stage output x+y sits on the y register plus its carry
        assert read_bits(out, layout.y_qubits + (layout.cout0,)) == x_val + y_val
        assert (out >> layout.adder2_ancilla) & 1 == 0


def test_triple_sum_width_override():
    circuit, layout = build_triple_sum(2, width=15)
    assert circuit.width == 15
    touched = {q for op in circuit.ops for q in op.qubits()}
    assert touched <= set(range(3 * 2 + 4))
    assert len(layout.x_qubits) == 2


@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), *[st.integers(0, 2**n - 1)] * 3)))
def test_triple_sum_on_random_widths(case):
    n, x_val, y_val, z_val = case
    circuit, layout = build_triple_sum(n)
    start = x_val | (y_val << n) | (z_val << (2 * n))
    out = permuted_index(circuit, start)
    assert read_bits(out, layout.sum_qubits) == x_val + y_val + z_val
    assert read_bits(out, layout.x_qubits) == x_val
    assert read_bits(out, layout.y_qubits + (layout.cout0,)) == x_val + y_val
    assert (out >> layout.adder2_ancilla) & 1 == 0
    assert permuted_index(inverse(circuit), out) == start


def appended_half_adder(layout, width):
    """The half adder appended gate by gate, each maj/uma column spelled out."""
    circuit = Circuit(width)
    carries = (layout.ancilla,) + layout.a_qubits[:-1]
    columns = list(zip(carries, layout.b_qubits, layout.a_qubits))
    for c, b, a in columns:
        for op in (cx(a, b), cx(a, c), ccx(c, b, a)):
            circuit.append(op)
    circuit.append(cx(layout.a_qubits[-1], layout.carry_out))
    for c, b, a in reversed(columns):
        for op in (ccx(c, b, a), cx(a, c), cx(c, b)):
            circuit.append(op)
    return circuit


@pytest.mark.parametrize("n", range(1, 9))
def test_adders_hand_over_the_gate_by_gate_op_list(n):
    layout = AdderLayout(tuple(range(n)), tuple(range(n, 2 * n)), 2 * n, 2 * n + 1)
    assert build_half_adder(layout) == appended_half_adder(layout, 2 * n + 2)

    triple, sums = build_triple_sum(n)
    reference = appended_half_adder(
        AdderLayout(sums.x_qubits, sums.y_qubits, sums.shared_ancilla, sums.cout0), 3 * n + 4)
    second = appended_half_adder(
        AdderLayout(sums.y_qubits + (sums.cout0,), sums.z_qubits + (sums.shared_ancilla,),
                    sums.adder2_ancilla, sums.cout1), 3 * n + 4)
    for op in second.ops:
        reference.append(op)
    assert triple.width == reference.width
    assert triple.ops == reference.ops
