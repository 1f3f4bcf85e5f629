"""Gate kernels checked against dense matrices and a gate-by-gate reference kernel."""

import math
import re
import threading
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobf import statevector
from qobf.circuit import Circuit, GateOp, ccx, cx, h, mcx, x, z
from qobf.errors import ConstraintError, ResourceLimitError
from qobf.obfuscator import build_full_circuit, plan, simulate
from qobf.statevector import (
    BUTTERFLY_CHUNK,
    SAMPLE_CHUNK,
    Histogram,
    StateVector,
    apply_gate,
    marginal_probabilities,
    max_qubits,
    run_circuit,
    sample,
    sample_counts,
    zero_state,
)
from states import basis_state, fidelity

H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])
Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]])


def dense_single(matrix, target, width):
    """kron embedding: qubit 0 is the least significant index bit."""
    full = np.eye(2 ** target)
    full = np.kron(matrix, full)
    full = np.kron(np.eye(2 ** (width - 1 - target)), full)
    return full


def dense_controlled_x(controls, target, width):
    """Permutation matrix for X on target conditioned on all controls set."""
    size = 2 ** width
    full = np.zeros((size, size))
    for i in range(size):
        if all((i >> c) & 1 for c in controls):
            full[i ^ (1 << target), i] = 1.0
        else:
            full[i, i] = 1.0
    return full


def random_state(width, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** width)
    amps /= np.linalg.norm(amps)
    return amps


def reference_apply(amplitudes, width, gate):
    """One gate in place: swap, or butterfly, the halves of the control-selected block."""
    view = amplitudes.reshape((2,) * width)  # axis j is qubit width-1-j
    sel = [slice(None)] * width
    for c in gate.controls:
        sel[width - 1 - c] = slice(1, 2)
    sel0, sel1 = list(sel), list(sel)
    sel0[width - 1 - gate.target] = slice(0, 1)
    sel1[width - 1 - gate.target] = slice(1, 2)
    a, b = view[tuple(sel0)], view[tuple(sel1)]
    if gate.kind == "h":
        tmp = a - b
        a += b
        a *= 1.0 / np.sqrt(2.0)
        tmp *= 1.0 / np.sqrt(2.0)
        b[...] = tmp
    elif gate.kind == "z":
        b *= -1.0
    else:
        tmp = a.copy()
        a[...] = b
        b[...] = tmp


def reference_run(amplitudes, circuit):
    amplitudes = amplitudes.copy()
    for op in circuit.ops:
        reference_apply(amplitudes, circuit.width, op)
    return amplitudes


def random_permutation_run(rng, width, length):
    ops = []
    for _ in range(length):
        arity = int(rng.integers(0, min(width, 5)))
        qubits = [int(q) for q in rng.choice(width, size=arity + 1, replace=False)]
        ops.append(mcx(qubits[:-1], qubits[-1]) if arity else x(qubits[-1]))
    return ops


def random_mixed_circuit(width, seed):
    """H/Z gates between permutation runs, several of which repeat."""
    rng = np.random.default_rng(seed)
    runs = [random_permutation_run(rng, width, int(rng.integers(1, 9))) for _ in range(3)]
    ops = []
    for _ in range(12):
        ops += runs[int(rng.integers(len(runs)))]
        for _ in range(int(rng.integers(0, 3))):
            gate = h if rng.random() < 0.7 else z
            ops.append(gate(int(rng.integers(width))))
    return Circuit(width, ops)


def random_layered_circuit(width, seed, shape):
    """Dense H/Z layers between permutation runs.

    ``shape`` "dense": random layers after one over every qubit, so the
    qubits carry uneven H/Z loads; "every": each layer covers every
    qubit (butterflies on every bit); "top": H or Z on the top qubit
    only (halves longer than a butterfly chunk). The state keeps its
    natural order in every shape. Odd seeds add a run, so the state
    ends in either buffer.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(3 + seed % 2):
        if shape == "top":
            layer = [width - 1]
        elif shape == "every" or k == 0:
            layer = range(width)
        else:
            layer = np.flatnonzero(rng.random(width) < 0.6)
        for q in layer:
            ops.append((h if rng.random() < 0.8 else z)(int(q)))
        ops += random_permutation_run(rng, width, int(rng.integers(1, 6)))
    ops.append(h(width - 1))
    return Circuit(width, ops)


def same_bits(a, b):
    """Equal bit for bit, signs of zeros included."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def scattered(state):
    """Dense amplitudes of a compact state: +0.0 wherever an unstored qubit is 1.

    The implied half of a ``minus`` qubit is rebuilt as 0 - the stored
    half, the way ``run_circuit`` negates.
    """
    index = np.arange(state.amplitudes.size)
    dense = np.zeros(2**state.width)
    dense[index] = state.amplitudes
    if state.minus is not None:
        dense[index | 1 << state.minus] = 0.0 - state.amplitudes
    return dense


def dense_matrix(circuit):
    full = np.eye(2 ** circuit.width)
    for op in circuit.ops:
        if op.kind in ("h", "z"):
            matrix = H_MATRIX if op.kind == "h" else Z_MATRIX
            gate = dense_single(matrix, op.target, circuit.width)
        else:
            gate = dense_controlled_x(op.controls, op.target, circuit.width)
        full = gate @ full
    return full


def assert_matches_dense(gate, matrix, width, seed):
    amps = random_state(width, seed)
    state = zero_state(width)
    state.amplitudes[:] = amps
    apply_gate(state, gate)
    expected = matrix @ amps
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_single_qubit_gates_match_kron_embedding():
    for width in (1, 2, 3):
        for target in range(width):
            assert_matches_dense(h(target), dense_single(H_MATRIX, target, width),
                                 width, seed=10 * width + target)
            assert_matches_dense(x(target), dense_single(X_MATRIX, target, width),
                                 width, seed=100 + 10 * width + target)
            assert_matches_dense(z(target), dense_single(Z_MATRIX, target, width),
                                 width, seed=200 + 10 * width + target)


def test_cx_matches_permutation_matrix():
    width = 3
    for control in range(width):
        for target in range(width):
            if control == target:
                continue
            assert_matches_dense(
                cx(control, target),
                dense_controlled_x((control,), target, width),
                width, seed=control * 7 + target,
            )


def test_ccx_matches_permutation_matrix():
    width = 4
    cases = [((0, 1), 2), ((1, 3), 0), ((0, 3), 2), ((2, 1), 3)]
    for controls, target in cases:
        assert_matches_dense(
            ccx(controls[0], controls[1], target),
            dense_controlled_x(controls, target, width),
            width, seed=sum(controls) + target,
        )


def test_mcx_matches_permutation_matrix():
    width = 5
    for controls, target in [((0, 1, 2), 4), ((1, 2, 4), 0), ((0, 1, 2, 3), 4)]:
        assert_matches_dense(
            mcx(controls, target),
            dense_controlled_x(controls, target, width),
            width, seed=len(controls),
        )


# N=22, 31 and 45 run at 17 qubits, where the inputs' butterflies span whole
# chunks; N=63 at 20 qubits (15 stored)
@pytest.mark.parametrize("target", [*range(1, 23), 31, 45, 63])
def test_pipeline_circuit_equals_gate_by_gate_reference(target):
    circuit = build_full_circuit(plan(target))
    state = zero_state(circuit.width)
    expected = reference_run(state.amplitudes, circuit)
    run_circuit(state, circuit)
    assert same_bits(state.amplitudes, expected)
    # the pipeline stores only the 3n inputs; the phase ancilla's |1> half is
    # implied, and both halves match the dense run bit for bit
    compact, _ = simulate(plan(target))
    assert compact.stored == circuit.width - 5
    assert compact.minus == circuit.width - 1
    assert same_bits(compact.amplitudes, expected[:compact.amplitudes.size])
    assert same_bits(scattered(compact), expected)
    # the dense input marginal sums the rows of the work qubits and the phase
    # ancilla; the only non-zero one beside the first is the ancilla's, p + p
    inputs = plan(target).input_qubits
    assert same_bits(marginal_probabilities(state, inputs),
                     marginal_probabilities(compact, inputs))


def test_compact_state_refuses_to_leave_an_unstored_qubit_set():
    # qubit 2 is not stored. The first H goes straight into the stored
    # amplitudes, so the refusal must come before it.
    state = zero_state(3, stored=2)
    apply_gate(state, h(0))
    before = state.amplitudes.copy()
    for bad in ([x(2)], [cx(0, 2)], [ccx(0, 1, 2), x(0)], [h(2)], [z(2)]):
        with pytest.raises(ValueError, match=r"\bqubit 2\b"):
            run_circuit(state, Circuit(3, [h(1), *bad, h(0), h(0)]))
        assert same_bits(state.amplitudes, before)
    # a run that returns qubit 2 to |0> for every basis state is fine
    dense = zero_state(3)
    apply_gate(dense, h(0))
    good = Circuit(3, [h(1), cx(0, 2), cx(2, 1), cx(0, 2), x(2), ccx(0, 2, 1), x(2), h(1)])
    run_circuit(state, good)
    run_circuit(dense, good)
    assert same_bits(scattered(state), dense.amplitudes)


def test_minus_qubit_refuses_h_z_and_control():
    # qubit 2 is held in |->. The first H goes straight into the stored
    # amplitudes, so the refusal must come before it.
    state = zero_state(3, stored=2, minus=2)
    apply_gate(state, h(0))
    before = state.amplitudes.copy()
    for bad in ([h(2)], [z(2)], [cx(2, 0)], [x(1), ccx(0, 2, 1), x(1)]):
        with pytest.raises(ValueError, match=r"\bqubit 2\b"):
            run_circuit(state, Circuit(3, [h(1), *bad, h(0)]))
        assert same_bits(state.amplitudes, before)


def random_kickback_circuit(width, seed):
    """H/Z gates and permutation runs; the top qubit is only ever an X target."""
    rng = np.random.default_rng(seed)
    top = width - 1
    ops = []
    for _ in range(12):
        run = random_permutation_run(rng, top, int(rng.integers(1, 5)))
        arity = int(rng.integers(0, min(top, 4) + 1))
        controls = [int(q) for q in rng.choice(top, size=arity, replace=False)]
        run.insert(int(rng.integers(len(run) + 1)), mcx(controls, top) if arity else x(top))
        ops += run
        for _ in range(int(rng.integers(0, 3))):
            gate = h if rng.random() < 0.7 else z
            ops.append(gate(int(rng.integers(top))))
    return Circuit(width, ops)


# 18 qubits: 17 stored, so runs move and flip up to 2^17 amplitudes at once
@pytest.mark.parametrize("width", [*range(2, 10), 18])
def test_minus_qubit_equals_dense_gate_by_gate_reference(width):
    # the dense reference holds the |-> qubit's |1> half explicitly; the
    # compact state implies it, negating what runs bring over from it
    for seed in range(4):
        circuit = random_kickback_circuit(width, seed=10 * width + seed)
        state = zero_state(width, stored=width - 1, minus=width - 1)
        state.amplitudes[:] = random_state(width - 1, seed) * np.sqrt(0.5)
        expected = reference_run(scattered(state), circuit)
        run_circuit(state, circuit)
        assert same_bits(scattered(state), expected)
        assert state.norm_error() < 1e-12


# 17 qubits: runs move up to 2^17 amplitudes at once
@pytest.mark.parametrize("width", [*range(1, 10), 17])
def test_random_mixed_circuit_equals_gate_by_gate_reference(width):
    for seed in range(4):
        circuit = random_mixed_circuit(width, seed=100 * width + seed)
        state = zero_state(width)
        amplitudes = state.amplitudes
        amplitudes[:] = random_state(width, seed)
        expected = reference_run(amplitudes, circuit)
        run_circuit(state, circuit)
        assert state.amplitudes is amplitudes
        assert np.array_equal(amplitudes, expected)


# from width 15 on, a butterfly's halves reach one chunk (2^14 amplitudes) and beyond
@pytest.mark.parametrize("shape", ["dense", "every", "top"])
@pytest.mark.parametrize("width", range(15, 19))
def test_dense_layers_at_full_width_equal_gate_by_gate_reference(width, shape):
    for seed in range(2):
        circuit = random_layered_circuit(width, seed=10 * width + seed, shape=shape)
        state = zero_state(width)
        amplitudes = state.amplitudes
        amplitudes[:] = random_state(width, seed)
        expected = reference_run(amplitudes, circuit)
        run_circuit(state, circuit)
        assert state.amplitudes is amplitudes
        assert same_bits(amplitudes, expected)


def repeated_from(ops, width, rng):
    """A prologue and a block cut from ``ops``, each ending in an X-family gate.

    The block also starts with one, so permutation runs cross the seam
    after the prologue and the seam between copies. A block with no H
    or Z in it makes a single run of every copy.
    """
    perm = [i for i, op in enumerate(ops) if op.kind not in ("h", "z")]
    end, start, last = sorted(int(i) for i in rng.choice(perm, size=3, replace=False))
    return Circuit(width, ops[:end + 1], block=ops[start:last + 1],
                   copies=int(rng.integers(0, 6)))


def outcome(state, circuit):
    """run_circuit on a copy of ``state``: its message if it refuses, else its amplitudes."""
    copy = StateVector(state.width, state.amplitudes.copy(), state.stored, state.minus)
    try:
        run_circuit(copy, circuit)
    except ValueError as exc:
        assert same_bits(copy.amplitudes, state.amplitudes)  # refused before any gate
        return str(exc)
    return copy.amplitudes.view(np.uint64).tolist()


# 17 qubits: a dense state whose runs move up to 2^17 amplitudes at once
@pytest.mark.parametrize("width", [*range(3, 10), 17])
def test_repeated_circuit_runs_as_its_flat_op_list(width):
    # Dense states take any circuit; the compact ones hold the top qubit in
    # |->. The narrow one also leaves qubit width-2 unstored: a run that sets
    # it before a seam and clears it after must be applied whole, and a run
    # that leaves it set is refused. Some amplitudes start as signed zeros.
    rng = np.random.default_rng(width)
    refused = 0
    for seed in range(8):
        amplitudes = random_state(width, seed)
        amplitudes[rng.random(amplitudes.size) < 0.3] = -0.0
        dense = StateVector(width, amplitudes, width)
        kicked = zero_state(width, stored=width - 1, minus=width - 1)
        kicked.amplitudes[:] = amplitudes[:kicked.amplitudes.size] * np.sqrt(0.5)
        narrow = zero_state(width, stored=width - 2, minus=width - 1)
        narrow.amplitudes[:] = kicked.amplitudes[:narrow.amplitudes.size]
        mixed = random_mixed_circuit(width, seed=10 * width + seed).ops
        kickback = random_kickback_circuit(width, seed=10 * width + seed).ops
        # qubit width-2 as a work qubit: each gate on it is computed, kicks
        # the top qubit and is uncomputed; a cut between the two leaves it set
        work = []
        for op in random_kickback_circuit(width - 1, seed=10 * width + seed).ops:
            work += [op, cx(width - 2, width - 1), op] if op.target == width - 2 else [op]
        for state, ops in ((dense, mixed), (kicked, kickback), (narrow, work)):
            repeated = repeated_from(ops, width, rng)
            result = outcome(state, repeated)
            assert result == outcome(state, Circuit(width, repeated.ops))
            if isinstance(result, str):
                assert state is narrow
                refused += 1
    assert 0 < refused < 8  # the narrow state both refuses and runs


def traced_peak(state, circuit):
    """Peak bytes allocated while run_circuit runs, the state not counted."""
    tracemalloc.start()
    try:
        run_circuit(state, circuit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def permutation_runs(circuit):
    return {tuple(group) for permutes, group in
            groupby(circuit.ops, key=lambda op: op.kind not in ("h", "z")) if permutes}


def test_run_circuit_memory_stays_within_budget():
    # the dense state: the prologue's X on the phase ancilla moves every
    # amplitude, and the other two runs under 2^12 of them. Beside the
    # state, per amplitude: that X's int32 dest and src (kept for the
    # call), the copy of the amplitudes it moves (the state's itemsize)
    # and the intp copy numpy makes of one int32 index while it indexes
    # (the compile's delta and dest stay under that); and one butterfly
    # chunk. That is 24 bytes per amplitude, a chunk aside.
    circuit = build_full_circuit(plan(31))
    runs = permutation_runs(circuit)
    assert len(runs) == 3
    state = zero_state(circuit.width)
    count, itemsize = state.amplitudes.size, state.amplitudes.itemsize
    chunk = BUTTERFLY_CHUNK * itemsize
    per_amplitude = 4 + 4 + itemsize + np.dtype(np.intp).itemsize
    assert traced_peak(state, circuit) <= per_amplitude * count + chunk
    # with no permutation run nothing is moved or flipped: only the butterfly
    # temporary, the up to np.getbufsize() amplitudes that ufuncs buffer of
    # each of their three operands, and small objects (under 64 KiB). Any
    # state-sized allocation breaks this.
    layers = Circuit(circuit.width, [h(0), z(1), h(0)])
    buffered = 3 * min(chunk, np.getbufsize() * itemsize)
    assert traced_peak(state, layers) <= chunk + buffered + 2**16
    # the pipeline's state at N=127: the 18 input qubits and the phase
    # ancilla in |->, run without the prologue's X and H on it, which
    # leaves two runs that move nothing and only flip signs. While a run
    # compiles: a packed plane (a bit per amplitude) for each qubit it
    # touches and two more as temporaries, the unpacked minus plane (a
    # byte per amplitude) and the flip positions (8 bytes each: the M
    # solutions, then index 0). While the steps run: the butterfly
    # piece and the up to np.getbufsize() amplitudes that ufuncs buffer of
    # each of its three operands. And small objects (under 64 KiB). That
    # stays under the state's size, so any state-sized allocation breaks it.
    case = plan(127)
    circuit = build_full_circuit(case)
    body = Circuit(circuit.width, circuit.prologue[:-2], circuit.labels, circuit.block,
                   circuit.copies)
    runs = permutation_runs(body)
    assert len(runs) == 2
    kicked = zero_state(circuit.width, stored=3 * case.bits, minus=circuit.width - 1)
    count, size = kicked.amplitudes.size, kicked.amplitudes.nbytes
    itemsize = kicked.amplitudes.itemsize
    compiling = (circuit.width + 2) * count // 8 + count + 8 * (case.solution_count + 1)
    piece = min(BUTTERFLY_CHUNK * itemsize, size // 2)
    buffered = 3 * min(piece, np.getbufsize() * itemsize)
    bound = compiling + piece + buffered + 2**16
    assert bound < size
    assert traced_peak(kicked, body) <= bound


def test_each_pipeline_run_only_flips_signs(monkeypatch):
    # simulate compiles two runs, whatever the round count: the oracle's
    # negates the solution indices x + y*2^n + z*2^(2n) and the diffuser's
    # index 0, and neither moves a stored amplitude
    real = statevector._compile_run
    compiled = []

    def compile_run(run, state):
        compiled.append(real(run, state))
        return compiled[-1]

    monkeypatch.setattr(statevector, "_compile_run", compile_run)
    for target in (1, 7, 19, 31, 63):
        compiled.clear()
        case = plan(target)
        simulate(case)
        index = np.arange(case.space_size)
        top = (1 << case.bits) - 1
        total = (index & top) + (index >> case.bits & top) + (index >> 2 * case.bits)
        assert len(compiled) == 2
        (oracle_moves, oracle_flips), (diffuser_moves, diffuser_flips) = compiled
        assert oracle_moves is None and diffuser_moves is None
        assert oracle_flips.tolist() == np.flatnonzero(total == target).tolist()
        assert diffuser_flips.tolist() == [0]


def signed_zero_state(width, seed):
    """A random state with about a fifth of its amplitudes +0.0 and as many -0.0."""
    rng = np.random.default_rng(seed)
    amplitudes = random_state(width, seed)
    amplitudes[rng.random(amplitudes.size) < 0.2] = 0.0
    amplitudes[rng.random(amplitudes.size) < 0.25] = -0.0
    return amplitudes


# a layer over every stored qubit at m = 2..17, so blocks below, at and above
# BUTTERFLY_CHUNK (2^14); and below the stored width, as on the dense traced
# path (3n of 3n+5 qubits) and down to two bits of a 16-qubit block
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("bits, width", [*((m, m) for m in range(2, 18)),
                                         (9, 14), (12, 17), (15, 20), (2, 16), (5, 15)])
def test_layer_equals_gate_by_gate_butterflies(bits, width, descending):
    amplitudes = signed_zero_state(width, seed=100 * width + bits)
    expected = amplitudes.copy()
    # the temporary run_circuit gives both kernels
    temp = np.empty(min(BUTTERFLY_CHUNK, amplitudes.size), dtype=amplitudes.dtype)
    order = range(bits - 1, -1, -1) if descending else range(bits)
    statevector._layer(amplitudes, order, temp)
    for bit in order:
        statevector._butterfly(expected, "h", bit, temp)
    assert amplitudes.tobytes() == expected.tobytes()


def layers_in(ops, state):
    """The H layers ``run_circuit`` would make of ``ops`` on ``state``."""
    return [step for step in statevector._split(ops, state, {}) if isinstance(step, range)]


def test_only_h_on_qubits_0_to_m_in_order_makes_a_layer():
    width = 8
    ascending, descending = [h(q) for q in range(width)], [h(q) for q in reversed(range(width))]
    cases = {
        "ascending": (ascending, [range(width)]),
        "descending": (descending, [range(width - 1, -1, -1)]),
        # a group makes a layer only when it is one layer, and nothing else
        "there and back, and again": (ascending[:3] + descending[-3:] + ascending[:2], []),
        "a layer, then a z": (ascending + [z(0)], []),
        "above qubit 0": (ascending[1:], []),
        "shuffled": ([h(q) for q in (3, 0, 5, 1, 7, 2, 6, 4)], []),
        "a z inside": ([h(0), z(1), h(1), h(2), h(3)], []),
        "stopping short of qubit 0": (descending[:-1], []),
        "a lone h on qubit 0": ([x(1), h(0), x(1), h(0)], []),
    }
    for name, (ops, layers) in cases.items():
        state = zero_state(width)
        state.amplitudes[:] = signed_zero_state(width, seed=len(ops))
        expected = reference_run(state.amplitudes, Circuit(width, ops))
        assert layers_in(ops, state) == layers, name
        run_circuit(state, Circuit(width, ops))
        assert same_bits(state.amplitudes, expected), name


def test_a_layer_over_an_unstored_qubit_is_refused_before_any_amplitude():
    # qubits 6 and 7 are not stored, 8 is held in |->; each layer reaches
    # qubit 6, and is refused as that one H would be
    state = zero_state(9, stored=6, minus=8)
    state.amplitudes[:] = signed_zero_state(6, seed=6) * np.sqrt(0.5)
    message = outcome(state, Circuit(9, [h(6)]))
    assert message == "qubit 6 carries an H or Z gate, but the state does not store it"
    for ops in ([h(q) for q in range(8)], [h(q) for q in reversed(range(7))],
                [h(0), h(1), x(0), *(h(q) for q in range(7))]):
        assert outcome(state, Circuit(9, ops)) == message


def test_simulate_applies_every_h_in_a_layer(monkeypatch):
    # at every target with n <= 5, 2R + 1 layers over the 3n inputs: the
    # prologue's, then per round the diffuser's two, ascending, then
    # descending. _layer's own butterflies, on the bits above a block
    # (n = 5 stores 15 qubits), are not per-gate H
    real_layer, real_butterfly = statevector._layer, statevector._butterfly
    layers, gates, inside = [], [], []

    def layer(amplitudes, bits, temp):
        layers.append(bits)
        inside.append(bits)
        real_layer(amplitudes, bits, temp)
        inside.pop()

    def butterfly(amplitudes, kind, bit, temp):
        if not inside:
            gates.append((kind, bit))
        real_butterfly(amplitudes, kind, bit, temp)

    monkeypatch.setattr(statevector, "_layer", layer)
    monkeypatch.setattr(statevector, "_butterfly", butterfly)
    for target in range(1, 64):
        layers.clear()
        case = plan(target)
        simulate(case)
        inputs = 3 * case.bits
        ascending, descending = range(inputs), range(inputs - 1, -1, -1)
        assert layers == [ascending] + [ascending, descending] * case.iterations
        assert gates == []


@pytest.mark.parametrize("width", range(1, 7))
def test_random_mixed_circuit_matches_dense_product(width):
    for seed in range(3):
        circuit = random_mixed_circuit(width, seed=1000 + 10 * width + seed)
        state = zero_state(width)
        state.amplitudes[:] = random_state(width, seed)
        expected = dense_matrix(circuit) @ state.amplitudes
        run_circuit(state, circuit)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_gate_on_out_of_range_qubit_rejected():
    state = zero_state(2)
    with pytest.raises(ValueError):
        apply_gate(state, x(2))
    for bad in (cx(0, 2), cx(2, 0), h(2)):
        circuit = Circuit(2)
        circuit.prologue.append(bad)  # past the check Circuit.append makes
        with pytest.raises(ValueError, match="state width 2"):
            run_circuit(state, circuit)


def test_hadamard_squared_is_identity():
    state = zero_state(3)
    state.amplitudes[:] = random_state(3, seed=5)
    before = state.amplitudes.copy()
    apply_gate(state, h(1))
    apply_gate(state, h(1))
    np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


def test_norm_preserved_on_random_circuit():
    rng = np.random.default_rng(12)
    width = 4
    circuit = Circuit(width)
    for _ in range(60):
        kind = rng.choice(["h", "x", "z", "cx", "ccx"])
        qubits = rng.choice(width, size=3, replace=False)
        if kind == "cx":
            circuit.append(cx(int(qubits[0]), int(qubits[1])))
        elif kind == "ccx":
            circuit.append(ccx(int(qubits[0]), int(qubits[1]), int(qubits[2])))
        else:
            circuit.append(GateOp(kind, (), int(qubits[0])))
    state = zero_state(width)
    run_circuit(state, circuit)
    assert state.norm_error() < 1e-12


def test_run_circuit_rejects_width_mismatch():
    with pytest.raises(ValueError):
        run_circuit(zero_state(2), Circuit(3))


def test_zero_and_basis_state_shapes():
    state = zero_state(3)
    assert state.amplitudes[0] == 1.0
    assert state.amplitudes.sum() == 1.0
    other = basis_state(3, 5)
    assert other.amplitudes[5] == 1.0
    with pytest.raises(ConstraintError):
        basis_state(2, 4)
    with pytest.raises(ConstraintError):
        zero_state(0)
    compact = zero_state(3, stored=2)
    assert compact.amplitudes.size == 4 and compact.amplitudes[0] == 1.0
    assert zero_state(3, stored=0).amplitudes.size == 1
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            zero_state(3, stored=bad)
    # |-> on qubit 2 exactly as X then H leave the dense |000>
    kicked = zero_state(3, stored=2, minus=2)
    dense = zero_state(3)
    run_circuit(dense, Circuit(3, [x(2), h(2)]))
    assert same_bits(scattered(kicked), dense.amplitudes)
    assert kicked.norm_error() < 1e-15
    for bad in (0, 1, 3, -1):  # below stored or past the width
        with pytest.raises(ValueError):
            zero_state(3, stored=2, minus=bad)


@pytest.mark.parametrize("target", [1, 31, 127])
def test_states_hold_float64_amplitudes(target):
    # every gate and |0...0> are real, so the state is too; a complex
    # value written into it is an error (pyproject's filterwarnings)
    case = plan(target)
    assert zero_state(case.total_qubits).amplitudes.dtype == np.float64
    state, _ = simulate(case)
    assert state.amplitudes.dtype == np.float64
    with pytest.raises(np.exceptions.ComplexWarning):
        state.amplitudes[:1] = np.array([1j])


def test_width_cap_enforced(monkeypatch):
    monkeypatch.setenv("QOBF_MAX_QUBITS", "4")
    assert max_qubits() == 4
    zero_state(4)
    with pytest.raises(ResourceLimitError):
        zero_state(5)
    with pytest.raises(ResourceLimitError):  # the cap is on the width, not the stored qubits
        zero_state(5, stored=1)
    monkeypatch.setenv("QOBF_MAX_QUBITS", "banana")
    with pytest.raises(ConstraintError):
        max_qubits()
    monkeypatch.delenv("QOBF_MAX_QUBITS")
    assert max_qubits() == 26


def test_a_state_numpy_cannot_allocate_names_its_bytes_and_the_cap(monkeypatch):
    # 2^60 amplitudes are 2^63 bytes, past what numpy will size an array at,
    # so it refuses before asking the OS for anything
    monkeypatch.setenv("QOBF_MAX_QUBITS", "70")
    with pytest.raises(ResourceLimitError, match=rf"{2**63} bytes.*QOBF_MAX_QUBITS=70"):
        zero_state(65, stored=60)

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ResourceLimitError, match=r"stores 3 qubits: 64 bytes.*QOBF_MAX_QUBITS"):
        zero_state(4, stored=3)


def test_marginal_probabilities_against_bit_loop():
    width = 4
    dense = zero_state(width)
    dense.amplitudes[:] = random_state(width, seed=77)
    # qubits 2 and 3 not stored: they are 0 in every basis state
    compact = zero_state(width, stored=2)
    compact.amplitudes[:] = random_state(2, seed=78)
    # qubit 3 in |->: the marginal sums both of its halves
    kicked = zero_state(width, stored=2, minus=3)
    kicked.amplitudes[:] = random_state(2, seed=79) * np.sqrt(0.5)
    for state in (dense, compact, kicked):
        probs = np.abs(scattered(state)) ** 2
        for size in range(1, state.stored + 1):
            qubits = range(size)
            expected = np.zeros(2**size)
            for i in range(2 ** width):
                expected[i % 2**size] += probs[i]
            got = marginal_probabilities(state, qubits)
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_marginal_rejects_bad_subsets():
    # only the low stored qubits 0..m-1, in order, with 1 <= m <= stored
    dense = zero_state(3)
    compact = zero_state(3, stored=2)
    kicked = zero_state(3, stored=2, minus=2)
    cases = [(dense, (0, 0)), (dense, (3,)), (dense, ()), (dense, (1, 0)), (dense, (1,)),
             (dense, (0, 1, 2, 3)), (compact, (0, 1, 2)), (kicked, (0, 1, 2)), (kicked, (2,))]
    for state, qubits in cases:
        with pytest.raises(ValueError, match=re.escape(f"got qubits {list(qubits)}")):
            marginal_probabilities(state, qubits)


def test_sample_deterministic_and_consistent():
    state = zero_state(3)
    run_circuit(state, Circuit(3, [h(0), h(2)]))
    first = sample(state, (0, 1, 2), shots=500, seed=42)
    second = sample(state, (0, 1, 2), shots=500, seed=42)
    assert first == second
    assert sum(first.entries.values()) == 500
    # qubit 1 never fires, so bit 1 of every key is 0
    assert all(key & 0b010 == 0 for key in first.entries)
    different = sample(state, (0, 1, 2), shots=500, seed=43)
    assert different != first


def test_sample_concentrates_on_basis_state():
    state = basis_state(3, 6)
    histogram = sample(state, (0, 1, 2), shots=100, seed=0)
    assert histogram.entries == {6: 100}
    assert type(next(iter(histogram.entries))) is int


def test_sample_balanced_coin_within_tolerance():
    state = zero_state(1)
    apply_gate(state, h(0))
    histogram = sample(state, (0,), shots=4096, seed=9)
    ones = histogram.entries.get(1, 0)
    # 5 sigma on a fair coin at 4096 shots
    assert abs(ones - 2048) < 5 * 32


def test_sample_rejects_zero_shots():
    with pytest.raises(ConstraintError):
        sample(zero_state(1), (0,), shots=0, seed=0)
    with pytest.raises(ConstraintError):
        sample(zero_state(1), (0,), shots=1, seed=-1)


def reference_counts(marginal, shots, seed):
    cdf = np.cumsum(marginal)
    draws = np.random.Generator(np.random.PCG64(seed)).random(shots)
    outcomes = np.minimum(np.searchsorted(cdf, draws, side="right"), len(marginal) - 1)
    return np.bincount(outcomes, minlength=len(marginal))


@pytest.mark.parametrize("outcomes, shots", [
    *(pytest.param(64, shots, id=str(shots))
      for shots in (SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 7)),
    # cells below 1 on either side of the half-chunk granule rule, three granules and 7 shots
    (SAMPLE_CHUNK // 2 - 1, 3 * SAMPLE_CHUNK // 2 + 7), (SAMPLE_CHUNK // 2 + 1, 3 * SAMPLE_CHUNK + 7)])
def test_sample_counts_equal_one_searchsorted_over_all_draws(outcomes, shots):
    rng = np.random.default_rng(shots)
    marginal = rng.random(outcomes)
    marginal[[0, 1, 17, 40, 41, 63]] = 0.0
    marginal /= marginal.sum()
    short = marginal * (1.0 - 1e-3)  # cdf ends below 1: the tail goes to the last outcome
    assert np.cumsum(short)[-1] < 1.0  # so every outcome of ``short`` has a cell below 1
    for probs in (marginal, short):
        counts = sample_counts(probs, shots, seed=shots % 97)
        assert np.array_equal(counts, reference_counts(probs, shots, shots % 97))
    assert counts[-1] > 0


CELL = 2.0**-32


def near_draw(u, kind):
    """A cumulative value at a draw u: on it, one ulp or under 2^-32 either
    side of it, or on an end of its 2^-32-wide cell."""
    cell = math.floor(u / CELL) * CELL
    return {"on": u, "ulp_below": math.nextafter(u, 0.0), "ulp_above": math.nextafter(u, 1.0),
            "near_below": max(u - CELL / 2, 0.0), "near_above": u + CELL / 2,
            "cell_start": cell, "cell_end": cell + CELL}[kind]


def marginal_with_cdf(values):
    """Entries whose np.cumsum runs through ``values`` (nondecreasing, >= 0):
    each entry is the step, nudged by ulps until the running sum lands on
    its value, or on the float just below it where rounding skips it."""
    entries, total = [], 0.0
    for value in values:
        step = value - total
        while total + step < value:
            step = math.nextafter(step, math.inf)
        while total + step > value:
            step = math.nextafter(step, 0.0)
        entries.append(step)
        total += step
    return np.array(entries)


KINDS = ("on", "ulp_below", "ulp_above", "near_below", "near_above", "cell_start", "cell_end")


@settings(deadline=None)
@given(st.integers(0, 2**32), st.one_of(st.integers(1, 3000),
                                        st.integers(SAMPLE_CHUNK - 5, SAMPLE_CHUNK + 3000)),
       st.lists(st.one_of(st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6)),
                          st.tuples(st.just("grid"), st.integers(0, 2**32 - 1))),
                min_size=1, max_size=40),
       st.lists(st.sampled_from((1.0, 1.0 + 2**-52, 1.0 + CELL, 1.5)), max_size=3))
def test_sample_counts_at_cumulative_values_on_and_beside_draws(seed, shots, picks, over):
    # cumulative values on draws, a ulp or under 2^-32 beside them, on
    # multiples of 2^-32, repeated (zero entries), ending below 1 or above it
    draws = np.random.Generator(np.random.PCG64(seed)).random(shots)
    values = [k * CELL if kind == "grid" else near_draw(float(draws[k % shots]), kind)
              for kind, k in picks]
    marginal = marginal_with_cdf(sorted(values + values[::3] + over))
    counts = sample_counts(marginal, shots, seed)
    assert np.array_equal(counts, reference_counts(marginal, shots, seed))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_sample_counts_refuses_entries_the_keys_cannot_order(bad, monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "PCG64", no_draws)
    marginal = np.full(8, 0.125)
    marginal[[5, 7]] = bad
    with pytest.raises(ValueError, match=f"marginal entry 5 is {bad}; "):
        sample_counts(marginal, 10, 0)
    # so is a sum past the float range, at the entry that takes it there
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="marginal entry 2 is 1e[+]308"):
        sample_counts(np.array([0.0, 1e308, 1e308, 0.0]), 10, 0)


def test_sample_counts_memory_stays_within_three_outcome_arrays():
    # N=255's marginal has 2^21 outcomes. Beside it, sampling holds the
    # cdf, its uint32 cells and the summed positions, 2.5 outcome arrays;
    # one slice of 2^18 cells' positions, stop keys and matches (3.25
    # MiB, under the half array left); two granules' float64 draws and
    # uint32 keys (3 MiB each at this width); small objects (under 64
    # KiB); then the summed positions and the counts
    marginal = np.random.default_rng(5).random(1 << 21)
    marginal /= marginal.sum()
    bound = 3 * marginal.nbytes + 2 * SAMPLE_CHUNK * 8 + 2**16
    for shots, seed in ((1024, 3), (SAMPLE_CHUNK + 1, 7), (2 * SAMPLE_CHUNK, 11)):
        tracemalloc.start()
        try:
            counts = sample_counts(marginal, shots, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert np.array_equal(counts, reference_counts(marginal, shots, seed))


def n_value_marginal(n_value):
    state, _ = simulate(plan(n_value))
    return marginal_probabilities(state, range(state.stored))


@pytest.mark.parametrize("seed", [2, 4, 12, 15])
def test_sample_counts_settles_tied_cells_at_n31_with_a_million_shots(seed, monkeypatch):
    # the shots-31 benchmark request; these seeds put draws in the cells
    # of two cumulative values, which the golden N=31 seeds never do
    marginal = n_value_marginal(31)
    settled = []
    cell_counts = statevector._cell_counts

    def recorded(scaled, spare, values):
        settled.append(values.size)
        return cell_counts(scaled, spare, values)

    monkeypatch.setattr(statevector, "_cell_counts", recorded)
    counts = sample_counts(marginal, 10**6, seed)
    assert sum(settled) == 2
    assert np.array_equal(counts, reference_counts(marginal, 10**6, seed))


def test_sample_counts_joins_its_sort_thread_also_when_it_raises(monkeypatch):
    marginal = n_value_marginal(31)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    before = threading.active_count()
    assert np.array_equal(sample_counts(marginal, 10**6, 4), reference_counts(marginal, 10**6, 4))
    assert len(started) == 1 and threading.active_count() == before
    # N=31's 4096 cells are one slice, so the second call is the second granule's
    tied_cells, calls = statevector._tied_cells, []

    def fails_on_second_granule(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("second granule")
        return tied_cells(*args)

    monkeypatch.setattr(statevector, "_tied_cells", fails_on_second_granule)
    with pytest.raises(MemoryError, match="second granule"):
        sample_counts(marginal, 10**6, 4)
    assert len(started) == 2 and not started[1].is_alive()
    assert threading.active_count() == before
    # and so does the helper's sort of the second granule
    monkeypatch.setattr(statevector, "_tied_cells", tied_cells)
    submitted = []

    def sort_fails():
        raise MemoryError("second sort")

    class FailsSecondSort(statevector.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(sort_fails if len(submitted) == 2 else fn, *args, **kwargs)

    monkeypatch.setattr(statevector, "ThreadPoolExecutor", FailsSecondSort)
    with pytest.raises(MemoryError, match="second sort"):
        sample_counts(marginal, 10**6, 4)
    assert len(submitted) == 2 and len(started) == 3 and not started[2].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("n_value, shots", [(19, 1024), (31, SAMPLE_CHUNK // 2)])
def test_sample_counts_of_one_granule_start_no_thread(n_value, shots, monkeypatch):
    # N=19 at 1024 shots is the benchmark's anchor request
    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    marginal = n_value_marginal(n_value)
    monkeypatch.setattr(threading, "Thread", no_thread)
    assert np.array_equal(sample_counts(marginal, shots, 7), reference_counts(marginal, shots, 7))


def test_histogram_checks_totals():
    with pytest.raises(ValueError):
        Histogram(2, {0: 3}, 4)
    for key in (4, -1):
        with pytest.raises(ValueError, match="outside 0..2"):
            Histogram(2, {key: 4}, 4)
    assert Histogram(2, {0: 1, 3: 3}, 4).entries == {0: 1, 3: 3}


def test_fidelity_endpoints():
    assert fidelity(zero_state(2), zero_state(2)) == pytest.approx(1.0)
    assert fidelity(zero_state(2), basis_state(2, 3)) == pytest.approx(0.0)
    plus = zero_state(1)
    apply_gate(plus, h(0))
    assert fidelity(zero_state(1), plus) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(zero_state(1), zero_state(2))
    with pytest.raises(ValueError):
        fidelity(zero_state(2), zero_state(2, stored=1))
    # the implied |1> half of a |-> qubit counts as much as the stored half
    kicked = zero_state(2, stored=1, minus=1)
    assert fidelity(kicked, kicked) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(kicked, zero_state(2, stored=1))
