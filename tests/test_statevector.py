"""Gate kernels checked against dense matrices and a gate-by-gate reference kernel."""

import math
import re
import tracemalloc
from itertools import groupby

import numpy as np
import pytest

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
    amps = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


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
    circuit = Circuit(width)
    for _ in range(12):
        circuit.extend(runs[int(rng.integers(len(runs)))])
        for _ in range(int(rng.integers(0, 3))):
            gate = h if rng.random() < 0.7 else z
            circuit.append(gate(int(rng.integers(width))))
    return circuit


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
    circuit = Circuit(width)
    for k in range(3 + seed % 2):
        if shape == "top":
            layer = [width - 1]
        elif shape == "every" or k == 0:
            layer = range(width)
        else:
            layer = np.flatnonzero(rng.random(width) < 0.6)
        for q in layer:
            circuit.append((h if rng.random() < 0.8 else z)(int(q)))
        circuit.extend(random_permutation_run(rng, width, int(rng.integers(1, 6))))
    circuit.append(h(width - 1))
    return circuit


def same_bits(a, b):
    """Equal bit for bit, signs of zeros included."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def scattered(state):
    """Dense amplitudes of a compact state: +0.0 wherever an unstored qubit is 1.

    The implied half of a ``minus`` qubit is rebuilt as 0 - the stored
    half, the way ``run_circuit`` negates.
    """
    index = np.arange(state.amplitudes.size)
    dense = np.zeros(2**state.width, dtype=np.complex128)
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
# chunks; N=63 at 20 qubits (16 stored)
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
    circuit = Circuit(width)
    for _ in range(12):
        run = random_permutation_run(rng, top, int(rng.integers(1, 5)))
        arity = int(rng.integers(0, min(top, 4) + 1))
        controls = [int(q) for q in rng.choice(top, size=arity, replace=False)]
        run.insert(int(rng.integers(len(run) + 1)), mcx(controls, top) if arity else x(top))
        circuit.extend(run)
        for _ in range(int(rng.integers(0, 3))):
            gate = h if rng.random() < 0.7 else z
            circuit.append(gate(int(rng.integers(top))))
    return circuit


# 18 qubits: 17 stored, two gather blocks
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


# 17 qubits: a state of two gather blocks
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


# 17 qubits: a dense state of two gather blocks
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
        dense = StateVector(width, amplitudes)
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
    # beside the state: a gather buffer of the same size, one int32 index
    # (a quarter state) per distinct permutation run, one butterfly chunk,
    # and under half a state of temporaries while a run compiles
    circuit = build_full_circuit(plan(31))
    runs = permutation_runs(circuit)
    assert len(runs) == 3
    state = zero_state(circuit.width)
    size = state.amplitudes.nbytes
    chunk = BUTTERFLY_CHUNK * state.amplitudes.itemsize
    assert traced_peak(state, circuit) <= size + len(runs) * size // 4 + size // 2 + chunk
    # with no permutation run there is no gather buffer: only the butterfly
    # temporary, the up to np.getbufsize() amplitudes that ufuncs buffer of
    # each of their three operands, and small objects (under 64 KiB). Any
    # state-sized allocation breaks this.
    layers = Circuit(circuit.width, [h(0), z(1), h(0)])
    buffered = 3 * min(chunk, np.getbufsize() * state.amplitudes.itemsize)
    assert traced_peak(state, layers) <= chunk + buffered + 2**16
    # the pipeline's state: the 12 input qubits and the phase ancilla in
    # |->, run without the prologue's X and H on it, which leaves two runs: a
    # buffer and two indices at that width, each with a bool sign mask (a
    # sixteenth of the state), since both flip the ancilla, and the
    # butterfly temporary, here half the state; ufuncs on a piece's (rows,
    # cols) views buffer up to np.getbufsize() amplitudes of each of their
    # three operands. The runs compile before the buffer exists, so they
    # stay below that.
    body = Circuit(circuit.width, circuit.prologue[:-2], circuit.labels, circuit.block,
                   circuit.copies)
    runs = permutation_runs(body)
    assert len(runs) == 2
    kicked = zero_state(circuit.width, stored=12, minus=circuit.width - 1)
    size = kicked.amplitudes.nbytes
    piece = min(BUTTERFLY_CHUNK * kicked.amplitudes.itemsize, size // 2)
    buffered = 3 * min(piece, np.getbufsize() * kicked.amplitudes.itemsize)
    assert traced_peak(kicked, body) <= (size + len(runs) * (size // 4 + size // 16)
                                         + piece + buffered + 2**16)


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
    # 2^60 amplitudes are 2^64 bytes, past what numpy will size an array at,
    # so it refuses before asking the OS for anything
    monkeypatch.setenv("QOBF_MAX_QUBITS", "70")
    with pytest.raises(ResourceLimitError, match=rf"{16 * 2**60} bytes.*QOBF_MAX_QUBITS=70"):
        zero_state(65, stored=60)

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ResourceLimitError, match=r"stores 3 qubits: 128 bytes.*QOBF_MAX_QUBITS"):
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
    # qubit 1 never fires, so every key has a 0 in the middle position
    assert all(key[1] == "0" for key in first.entries)
    different = sample(state, (0, 1, 2), shots=500, seed=43)
    assert different != first


def test_sample_concentrates_on_basis_state():
    state = basis_state(3, 6)
    histogram = sample(state, (0, 1, 2), shots=100, seed=0)
    assert histogram.entries == {"110": 100}


def test_sample_balanced_coin_within_tolerance():
    state = zero_state(1)
    apply_gate(state, h(0))
    histogram = sample(state, (0,), shots=4096, seed=9)
    ones = histogram.entries.get("1", 0)
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


@pytest.mark.parametrize("shots", [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1,
                                   3 * SAMPLE_CHUNK + 7])
def test_sample_counts_equal_one_searchsorted_over_all_draws(shots):
    rng = np.random.default_rng(shots)
    marginal = rng.random(64)
    marginal[[0, 1, 17, 40, 41, 63]] = 0.0
    marginal /= marginal.sum()
    short = marginal * (1.0 - 1e-3)  # cdf ends below 1: the tail goes to the last outcome
    assert np.cumsum(short)[-1] < 1.0
    for probs in (marginal, short):
        counts = sample_counts(probs, shots, seed=shots % 97)
        assert np.array_equal(counts, reference_counts(probs, shots, shots % 97))
    assert counts[-1] > 0


def per_chunk_counts(marginal, shots, seed):
    """Inverse-CDF counts taking one difference per chunk of draws."""
    cdf = np.cumsum(marginal)
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(len(marginal), dtype=np.int64)
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = np.sort(rng.random(min(SAMPLE_CHUNK, shots - start)))
        below = np.searchsorted(draws, cdf, side="left")
        below[-1] = len(draws)
        counts += np.diff(below, prepend=0)
    return counts


def test_sample_counts_memory_stays_within_three_outcome_arrays():
    # N=255's marginal has 2^21 outcomes. Beside it, sampling holds the
    # cdf, the summed positions and one chunk's positions, then the
    # positions, their padded copy and the counts, plus the draws of at
    # most two chunks and small objects (under 64 KiB)
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
        assert np.array_equal(counts, per_chunk_counts(marginal, shots, seed))


def test_histogram_checks_totals():
    with pytest.raises(ValueError):
        Histogram(2, {"00": 3}, 4)
    with pytest.raises(ValueError):
        Histogram(2, {"0": 4}, 4)


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
