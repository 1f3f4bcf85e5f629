"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v`. Every test prints a
PASS/FAIL line straight to the terminal (bypassing capture) so the
verdicts are visible in any log. The heavy-simulation leg of criterion 8
(the 23 and 26 qubit targets, N=255 checked against the input-register
model and the closed form, plus a full-width N=127 run to compare
against: about 37 s and 400 MiB peak RSS) only runs when
QOBF_RUN_HEAVY=1 is set.
"""

import itertools
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from qobf import cli
from qobf.arithmetic import build_triple_sum
from qobf.circuit import compose, decompose_mcx, depth, gate_counts, inverse, parse, serialize
from qobf.grover import build_oracle, count_solutions, theoretical_success
from qobf.obfuscator import build_full_circuit, plan, run, simulate, solution_probability
from qobf.statevector import apply_gate, marginal_probabilities, run_circuit, zero_state
from qobf.circuit import h as h_gate
from qobf.circuit import x as x_gate
from states import fidelity
from test_obfuscator import input_register_model
from test_statevector import same_bits, scattered

TABLE = {
    7: (2, 3, 11, 6),
    15: (3, 3, 14, 28),
    31: (4, 5, 17, 120),
    63: (5, 6, 20, 496),
    127: (6, 9, 23, 2016),
    255: (7, 13, 26, 8128),
}


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    with capsys.disabled():
        print(f"PASS {label}")


def test_criterion_1_benchmark_table_exact_columns(capsys):
    with verdict(capsys, "criterion 1: benchmark table exact columns"):
        for target, expected in TABLE.items():
            chosen = plan(target)
            got = (chosen.bits, chosen.iterations, chosen.total_qubits,
                   chosen.solution_count)
            assert got == expected, f"target {target}: {got} != {expected}"


def test_criterion_2_case_study_nineteen(capsys):
    with verdict(capsys, "criterion 2: case study target 19"):
        case = plan(19)
        assert case.bits == 3
        assert case.solution_count == 6
        assert case.iterations == 7
        histogram = run(case, shots=1024, seed=0)
        assert histogram.valid_fraction >= 0.86
        closed_form = math.sin(15 * math.asin(math.sqrt(6 / 512))) ** 2
        assert abs(histogram.exact_success - closed_form) < 1e-6


def test_criterion_3_adder_exhaustive_equivalence(capsys):
    with verdict(capsys, "criterion 3: triple-sum adder exhaustive (n=1,2,3)"):
        for bits in (1, 2, 3):
            circuit, layout = build_triple_sum(bits)
            for x_val, y_val, z_val in itertools.product(range(2 ** bits), repeat=3):
                start = x_val | (y_val << bits) | (z_val << (2 * bits))
                state = zero_state(circuit.width)
                state.amplitudes[0] = 0.0
                state.amplitudes[start] = 1.0
                run_circuit(state, circuit)
                hot = int(np.argmax(np.abs(state.amplitudes)))
                assert state.amplitudes[hot] == 1.0 + 0.0j
                total = 0
                for k, q in enumerate(layout.sum_qubits):
                    total |= ((hot >> q) & 1) << k
                assert total == x_val + y_val + z_val
                assert (hot >> layout.adder2_ancilla) & 1 == 0


def test_criterion_4_oracle_phase_property(capsys):
    with verdict(capsys, "criterion 4: oracle sign pattern (n=2, targets 0..9)"):
        bits = 2
        for target in range(0, 10):
            oracle, _ = build_oracle(bits, target)
            width = oracle.width
            flag = width - 1
            flipped = 0
            for index in range(2 ** (3 * bits)):
                state = zero_state(width)
                state.amplitudes[0] = 0.0
                state.amplitudes[index] = 1.0
                apply_gate(state, x_gate(flag))
                apply_gate(state, h_gate(flag))
                reference = state.amplitudes.copy()
                run_circuit(state, oracle)
                overlap = np.vdot(reference, state.amplitudes)
                assert abs(abs(overlap) - 1.0) < 1e-12
                x_val = index & 3
                y_val = (index >> 2) & 3
                z_val = (index >> 4) & 3
                if x_val + y_val + z_val == target:
                    assert overlap.real < 0
                    flipped += 1
                else:
                    assert overlap.real > 0
            assert flipped == count_solutions(target, bits)


def test_criterion_5_counting_formula_equivalence(capsys):
    with verdict(capsys, "criterion 5: counting formula vs brute force (n=1..5)"):
        for bits in range(1, 6):
            top = 2 ** bits
            bound = 3 * (top - 1)
            enumerated = [0] * (bound + 1)
            for x_val in range(top):
                for y_val in range(top):
                    base = x_val + y_val
                    for z_val in range(top):
                        enumerated[base + z_val] += 1
            for target in range(bound + 1):
                assert count_solutions(target, bits) == enumerated[target]
            assert count_solutions(bound + 1, bits) == 0


def test_criterion_6_grover_dynamics_match_closed_form(capsys):
    with verdict(capsys, "criterion 6: exact dynamics match closed form"):
        for target, bits in [(7, 2), (19, 3), (15, 3)]:
            case = plan(target, bits)
            state, _ = simulate(case)
            exact = solution_probability(case, state)
            ideal = theoretical_success(
                case.space_size, case.solution_count, case.iterations
            )
            assert abs(exact - ideal) < 1e-6, (target, bits, exact, ideal)


def test_criterion_7_reversibility_and_round_trips(capsys):
    with verdict(capsys, "criterion 7: reversibility and text round-trips"):
        circuits = []
        for bits in (1, 2, 3):
            adder, _ = build_triple_sum(bits)
            oracle, _ = build_oracle(bits, 3 * (2 ** bits - 1) - 1)
            circuits.extend([adder, oracle])
        rng = np.random.default_rng(2024)
        for circuit in circuits:
            undo = compose(circuit, inverse(circuit))
            for _ in range(20):
                amps = rng.normal(size=2 ** circuit.width)
                amps = amps + 1j * rng.normal(size=2 ** circuit.width)
                amps /= np.linalg.norm(amps)
                state = zero_state(circuit.width)
                state.amplitudes[:] = amps
                reference = zero_state(circuit.width)
                reference.amplitudes[:] = amps.copy()
                run_circuit(state, undo)
                assert fidelity(state, reference) >= 1.0 - 1e-9
        # text format round-trips structurally on everything we build
        generated = circuits + [
            build_full_circuit(plan(3, 1)),
            build_full_circuit(plan(7, 2)),
            build_full_circuit(plan(19, 3)),
        ]
        for circuit in generated:
            assert parse(serialize(circuit)) == circuit


def test_criterion_8_depth_and_gates_grow_monotonically(capsys):
    with verdict(capsys, "criterion 8: depth/gates strictly increase over targets"):
        depths = []
        totals = []
        for target in sorted(TABLE):
            expanded = decompose_mcx(build_full_circuit(plan(target)))
            depths.append(depth(expanded))
            totals.append(gate_counts(expanded)["total"])
        assert all(a < b for a, b in zip(depths, depths[1:])), depths
        assert all(a < b for a, b in zip(totals, totals[1:])), totals


@pytest.mark.skipif(
    os.environ.get("QOBF_RUN_HEAVY") != "1",
    reason="set QOBF_RUN_HEAVY=1 to simulate the 23 and 26 qubit targets",
)
def test_criterion_8_heavy_targets_complete(capsys):
    with verdict(capsys, "criterion 8 (heavy): 23 and 26 qubit simulations complete"):
        code = cli.main(["bench", "--targets", "127,255"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        table = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[7]))
                 for r in rows]
        assert table == [(127, 6, 9, 23, 2016), (255, 7, 13, 26, 8128)]
        assert all(float(r[6]) > 0.0 for r in rows)
        # N=255 in all three models: gate level, input register and closed form
        case = plan(255)
        state, _ = simulate(case)
        np.testing.assert_allclose(marginal_probabilities(state, case.input_qubits),
                                   input_register_model(case), rtol=0, atol=1e-11)
        assert abs(solution_probability(case, state) - case.theoretical_success) < 1e-9
        # the pipeline's compact N=127 state, its implied half rebuilt, holds exactly
        # the dense run's amplitudes
        case = plan(127)
        state, _ = simulate(case)
        dense = zero_state(case.total_qubits)
        run_circuit(dense, build_full_circuit(case))
        assert same_bits(scattered(state), dense.amplitudes)
