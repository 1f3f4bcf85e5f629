"""Exact statevector simulation of the {H, X, Z, CX, CCX, MCX} gate set.

Amplitudes are complex128 and the basis convention is little-endian
everywhere: bit k of an amplitude index (weight 2^k) is qubit k.

A state need not hold every qubit. It stores the low
``StateVector.stored`` qubits; every qubit from there up is |0>,
except an optional ``minus`` qubit held in |->, whose |1> half is
implied as 0 - the stored |0> half. A dense state stores all of them.
The pipeline's 3n inputs are its low qubits. Its carries and adder
ancillas carry no H or Z, and every permutation run returns them to
|0>; its phase ancilla is prepared in |-> and from then on only
flipped (phase kickback; Cleve, Ekert, Macchiavello and Mosca,
quant-ph/9708016). So ``obfuscator.simulate`` stores only the 3n
inputs, 1/32 of the dense state, with the phase ancilla as ``minus``.
``run_circuit`` refuses, with a ValueError naming the qubit and before
any amplitude is touched, an H or Z on a qubit that is not stored, a
``minus`` qubit used as a control, and a permutation run that would
leave another unstored qubit set for some basis state: that state
would need amplitudes the compact state does not hold.

X, CX, CCX and MCX permute basis states, so ``run_circuit`` splits the
op list into maximal runs of them and applies each run as one gather
through a precomputed index array, built by pushing packed bit planes
through the run's gates. A block (a Grover round) is cut at its first
H or Z into a head and a tail; only ``prologue + head``, ``tail +
head`` (applied copies - 1 times) and ``tail`` are split into runs,
each run compiled once per call before the first gate is applied. H
and Z are applied gate by gate on a (hi, 2, lo) view that splits the
target's bit; H goes through it in pieces of BUTTERFLY_CHUNK
amplitudes with one reused temporary, so each piece stays in cache.
Every stored amplitude comes out bit for bit as gate-by-gate
application on the dense state would leave it: the gathers only move
values, the H butterfly does each amplitude's arithmetic in one fixed
order, and a run that flips the ``minus`` qubit negates what it brings
over from the implied half as 0 - a, which leaves a zero +0 as the
dense run's (0 - v)/sqrt(2) does. Gate fusion and leaving out qubits
that carry no information follow Haener & Steiger, arXiv:1704.01127.

Measurement is terminal sampling only. The marginal is read over a
prefix of the stored qubits, 0..m-1, which for the pipeline are its
3n inputs. Sampling draws shots by inverse CDF over it, with
uniforms from PCG64 (O'Neill's permuted congruential generator,
XSL-RR 128/64 variant, as shipped by numpy and seeded through numpy's
SeedSequence). The uniforms are drawn in fixed chunks, sorted and
counted against the cumulative marginal; that is the same stream and
the same outcome per uniform as one lookup of all of them, so identical
(state, qubits, shots, seed) give an identical histogram on every
platform.

Widths above ``max_qubits()`` (default 26, about 1 GiB of dense
amplitudes) are refused; the cap is compared with the full width, not
the stored one. Set QOBF_MAX_QUBITS to go bigger; a stored state that
numpy then cannot allocate is refused with a ResourceLimitError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import Circuit, GateOp
from .errors import ConstraintError, ResourceLimitError

DEFAULT_MAX_QUBITS = 26

# uniforms drawn, sorted and counted at a time by sample_counts
SAMPLE_CHUNK = 1 << 18

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# amplitudes an H butterfly works on at a time: 256 KiB of complex128,
# which stays in a core's L2 cache while the piece is read and written
BUTTERFLY_CHUNK = 1 << 14


def max_qubits() -> int:
    """Width cap: QOBF_MAX_QUBITS if set, else 26."""
    raw = os.environ.get("QOBF_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError:
        raise ConstraintError(f"QOBF_MAX_QUBITS={raw!r} is not an integer") from None


@dataclass
class StateVector:
    """Pure state over ``width`` qubits, holding amplitudes for the low ``stored``.

    Bit k of an amplitude index is qubit k; every qubit at or above
    ``stored`` is |0>, except ``minus``, which is held in |->: the
    amplitude with it set is 0 - the stored amplitude with it clear.
    ``stored`` defaults to ``width``, a dense state of 2^width
    amplitudes.
    """

    width: int
    amplitudes: np.ndarray
    stored: int | None = None
    minus: int | None = None

    def __post_init__(self):
        if self.stored is None:
            self.stored = self.width

    def norm_error(self) -> float:
        """|sum of |amplitude|^2 - 1|, should stay below 1e-9.

        The implied half of a ``minus`` qubit counts as much as the stored one.
        """
        total = float(np.sum(self.amplitudes.real**2 + self.amplitudes.imag**2))
        if self.minus is not None:
            total *= 2.0
        return abs(total - 1.0)


@dataclass
class Histogram:
    """Shot counts keyed by bitstring; the first sampled qubit is the rightmost character."""

    width: int
    entries: dict[str, int]
    shots: int

    def __post_init__(self):
        if sum(self.entries.values()) != self.shots:
            raise ValueError("histogram counts must sum to shots")
        for key in self.entries:
            if len(key) != self.width or set(key) - {"0", "1"}:
                raise ValueError(f"bad histogram key {key!r} for width {self.width}")


def check_width(width: int):
    """Refuse a circuit width below 1 or above the cap, ``max_qubits()``."""
    cap = max_qubits()
    if width < 1:
        raise ConstraintError(f"width must be >= 1, got {width}")
    if width > cap:
        raise ResourceLimitError(
            f"width {width} is over the circuit-width cap "
            f"(cap is {cap} qubits; QOBF_MAX_QUBITS overrides)"
        )


def zero_state(width: int, stored: int | None = None,
               minus: int | None = None) -> StateVector:
    """|0...0> on ``width`` qubits, storing the low ``stored`` (all by default).

    With ``minus``, that qubit (at or above ``stored``) starts in |->
    instead, as X then H leave it: the stored amplitude of |0...0> is
    1/sqrt(2). The cap applies to ``width`` whatever is stored; a
    stored state that numpy refuses to allocate raises a
    ResourceLimitError naming its bytes.
    """
    check_width(width)
    stored = width if stored is None else stored
    if not 0 <= stored <= width:
        raise ValueError(f"stored qubit count {stored} must be in 0..{width}")
    if minus is not None and not stored <= minus < width:
        raise ValueError(f"minus qubit {minus} must be unstored and below width {width}")
    try:
        amplitudes = np.zeros(2**stored, dtype=np.complex128)
    except (ValueError, MemoryError):
        raise ResourceLimitError(
            f"width {width} stores {stored} qubits: {16 * 2**stored} bytes of amplitudes, "
            f"more than numpy can allocate (QOBF_MAX_QUBITS={max_qubits()} lets that "
            f"width past the qubit cap)"
        ) from None
    amplitudes[0] = 1.0 if minus is None else _INV_SQRT2
    return StateVector(width, amplitudes, stored, minus)


_PERMUTATION_KINDS = frozenset({"x", "cx", "ccx", "mcx"})

# np.take widens int32 indices to intp; gathering in blocks keeps that copy
# small. The indices are in range, so mode="wrap" only spares the buffered
# output that the default mode="raise" would make.
_GATHER_BLOCK = 1 << 16

# bit k of byte j in a little-endian packed plane is basis index 8j + k;
# these are the planes of qubits 0, 1, 2, the same in every byte
_LOW_PLANES = (0xAA, 0xCC, 0xF0)


def _initial_plane(qubit: int, nbytes: int) -> np.ndarray:
    """Packed bit ``qubit`` of every basis index 0 .. 8*nbytes - 1."""
    if qubit < 3:
        return np.full(nbytes, _LOW_PLANES[qubit], dtype=np.uint8)
    bit = (np.arange(nbytes) >> (qubit - 3)) & 1
    return (bit * 0xFF).astype(np.uint8)


def _compile_run(run: tuple[GateOp, ...],
                 state: StateVector) -> tuple[np.ndarray, np.ndarray | None]:
    """Gather index and sign mask of a run of X/CX/CCX/MCX gates on ``state``.

    new[j] = old[index[j]], negated where mask[j]. Indices have one bit
    per stored qubit: qubit q is bit q. Every gate in the run is a
    self-inverse basis permutation, so the source of basis index j is
    found by applying the gates to j in reverse order. The gates act on
    packed bit planes, one per touched qubit, 8 basis indices to a byte.
    A qubit at or above ``state.stored`` is not stored and is 0 in
    every index, so its plane starts at zero; if it does not end at
    zero, some basis state would come out of the run with that qubit
    set, and a ValueError names the qubit. The ``minus`` qubit's plane
    also starts at zero; where it ends at one the source is in the
    implied half. The mask is None when the run does not touch it. A
    gate past the state's width raises a ValueError too.
    """
    stored, minus = state.stored, state.minus
    size = 2**stored
    nbytes = max(size // 8, 1)
    touched = {q for op in run for q in op.qubits()}
    if max(touched) >= state.width:
        raise ValueError(
            f"a run of {len(run)} X/CX/CCX/MCX gates touches qubit {max(touched)}, "
            f"state width {state.width}"
        )
    planes = {q: _initial_plane(q, nbytes) if q < stored
              else np.zeros(nbytes, dtype=np.uint8) for q in touched}
    for op in reversed(run):
        if minus in op.controls:
            raise ValueError(f"qubit {minus} is held in |-> and cannot control a gate")
        flip = planes[op.target]
        if op.controls:
            fired = planes[op.controls[0]]
            for c in op.controls[1:]:
                fired = fired & planes[c]
            flip ^= fired
        else:
            np.invert(flip, out=flip)
    for q in sorted(touched):
        if q >= stored and q != minus and planes[q].any():
            raise ValueError(
                f"a run of {len(run)} X/CX/CCX/MCX gates would leave qubit {q} "
                f"set, but the state does not store it"
            )
    # int32 holds half the memory of int64 and reaches every index below 2^31
    dtype = np.int32 if stored < 32 else np.int64
    index = np.arange(size, dtype=dtype)
    for q in touched:
        if q >= stored:
            continue
        moved = planes[q] ^ _initial_plane(q, nbytes)
        if moved.any():
            bits = np.unpackbits(moved, count=size, bitorder="little")
            index ^= np.left_shift(bits, q, dtype=dtype)
    mask = None
    if minus in touched:
        mask = np.unpackbits(planes[minus], count=size, bitorder="little").view(bool)
    return index, mask


def _butterfly(amplitudes: np.ndarray, kind: str, bit: int, temp: np.ndarray):
    """H or Z on index bit ``bit``, in place, on the (hi, 2, lo) view that splits it.

    H works through the halves a and b in pieces of at most
    ``temp.size`` amplitudes, with ``temp`` as the temporary, so
    each piece is read and written while it is still in cache.
    """
    lo = 2**bit
    view = amplitudes.reshape(-1, 2, lo)
    if kind == "z":
        view[:, 1, :] *= -1.0
        return
    rows = max(temp.size // lo, 1)
    cols = min(lo, temp.size)
    for r in range(0, view.shape[0], rows):
        for c in range(0, lo, cols):
            a = view[r:r + rows, 0, c:c + cols]
            b = view[r:r + rows, 1, c:c + cols]
            diff = temp[:a.size].reshape(a.shape)
            np.subtract(a, b, out=diff)
            a += b
            a *= _INV_SQRT2
            np.multiply(diff, _INV_SQRT2, out=b)


def _split(ops: list[GateOp], state: StateVector, compiled: dict) -> list:
    """``ops`` as (permutes, ops) segments: maximal X/CX/CCX/MCX runs, and H/Z gates.

    Checks each H and Z on ``state``; compiles each run not yet in ``compiled``.
    """
    width = state.width
    segments = []
    for permutes, group in groupby(ops, key=lambda op: op.kind in _PERMUTATION_KINDS):
        run = tuple(group)
        segments.append((permutes, run))
        if permutes:
            if run not in compiled:
                compiled[run] = _compile_run(run, state)
            continue
        for op in run:
            if op.target >= width:
                raise ValueError(f"gate {op.kind} touches qubit {op.target}, state width {width}")
            if op.target >= state.stored:
                raise ValueError(
                    f"qubit {op.target} carries an H or Z gate, but the state does not store it"
                )
    return segments


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate in place and return the state."""
    return run_circuit(state, Circuit(state.width, [gate]))


def run_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the circuit's ops in order, in place, and return the state.

    Qubit q is index bit q throughout. Each maximal run of X/CX/CCX/MCX
    gates is applied as one gather into a buffer of the state's size,
    also a run across the seam after the prologue or between copies of
    the block. Runs with the same ops are compiled once per call, all
    before the first gate is applied. H and Z are applied gate by gate,
    H in pieces of BUTTERFLY_CHUNK amplitudes. A run that flips the
    state's ``minus`` qubit negates (as 0 - a), after the gather, the
    amplitudes it brought over from the implied half. After an odd
    number of gathers the amplitudes are copied back from the buffer.

    Raises ValueError, leaving the state as it was, for a width
    mismatch, a gate past the width, an H or Z on a qubit the state
    does not store (the ``minus`` qubit included), a run that would
    leave such a qubit set, or a ``minus`` qubit used as a control.
    """
    width = state.width
    if circuit.width != width:
        raise ValueError(
            f"circuit width {circuit.width} != state width {width}"
        )
    # Each copy of the block is walked from its first H or Z, so a run across
    # a seam stays one run, as in the flat op list. A block with no H or Z
    # makes one run of every op after the prologue's last H or Z.
    cut = next((i for i, op in enumerate(circuit.block)
                if op.kind not in _PERMUTATION_KINDS), None)
    parts = [(circuit.ops, 1)]
    if cut is not None:
        head, tail = circuit.block[:cut], circuit.block[cut:]
        parts = [(circuit.prologue + head, 1), (tail + head, circuit.copies - 1), (tail, 1)]
    compiled: dict[tuple[GateOp, ...], tuple[np.ndarray, np.ndarray | None]] = {}
    schedule = [(_split(part, state, compiled), times) for part, times in parts if times]

    amplitudes = state.amplitudes
    spare = None
    # a butterfly's halves are at most half the state
    temp = np.empty(min(BUTTERFLY_CHUNK, amplitudes.size // 2), dtype=amplitudes.dtype)
    steps = (step for segments, times in schedule for _ in range(times) for step in segments)
    for permutes, ops in steps:
        if not permutes:
            for op in ops:
                _butterfly(amplitudes, op.kind, op.target, temp)
            continue
        index, mask = compiled[ops]
        if spare is None:
            spare = np.empty_like(amplitudes)
        for lo in range(0, index.size, _GATHER_BLOCK):
            block = slice(lo, lo + _GATHER_BLOCK)
            np.take(amplitudes, index[block], out=spare[block], mode="wrap")
            if mask is not None:
                np.subtract(0.0, spare[block], out=spare[block], where=mask[block])
        amplitudes, spare = spare, amplitudes
    if amplitudes is not state.amplitudes:
        np.copyto(state.amplitudes, amplitudes)
    return state


def marginal_probabilities(state: StateVector, qubits) -> np.ndarray:
    """Marginal over the low stored qubits ``0..m-1`` as a length-2^m array.

    ``qubits`` must be exactly ``0, 1, ..., m-1`` in that order, with
    1 <= m <= ``state.stored``; anything else raises a ValueError that
    names it. Bit k of the returned array's index is qubit k. With m
    equal to ``stored`` it is |a|^2 of the stored amplitudes itself;
    below that, the sum over the high stored qubits. Every unstored
    qubit is 0 in every outcome, except the ``minus`` qubit, whose two
    outcomes carry the same probability, so the marginal is doubled,
    which is exact.
    """
    qubits = list(qubits)
    m = len(qubits)
    if not 1 <= m <= state.stored or qubits != list(range(m)):
        raise ValueError(
            f"the marginal reads the low stored qubits 0..m-1 in order with "
            f"1 <= m <= {state.stored}, got qubits {qubits}"
        )
    probs = state.amplitudes.real**2 + state.amplitudes.imag**2
    if m < state.stored:
        probs = probs.reshape(-1, 2**m).sum(axis=0)
    # probs is this call's own array, so it may be scaled in place
    if state.minus is not None:
        probs *= 2.0
    return probs


def check_sampling(shots: int, seed: int):
    """Refuse fewer than one shot or a negative seed."""
    if shots < 1:
        raise ConstraintError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ConstraintError(f"seed must be >= 0, got {seed}")


def sample_counts(marginal: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Shot counts per outcome index, drawn from ``marginal``.

    Inverse-CDF sampling: the outcome of a PCG64(seed) uniform u is the
    number of cumulative-marginal entries <= u, clamped to the last
    outcome. The uniforms are drawn SAMPLE_CHUNK at a time (the same
    stream as one draw of ``shots``), sorted, and the cumulative
    marginal is located among them, so outcome k gets the draws in
    [cdf[k-1], cdf[k]). Deterministic for a given seed.
    """
    check_sampling(shots, seed)
    cdf = np.cumsum(marginal)
    rng = np.random.Generator(np.random.PCG64(seed))
    # below[k] = draws with outcome <= k, summed over the chunks
    below = np.zeros(len(marginal), dtype=np.int64)
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, shots - start))
        draws.sort()
        below += np.searchsorted(draws, cdf, side="left")
    del cdf
    below[-1] = shots  # the last outcome takes the tail
    return np.diff(below, prepend=0)


def sample(state: StateVector, qubits, shots: int, seed: int) -> Histogram:
    """Draw ``shots`` outcomes from the marginal over ``qubits``; see sample_counts."""
    qubits = list(qubits)
    counts = sample_counts(marginal_probabilities(state, qubits), shots, seed)
    m = len(qubits)
    entries = {
        format(int(i), f"0{m}b"): int(counts[i]) for i in np.flatnonzero(counts)
    }
    return Histogram(m, entries, shots)

