"""Exact statevector simulation of the {H, X, Z, CX, CCX, MCX} gate set.

Amplitudes are float64, as every gate and |0...0> is real; the basis
is little-endian: bit k of an amplitude index (weight 2^k) is qubit k.

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
op list into maximal runs of them and applies each run in place: it
moves only the amplitudes the run moves and negates only those it
flips, both found by pushing packed bit planes through its gates. The
pipeline's runs move nothing: the oracle's negates the M solutions,
the diffuser's index 0. A block (a Grover round) is cut at its first
H or Z into a head and a tail; only ``prologue + head``, ``tail +
head`` (applied copies - 1 times) and ``tail`` are split into runs,
each run compiled once per call before the first gate is applied.
Between two runs, the H and Z gates form one group. A group that is
exactly H on qubits 0..m-1, m >= 2, ascending or descending, is one
layer step. The pipeline's H gates all come in such groups, over its
low qubits: the prologue's and the diffuser's first ascending, the
diffuser's last descending. A layer's blocks of BUTTERFLY_CHUNK
amplitudes take their bits in constant geometry (Pease, J. ACM 15(2),
1968), ping-ponging with one reused temporary through contiguous and
stride-2 rows, and bits above a block go through the butterfly below.
Every gate of any other group is applied on its own, on a (hi, 2, lo)
view that splits the target's bit, H in pieces of BUTTERFLY_CHUNK
amplitudes. Every stored amplitude comes out bit for bit as gate-by-gate
application on the dense state would leave it: moves only copy values,
every H, in a layer or not, does each amplitude's arithmetic in one
fixed order and in the gates' order, and a run that flips the ``minus``
qubit negates what it brings over from the implied half as 0 - a, which
leaves a zero +0 as the dense run's (0 - v)/sqrt(2) does. Gate fusion,
whole layers as one kernel, diagonal runs as sign flips and leaving out
qubits that carry no information follow Haener & Steiger,
arXiv:1704.01127.

Measurement is terminal sampling only. The marginal is read over a
prefix of the stored qubits, 0..m-1, which for the pipeline are its
3n inputs. Sampling draws shots by inverse CDF over it, with
uniforms from PCG64 (O'Neill's permuted congruential generator,
XSL-RR 128/64 variant, as shipped by numpy and seeded through numpy's
SeedSequence). The uniforms are drawn a granule at a time into reused
buffers: half of SAMPLE_CHUNK when at most that many cumulative values
lie below 1, else a whole chunk. A granule's 32-bit keys floor(u *
2^32) sort in about half the time of the float64 uniforms. A granule
is counted per outcome: the shorter of its sorted keys and the
cumulative values' cells is looked up in the longer, and the uniforms
themselves are read only where a key equals a cell. A call of one
granule runs in the calling thread. A call of two or more runs two
lanes, each drawing, keying, sorting and counting its own granules:
the calling thread takes draws [0, h), h = ceil(shots / 2), and the
one thread of a ThreadPoolExecutor takes [h, shots), each from its
own PCG64(seed) advanced to its first draw (O(log n) steps;
``jumped()`` would start another stream). Both add into one counts
array under one lock, which keeps one lookup in memory at a time;
integer sums do not depend on the order they are added in. A raise in
either lane stops the other before its next granule. The executor's
thread is joined before the call returns or raises, and an error is
raised in the calling thread. ``concurrent.futures`` is imported only
by a call of two or more granules, so a process that never draws two
granules in one call does not load it. That is the same stream and
the same outcome per uniform as one lookup of all of them, so
identical (state, qubits, shots, seed) give an identical histogram on
every platform.

Widths above ``max_qubits()`` (default 26, about 512 MiB of dense
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

# uniforms drawn, keyed, sorted and counted at a time by sample_counts
# (half of it when the cells below 1 fit in half)
SAMPLE_CHUNK = 1 << 18

# a uniform u's 32-bit key is floor(u * _KEYS)
_KEYS = 2.0**32

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# amplitudes an H butterfly works on at a time: 128 KiB of float64,
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

    Amplitudes are float64, as every gate and |0...0> is real. Bit k of
    an amplitude index is qubit k; every qubit at or above ``stored`` is
    |0>, except ``minus``, which is held in |->: the amplitude with it
    set is 0 - the stored amplitude with it clear.
    """

    width: int
    amplitudes: np.ndarray
    stored: int
    minus: int | None = None

    def norm_error(self) -> float:
        """|sum of amplitude^2 - 1|, should stay below 1e-9.

        The implied half of a ``minus`` qubit counts as much as the stored one.
        """
        total = float(np.sum(self.amplitudes * self.amplitudes))
        if self.minus is not None:
            total *= 2.0
        return abs(total - 1.0)


@dataclass
class Histogram:
    """Shot counts keyed by outcome index; bit k of an index is the k-th sampled qubit."""

    width: int
    entries: dict[int, int]
    shots: int

    def __post_init__(self):
        if sum(self.entries.values()) != self.shots:
            raise ValueError("histogram counts must sum to shots")
        for key in self.entries:
            if not 0 <= key < 2**self.width:
                raise ValueError(f"histogram key {key} is outside 0..2^{self.width}-1")


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
    dtype = np.dtype(np.float64)
    try:
        amplitudes = np.zeros(2**stored, dtype=dtype)
    except (ValueError, MemoryError):
        raise ResourceLimitError(
            f"width {width} stores {stored} qubits: {dtype.itemsize * 2**stored} bytes of "
            f"amplitudes, more than numpy can allocate (QOBF_MAX_QUBITS={max_qubits()} lets "
            f"that width past the qubit cap)"
        ) from None
    amplitudes[0] = 1.0 if minus is None else _INV_SQRT2
    return StateVector(width, amplitudes, stored, minus)


_PERMUTATION_KINDS = frozenset({"x", "cx", "ccx", "mcx"})

# bit k of byte j in a little-endian packed plane is basis index 8j + k;
# these are the planes of qubits 0, 1, 2, the same in every byte
_LOW_PLANES = (0xAA, 0xCC, 0xF0)


def _initial_plane(qubit: int, nbytes: int) -> np.ndarray:
    """Packed bit ``qubit`` of every basis index 0 .. 8*nbytes - 1."""
    if qubit < 3:
        return np.full(nbytes, _LOW_PLANES[qubit], dtype=np.uint8)
    plane = np.zeros(nbytes, dtype=np.uint8)
    plane.reshape(-1, 2, 1 << (qubit - 3))[:, 1] = 0xFF
    return plane


def _compile_run(run: tuple[GateOp, ...], state: StateVector):
    """(moves, flips) of a run of X/CX/CCX/MCX gates on ``state``.

    new[dest] = old[src] for ``moves`` = (dest, src), the indices the
    run moves (None if none), then new[flips] is negated. Indices have
    one bit per stored qubit: qubit q is bit q. Every gate in the run is
    a self-inverse basis permutation, so the source of basis index j is
    found by applying the gates to j in reverse order. The gates act on
    packed bit planes, one per touched qubit, 8 basis indices to a byte.
    A qubit at or above ``state.stored`` is not stored and is 0 in
    every index, so its plane starts at zero; if it does not end at
    zero, some basis state would come out of the run with that qubit
    set, and a ValueError names the qubit. The ``minus`` qubit's plane
    also starts at zero; where it ends at one the source is in the
    implied half: those are the flips, None when the run does not touch
    it. A gate past the state's width raises a ValueError too.
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
    delta = None
    for q in touched:
        if q >= stored:
            continue
        moved = planes[q] ^ _initial_plane(q, nbytes)
        if moved.any():
            if delta is None:
                delta = np.zeros(size, dtype=dtype)
            bits = np.unpackbits(moved, count=size, bitorder="little")
            delta ^= np.left_shift(bits, q, dtype=dtype)
    moves = None
    if delta is not None:
        dest = np.flatnonzero(delta).astype(dtype)
        moves = dest, dest ^ delta[dest]
    flips = None
    if minus in touched:
        flips = np.flatnonzero(np.unpackbits(planes[minus], count=size, bitorder="little"))
    return moves, flips


def _butterfly(amplitudes: np.ndarray, kind: str, bit: int, temp: np.ndarray):
    """H or Z on index bit ``bit``, in place, on the (hi, 2, lo) view that splits it.

    H works through the halves a and b in pieces of at most
    ``temp.size`` amplitudes, with ``temp`` as the temporary, so
    each piece is read and written while it is still in cache. A piece
    that spans several rows of the view makes numpy buffer its strided
    operands, which costs 2-3x a piece of one row; ``_layer`` avoids
    that for the low bits of a whole layer, but a lone H on them pays it.
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


def _layer(amplitudes: np.ndarray, bits: range, temp: np.ndarray):
    """H on index bits ``bits`` = 0..m-1, ascending or descending as given, in place.

    The state goes through in blocks of ``temp.size`` amplitudes, and
    each block takes its bits in constant geometry (Pease, J. ACM 15(2),
    1968), ping-ponging between the block and ``temp``. An ascending
    step reads the pairs on the lowest bit at stride 2 and writes their
    sums to the first half and their differences to the second, which
    rotates the block's index bits down by one; a descending step is
    its mirror image, from the two halves to stride 2. So every operand
    is one contiguous or stride-2 row, which numpy never buffers. A
    block that holds more bits than the layer is first (descending) or
    last (ascending) turned by a transposing copy, so the steps come
    back to its own order. Bits above the block go through
    ``_butterfly`` on whole rows: first when descending, last when
    ascending. Each amplitude gets fl(fl(a + b) * s) or fl(fl(a - b) * s)
    in the gates' order, as ``_butterfly`` gives it.
    """
    block = temp.size
    span = block.bit_length() - 1
    low = min(len(bits), span)
    descending = bits.step < 0
    turn = 1 << low
    half = block // 2
    high = [bit for bit in bits if bit >= low]
    if descending:
        for bit in high:
            _butterfly(amplitudes, "h", bit, temp)
    for start in range(0, amplitudes.size, block):
        chunk = amplitudes[start:start + block]
        src, dst = chunk, temp
        if descending and low < span:
            # the layer's bits to the top of the block
            dst.reshape(turn, -1)[...] = src.reshape(-1, turn).T
            src, dst = dst, src
        for _ in range(low):
            if descending:
                a, b = src[:half], src[half:]
                np.add(a, b, out=dst[0::2])
                np.subtract(a, b, out=dst[1::2])
            else:
                a, b = src[0::2], src[1::2]
                np.add(a, b, out=dst[:half])
                np.subtract(a, b, out=dst[half:])
            dst *= _INV_SQRT2
            src, dst = dst, src
        if not descending and low < span:
            # the layer's bits back from the top of the block
            dst.reshape(-1, turn)[...] = src.reshape(turn, -1).T
            src, dst = dst, src
        if src is not chunk:
            chunk[...] = src
    if not descending:
        for bit in high:
            _butterfly(amplitudes, "h", bit, temp)


def _split(ops: list[GateOp], state: StateVector, compiled: dict) -> list:
    """``ops`` as steps: H layers, other H and Z gates, and X/CX/CCX/MCX runs' (moves, flips).

    A group of H and Z gates between two runs is one layer step, the
    range of its bits in gate order, when the whole group is H on qubits
    0..m-1, m >= 2, in ascending or descending order; any other group is
    one step per gate. Checks each H and Z on ``state`` first; compiles
    each run not yet in ``compiled``, keyed by its gates' ids, since the
    circuit holds them for the whole call.
    """
    width = state.width
    steps = []
    for permutes, group in groupby(ops, key=lambda op: op.kind in _PERMUTATION_KINDS):
        if permutes:
            run = tuple(group)
            key = tuple(map(id, run))
            pair = compiled.get(key)
            if pair is None:
                pair = compiled[key] = _compile_run(run, state)
            steps.append(pair)
            continue
        group = list(group)
        for op in group:
            if op.target >= width:
                raise ValueError(f"gate {op.kind} touches qubit {op.target}, state width {width}")
            if op.target >= state.stored:
                raise ValueError(
                    f"qubit {op.target} carries an H or Z gate, but the state does not store it"
                )
        bits = range(len(group))
        if group[0].target:  # a descending layer starts at its top qubit
            bits = bits[::-1]
        if len(group) >= 2 and [op.target for op in group if op.kind == "h"] == list(bits):
            steps.append(bits)
        else:
            steps.extend(group)
    return steps


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate in place and return the state."""
    return run_circuit(state, Circuit(state.width, [gate]))


def run_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the circuit's ops in order, in place, and return the state.

    Qubit q is index bit q throughout. Each maximal run of X/CX/CCX/MCX
    gates, also one across the seam after the prologue or between copies
    of the block, is applied in place: the amplitudes it moves are copied
    to their new indices, then those it brought over from the ``minus``
    qubit's implied half are negated as 0 - a. Runs with the same gates
    are compiled once per call, all before the first gate is applied,
    and each step holds its run's moves and flips, so applying the steps
    looks nothing up. A group of H and Z gates between runs that is
    exactly H on qubits 0..m-1, m >= 2, in ascending or descending order
    is one ``_layer`` step; every other group is applied gate by gate by
    ``_butterfly``. Both share one temporary of min(BUTTERFLY_CHUNK,
    state size) amplitudes.

    Raises ValueError, leaving the state as it was, for a width
    mismatch, a gate past the width, an H or Z on a qubit the state
    does not store (the ``minus`` qubit included), a run that would
    leave such a qubit set, or a ``minus`` qubit used as a control.
    """
    width = state.width
    if circuit.width != width:
        raise ValueError(f"circuit width {circuit.width} != state width {width}")
    # Each copy of the block is walked from its first H or Z, so a run across
    # a seam stays one run, as in the flat op list. A block with no H or Z
    # makes one run of every op after the prologue's last H or Z.
    cut = next((i for i, op in enumerate(circuit.block)
                if op.kind not in _PERMUTATION_KINDS), None)
    parts = [(circuit.ops, 1)]
    if cut is not None:
        head, tail = circuit.block[:cut], circuit.block[cut:]
        parts = [(circuit.prologue + head, 1), (tail + head, circuit.copies - 1), (tail, 1)]
    compiled: dict[tuple[int, ...], tuple] = {}
    schedule = [(_split(part, state, compiled), times) for part, times in parts if times]

    amplitudes = state.amplitudes
    # a layer's block, and a butterfly's piece of each half, at most the state
    temp = np.empty(min(BUTTERFLY_CHUNK, amplitudes.size), dtype=amplitudes.dtype)
    steps = (step for segment, times in schedule for _ in range(times) for step in segment)
    for step in steps:
        if isinstance(step, GateOp):
            _butterfly(amplitudes, step.kind, step.target, temp)
            continue
        if isinstance(step, range):
            _layer(amplitudes, step, temp)
            continue
        moves, flips = step
        if moves is not None:
            dest, src = moves
            amplitudes[dest] = amplitudes[src]
        if flips is not None:
            amplitudes[flips] = 0.0 - amplitudes[flips]
    return state


def marginal_probabilities(state: StateVector, qubits) -> np.ndarray:
    """Marginal over the low stored qubits ``0..m-1`` as a length-2^m array.

    ``qubits`` must be exactly ``0, 1, ..., m-1`` in that order, with
    1 <= m <= ``state.stored``; anything else raises a ValueError that
    names it. Bit k of the returned array's index is qubit k. With m
    equal to ``stored`` it is a^2 of the stored amplitudes itself;
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
    probs = state.amplitudes * state.amplitudes
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


def _cell_counts(scaled: np.ndarray, spare: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per value v, the scaled draws s with floor(v) <= s < v.

    One pass over the draws: each one's bucket floor(s / 2^16), written
    as intp into the bytes of ``spare`` (the keys' uint32 buffer, so
    half as many draws at a time), is looked up in a table of the
    buckets that hold some floor(v); only the draws it marks are sorted
    and searched. A marked draw outside [floor(v), v) counts for no v.
    """
    floors = np.floor(values)
    table = np.zeros(1 << 16, dtype=bool)
    table[(floors * 2.0**-16).astype(np.intp)] = True
    buckets = spare.view(np.intp)
    marked = []
    for lo in range(0, scaled.size, buckets.size):
        piece = scaled[lo:lo + buckets.size]
        np.multiply(piece, 2.0**-16, out=buckets[:piece.size], casting="unsafe")
        marked.append(piece[table.take(buckets[:piece.size])])
    near = np.sort(np.concatenate(marked))
    return np.searchsorted(near, values) - np.searchsorted(near, floors)


def _add_granule(counts: np.ndarray, cells: np.ndarray, cdf: np.ndarray,
                 scaled: np.ndarray, sorted_keys: np.ndarray, key_buffer: np.ndarray):
    """Add a granule's draws to ``counts``, per outcome; see sample_counts.

    The shorter sorted list is looked up in the longer: each cell among
    the keys when the granule holds at least as many keys as cells, else
    each key among the cells. A tied cell, one that equals some key, adds
    the draws below its cumulative value at it and takes them off the
    next outcome.
    """
    top = cells.size
    if sorted_keys.size >= top:
        found = np.searchsorted(sorted_keys, cells)  # keys below each cell
        counts[:top] += found
        counts[1:top + 1] -= found
        counts[top] += sorted_keys.size
        tied = np.flatnonzero(sorted_keys.take(found, mode="clip") == cells)
    else:
        at = np.searchsorted(cells, sorted_keys, side="right")  # cells at or below each key
        np.add.at(counts, at, 1)
        at -= 1  # in place: the last cell at or below each key, -1 for none
        hits = at[cells.take(at, mode="clip") == sorted_keys]
        # sorted as the keys are, so the first of each run; np.unique's
        # first call in a process adds 1.7 MiB of RSS
        last = hits[np.diff(hits, prepend=-1) > 0]
        # repeated cells (zero entries) are each tied, from the first equal one on
        starts = np.searchsorted(cells, cells.take(last))
        tied = np.concatenate([last[:0], *map(np.arange, starts, last + 1)])
    if tied.size:
        settled = _cell_counts(scaled, key_buffer, cdf[tied] * _KEYS)
        counts[tied] += settled
        counts[tied + 1] -= settled


def sample_counts(marginal: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Shot counts per outcome index, drawn from ``marginal``.

    Inverse-CDF sampling: the outcome of a PCG64(seed) uniform u is the
    number of cumulative-marginal entries <= u, clamped to the last
    outcome, so outcome k gets the draws in [cdf[k-1], cdf[k]). The
    uniforms are drawn a granule at a time, scaled by 2^32, and their
    32-bit keys floor(u * 2^32) sorted; with two or more granules, the
    calling thread does this for the first half of the shots and one
    executor thread for the second, each from its own PCG64(seed)
    advanced to its half, so the halves are the stream of one draw of
    ``shots``, as the module docstring describes. A key below the cell
    floor(c * 2^32) of a cumulative value c < 1 is a draw below c, a key
    above it a draw above c; where a key equals the cell, the draws in
    it with u * 2^32 < c * 2^32 are counted (``_cell_counts``). Both
    products are exact, so every count is that of u < c; a c >= 1 takes
    every draw. Deterministic for a given seed.

    Raises a ValueError naming the first NaN, infinite or negative
    entry, whose cell would be undefined, before anything is drawn; so
    does a marginal whose sum overflows a float.
    """
    check_sampling(shots, seed)
    cdf = np.cumsum(marginal)
    if not (marginal.min() >= 0.0 and cdf[-1] < np.inf):
        # NaN, negative or infinite, or the entry that takes the sum past the float range
        first = int(np.argmin((marginal >= 0.0) & (cdf < np.inf)))
        raise ValueError(
            f"marginal entry {first} is {marginal[first]}; sampling needs entries >= 0 "
            f"with a finite sum"
        )
    # the cdf does not decrease, so it is >= 1 from ``top`` on
    top = int(np.searchsorted(cdf, 1.0))
    cells = np.empty(top, dtype=np.uint32)
    np.multiply(cdf[:top], _KEYS, out=cells, casting="unsafe")
    # one slot past the last outcome, for the draws above every cell when
    # all of them are below 1; written rather than calloc'd: adding into
    # untouched zero pages faults each one twice
    counts = np.full(len(marginal) + 1, 0, dtype=np.int64)
    # halved only where half a chunk of keys is no fewer than the cells, so
    # the two lanes' granules hold one chunk's buffers; a whole chunk lets
    # the cheaper cell direction serve up to 2^18 cells, N=127's input width
    granule = SAMPLE_CHUNK // 2 if top <= SAMPLE_CHUNK // 2 else SAMPLE_CHUNK

    def lane_buffers(draws: int) -> tuple[np.ndarray, np.ndarray]:
        """A float64 and a uint32 buffer for granules of a lane of ``draws``;
        tie resolution reuses the keys' buffer as intp, so its length is even."""
        size = min(granule, draws)
        return np.empty(size), np.empty(size + size % 2, dtype=np.uint32)

    def draw(rng, buffers, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``size`` draws of ``rng``: scaled, their keys sorted, and the key buffer."""
        draws, key_buffer = buffers
        scaled = draws[:size]
        rng.random(out=scaled)
        scaled *= _KEYS
        keys = key_buffer[:size]
        np.copyto(keys, scaled, casting="unsafe")
        keys.sort()
        return scaled, keys, key_buffer

    if shots <= granule:
        rng = np.random.Generator(np.random.PCG64(seed))
        _add_granule(counts, cells, cdf, *draw(rng, lane_buffers(shots), shots))
    else:
        # imported here, so a process that draws one granule at a time never loads the executor
        import threading
        from concurrent.futures import ThreadPoolExecutor

        half = (shots + 1) // 2
        adding, failed = threading.Lock(), threading.Event()

        def lane(start: int, stop: int, buffers) -> None:
            """Add draws [start, stop) of the stream to ``counts``, a granule at a time."""
            try:
                bit_generator = np.random.PCG64(seed)
                bit_generator.advance(start)  # not jumped(), which is another stream
                rng = np.random.Generator(bit_generator)
                for lo in range(start, stop, granule):
                    if failed.is_set():
                        return
                    granule_now = draw(rng, buffers, min(granule, stop - lo))
                    # one lookup in flight; the counts are integer sums, so
                    # the lanes may add their granules in any order
                    with adding:
                        _add_granule(counts, cells, cdf, *granule_now)
            except BaseException:
                failed.set()  # stops the other lane before its next granule
                raise

        # leaving the block joins the helper, also on a raise
        with ThreadPoolExecutor(1, thread_name_prefix="qobf-sample-lane") as helper:
            second = helper.submit(lane, half, shots, lane_buffers(shots - half))
            lane(0, half, lane_buffers(half))
            second.result()  # raises what the helper's lane raised
    counts[-2] += counts[-1]  # the last outcome takes the tail
    return counts[:-1]


def sample(state: StateVector, qubits, shots: int, seed: int) -> Histogram:
    """Draw ``shots`` outcomes from the marginal over ``qubits``; see sample_counts.

    The histogram holds each outcome drawn at least once, keyed by its
    index as a Python int, whose bit k is ``qubits[k]``.
    """
    qubits = list(qubits)
    counts = sample_counts(marginal_probabilities(state, qubits), shots, seed)
    outcomes = np.flatnonzero(counts)
    return Histogram(len(qubits), dict(zip(outcomes.tolist(), counts[outcomes].tolist())), shots)

