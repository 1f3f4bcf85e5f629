"""Gate-level circuit representation and metrics.

The gate set is exactly what the obfuscation pipeline needs: H, X, Z,
CX, CCX and MCX (3+ controls). Every gate in the set is self-inverse,
so inverting a circuit is reversing its op list.

Circuits are treated as immutable once built; builders hand over whole
op lists, everyone else reads. A circuit is a ``prologue`` then
``copies`` of one ``block`` (a Grover circuit is a prologue plus R
identical rounds; a flat one is all prologue), and ``ops``, the flat
op list, is built on each read. Counts, MCX expansion and serialization do the per-op work
on the prologue and one block only, and depth walks copies of the
block only until one copy lifts every qubit it touches by the same
amount. The textual format
(serialize/parse) is line oriented:
a ``width`` header, optional ``label <name> <i...>`` lines, then one
lowercase op per line with controls listed before the target. ``#``
starts a comment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import CircuitParseError

GATE_KINDS = ("h", "x", "z", "cx", "ccx", "mcx")

# controls required per kind; mcx is checked as >= 3
_ARITY = {"h": 0, "x": 0, "z": 0, "cx": 1, "ccx": 2}


@dataclass(frozen=True)
class GateOp:
    """One gate application. Controls are kept sorted (canonical form).

    The touched indices, controls then target, are stored once as a
    plain attribute (not a field), so equality, hash and repr see only
    the three fields.
    """

    kind: str
    controls: tuple[int, ...]
    target: int

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "controls", tuple(sorted(self.controls)))
        want = _ARITY.get(self.kind)
        if want is not None and len(self.controls) != want:
            raise ValueError(
                f"{self.kind} takes {want} controls, got {len(self.controls)}"
            )
        if self.kind == "mcx" and len(self.controls) < 3:
            raise ValueError("mcx needs at least 3 controls; use cx/ccx below that")
        indices = self.controls + (self.target,)
        object.__setattr__(self, "_qubits", indices)
        if len(set(indices)) != len(indices):
            raise ValueError(f"gate indices must be distinct: {indices}")
        if any(q < 0 for q in indices):
            raise ValueError(f"gate indices must be non-negative: {indices}")

    def qubits(self) -> tuple[int, ...]:
        """All indices the gate touches, controls first."""
        return self._qubits


def h(target: int) -> GateOp:
    return GateOp("h", (), target)


def x(target: int) -> GateOp:
    return GateOp("x", (), target)


def z(target: int) -> GateOp:
    return GateOp("z", (), target)


def cx(control: int, target: int) -> GateOp:
    return GateOp("cx", (control,), target)


def ccx(control_a: int, control_b: int, target: int) -> GateOp:
    return GateOp("ccx", (control_a, control_b), target)


def mcx(controls, target: int) -> GateOp:
    """Multi-controlled X. One or two controls normalize to cx/ccx."""
    controls = tuple(controls)
    if len(controls) == 0:
        raise ValueError("mcx needs at least one control")
    if len(controls) == 1:
        return cx(controls[0], target)
    if len(controls) == 2:
        return ccx(controls[0], controls[1], target)
    return GateOp("mcx", controls, target)


@dataclass(eq=False)
class Circuit:
    """``prologue`` then ``copies`` of ``block`` over ``width`` qubits, with register labels.

    Equality compares the width, the labels and the flat op list, so a
    flat circuit equals a repeated one with the same ops. Appending to a
    repeated circuit makes it flat first.
    """

    width: int
    prologue: list[GateOp] = field(default_factory=list)
    labels: dict[str, tuple[int, ...]] = field(default_factory=dict)
    block: list[GateOp] = field(default_factory=list)
    copies: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"circuit width must be >= 1, got {self.width}")
        if self.copies < 0:
            raise ValueError(f"copies must be >= 0, got {self.copies}")
        if not self.copies:
            self.block = []  # no op of a block run zero times is in the circuit
        ops = self.prologue + self.block
        if ops and max(map(max, map(GateOp.qubits, ops))) >= self.width:
            for op in ops:  # only to name the first offending gate
                self._check_op(op)
        self.labels = {name: tuple(idx) for name, idx in self.labels.items()}
        self._check_labels()

    def _check_op(self, op: GateOp):
        highest = max(op.qubits())
        if highest >= self.width:
            raise ValueError(
                f"gate {op.kind} touches qubit {highest}, circuit width {self.width}"
            )

    def _check_labels(self):
        seen: set[int] = set()
        for name, indices in self.labels.items():
            for q in indices:
                if not 0 <= q < self.width:
                    raise ValueError(f"label {name!r} index {q} out of range")
                if q in seen:
                    raise ValueError(f"label {name!r} overlaps another label at {q}")
                seen.add(q)

    @property
    def ops(self) -> list[GateOp]:
        """The flat op list, a new list on each read."""
        return self.prologue + self.block * self.copies

    def append(self, op: GateOp):
        self._check_op(op)
        if self.copies:
            self.prologue, self.block, self.copies = self.ops, [], 0
        self.prologue.append(op)

    def extend(self, ops):
        for op in ops:
            self.append(op)

    def __len__(self):
        return len(self.prologue) + len(self.block) * self.copies

    def __eq__(self, other):
        return (isinstance(other, Circuit) and self.width == other.width
                and self.labels == other.labels and self.ops == other.ops)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """New flat circuit running ``a`` then ``b``. Widths must match.

    Labels come from ``a``; if ``a`` has none, ``b``'s are used.
    """
    if a.width != b.width:
        raise ValueError(f"compose width mismatch: {a.width} != {b.width}")
    labels = a.labels if a.labels else b.labels
    return Circuit(a.width, a.ops + b.ops, dict(labels))


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the op list (flat). Valid because the whole gate set is self-inverse."""
    return Circuit(circuit.width, list(reversed(circuit.ops)), dict(circuit.labels))


def _layer(level: list[int], ops: list[GateOp]):
    """Place ``ops`` greedily on top of the per-qubit ``level`` list, in place."""
    for op in ops:
        qs = op.qubits()
        layer = 1 + max(map(level.__getitem__, qs))
        for q in qs:
            level[q] = layer


def depth(circuit: Circuit) -> int:
    """Layer count under greedy as-soon-as-possible scheduling.

    Two gates conflict iff they share a qubit index; a gate lands on the
    layer after the deepest layer among its qubits. The prologue and then
    the block are walked gate by gate, one copy at a time. A block maps
    the levels of the qubits it touches max-plus linearly, and adding a
    constant to every level commutes with that map, so once one copy
    lifts every touched qubit by the same amount, every later copy does
    too: the walk adds the remaining copies' rise at once and stops.
    """
    level = [0] * circuit.width
    _layer(level, circuit.prologue)
    touched = list({q for op in circuit.block for q in op.qubits()})
    for done in range(1, circuit.copies + 1):
        before = [level[q] for q in touched]
        _layer(level, circuit.block)
        rises = [level[q] - b for q, b in zip(touched, before)]
        if len(set(rises)) <= 1:  # uniform, or an empty block: so is every later copy
            for q, rise in zip(touched, rises):
                level[q] += (circuit.copies - done) * rise
            break
    return max(level)


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Per-kind op counts plus a ``total`` entry."""
    counts = Counter(op.kind for op in circuit.prologue)
    for kind, count in Counter(op.kind for op in circuit.block).items():
        counts[kind] += circuit.copies * count
    result = {kind: counts.get(kind, 0) for kind in GATE_KINDS}
    result["total"] = len(circuit)
    return result


def _vchain(controls: tuple[int, ...], target: int, ancillas: list[int]) -> list[GateOp]:
    """Replace an MCX by 2k-3 CCX gates using k-2 clean ancillas.

    The forward chain folds controls into the ancillas, the middle CCX
    hits the target, and the mirrored chain restores every ancilla to 0.
    """
    k = len(controls)
    forward = [ccx(controls[0], controls[1], ancillas[0])]
    for i in range(1, k - 2):
        forward.append(ccx(controls[i + 1], ancillas[i - 1], ancillas[i]))
    middle = ccx(controls[k - 1], ancillas[k - 3], target)
    return forward + [middle] + list(reversed(forward))


def decompose_mcx(circuit: Circuit) -> Circuit:
    """Rewrite every MCX into CCX gates via the clean-ancilla V-chain.

    The chains use fresh qubits past the current width (one pool, sized
    for the widest MCX), which each chain restores to |0>. Emitted
    circuits use only {H, X, Z, CX, CCX}. The prologue and one block
    are expanded, with one chain per distinct MCX.
    """
    widest = max((len(op.controls) for op in circuit.prologue + circuit.block
                  if op.kind == "mcx"), default=0)
    pool = list(range(circuit.width, circuit.width + max(widest - 2, 0)))
    chains: dict[GateOp, list[GateOp]] = {}

    def expand(ops: list[GateOp]) -> list[GateOp]:
        out = []
        for op in ops:
            if op.kind != "mcx":
                out.append(op)
                continue
            if op not in chains:
                chains[op] = _vchain(op.controls, op.target, pool)
            out.extend(chains[op])
        return out

    return Circuit(circuit.width + len(pool), expand(circuit.prologue),
                   dict(circuit.labels), expand(circuit.block), circuit.copies)


def _op_line(op: GateOp) -> str:
    return " ".join([op.kind, *map(str, op.qubits())]) + "\n"


def serialize(circuit: Circuit) -> str:
    """Render the textual format. Little-endian indices, ASCII, \\n endings.

    The block's text is rendered once and repeated by reference, so the
    whole text is laid out only once.
    """
    lines = [f"width {circuit.width}\n"]
    for name, indices in circuit.labels.items():
        lines.append("label " + name + " " + " ".join(str(q) for q in indices) + "\n")
    lines.extend(map(_op_line, circuit.prologue))
    lines += ["".join(map(_op_line, circuit.block))] * circuit.copies
    return "".join(lines)


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError("expected an integer", line_number, token) from None


def parse(text: str) -> Circuit:
    """Inverse of serialize: parse(serialize(c)) == c structurally."""
    width = None
    ops: list[GateOp] = []
    labels: dict[str, tuple[int, ...]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "width":
            if width is not None:
                raise CircuitParseError("duplicate width header", line_number)
            if len(rest) != 1:
                raise CircuitParseError("width takes one integer", line_number)
            width = _parse_int(rest[0], line_number)
            continue
        if width is None:
            raise CircuitParseError("width header must come first", line_number, head)
        if head == "label":
            if len(rest) < 2:
                raise CircuitParseError("label needs a name and indices", line_number)
            labels[rest[0]] = tuple(_parse_int(t, line_number) for t in rest[1:])
            continue
        if head not in GATE_KINDS:
            raise CircuitParseError("unknown op", line_number, head)
        indices = [_parse_int(t, line_number) for t in rest]
        if not indices:
            raise CircuitParseError("op needs a target index", line_number, head)
        try:
            op = GateOp(head, tuple(indices[:-1]), indices[-1])
        except ValueError as exc:
            raise CircuitParseError(str(exc), line_number, head) from None
        ops.append(op)
    if width is None:
        raise CircuitParseError("missing width header", 1)
    try:
        return Circuit(width, ops, labels)
    except ValueError as exc:
        raise CircuitParseError(str(exc), 1) from None
