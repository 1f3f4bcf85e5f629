"""Gate-level circuit representation and metrics.

The gate set is exactly what the obfuscation pipeline needs: H, X, Z,
CX, CCX and MCX (3+ controls). Every gate in the set is self-inverse,
so inverting a circuit is reversing its op list. The gate
constructors and ``parse`` take every gate from one bounded table,
``_gate``: one instance per distinct gate, carrying its text line.

Circuits are treated as immutable once built; builders hand over whole
op lists, everyone else reads. A circuit is a ``prologue`` then
``copies`` of one ``block`` (a Grover circuit is a prologue plus R
identical rounds; a flat one is all prologue), and ``ops``, the flat
op list, is built on each read. Counts, MCX expansion and
serialization do the per-op work on the prologue and one block only,
and depth walks copies of the block only until one copy lifts every
qubit it touches by the same amount. The textual format
(serialize/parse) is line oriented: a ``width`` header, optional
``label <name> <i...>`` lines, then one lowercase op per line with
controls listed before the target. ``#`` starts a comment.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .errors import CircuitParseError

GATE_KINDS = ("h", "x", "z", "cx", "ccx", "mcx")

# controls required per kind; mcx is checked as >= 3
_ARITY = {"h": 0, "x": 0, "z": 0, "cx": 1, "ccx": 2}

# distinct gates the gate table keeps, across all kinds; one build at
# register width n makes about 6n CX and 6n CCX
GATE_CACHE = 4096


@dataclass(frozen=True)
class GateOp:
    """One gate application. Controls are kept sorted (canonical form).

    The touched indices (controls then target), the highest of them and
    the gate's text line are plain attributes, not fields, so equality,
    hash and repr see only the three fields. ``_gate`` shares one
    instance per distinct gate: a gate is frozen and compares by value.
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
            raise ValueError(f"{self.kind} takes {want} controls, got {len(self.controls)}")
        if self.kind == "mcx" and len(self.controls) < 3:
            raise ValueError("mcx needs at least 3 controls; use cx/ccx below that")
        indices = self.controls + (self.target,)
        object.__setattr__(self, "_qubits", indices)
        object.__setattr__(self, "_top", max(indices))
        if len(set(indices)) != len(indices):
            raise ValueError(f"gate indices must be distinct: {indices}")
        if any(q < 0 for q in indices):
            raise ValueError(f"gate indices must be non-negative: {indices}")
        object.__setattr__(self, "_line", " ".join([self.kind, *map(str, indices)]) + "\n")

    def qubits(self) -> tuple[int, ...]:
        """All indices the gate touches, controls first."""
        return self._qubits


@lru_cache(maxsize=GATE_CACHE)
def _gate(kind: str, controls: tuple[int, ...], target: int) -> GateOp:
    """The gate table: one shared instance per distinct (kind, controls, target)."""
    return GateOp(kind, controls, target)


def h(target: int) -> GateOp:
    return _gate("h", (), target)


def x(target: int) -> GateOp:
    return _gate("x", (), target)


def z(target: int) -> GateOp:
    return _gate("z", (), target)


def cx(control: int, target: int) -> GateOp:
    return _gate("cx", (control,), target)


def ccx(control_a: int, control_b: int, target: int) -> GateOp:
    return _gate("ccx", (control_a, control_b), target)


def mcx(controls, target: int) -> GateOp:
    """Multi-controlled X. One or two controls normalize to cx/ccx."""
    controls = tuple(controls)
    if not controls:
        raise ValueError("mcx needs at least one control")
    kind = "cx" if len(controls) == 1 else "ccx" if len(controls) == 2 else "mcx"
    return _gate(kind, controls, target)


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
        if ops and max(map(attrgetter("_top"), ops)) >= self.width:
            for op in ops:  # only to name the first offending gate
                _check_gate(op, self.width)
        self.labels = {name: tuple(idx) for name, idx in self.labels.items()}
        _check_labels(self.labels, self.width, set())

    @property
    def ops(self) -> list[GateOp]:
        """The flat op list, a new list on each read."""
        return self.prologue + self.block * self.copies

    def append(self, op: GateOp):
        _check_gate(op, self.width)
        if self.copies:
            self.prologue, self.block, self.copies = self.ops, [], 0
        self.prologue.append(op)

    def __len__(self):
        return len(self.prologue) + len(self.block) * self.copies

    def __eq__(self, other):
        return (isinstance(other, Circuit) and self.width == other.width
                and self.labels == other.labels and self.ops == other.ops)


def _check_gate(op: GateOp, width: int):
    if op._top >= width:
        raise ValueError(f"gate {op.kind} touches qubit {op._top}, circuit width {width}")


def _check_labels(labels: dict[str, tuple[int, ...]], width: int, labelled: set[int]):
    """Check labels against ``width`` and the qubits already ``labelled``; add theirs."""
    for name, indices in labels.items():
        for q in indices:
            if not 0 <= q < width:
                raise ValueError(f"label {name!r} index {q} out of range")
            if q in labelled:
                raise ValueError(f"label {name!r} overlaps another label at {q}")
            labelled.add(q)


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the op list (flat). Valid because the whole gate set is self-inverse."""
    return Circuit(circuit.width, list(reversed(circuit.ops)), dict(circuit.labels))


def _layer(level: list[int], ops: list[GateOp]):
    """Place ``ops`` greedily on top of the per-qubit ``level`` list, in place.

    Gates on one, two or three qubits are placed inline, comparing
    levels without a call to ``max``; only MCX takes the generic loop.
    """
    for op in ops:
        qs = op._qubits
        arity = len(qs)
        if arity == 1:
            level[qs[0]] += 1
        elif arity == 2:
            a, b = qs
            la, lb = level[a], level[b]
            level[a] = level[b] = (la if la > lb else lb) + 1
        elif arity == 3:
            a, b, c = qs
            la, lb, lc = level[a], level[b], level[c]
            if lb > la:
                la = lb
            level[a] = level[b] = level[c] = (la if la > lc else lc) + 1
        else:
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
    too: the walk adds the remaining copies' rise at once and stops. A
    copy lifts each qubit it touches by at least 1 and every other qubit
    by 0, so the touched qubits' rises are the nonzero ones.
    """
    level = [0] * circuit.width
    _layer(level, circuit.prologue)
    for done in range(1, circuit.copies + 1):
        before = level[:]
        _layer(level, circuit.block)
        rises = [now - then for now, then in zip(level, before)]
        if len(set(rises) - {0}) <= 1:  # uniform, or an empty block: so is every later copy
            left = circuit.copies - done
            level = [now + left * rise for now, rise in zip(level, rises)]
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


def serialize(circuit: Circuit) -> str:
    """Render the textual format. Little-endian indices, ASCII, \\n endings.

    The block's text is rendered once and repeated by reference, so the
    whole text is laid out only once.
    """
    lines = [f"width {circuit.width}\n"]
    for name, indices in circuit.labels.items():
        lines.append("label " + name + " " + " ".join(str(q) for q in indices) + "\n")
    lines.extend(op._line for op in circuit.prologue)
    lines += ["".join(op._line for op in circuit.block)] * circuit.copies
    return "".join(lines)


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError("expected an integer", line_number, token) from None


# one line of text and the break that ends it, with str.splitlines' set of
# breaks; the break is whitespace, so it never reaches a token
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = re.compile(f"[^{_BREAKS}]*(?:\r\n|[{_BREAKS}])|[^{_BREAKS}]+")


def parse(text: str) -> Circuit:
    """Inverse of serialize: parse(serialize(c)) == c structurally.

    Gates come from ``_gate``. Errors name the line and token at fault;
    lines are numbered as ``text.splitlines()`` numbers them, but read
    one at a time, so the text is never held as a list of lines.
    """
    width = None
    ops: list[GateOp] = []
    labels: dict[str, tuple[int, ...]] = {}
    labelled: set[int] = set()
    for line_number, line in enumerate(_LINE.finditer(text), start=1):
        tokens = line[0].split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "width":
            if width is not None:
                raise CircuitParseError("duplicate width header", line_number, head)
            if len(rest) != 1:
                raise CircuitParseError("width takes one integer", line_number, head)
            width = _parse_int(rest[0], line_number)
            if width < 1:
                raise CircuitParseError("circuit width must be >= 1", line_number, rest[0])
            continue
        if width is None:
            raise CircuitParseError("width header must come first", line_number, head)
        if head == "label":
            if len(rest) < 2:
                raise CircuitParseError("label needs a name and indices", line_number, head)
            name = rest[0]
            if name in labels:
                raise CircuitParseError("duplicate label", line_number, name)
            indices = tuple(_parse_int(t, line_number) for t in rest[1:])
            try:
                _check_labels({name: indices}, width, labelled)
            except ValueError as exc:
                raise CircuitParseError(str(exc), line_number, name) from None
            labels[name] = indices
            continue
        if head not in GATE_KINDS:
            raise CircuitParseError("unknown op", line_number, head)
        indices = [_parse_int(t, line_number) for t in rest]
        if not indices:
            raise CircuitParseError("op needs a target index", line_number, head)
        try:
            op = _gate(head, tuple(indices[:-1]), indices[-1])
            _check_gate(op, width)
        except ValueError as exc:
            raise CircuitParseError(str(exc), line_number, head) from None
        ops.append(op)
    if width is None:
        raise CircuitParseError("missing width header", 1)
    return Circuit(width, ops, labels)
