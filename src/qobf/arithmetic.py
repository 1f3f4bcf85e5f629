"""Reversible ripple-carry adder circuits built from MAJ/UMA columns.

One adder column is the standard majority / unmajority-and-sum pair:

    maj(c, b, a):  [cx(a,b), cx(a,c), ccx(c,b,a)]
    uma(c, b, a):  [ccx(c,b,a), cx(a,c), cx(c,b)]

After maj, qubit a carries the majority (the next carry), b holds a^b
and c holds a^c; uma undoes the carry and leaves the sum bit on b. A
chain of maj columns threaded through a single |0> ancilla, a CX tap of
the final carry, and the mirrored uma chain give the "half" adder
variant: no carry-in, explicit carry-out, ancilla returned to |0>.

The triple sum s = x + y + z cascades two half adders on a 3n+4 wide
register file: the first adds x into y (carry on cout0), the second
adds that (n+1)-bit partial sum into z extended by the first adder's
freed ancilla (carry on cout1, its own fresh ancilla). The n+2 sum bits
end up on z ++ [shared_ancilla, cout1]; x is untouched; y and cout0
hold the partial sum, which the inverse circuit removes again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, GateOp, ccx, cx


@dataclass(frozen=True)
class AdderLayout:
    """Qubit bookkeeping for one half adder: |a>|b>|0> -> |a>|(a+b) mod 2^n>|msb>."""

    a_qubits: tuple[int, ...]
    b_qubits: tuple[int, ...]
    ancilla: int
    carry_out: int

    def __post_init__(self):
        object.__setattr__(self, "a_qubits", tuple(self.a_qubits))
        object.__setattr__(self, "b_qubits", tuple(self.b_qubits))
        if len(self.a_qubits) != len(self.b_qubits):
            raise ValueError("operand registers must have equal length")
        if not self.a_qubits:
            raise ValueError("operand registers must be non-empty")
        everything = self.a_qubits + self.b_qubits + (self.ancilla, self.carry_out)
        if len(set(everything)) != len(everything):
            raise ValueError(f"adder layout indices collide: {everything}")


@dataclass(frozen=True)
class SumLayout:
    """Qubit bookkeeping for the cascaded triple sum (3n+4 distinct indices).

    ``sum_qubits`` is the little-endian n+2 bit result register:
    z_qubits ++ [shared_ancilla, cout1].
    """

    x_qubits: tuple[int, ...]
    y_qubits: tuple[int, ...]
    z_qubits: tuple[int, ...]
    cout0: int
    shared_ancilla: int
    cout1: int
    adder2_ancilla: int

    def __post_init__(self):
        for name in ("x_qubits", "y_qubits", "z_qubits"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.x_qubits)
        if n < 1 or len(self.y_qubits) != n or len(self.z_qubits) != n:
            raise ValueError("x, y, z registers must have equal non-zero length")
        everything = (
            self.x_qubits + self.y_qubits + self.z_qubits
            + (self.cout0, self.shared_ancilla, self.cout1, self.adder2_ancilla)
        )
        if len(set(everything)) != 3 * n + 4:
            raise ValueError(f"sum layout indices collide: {everything}")

    @property
    def sum_qubits(self) -> tuple[int, ...]:
        return self.z_qubits + (self.shared_ancilla, self.cout1)


def maj(c: int, b: int, a: int) -> list[GateOp]:
    """Majority column: leaves the carry on a, a^b on b, a^c on c."""
    return [cx(a, b), cx(a, c), ccx(c, b, a)]


def uma(c: int, b: int, a: int) -> list[GateOp]:
    """Unmajority-and-sum column: restores a and c, leaves the sum bit on b."""
    return [ccx(c, b, a), cx(a, c), cx(c, b)]


def build_half_adder(layout: AdderLayout, width: int | None = None) -> Circuit:
    """Ripple-carry adder |a>|b>|0_anc>|cout> -> |a>|(a+b) mod 2^n>|0_anc>|cout ^ msb(a+b)>.

    n is the layout's operand length. The maj chain runs
    least-significant first with the ancilla as the initial carry, one
    CX copies the final carry onto carry_out, and the mirrored uma chain
    restores a and the ancilla while writing the sum onto b.
    """
    if width is None:
        width = max(layout.a_qubits + layout.b_qubits + (layout.ancilla, layout.carry_out)) + 1
    columns = list(zip((layout.ancilla,) + layout.a_qubits[:-1], layout.b_qubits,
                       layout.a_qubits))
    ops = [op for column in columns for op in maj(*column)]
    ops.append(cx(layout.a_qubits[-1], layout.carry_out))
    ops += [op for column in reversed(columns) for op in uma(*column)]
    return Circuit(width, ops)


def triple_sum_layout(n: int) -> SumLayout:
    """Contiguous layout: x, y, z registers then cout0, shared ancilla, cout1, second ancilla."""
    return SumLayout(
        x_qubits=tuple(range(0, n)),
        y_qubits=tuple(range(n, 2 * n)),
        z_qubits=tuple(range(2 * n, 3 * n)),
        cout0=3 * n,
        shared_ancilla=3 * n + 1,
        cout1=3 * n + 2,
        adder2_ancilla=3 * n + 3,
    )


def build_triple_sum(n: int, width: int | None = None) -> tuple[Circuit, SumLayout]:
    """Cascaded two-adder circuit computing x+y+z on the n+2 bit sum register.

    Adder 1 adds x into y (carry cout0, ancilla shared_ancilla, returned
    to |0>). Adder 2 then adds the partial sum y ++ [cout0] into z
    extended by the freed shared_ancilla, with carry cout1 and its own
    ancilla. Width defaults to the 3n+4 the layout needs.
    """
    if n < 1:
        raise ValueError(f"register width must be >= 1, got {n}")
    layout = triple_sum_layout(n)
    if width is None:
        width = 3 * n + 4
    adder1 = build_half_adder(
        AdderLayout(layout.x_qubits, layout.y_qubits, layout.shared_ancilla, layout.cout0),
        width=width,
    )
    adder2 = build_half_adder(
        AdderLayout(
            layout.y_qubits + (layout.cout0,),
            layout.z_qubits + (layout.shared_ancilla,),
            layout.adder2_ancilla,
            layout.cout1,
        ),
        width=width,
    )
    return Circuit(width, adder1.ops + adder2.ops), layout


def cuccaro_reference_counts(n: int) -> dict[str, int]:
    """Textbook gate complexity for an n-bit ripple-carry adder, for comparison only.

    Our half adder measures 2n CCX and 4n+1 CX; the commonly cited
    optimized figures are 2n-1 Toffoli and 5n-3 CNOT. Reported side by
    side by the CLI, never asserted.
    """
    return {"ccx": 2 * n - 1, "cx": 5 * n - 3}
