"""Reference states and overlaps that only the tests use."""

import numpy as np

from qobf.errors import ConstraintError
from qobf.statevector import StateVector, zero_state


def basis_state(width: int, index: int) -> StateVector:
    """Computational-basis state |index>."""
    state = zero_state(width)
    if not 0 <= index < 2**width:
        raise ConstraintError(f"basis index {index} out of range for width {width}")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.width != b.width or a.stored != b.stored or a.minus != b.minus:
        raise ValueError("state widths or stored qubits differ")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    if a.minus is not None:
        overlap *= 2.0
    return float(abs(overlap) ** 2)
