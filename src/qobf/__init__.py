"""Quantum data obfuscation: hide a natural number inside the amplified
superposition of its three-register sum decompositions.

The package root holds what the pipeline needs end to end; the building
blocks live in the submodules arithmetic, circuit, grover, statevector
and obfuscator.
"""

from .circuit import Circuit, parse, serialize
from .errors import CircuitParseError, ConstraintError, ResourceLimitError
from .obfuscator import DecodedHistogram, ObfuscationPlan, plan, run, sorted_entries, to_json_dict

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitParseError",
    "ConstraintError",
    "DecodedHistogram",
    "ObfuscationPlan",
    "ResourceLimitError",
    "parse",
    "plan",
    "run",
    "serialize",
    "sorted_entries",
    "to_json_dict",
]
