"""Golden digests of the CLI's exact answers.

    PYTHONPATH=src python3 tests/golden.py

rewrites ``tests/golden_digests.json``: for every case below, the
SHA-256 of its standard output, standard error and exit code, run in
process through ``cli.main``. ``tests/test_golden.py`` recomputes each
digest and names the cases that differ. Rewriting the file is a
deliberate act: an output change has to be meant, and its reason
recorded with the change.

The cases cover the build path (``inspect`` in both formats, ``export``
with and without ``--decompose`` and ``bench --plan-only``) at N=1..63,
375..381 and 744..765; ``obfuscate --format json`` at N=1..63 with seed
7, at N=31 with 10^6 shots and three seeds and at N=63 with 10^6 shots
and two seeds; the README quick start;
and the refusals that exit 2, 3 and 4. Beside them, the file holds the
SHA-256 of the amplitudes ``simulate`` leaves at N=1..63 and 127,
so every stored amplitude is pinned bit for bit. They are real float64
and are hashed cast to little-endian complex128 (``<c16``), with +0.0
imaginary parts, so the digests made while the state was complex128
carry over. N=255's digest is ``AMPLITUDES_255``, which the
``QOBF_RUN_HEAVY`` leg of ``tests/test_acceptance.py`` checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from qobf import cli
from qobf.obfuscator import plan, simulate

DATA = Path(__file__).resolve().parent / "golden_digests.json"

BUILD_TARGETS = (*range(1, 64), *range(375, 382), *range(744, 766))

AMPLITUDE_TARGETS = (*range(1, 64), 127)

# simulate(plan(255))'s amplitudes, too slow to compute in tier-1 (about 6 s)
AMPLITUDES_255 = "1731ed23f39a4c3a62a729fee4dd3c55fc94a0fea701a15926a979dfcae34a63"

REFUSALS = (
    # exit 2: constraint violations
    ("inspect", "--n-value", "0"),
    ("inspect", "--n-value", "10", "--bits", "1"),
    ("inspect", "--n-value", "3", "--bits", "400"),
    ("obfuscate", "--n-value", "7", "--bits", "1"),
    ("obfuscate", "--n-value", "127", "--top", "0"),
    ("obfuscate", "--n-value", "19", "--shots", "0"),
    ("obfuscate", "--n-value", "19", "--seed", "-1"),
    ("count", "--n-value", "3", "--bits", "0"),
    ("bench", "--targets", "7,x"),
    # exit 3: budgets
    ("inspect", "--n-value", "3", "--bits", "30"),
    ("export", "--n-value", "3", "--bits", "30"),
    ("bench", "--plan-only", "--targets", "12285"),
    ("bench", "--targets", "7,382"),
    ("obfuscate", "--n-value", "3", "--bits", "30"),
    ("obfuscate", "--n-value", "382"),
    ("obfuscate", "--n-value", "19", "--shots", "1000000001"),
    ("count", "--n-value", "3", "--bits", "9", "--verify"),
    # exit 4: an --out that cannot be written
    ("export", "--n-value", "7", "--out", "no-such-dir/circuit.txt"),
    ("obfuscate", "--n-value", "7", "--out", "/"),
)


def cases() -> list[tuple[str, ...]]:
    """Every golden argv, in a fixed order."""
    out = []
    for n in BUILD_TARGETS:
        target = ("--n-value", str(n))
        out += [
            ("inspect", *target),
            ("inspect", *target, "--format", "json"),
            ("export", *target),
            ("export", *target, "--decompose"),
            ("bench", "--plan-only", "--targets", str(n)),
        ]
    out += [("obfuscate", "--n-value", str(n), "--seed", "7", "--format", "json")
            for n in range(1, 64)]
    out += [("obfuscate", "--n-value", "31", "--shots", "1000000", "--seed", str(seed),
             "--format", "json") for seed in (1, 5, 123456)]
    # 2^15 outcomes: sampling meets draws in the cells of cumulative values here
    out += [("obfuscate", "--n-value", "63", "--shots", "1000000", "--seed", str(seed),
             "--format", "json") for seed in (1, 5)]
    out.append(("obfuscate", "--n-value", "19", "--shots", "1024", "--seed", "7"))
    out += REFUSALS
    return out


def digest(argv) -> str:
    """SHA-256 of one call's stdout, stderr and exit code, NUL-separated.

    The qubit cap is read from the environment, so the call runs with
    QOBF_MAX_QUBITS unset, at the default cap.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("QOBF_MAX_QUBITS", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if saved is not None:
            os.environ["QOBF_MAX_QUBITS"] = saved
    hashed = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue(), str(code)):
        hashed.update(part.encode())
        hashed.update(b"\0")
    return hashed.hexdigest()


def amplitude_digest(state) -> str:
    """SHA-256 of a state's stored amplitudes, cast to little-endian complex128."""
    return hashlib.sha256(state.amplitudes.astype("<c16").tobytes()).hexdigest()


def compute() -> dict[str, str]:
    """Case name -> digest, for every CLI case (its argv joined by spaces)
    and every ``simulate amplitudes N`` case."""
    out = {" ".join(argv): digest(argv) for argv in cases()}
    for n in AMPLITUDE_TARGETS:
        out[f"simulate amplitudes {n}"] = amplitude_digest(simulate(plan(n))[0])
    return out


if __name__ == "__main__":
    DATA.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {len(cases()) + len(AMPLITUDE_TARGETS)} digests to {DATA}",
          file=sys.stderr)
