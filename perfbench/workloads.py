"""Request generation for the benchmark workloads.

Every workload is an endless sequence of epochs. An epoch holds each of
the workload's targets once, in an order drawn from the workload seed,
and every obfuscate request carries its own sampling seed drawn from the
same generator. A run always measures whole epochs, so two runs with
different seeds see the same mix of targets and their medians compare;
the seed changes the order and the sampled histograms, not the work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OBFUSCATE = "obfuscate"
BUILD = "build"


@dataclass(frozen=True)
class Request:
    """One closed-loop request: an obfuscate run or an inspect + export pair."""

    kind: str
    target: int
    shots: int = 0
    seed: int = 0


@dataclass(frozen=True)
class Workload:
    kind: str
    targets: tuple[int, ...]
    shots: int


# what each workload stresses is written beside its name in BENCHMARK.json
WORKLOADS = {
    "shots-31": Workload(OBFUSCATE, (31,), 10**6),
    # top-edge targets of 7 and 8 bits whose requests take 0.4-1.1 s, so an epoch is
    # short next to a run; 380, 381 and 758-765 (1.3-7 s each) are left out
    "build-edge": Workload(BUILD, (*range(375, 380), *range(744, 758)), 0),
}


def epochs(workload: str, seed: int):
    """Endless epochs of requests for ``workload``; the same seed gives the same list."""
    spec = WORKLOADS[workload]
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    while True:
        order = rng.permutation(len(spec.targets))
        if spec.kind == BUILD:
            yield [Request(BUILD, spec.targets[i]) for i in order]
        else:
            yield [
                Request(OBFUSCATE, spec.targets[i], spec.shots, int(rng.integers(2**31)))
                for i in order
            ]
