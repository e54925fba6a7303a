"""Pieces shared by the workloads and the worker."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass
class Job:
    """One verification job: `run()` does the work and checks it against a
    known answer, returning (record, problem).  `record` is a deterministic
    text summary of the verdict that goes into the run's digest; `problem`
    is None when the answer matched."""

    kind: str
    run: Callable[[], tuple]


def _identity(fn, key):
    return fn


# Functions the benchmark hands to the program (F, G, oracles) pass through
# this hook; a traced run replaces it so their time counts as the
# benchmark's own and their calls are counted.
callback = _identity


def cycle_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def expect(cond: bool, problem: str):
    return None if cond else problem
