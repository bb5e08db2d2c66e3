"""Readings of the host's speed, to put the benchmark's timings on one scale.

The shared host the benchmark was written on switches, for seconds to
minutes at a time, between a fast state and states 1.3 to 1.8 times
slower, for every process on it alike, so a timing alone cannot tell a
slow host from a slow program.  ``probe()`` times a fixed job written in
looselab's style but not calling it: a backtracking path count over a fixed
graph (like the exact searches) and a numpy draw turned into sorted
frozensets (like the samplers).  A slow spell of the host slows the probe
about as much as it slows looselab, while a change to looselab leaves the
probe alone.  A timing made while the probe reads ``r`` seconds is put on
the reference host, where the probe reads REFERENCE_S, by multiplying it
by ``REFERENCE_S / r``.
"""

from __future__ import annotations

import random
import time

import numpy as np

# The probe's reading on a 2-vCPU Xeon host (2.1 GHz) in its fast state.
REFERENCE_S = 1.8e-3

_rng = random.Random(7)
_N = 11
_ADJ = [frozenset(j for j in range(_N) if j != i and _rng.random() < 0.45)
        for i in range(_N)]


def _paths(v: int, seen: set, depth: int) -> int:
    if depth == 8:
        return 1
    total = 0
    for w in _ADJ[v]:
        if w not in seen:
            seen.add(w)
            total += _paths(w, seen, depth + 1)
            seen.discard(w)
    return total


def _job() -> int:
    rows = np.random.default_rng(3).integers(0, 40, size=(400, 3)).tolist()
    triples = sorted(tuple(sorted(t)) for t in {frozenset(r) for r in rows})
    return _paths(0, {0}, 1) + len(triples)


def probe(repeats: int = 3) -> float:
    """Seconds the fixed job takes, best of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(reading: float) -> float:
    """Factor that puts a timing made at ``reading`` on the reference host."""
    return REFERENCE_S / reading
