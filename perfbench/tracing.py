"""Span recording for the traced benchmark run.

The tracer rebinds the module attributes that looselab's own callers look
up at call time (``looselab.pipeline.sample_coupled``,
``looselab.sampling.sample_gamma``, ``looselab.lab.exact_loose_hamilton``
and so on) to wrappers that record one span per call, and puts the
originals back when the traced block ends.  Spans live in memory and are
written out by the caller once the run is over.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    trial: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _found(result) -> dict:
    return {"found": int(result is not None)}


# (module, attribute, span name, counter of the call's result).  Engines
# that take a ``stats`` dict also report the search nodes the call added.
TARGETS: tuple[tuple[str, str, str, Callable[[object], dict]], ...] = (
    ("looselab.pipeline", "sample_coupled", "sampling.sample_coupled",
     lambda res: {"edges": len(res[0].edge_list)}),
    ("looselab.sampling", "sample_copyset_partition",
     "sampling.sample_copyset_partition", lambda res: {}),
    ("looselab.sampling", "sample_gamma", "sampling.sample_gamma",
     lambda res: {"triples": len(res.present)}),
    ("looselab.sampling", "sample_h3", "sampling.sample_h3",
     lambda res: {"edges": len(res.edge_list)}),
    ("looselab.lab", "sample_h3", "sampling.sample_h3",
     lambda res: {"edges": len(res.edge_list)}),
    ("looselab.pipeline", "exact_matching", "solvers.exact_matching", _found),
    ("looselab.pipeline", "build_gstar", "pipeline.build_gstar",
     lambda res: {}),
    ("looselab.pipeline", "exact_rainbow_hamilton",
     "solvers.exact_rainbow_hamilton", _found),
    ("looselab.pipeline", "lift_to_loose", "colored.lift_to_loose",
     lambda res: {}),
    ("looselab.pipeline", "verify_loose_hamilton",
     "hypergraph.verify_loose_hamilton", lambda res: {}),
    ("looselab.lab", "exact_loose_hamilton", "hypergraph.exact_loose_hamilton",
     _found),
)


class Tracer:
    """Collects spans; ``installed()`` patches TARGETS for one block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args,
             counter: Callable[[object], dict] = lambda res: {}, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = Span(name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.trial)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        stats = kwargs.get("stats")
        nodes_before = stats.get("nodes", 0) if isinstance(stats, dict) else None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.counts = counter(result)
        if nodes_before is not None:
            span.counts["nodes"] = stats.get("nodes", 0) - nodes_before
        return result

    def wrap(self, name: str, fn: Callable,
             counter: Callable[[object], dict]) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to a tracing wrapper; always restore."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children may touch end to start or (with clock jitter) overlap; their
    intervals are clipped to the parent and merged before subtracting, so
    no instant is taken away twice.  Grandchildren lie inside their own
    parent and are accounted there.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(max(0.0, s.duration - covered))
    return out


def summarise(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and the summed counters."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += own
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return table
