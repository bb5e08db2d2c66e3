"""End-to-end reduction: coupled sample -> 2r perfect matchings -> colored
derived graph -> rainbow Hamilton cycle -> loose Hamilton cycle.

Each matched triple (x, x', (y, i)) becomes a derived-graph edge (x, x')
of color y, so the union of the 2r matchings is 2r-regular and equitable
with parameter r by construction.  ``build_gstar`` checks each matching
against its system with ``verify_matching`` before using it.  A rainbow
Hamilton cycle of that graph lifts to a loose Hamilton cycle whose windows
all project into the coupled hypergraph.  The lift only reads the cert's
vertex order as links and its colors as middles; ``verify_loose_hamilton``
is the stage's one check, asking the sampled instance (not the construction)
about the n/2 windows, which it answers from its draws without assembling
its edge list.  A cert that does not lift fails the lift stage through its
verdict.  A run comes back as a report whose record is ``to_dict()``.

Both searches are the complete engines of ``solvers``.  The matching
engine is handed the trial's generator, so each system is searched under
a uniformly random numbering of its columns and the selected matchings
stay symmetric across systems.  A run aborts at its first failed stage;
retries belong to the sweep harness, not to a single trial.  A rainbow
search that spends its node budget undecided fails the rainbow stage with
``rainbow_undecided`` set, so it is never read as a proven absence.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

from .colored import ColoredMultigraph, RainbowCycleCert, lift_to_loose
from .hypergraph import BudgetExhausted, Hypergraph3, LooseCycle, \
    verify_loose_hamilton
from .sampling import TripleSystem, derived_rng, sample_coupled
from .solvers import MatchTriple, exact_matching, exact_rainbow_hamilton, \
    verify_matching

STAGES = ("sample", "matching", "gstar", "rainbow", "lift")


def build_gstar(matchings: Sequence[Sequence[MatchTriple]],
                systems: Sequence[TripleSystem]) -> ColoredMultigraph:
    """Union of the 2r edge-colored matchings induced on the link vertices.

    Matching j must pass ``verify_matching`` against system j, so it uses
    only present triples and consumes exactly system j's slots (copy-set
    block j); each triple (x, x', (y, i)) becomes the edge (x, x') of
    color y.  The result has 2rm edges, is 2r-regular, and uses every
    base color exactly r times.  An empty input is refused.
    """
    if not systems:
        raise ValueError("no triple systems given, so G* has no vertices")
    if len(matchings) != len(systems):
        raise ValueError(
            f"expected {len(systems)} matchings, got {len(matchings)}")
    edges: list[tuple[int, int, int]] = []
    for j, (pm, ts) in enumerate(zip(matchings, systems)):
        verdict = verify_matching(ts, pm)
        if not verdict:
            raise ValueError(f"matching {j + 1}: {verdict.reason}")
        edges.extend((x1, x2, y) for x1, x2, (y, _copy) in pm)
    return ColoredMultigraph(2 * systems[0].m, edges)


@dataclass
class PipelineReport:
    """Stage-by-stage record of one reduction run.

    A report with ``success`` True always carries a loose cycle that was
    re-verified against the sampled hypergraph inside the run.
    ``rainbow_undecided`` marks a rainbow stage that failed because the
    search ran out of nodes, not because no rainbow cycle exists.
    """

    n: int
    p: float
    r: int
    seed: Optional[int]
    matchings_found: int = 0
    rainbow_undecided: bool = False
    success: bool = False
    failed_stage: Optional[str] = None
    matchings: Optional[tuple[tuple[MatchTriple, ...], ...]] = None
    rainbow_cert: Optional[RainbowCycleCert] = None
    loose_cycle: Optional[LooseCycle] = None
    stage_seconds: dict = field(default_factory=dict)
    stage_steps: dict = field(default_factory=dict)
    # retained only with keep_instance=True; never serialized
    hypergraph: Optional[Hypergraph3] = None
    gstar: Optional[ColoredMultigraph] = None

    def to_dict(self) -> dict:
        d = asdict(replace(self, hypergraph=None, gstar=None))
        del d["hypergraph"], d["gstar"]
        return d


def _run_pipeline_stream(n: int, p: float, r: int, gen, *,
                         seed: Optional[int] = None,
                         keep_instance: bool = False) -> PipelineReport:
    rep = PipelineReport(n=n, p=float(p), r=r, seed=seed)

    t0 = time.perf_counter()
    h, systems = sample_coupled(n, p, r, gen)
    rep.stage_seconds["sample"] = time.perf_counter() - t0
    if keep_instance:
        rep.hypergraph = h

    t0 = time.perf_counter()
    matchings: list[tuple[MatchTriple, ...]] = []
    stats: dict = {}
    for ts in systems:
        pm = exact_matching(ts, gen=gen, stats=stats)
        if pm is None:
            break
        matchings.append(pm)
    rep.stage_seconds["matching"] = time.perf_counter() - t0
    rep.stage_steps["matching"] = stats.get("nodes", 0)
    rep.matchings_found = len(matchings)
    if len(matchings) < len(systems):
        rep.failed_stage = "matching"
        return rep
    rep.matchings = tuple(matchings)

    t0 = time.perf_counter()
    gstar = build_gstar(matchings, systems)
    rep.stage_seconds["gstar"] = time.perf_counter() - t0
    if keep_instance:
        rep.gstar = gstar

    t0 = time.perf_counter()
    stats = {}
    try:
        cert = exact_rainbow_hamilton(gstar, stats=stats)
    except BudgetExhausted:
        cert = None
        rep.rainbow_undecided = True
    rep.stage_steps["rainbow"] = stats.get("nodes", 0)
    rep.stage_seconds["rainbow"] = time.perf_counter() - t0
    if cert is None:
        rep.failed_stage = "rainbow"
        return rep
    rep.rainbow_cert = cert

    t0 = time.perf_counter()
    cycle = lift_to_loose(cert)
    verdict = verify_loose_hamilton(h, cycle)
    rep.stage_seconds["lift"] = time.perf_counter() - t0
    if verdict:
        rep.success = True
        rep.loose_cycle = cycle
    else:
        rep.failed_stage = "lift"
    return rep


def run_pipeline(n: int, p: float, r: int = 4, seed: int = 0, *,
                 keep_instance: bool = False) -> PipelineReport:
    """One seeded reduction run; identical arguments give identical reports.

    Neither engine refuses a system by size; the rainbow stage never
    raises, and reports a search that spent its node budget as
    ``rainbow_undecided``.
    """
    gen = derived_rng(seed)
    return _run_pipeline_stream(n, p, r, gen, seed=seed,
                                keep_instance=keep_instance)
