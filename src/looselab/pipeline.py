"""End-to-end reduction: coupled sample -> 2r perfect matchings -> colored
derived graph -> rainbow Hamilton cycle -> loose Hamilton cycle.

Each matched triple ((x, x'), (y, i)) becomes a derived-graph edge (x, x')
of color y, so the union of the 2r matchings is 2r-regular and equitable
with parameter r by construction.  A rainbow Hamilton cycle of that graph
lifts to a loose Hamilton cycle whose windows all project into the coupled
hypergraph; the pipeline re-verifies the lifted cycle against the sampled
instance rather than trusting the construction.

Both searches are the complete engines of ``solvers``.  A run aborts at
its first failed stage; retries belong to the sweep harness, not to a
single trial.  A rainbow search that spends its node budget undecided
fails the rainbow stage with ``rainbow_undecided`` set, so it is never
read as a proven absence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .colored import (ColoredEdge, ColoredMultigraph, RainbowCycleCert,
                      lift_to_loose)
from .hypergraph import BudgetExhausted, Hypergraph3, LooseCycle, \
    exact_loose_hamilton, verify_loose_hamilton
from .sampling import CopySet, TripleSystem, derived_rng, rng_from_seed, \
    sample_coupled
from .solvers import PerfectMatching, exact_matching, exact_rainbow_hamilton

STAGES = ("sample", "matching", "gstar", "rainbow", "lift")


def _symmetric_exact_matching(ts: TripleSystem, gen,
                              stats: Optional[dict]) -> Optional[PerfectMatching]:
    # The deterministic engine would hand every saturated system the same
    # witness, collapsing the derived graph to parallel bundles.  Solving
    # a uniformly relabeled copy and mapping the witness back keeps the
    # engine seed-free while making the selected matching equivariant, so
    # across random systems the matchings stay symmetric, as the
    # reduction requires.
    xs, slots = ts.xs, ts.slots
    xperm = gen.permutation(len(xs)).tolist()
    sperm = gen.permutation(len(slots)).tolist()
    xmap = {xs[i]: xs[xperm[i]] for i in range(len(xs))}
    smap = {slots[i]: slots[sperm[i]] for i in range(len(slots))}
    relabeled = TripleSystem(xs, slots, frozenset(
        (tuple(sorted((xmap[x1], xmap[x2]))), smap[s])
        for (x1, x2), s in ts.present))
    pm = exact_matching(relabeled, stats=stats)
    if pm is None:
        return None
    inv_x = {v: k for k, v in xmap.items()}
    inv_s = {v: k for k, v in smap.items()}
    return PerfectMatching(tuple(sorted(
        (tuple(sorted((inv_x[x1], inv_x[x2]))), inv_s[s])
        for (x1, x2), s in pm.triples)))


def build_gstar(matchings: Sequence[PerfectMatching],
                copyset: CopySet) -> ColoredMultigraph:
    """Union of the 2r edge-colored matchings induced on the link vertices.

    Matching j must consume exactly the slots of block j; the result has
    2rm edges, is 2r-regular, and uses every base color exactly r times.
    """
    blocks = copyset.blocks
    if len(matchings) != len(blocks):
        raise ValueError(
            f"expected {len(blocks)} matchings, got {len(matchings)}")
    m = copyset.m
    two_m = 2 * m
    xset = set(range(1, two_m + 1))
    edges: list[ColoredEdge] = []
    for j, (pm, block) in enumerate(zip(matchings, blocks)):
        triples = pm.triples if isinstance(pm, PerfectMatching) else tuple(pm)
        if len(triples) != m:
            raise ValueError(
                f"matching {j + 1} has {len(triples)} triples, expected {m}")
        seen_x: set[int] = set()
        seen_slots = set()
        for (x1, x2), slot in triples:
            if x1 not in xset or x2 not in xset:
                raise ValueError(
                    f"matching {j + 1} pair ({x1}, {x2}) outside 1..{two_m}")
            seen_x.update((x1, x2))
            seen_slots.add(slot)
            edges.append(ColoredEdge(x1, x2, slot[0]))
        if seen_x != xset:
            raise ValueError(f"matching {j + 1} does not partition the X side")
        if seen_slots != set(block):
            raise ValueError(
                f"matching {j + 1} does not consume exactly block {j + 1}")
    return ColoredMultigraph(two_m, copyset.base_colors, edges)


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
    coupling_ok: bool = False
    matchings_found: int = 0
    gstar_built: bool = False
    rainbow_found: bool = False
    rainbow_undecided: bool = False
    lift_verified: bool = False
    success: bool = False
    failed_stage: Optional[str] = None
    matchings: Optional[tuple[PerfectMatching, ...]] = None
    rainbow_cert: Optional[RainbowCycleCert] = None
    loose_cycle: Optional[LooseCycle] = None
    stage_seconds: dict = field(default_factory=dict)
    stage_steps: dict = field(default_factory=dict)
    # retained only with keep_instance=True; never serialized
    hypergraph: Optional[Hypergraph3] = None
    copyset: Optional[CopySet] = None
    gstar: Optional[ColoredMultigraph] = None

    def to_dict(self) -> dict:
        def matching_payload(pm: PerfectMatching):
            return [[[x1, x2], list(slot)] for (x1, x2), slot in pm.triples]

        return {
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "seed": self.seed,
            "coupling_ok": self.coupling_ok,
            "matchings_found": self.matchings_found,
            "gstar_built": self.gstar_built,
            "rainbow_found": self.rainbow_found,
            "rainbow_undecided": self.rainbow_undecided,
            "lift_verified": self.lift_verified,
            "success": self.success,
            "failed_stage": self.failed_stage,
            "matchings": [matching_payload(pm) for pm in self.matchings]
            if self.matchings is not None else None,
            "rainbow_cert": {
                "order": list(self.rainbow_cert.order),
                "colors": list(self.rainbow_cert.colors),
            } if self.rainbow_cert is not None else None,
            "loose_cycle": {
                "links": list(self.loose_cycle.links),
                "middles": list(self.loose_cycle.middles),
            } if self.loose_cycle is not None else None,
            "stage_seconds": dict(self.stage_seconds),
            "stage_steps": dict(self.stage_steps),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _run_pipeline_stream(n: int, p: float, r: int, gen, *,
                         seed: Optional[int] = None,
                         keep_instance: bool = False) -> PipelineReport:
    rep = PipelineReport(n=n, p=float(p), r=r, seed=seed)

    t0 = time.perf_counter()
    h, copyset, systems = sample_coupled(n, p, r, gen)
    rep.stage_seconds["sample"] = time.perf_counter() - t0
    rep.coupling_ok = True
    if keep_instance:
        rep.hypergraph = h
        rep.copyset = copyset

    t0 = time.perf_counter()
    matchings: list[PerfectMatching] = []
    match_steps = 0
    for ts in systems:
        stats: dict = {}
        pm = _symmetric_exact_matching(ts, gen, stats)
        match_steps += stats.get("nodes", 0)
        if pm is None:
            break
        matchings.append(pm)
    rep.stage_seconds["matching"] = time.perf_counter() - t0
    rep.stage_steps["matching"] = match_steps
    rep.matchings_found = len(matchings)
    if len(matchings) < len(systems):
        rep.failed_stage = "matching"
        return rep
    rep.matchings = tuple(matchings)

    t0 = time.perf_counter()
    gstar = build_gstar(matchings, copyset)
    rep.stage_seconds["gstar"] = time.perf_counter() - t0
    rep.gstar_built = True
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
    rep.rainbow_found = True
    rep.rainbow_cert = cert

    t0 = time.perf_counter()
    cycle = lift_to_loose(cert)
    verdict = verify_loose_hamilton(h, cycle)
    rep.stage_seconds["lift"] = time.perf_counter() - t0
    rep.lift_verified = bool(verdict)
    if verdict:
        rep.success = True
        rep.loose_cycle = cycle
    else:
        rep.failed_stage = "lift"
    return rep


def run_pipeline(n: int, p: float, r: int = 4, seed: int = 0, *,
                 keep_instance: bool = False) -> PipelineReport:
    """One seeded reduction run; identical arguments give identical reports.

    The matching engine's size cap still refuses oversized systems with
    SizeCapExceeded; the rainbow stage never raises, and reports a search
    that spent its node budget as ``rainbow_undecided``.
    """
    gen = rng_from_seed(seed)
    return _run_pipeline_stream(n, p, r, gen, seed=seed,
                                keep_instance=keep_instance)


@dataclass(frozen=True)
class ComparisonTable:
    """Per-trial pipeline verdict vs exact-oracle verdict.

    The pipeline is sound but not complete, so oracle-yes/pipeline-no
    counts its one-sided loss; a pipeline-yes/oracle-no row would be a
    soundness bug and aborts the comparison.
    """

    n: int
    p: float
    r: int
    trials: int
    rows: tuple[tuple[int, bool, bool], ...]  # (trial, pipeline, oracle)

    @property
    def pipeline_yes(self) -> int:
        return sum(1 for _, s, _ in self.rows if s)

    @property
    def oracle_yes(self) -> int:
        return sum(1 for _, _, o in self.rows if o)

    @property
    def loss_count(self) -> int:
        return sum(1 for _, s, o in self.rows if o and not s)

    @property
    def loss_rate(self) -> float:
        return self.loss_count / self.oracle_yes if self.oracle_yes else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "r": self.r, "trials": self.trials,
            "pipeline_yes": self.pipeline_yes, "oracle_yes": self.oracle_yes,
            "loss_count": self.loss_count, "loss_rate": self.loss_rate,
            "rows": [list(row) for row in self.rows],
        }


def pipeline_vs_oracle(n: int, p: float, r: int, trials: int, seed: int, *,
                       loose_cap: int = 16) -> ComparisonTable:
    """Run pipeline and exact oracle on the same sampled instances."""
    if n > loose_cap:
        raise ValueError(f"n={n} exceeds the exact oracle cap {loose_cap}")
    rows = []
    for t in range(trials):
        gen = derived_rng(seed, t)
        rep = _run_pipeline_stream(n, p, r, gen, keep_instance=True)
        oracle = exact_loose_hamilton(rep.hypergraph, cap=loose_cap) is not None
        if rep.success and not oracle:
            raise RuntimeError(
                f"unsound pipeline success on trial {t}: oracle found no cycle")
        rows.append((t, rep.success, oracle))
    return ComparisonTable(n, float(p), r, trials, tuple(rows))
