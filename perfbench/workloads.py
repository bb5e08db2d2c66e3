"""The benchmark's three workloads and the checks on their outputs.

Each workload turns the workload seed into its inputs, makes one call into
looselab's public API per ``call(i)``, and checks that call's output from
outside the program.  Import this module only after ``run.load_program``
has put the checkout's ``src`` on the path.

* ``pipeline_dense``: ``run_pipeline(n=28, p=0.9, r=4)`` over consecutive
  trial seeds.  Every trial reaches the exact rainbow search, whose
  backtracking tail is the largest share of trial time (about 45%; the
  coupled sampler about 30%).  n=40, the largest size the rainbow cap
  admits, is heavier still, but its trials (about 0.25 s, coefficient of
  variation about 1) are too few in one run for a p50 and p90 that repeat
  across seeds; at n=32 a run's 700 to 1000 trials still leave the p50
  about 10% apart from seed to seed.
* ``pipeline_sparse``: ``run_pipeline`` at n=40 and threshold-scale
  p = probability_from_c(40, c), c cycling over 16, 32, 64.  Trials stop
  at the matching stage, the coupled sampler dominates and the rainbow
  engine never runs, so a rainbow change predicts no change here.
* ``sweep_exact``: the default ``looselab sweep`` grid (n in 8, 12, 16 by
  the six default coefficients), decided by the exact loose search through
  the process pool at two workers.  Short uniform trials that call
  ``sample_h3`` directly and bypass the coupled sampler, the matching and
  rainbow engines and the pipeline; per-call pool start-up is paid inside
  the timed call, as every ``--workers 2`` sweep pays it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from looselab.colored import verify_rainbow_hamilton
from looselab.hypergraph import exact_loose_hamilton, verify_loose_hamilton
from looselab.lab import SweepSpec, probability_from_c, run_sweep
from looselab.pipeline import STAGES, run_pipeline
from looselab.sampling import derived_rng, sample_h3

# Trial (or sweep) seeds of workload seed s are s * SEED_STRIDE + i.
SEED_STRIDE = 1_000_000
# Trials per grid cell in one timed sweep call: small enough that a run of
# the benchmark makes the 100 calls its p90 needs, large enough that trial
# work, not pool start-up, is most of a call.
SWEEP_TRIALS = 40


@dataclass
class Check:
    """Outcome of checking one call's output."""

    found: int  # trials with a verified loose Hamilton cycle
    bad: int  # trials whose output failed a check
    record: str  # canonical text of the output, for the determinism digest
    tallies: dict = field(default_factory=dict)  # additive per-call figures


class PipelineWorkload:
    root = "pipeline.run_pipeline"
    workers = 1
    trials_per_call = 1

    def __init__(self, name: str, n: int, ps: tuple[float, ...], seed: int,
                 check_calls: int, traced_calls: int):
        self.name = name
        self.n = n
        self.ps = ps
        self.base = seed * SEED_STRIDE
        self.check_calls = check_calls
        self.traced_calls = traced_calls

    def call(self, i: int, workers: int = 1):
        return run_pipeline(self.n, self.ps[i % len(self.ps)], 4,
                            seed=self.base + i, keep_instance=True)

    def check(self, i: int, rep) -> Check:
        if rep.success:
            sound = bool(verify_loose_hamilton(rep.hypergraph, rep.loose_cycle)) \
                and bool(verify_rainbow_hamilton(rep.gstar, rep.rainbow_cert))
        else:
            sound = rep.failed_stage in STAGES
        cycle = [list(rep.loose_cycle.links), list(rep.loose_cycle.middles)] \
            if rep.loose_cycle is not None else None
        record = json.dumps([rep.seed, rep.success, rep.failed_stage,
                             sorted(rep.stage_steps.items()), cycle])
        tallies = {"matching_stage_s": rep.stage_seconds.get("matching", 0.0)}
        if rep.failed_stage is not None:
            tallies[f"failed_stage.{rep.failed_stage}"] = 1
        return Check(int(rep.success and sound), int(not sound), record, tallies)

    def deep_check(self, i: int, rep) -> bool:
        return True  # every pipeline output is fully re-verified by check()


class SweepWorkload:
    name = "sweep_exact"
    root = "lab.run_sweep"
    workers = 2
    check_calls = 1
    traced_calls = 12

    def __init__(self, seed: int):
        self.base = seed * SEED_STRIDE
        self.trials_per_call = len(self.spec(0).n_values) \
            * len(self.spec(0).c_values) * SWEEP_TRIALS

    def spec(self, i: int) -> SweepSpec:
        return SweepSpec(method="exact", trials=SWEEP_TRIALS, seed=self.base + i)

    def call(self, i: int, workers: int = 2):
        return run_sweep(self.spec(i), workers=workers)

    def check(self, i: int, result) -> Check:
        spec = self.spec(i)
        grid = [(n, c) for n in spec.n_values for c in spec.c_values]
        ok = [(cell.n, cell.c) for cell in result.cells] == grid and all(
            cell.trials == spec.trials and 0 <= cell.successes <= cell.trials
            and cell.freq == cell.successes / cell.trials
            and cell.ci_low <= cell.freq <= cell.ci_high
            and cell.p == probability_from_c(cell.n, cell.c)
            for cell in result.cells)
        found = sum(cell.successes for cell in result.cells)
        busy = sum(cell.mean_runtime * cell.trials for cell in result.cells)
        return Check(found if ok else 0, 0 if ok else self.trials_per_call,
                     result.to_csv_text(), {"trial_busy_s": busy})

    def deep_check(self, i: int, result) -> bool:
        """Decide every trial of the call again through the public API, in
        this process, and re-verify each cycle found.

        Trial t of cell k draws from derived_rng(seed, k, t), the stream
        keying the sweep documents, so the success counts must agree.
        """
        spec = self.spec(i)
        for k, cell in enumerate(result.cells):
            successes = 0
            for t in range(spec.trials):
                h = sample_h3(cell.n, cell.p, derived_rng(spec.seed, k, t))
                cycle = exact_loose_hamilton(h, cap=spec.loose_cap)
                if cycle is not None:
                    if not verify_loose_hamilton(h, cycle):
                        return False
                    successes += 1
            if successes != cell.successes:
                return False
        return True


def make_workload(name: str, seed: int):
    if name == "pipeline_dense":
        return PipelineWorkload(name, 28, (0.9,), seed,
                                check_calls=10, traced_calls=300)
    if name == "pipeline_sparse":
        return PipelineWorkload(
            name, 40, tuple(probability_from_c(40, c) for c in (16, 32, 64)),
            seed, check_calls=300, traced_calls=3000)
    if name == "sweep_exact":
        return SweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
