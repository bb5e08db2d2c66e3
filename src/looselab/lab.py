"""Monte Carlo harness: threshold sweeps, isolated-vertex experiments, and
comparative statistics for the two 2r-regular multigraph models.

Edge probabilities are derived from a sweep coefficient c as
p = min(1, c * log(n) / n^2) with the natural log; the coefficient grid is
the swept variable.  Every trial draws its own stream from (master seed,
cell index, trial index), so results are reproducible byte-for-byte for
any worker count, and cells are embarrassingly parallel.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

from .hypergraph import exact_loose_hamilton, expected_isolated, isolated_vertices
from .pipeline import _run_pipeline_stream
from .sampling import derived_rng, sample_h3, sample_pairing_regular, \
    sample_union_matchings

DEFAULT_N_VALUES = (8, 12, 16)
DEFAULT_C_VALUES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_TRIALS = 200
DEFAULT_SEED = 20260809
CSV_HEADER = "n,c,p,trials,successes,freq,ci_low,ci_high,method,seed"


def probability_from_c(n: int, c: float) -> float:
    return min(1.0, c * math.log(n) / (n * n))


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; always inside [0, 1] and containing the
    point estimate, including the successes in {0, trials} edges."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # the bounds at all-failure/all-success are exactly 0 and 1; pin them
    # so rounding cannot push the point estimate outside
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a threshold sweep.

    method 'exact' decides each trial with the complete cycle search
    (requires every n within ``loose_cap``); 'pipeline' runs the full
    reduction, and a trial counts as a success only when it returns a
    verified loose cycle (an undecided rainbow search is a failure).
    """

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    c_values: tuple[float, ...] = DEFAULT_C_VALUES
    r: int = 4
    trials: int = DEFAULT_TRIALS
    method: str = "exact"
    seed: int = DEFAULT_SEED
    confidence: float = 0.95
    loose_cap: int = 16

    def __post_init__(self):
        object.__setattr__(self, "n_values",
                           tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "c_values",
                           tuple(float(c) for c in self.c_values))
        if not self.n_values or not self.c_values:
            raise ValueError("n and c grids must be non-empty")
        if any(n < 4 or n % 4 for n in self.n_values):
            raise ValueError("every n must be divisible by 4 (and >= 4)")
        if any(c <= 0 for c in self.c_values):
            raise ValueError("every c must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.method not in ("exact", "pipeline"):
            raise ValueError("method must be 'exact' or 'pipeline'")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if self.method == "exact" and max(self.n_values) > self.loose_cap:
            raise ValueError(
                f"exact method needs every n within the cap {self.loose_cap}")
        if self.method == "pipeline" and min(self.n_values) < 8:
            raise ValueError("pipeline method needs every n >= 8")


@dataclass(frozen=True)
class SweepCell:
    n: int
    c: float
    p: float
    trials: int
    successes: int
    freq: float
    ci_low: float
    ci_high: float
    method: str
    seed: int
    mean_runtime: float  # seconds per trial; excluded from CSV/JSON

    def csv_row(self) -> str:
        return (f"{self.n},{self.c!r},{self.p!r},{self.trials},"
                f"{self.successes},{self.freq!r},{self.ci_low!r},"
                f"{self.ci_high!r},{self.method},{self.seed}")

    def record(self) -> dict:
        return {
            "n": self.n, "c": self.c, "p": self.p, "trials": self.trials,
            "successes": self.successes, "freq": self.freq,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
            "method": self.method, "seed": self.seed,
        }


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    def to_csv_text(self) -> str:
        return "\n".join([CSV_HEADER] + [c.csv_row() for c in self.cells]) + "\n"

    def to_json_text(self) -> str:
        return json.dumps([c.record() for c in self.cells], indent=2) + "\n"

    def write_csv(self, path) -> None:
        _atomic_write(path, self.to_csv_text())

    def write_json(self, path) -> None:
        _atomic_write(path, self.to_json_text())


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trial_success(spec: SweepSpec, cell_index: int, n: int, p: float,
                   trial: int) -> bool:
    gen = derived_rng(spec.seed, cell_index, trial)
    if spec.method == "exact":
        h = sample_h3(n, p, gen)
        return exact_loose_hamilton(h, cap=spec.loose_cap) is not None
    rep = _run_pipeline_stream(n, p, spec.r, gen)
    return rep.success


def _sweep_chunk(args) -> tuple[int, list[tuple[int, bool, float]]]:
    spec, cell_index, n, p, trial_indices = args
    out = []
    for t in trial_indices:
        t0 = time.perf_counter()
        ok = _trial_success(spec, cell_index, n, p, t)
        out.append((t, ok, time.perf_counter() - t0))
    return cell_index, out


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the grid; cells are emitted n-major in grid order.

    The worker count changes scheduling only: every trial owns a derived
    stream keyed by (seed, cell, trial) and results merge in trial order,
    so the emitted CSV/JSON bytes are identical for any ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    grid = [(ci, n, c, probability_from_c(n, c))
            for ci, (n, c) in enumerate(
                (n, c) for n in spec.n_values for c in spec.c_values)]
    per_cell: dict[int, list[tuple[int, bool, float]]] = {ci: [] for ci, *_ in grid}
    if workers == 1:
        for ci, n, c, p in grid:
            _, rows = _sweep_chunk((spec, ci, n, p, range(spec.trials)))
            per_cell[ci] = rows
    else:
        tasks = []
        for ci, n, c, p in grid:
            for w in range(workers):
                idx = range(w, spec.trials, workers)
                if idx:
                    tasks.append((spec, ci, n, p, idx))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for ci, rows in pool.map(_sweep_chunk, tasks):
                per_cell[ci].extend(rows)
    cells = []
    for ci, n, c, p in grid:
        rows = sorted(per_cell[ci])
        successes = sum(1 for _, ok, _ in rows if ok)
        lo, hi = wilson_interval(successes, spec.trials, spec.confidence)
        cells.append(SweepCell(
            n=n, c=c, p=p, trials=spec.trials, successes=successes,
            freq=successes / spec.trials, ci_low=lo, ci_high=hi,
            method=spec.method, seed=spec.seed,
            mean_runtime=sum(s for *_, s in rows) / spec.trials))
    return SweepResult(spec, tuple(cells))


# ---------------------------------------------------------------------------
# isolated-vertex experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsolatedCell:
    n: int
    c: float
    p: float
    trials: int
    mean_isolated: float
    expected: float
    z_score: float
    prob_at_least_one: float

    def record(self) -> dict:
        return {
            "n": self.n, "c": self.c, "p": self.p, "trials": self.trials,
            "mean_isolated": self.mean_isolated, "expected": self.expected,
            "z_score": self.z_score,
            "prob_at_least_one": self.prob_at_least_one,
        }


def isolated_experiment(n: int, c_values: Sequence[float], trials: int,
                        seed: int) -> tuple[IsolatedCell, ...]:
    """Empirical vs analytic isolated-vertex counts over a c grid.

    The z score compares the empirical mean against n(1-p)^C(n-1,2) using
    the empirical standard error; a zero-variance sample scores 0 when the
    gap is zero and +/-inf otherwise.
    """
    cells = []
    for ci, c in enumerate(float(c) for c in c_values):
        p = probability_from_c(n, c)
        counts = []
        for t in range(trials):
            gen = derived_rng(seed, ci, t)
            counts.append(len(isolated_vertices(sample_h3(n, p, gen))))
        mean = sum(counts) / trials
        exp = expected_isolated(n, p)
        gap = mean - exp
        if trials > 1:
            se = statistics.stdev(counts) / math.sqrt(trials)
        else:
            se = 0.0
        if se == 0.0:
            z = 0.0 if gap == 0.0 else math.copysign(math.inf, gap)
        else:
            z = gap / se
        cells.append(IsolatedCell(
            n=n, c=c, p=p, trials=trials, mean_isolated=mean, expected=exp,
            z_score=z,
            prob_at_least_one=sum(1 for k in counts if k >= 1) / trials))
    return tuple(cells)


# ---------------------------------------------------------------------------
# comparative statistics for the two regular multigraph models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelStats:
    model: str
    trials: int
    degree: int
    all_regular: bool
    parallel_mean: float
    parallel_std: float
    parallel_dist: tuple[tuple[int, int], ...]  # (excess value, count)
    triangle_mean: float
    triangle_std: float
    hamilton_freq: Optional[float]

    def record(self) -> dict:
        return {
            "model": self.model, "trials": self.trials, "degree": self.degree,
            "all_regular": self.all_regular,
            "parallel_mean": self.parallel_mean,
            "parallel_std": self.parallel_std,
            "parallel_dist": [list(t) for t in self.parallel_dist],
            "triangle_mean": self.triangle_mean,
            "triangle_std": self.triangle_std,
            "hamilton_freq": self.hamilton_freq,
        }


@dataclass(frozen=True)
class ContiguityReport:
    """Side-by-side summaries; no pass/fail is attached because the two
    models only share properties asymptotically."""

    m2: int
    r: int
    trials: int
    union: ModelStats
    pairing: ModelStats

    def to_dict(self) -> dict:
        return {"m2": self.m2, "r": self.r, "trials": self.trials,
                "union": self.union.record(), "pairing": self.pairing.record()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _skeleton(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.num_vertices + 1)}
    for e in g.edges:
        if e.u != e.v:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
    return adj


def _triangle_count(adj: dict[int, set[int]]) -> int:
    count = 0
    verts = sorted(adj)
    for i, u in enumerate(verts):
        for v in sorted(adj[u]):
            if v <= u:
                continue
            count += sum(1 for w in adj[u] & adj[v] if w > v)
    return count


def _hamilton_cycle_exists(adj: dict[int, set[int]], nv: int) -> bool:
    if nv == 1:
        return False
    if nv == 2:
        return 2 in adj[1]  # multigraph callers must check multiplicity
    start = 1
    path = [start]
    seen = {start}

    def dfs(u: int) -> bool:
        if len(path) == nv:
            return start in adj[u]
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                path.append(w)
                if dfs(w):
                    return True
                seen.discard(w)
                path.pop()
        return False

    return dfs(start)


def _model_stats(name: str, sampler, m2: int, degree: int, trials: int,
                 seed: int, model_index: int,
                 hamilton_limit: int) -> ModelStats:
    parallel = []
    triangles = []
    ham_hits = 0
    ham_counted = m2 <= hamilton_limit
    all_regular = True
    for t in range(trials):
        gen = derived_rng(seed, model_index, t)
        g = sampler(gen)
        if any(d != degree for d in g.degrees.values()):
            all_regular = False
        pairs = Counter(e.pair for e in g.edges)
        parallel.append(len(g.edges) - len(pairs))
        adj = _skeleton(g)
        triangles.append(_triangle_count(adj))
        if ham_counted:
            if m2 == 2:
                ham = pairs.get((1, 2), 0) >= 2
            else:
                ham = _hamilton_cycle_exists(adj, m2)
            ham_hits += 1 if ham else 0
    return ModelStats(
        model=name, trials=trials, degree=degree, all_regular=all_regular,
        parallel_mean=sum(parallel) / trials,
        parallel_std=statistics.pstdev(parallel),
        parallel_dist=tuple(sorted(Counter(parallel).items())),
        triangle_mean=sum(triangles) / trials,
        triangle_std=statistics.pstdev(triangles),
        hamilton_freq=ham_hits / trials if ham_counted else None)


def contiguity_probe(m2: int, r: int, trials: int, seed: int, *,
                     hamilton_limit: int = 12) -> ContiguityReport:
    """Sample both 2r-regular models and emit side-by-side distribution
    summaries (parallel-edge excess, skeleton triangles, and Hamiltonicity
    frequency when m2 is small enough to decide it)."""
    if m2 < 2 or m2 % 2:
        raise ValueError(f"m2 must be even and >= 2, got {m2}")
    degree = 2 * r
    union = _model_stats(
        "union_matchings", lambda gen: sample_union_matchings(m2, r, gen),
        m2, degree, trials, seed, 0, hamilton_limit)
    pairing = _model_stats(
        "pairing_model", lambda gen: sample_pairing_regular(m2, degree, gen),
        m2, degree, trials, seed, 1, hamilton_limit)
    return ContiguityReport(m2=m2, r=r, trials=trials,
                            union=union, pairing=pairing)
