"""Monte Carlo harness: threshold sweeps, isolated-vertex experiments, and
comparative statistics for the two 2r-regular multigraph models.

Edge probabilities are derived from a sweep coefficient c as
p = min(1, c * log(n) / n^2) with the natural log; the coefficient grid is
the swept variable.  Every trial draws its own stream from (master seed,
cell index, trial index), so results are reproducible byte-for-byte for
any worker count, and cells are embarrassingly parallel.  Results come
back as records, which the CLI renders as JSON and writes to file; the
sweep CSV, which ``perfbench`` digests, is the one text rendered here.
"""

from __future__ import annotations

import math
import operator
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from statistics import NormalDist
from typing import ClassVar, Optional, Sequence

from .colored import ColoredMultigraph
from .hypergraph import LOOSE_CAP, exact_loose_hamilton, expected_isolated, \
    isolated_vertices
from .pipeline import _run_pipeline_stream
# sample_h3 stays bound here: perfbench's tracer patches lab.sample_h3
from .sampling import _sample_h3_batch, derived_rng, sample_h3, \
    sample_pairing_regular, sample_union_matchings  # noqa: F401
from .solvers import exact_rainbow_hamilton

DEFAULT_N_VALUES = (8, 12, 16)
DEFAULT_C_VALUES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_TRIALS = 200
DEFAULT_SEED = 20260809

# contiguity_probe asks the rainbow engine about Hamiltonicity up to this
# m2.  Over 100 graphs of each model per (m2, r), r in 1, 2, 4, a graph
# took at most 84 search nodes for m2 <= 12, up to 277,982 at m2 = 42, and
# at m2 = 46, 56 and 58 one graph each spent the default budget undecided.
HAMILTON_LIMIT = 12

# _hypergraphs draws this many trial streams at once; past 64 draws the
# garbage collector's passes over the batch raise the cost per draw.
_BATCH = 64


def probability_from_c(n: int, c: float) -> float:
    if not 0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c}")
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

    method 'exact' decides each trial with the complete cycle search,
    so every n must be within ``loose_cap``, the constant ``LOOSE_CAP``;
    'pipeline' runs the full reduction, and a trial counts as a success
    only when it returns a verified loose cycle (an undecided rainbow
    search is a failure).  Each cell reports a 95% Wilson interval.
    """

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    c_values: tuple[float, ...] = DEFAULT_C_VALUES
    r: int = 4
    trials: int = DEFAULT_TRIALS
    method: str = "exact"
    seed: int = DEFAULT_SEED
    loose_cap: ClassVar[int] = LOOSE_CAP

    def __post_init__(self):
        # operator.index keeps numpy integers and refuses 8.7 rather than
        # running n=8
        object.__setattr__(self, "n_values",
                           tuple(map(operator.index, self.n_values)))
        for name in ("r", "trials", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "c_values",
                           tuple(float(c) for c in self.c_values))
        if not self.n_values or not self.c_values:
            raise ValueError("n and c grids must be non-empty")
        if any(n < 4 or n % 4 for n in self.n_values):
            raise ValueError("every n must be divisible by 4 (and >= 4)")
        if any(not c > 0 for c in self.c_values):
            raise ValueError("every c must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.method not in ("exact", "pipeline"):
            raise ValueError("method must be 'exact' or 'pipeline'")
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
    r: int
    # the cell's wall time in every process that ran it, summed; stream
    # setup and draws included
    mean_runtime: float  # seconds per trial; excluded from CSV/JSON

    def record(self) -> dict:
        rec = asdict(self)
        del rec["mean_runtime"]
        return rec

    def csv_row(self) -> str:
        # str(float) is repr(float), so the floats round-trip exactly
        return ",".join(str(v) for v in self.record().values())


CSV_HEADER = ",".join(f.name for f in fields(SweepCell)
                      if f.name != "mean_runtime")


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    def to_csv_text(self) -> str:
        return "\n".join([CSV_HEADER] + [c.csv_row() for c in self.cells]) + "\n"


def _hypergraphs(n: int, p: float, seed: int, ci: int, ts: range):
    """Yield ``sample_h3(n, p, derived_rng(seed, ci, t))`` for each t in
    ``ts``, drawing ``_BATCH`` streams at a time."""
    for j in range(0, len(ts), _BATCH):
        gens = [derived_rng(seed, ci, t) for t in ts[j:j + _BATCH]]
        yield from _sample_h3_batch(n, p, gens)


def _share(spec: SweepSpec, grid, i: int, k: int) -> list[tuple[int, float]]:
    """Process i of k's share of the sweep: the trials at positions i,
    i + k, i + 2k, ... of the cell-major order, as one (successes,
    seconds) pair per cell."""
    pairs = []
    for ci, n, _c, p in grid:
        ts = range((i - ci * spec.trials) % k, spec.trials, k)
        t0 = time.perf_counter()
        if spec.method == "exact":
            ok = sum(exact_loose_hamilton(h, cap=spec.loose_cap) is not None
                     for h in _hypergraphs(n, p, spec.seed, ci, ts))
        else:
            ok = sum(_run_pipeline_stream(
                n, p, spec.r, derived_rng(spec.seed, ci, t)).success for t in ts)
        pairs.append((ok, time.perf_counter() - t0))
    return pairs


def _send_share(conn, *share) -> None:
    """A helper's body: send back ``_share(*share)``, or what it raised."""
    try:
        conn.send(_share(*share))
    except Exception as exc:
        conn.send(exc)


def _fork_helper(*share):
    """Fork a helper running ``_share(*share)``; return it and its pipe's
    reading end."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_share, args=(send, *share))
    proc.start()
    send.close()  # the helper holds the only sending end: its death is EOF
    return proc, recv


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the grid; cells are emitted n-major in grid order.

    The trials, cell-major then trial, are split over k = min(workers,
    trials) processes: the calling one and k - 1 helpers forked with
    their share in hand.  Process i runs the trials at positions i, i + k,
    i + 2k, ... (process 0 being the caller) and replies with one
    (successes, seconds) pair per cell, which a helper sends back over a
    pipe.  Every trial owns a derived stream keyed by (seed, cell, trial),
    so the emitted CSV/JSON bytes are identical for any ``workers``, and
    without the fork start method the sweep runs in-process.  What a
    helper raises is raised here, a helper that dies silently raises
    RuntimeError, and no helper outlives the call.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    grid = [(ci, n, c, probability_from_c(n, c))
            for ci, (n, c) in enumerate(
                (n, c) for n in spec.n_values for c in spec.c_values)]
    procs = min(workers, len(grid) * spec.trials)
    if procs > 1:
        import multiprocessing  # here: a process that never forks skips it
        if "fork" not in multiprocessing.get_all_start_methods():
            procs = 1
        import numpy.random  # noqa: F401  (lazy: load it once, not per helper)
    helpers = []
    try:
        for i in range(1, procs):
            helpers.append(_fork_helper(spec, grid, i, procs))
        shares = [_share(spec, grid, 0, procs)]
        for i, (proc, conn) in enumerate(helpers, 1):
            try:
                shares.append(conn.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"sweep helper {i} exited with code {proc.exitcode} "
                    "before replying") from None
            if isinstance(shares[-1], Exception):
                raise shares[-1]
    except BaseException:
        for proc, _conn in helpers:
            proc.kill()
        raise
    finally:
        for proc, conn in helpers:
            conn.close()
            proc.join()
    cells = []
    for (_ci, n, c, p), *pairs in zip(grid, *shares):
        successes = sum(ok for ok, _ in pairs)
        lo, hi = wilson_interval(successes, spec.trials)
        cells.append(SweepCell(
            n=n, c=c, p=p, trials=spec.trials, successes=successes,
            freq=successes / spec.trials, ci_low=lo, ci_high=hi,
            method=spec.method, seed=spec.seed, r=spec.r,
            mean_runtime=sum(s for _, s in pairs) / spec.trials))
    return SweepResult(tuple(cells))


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
        """The serialised view: a non-finite z is None (JSON null), since
        JSON has no infinity; the cell itself keeps +/-inf."""
        rec = asdict(self)
        if not math.isfinite(self.z_score):
            rec["z_score"] = None
        return rec


def isolated_experiment(n_values: Sequence[int], c_values: Sequence[float],
                        trials: int, seed: int) -> tuple[IsolatedCell, ...]:
    """Empirical vs analytic isolated-vertex counts over an (n, c) grid,
    one cell per pair, n-major in grid order.

    The whole grid is refused before its first trial.  Cell (n,
    c_values[k]) draws trial t from ``derived_rng(seed, k, t)`` for every
    n, so the streams are shared across n.  The z score compares the
    empirical mean against n(1-p)^C(n-1,2) using the empirical standard
    error; a zero-variance sample scores 0 when the gap is zero and
    +/-inf otherwise.
    """
    n_values = tuple(map(operator.index, n_values))
    c_values = tuple(map(float, c_values))
    trials, seed = operator.index(trials), operator.index(seed)
    if not n_values or not c_values:
        raise ValueError("n and c grids must be non-empty")
    if min(n_values) < 3:
        raise ValueError(f"need n >= 3, got {min(n_values)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = [(n, ci, c, probability_from_c(n, c))
            for n in n_values for ci, c in enumerate(c_values)]
    cells = []
    for n, ci, c, p in grid:
        counts = [len(isolated_vertices(h))
                  for h in _hypergraphs(n, p, seed, ci, range(trials))]
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


@dataclass(frozen=True)
class ContiguityReport:
    """Side-by-side summaries; no pass/fail is attached because the two
    models only share properties asymptotically."""

    m2: int
    r: int
    trials: int
    union: ModelStats
    pairing: ModelStats


def _triangle_count(pairs: Counter) -> int:
    higher: dict[int, set[int]] = {}  # u -> neighbours v > u (no loops drawn)
    for u, v in pairs:
        higher.setdefault(u, set()).add(v)
    return sum(len(ws & higher.get(v, set()))
               for ws in higher.values() for v in ws)


def _model_stats(name: str, sampler, m2: int, degree: int, trials: int,
                 seed: int, model_index: int) -> ModelStats:
    parallel = []
    triangles = []
    ham_hits = 0
    ham_counted = m2 <= HAMILTON_LIMIT
    all_regular = True
    for t in range(trials):
        gen = derived_rng(seed, model_index, t)
        g = sampler(gen)
        if any(d != degree for d in g.degrees.values()):
            all_regular = False
        pairs = Counter((u, v) for u, v, _c in g.edges)
        parallel.append(len(g.edges) - len(pairs))
        triangles.append(_triangle_count(pairs))
        if ham_counted:
            edges = [(u, v, c) for c, (u, v) in enumerate(
                (uv for uv, k in pairs.items() for _ in range(min(k, 2))), 1)]
            ham_hits += exact_rainbow_hamilton(
                ColoredMultigraph(m2, edges)) is not None
    return ModelStats(
        model=name, trials=trials, degree=degree, all_regular=all_regular,
        parallel_mean=sum(parallel) / trials,
        parallel_std=statistics.pstdev(parallel),
        parallel_dist=tuple(sorted(Counter(parallel).items())),
        triangle_mean=sum(triangles) / trials,
        triangle_std=statistics.pstdev(triangles),
        hamilton_freq=ham_hits / trials if ham_counted else None)


def contiguity_probe(m2: int, r: int, trials: int,
                     seed: int) -> ContiguityReport:
    """Sample both 2r-regular models and emit side-by-side distribution
    summaries (parallel-edge excess, skeleton triangles, and Hamiltonicity
    frequency when m2 is at most ``HAMILTON_LIMIT``, else None).

    ``exact_rainbow_hamilton`` decides Hamiltonicity on the skeleton: one
    edge per adjacent pair, two for a parallel pair (the 2-vertex cycle),
    every edge its own color, so every Hamilton cycle is rainbow.
    ``BudgetExhausted`` propagates, never counted as "not Hamiltonian"."""
    if m2 < 2 or m2 % 2:
        raise ValueError(f"m2 must be even and >= 2, got {m2}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    degree = 2 * r
    union = _model_stats(
        "union_matchings", lambda gen: sample_union_matchings(m2, r, gen),
        m2, degree, trials, seed, 0)
    pairing = _model_stats(
        "pairing_model", lambda gen: sample_pairing_regular(m2, degree, gen),
        m2, degree, trials, seed, 1)
    return ContiguityReport(m2=m2, r=r, trials=trials,
                            union=union, pairing=pairing)
