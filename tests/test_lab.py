import gc
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looselab import (
    Hypergraph3,
    SweepSpec,
    contiguity_probe,
    exact_loose_hamilton,
    isolated_experiment,
    probability_from_c,
    run_sweep,
)
from looselab import lab
from looselab.hypergraph import isolated_vertices
from looselab.lab import CSV_HEADER, wilson_interval
from looselab.sampling import derived_rng, sample_h3, \
    sample_pairing_regular, sample_union_matchings

from oracles import hamilton_exists_naive


class TestWilson:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2000), st.data(),
           st.floats(min_value=0.5, max_value=0.999))
    def test_bounds_and_point_estimate(self, trials, data, conf):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials, conf)
        phat = successes / trials
        assert 0.0 <= lo <= phat <= hi <= 1.0

    def test_degenerate_counts_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(50, 50)
        assert 0.0 < lo < 1.0 and hi == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)
        with pytest.raises(ValueError):
            wilson_interval(1, 5, 1.0)


class TestProbabilityFromC:
    def test_caps_at_one(self):
        assert probability_from_c(8, 1e9) == 1.0

    def test_natural_log(self):
        assert probability_from_c(8, 2.0) == pytest.approx(
            2.0 * math.log(8) / 64)


# 12 potential triples on 8 vertices: three disjoint loose Hamilton
# cycles' edge sets, giving a nontrivial exactly-enumerable cell
RESTRICTED_UNIVERSE = [
    (1, 2, 5), (2, 3, 6), (3, 4, 7), (1, 4, 8),
    (1, 5, 6), (2, 6, 7), (3, 7, 8), (4, 5, 8),
    (1, 2, 3), (3, 4, 5), (5, 6, 7), (1, 7, 8),
]


class TestIntervalCoverageOnExactCell:
    def test_99_interval_covers_known_probability(self):
        # exact cell probability by enumerating all 2^12 edge subsets
        good = []
        for mask in range(1 << 12):
            h = Hypergraph3(8, [t for i, t in enumerate(RESTRICTED_UNIVERSE)
                                if mask >> i & 1])
            good.append(exact_loose_hamilton(h) is not None)
        p_edge = 0.7
        exact_p = sum(
            p_edge ** bin(mask).count("1")
            * (1 - p_edge) ** (12 - bin(mask).count("1"))
            for mask in range(1 << 12) if good[mask])

        # exact coverage of the 99% interval at 150 trials, via the
        # binomial law itself
        trials = 150
        coverage = 0.0
        for k in range(trials + 1):
            lo, hi = wilson_interval(k, trials, 0.99)
            if lo <= exact_p <= hi:
                coverage += (math.comb(trials, k) * exact_p ** k
                             * (1 - exact_p) ** (trials - k))
        assert coverage >= 0.99

        # and the simulated version agrees with that law
        reps = 300
        gen = derived_rng(424242)
        covered = 0
        for _ in range(reps):
            hits = 0
            for _ in range(trials):
                mask = 0
                draws = gen.random(12)
                for i in range(12):
                    if draws[i] < p_edge:
                        mask |= 1 << i
                hits += good[mask]
            lo, hi = wilson_interval(hits, trials, 0.99)
            covered += lo <= exact_p <= hi
        sigma = math.sqrt(coverage * (1 - coverage) / reps)
        assert covered / reps >= coverage - 3 * sigma


class TestSweepSpec:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SweepSpec(n_values=(10,))
        with pytest.raises(ValueError):
            SweepSpec(c_values=(0.0,))
        with pytest.raises(ValueError):
            SweepSpec(trials=0)
        with pytest.raises(ValueError):
            SweepSpec(method="guess")
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SweepSpec(seed=-1)

    def test_exact_method_needs_cap(self):
        with pytest.raises(ValueError):
            SweepSpec(n_values=(20,), method="exact")

    def test_pipeline_method_needs_n8(self):
        with pytest.raises(ValueError):
            SweepSpec(n_values=(4,), method="pipeline")

    @pytest.mark.parametrize("field,value", [
        ("n_values", (8.7,)), ("n_values", (8, 12.0)), ("r", 2.0),
        ("trials", 2.5), ("seed", 1.5),
    ], ids=["n", "second-n", "r", "trials", "seed"])
    def test_refuses_non_integral_sizes(self, field, value):
        # 8.7 is not run as n=8, and 2.5 trials not left to the first trial
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SweepSpec(**{field: value})

    def test_numpy_integers_become_ints(self):
        spec = SweepSpec(n_values=(np.int64(8),), r=np.int16(2),
                         trials=np.int32(3), seed=np.uint8(1))
        assert spec == SweepSpec(n_values=(8,), r=2, trials=3, seed=1)
        assert all(type(v) is int for v in (*spec.n_values, spec.r,
                                            spec.trials, spec.seed))


class TestRunSweep:
    def test_extreme_cells(self):
        spec = SweepSpec(n_values=(8,), c_values=(0.01, 1e9), trials=30,
                         seed=1)
        res = run_sweep(spec)
        assert res.cells[0].freq == 0.0  # c tiny: effectively empty graphs
        assert res.cells[1].freq == 1.0  # p capped at 1: complete graph
        assert res.cells[1].p == 1.0

    def test_reproducible_byte_for_byte(self):
        spec = SweepSpec(n_values=(8,), c_values=(2.0, 6.0), trials=25, seed=9)
        assert run_sweep(spec).to_csv_text() == run_sweep(spec).to_csv_text()

    def test_worker_count_does_not_change_output(self):
        for method in ("exact", "pipeline"):
            spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 6.0),
                             trials=20, seed=10, method=method)
            base = run_sweep(spec, workers=1)
            for workers in (2, 3):
                assert run_sweep(spec, workers=workers).to_csv_text() == \
                    base.to_csv_text()

    @pytest.mark.parametrize("trials,workers", [(1, 2), (5, 3)])
    def test_edge_worker_counts_match_one_worker(self, trials, workers):
        # fewer trials per cell than workers, and 20 tasks over 3
        # processes, whose shares differ in length
        spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 6.0), trials=trials,
                         seed=11)
        base = run_sweep(spec, workers=1)
        res = run_sweep(spec, workers=workers)
        assert res.to_csv_text() == base.to_csv_text()
        assert [c.record() for c in res.cells] == \
            [c.record() for c in base.cells]

    def test_pool_never_larger_than_the_task_list(self, monkeypatch):
        # no helper is forked without a share to hold: this process runs
        # one share itself, each helper one more, and a single trial forks
        # no helper; the recorder runs each share here and forks nothing
        shares = []

        def record(spec, grid, i, k):
            shares.append((i, k))
            pairs = lab._share(spec, grid, i, k)
            return (SimpleNamespace(kill=lambda: None, join=lambda: None),
                    SimpleNamespace(recv=lambda: pairs, close=lambda: None))

        monkeypatch.setattr(lab, "_fork_helper", record)
        one = SweepSpec(n_values=(8,), c_values=(16.0,), trials=1, seed=1)
        six = SweepSpec(n_values=(8,), c_values=(2.0, 16.0), trials=3,
                        seed=1)
        assert run_sweep(one, workers=64).to_csv_text() == \
            run_sweep(one).to_csv_text()
        assert shares == []
        assert run_sweep(six, workers=64).to_csv_text() == \
            run_sweep(six).to_csv_text()
        # six trials over six processes: one trial each
        assert shares == [(i, 6) for i in range(1, 6)]

    def test_batch_boundaries_never_reach_the_output(self, monkeypatch):
        # at three streams a batch, every process's share of a cell spans
        # several batches, the last one short
        spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 6.0), trials=20,
                         seed=15)
        grid = (8, 12), (1.0, 4.0), 20, 15
        sweep, isolated = run_sweep(spec).to_csv_text(), isolated_experiment(*grid)
        monkeypatch.setattr(lab, "_BATCH", 3)
        for workers in (1, 2, 3):
            assert run_sweep(spec, workers=workers).to_csv_text() == sweep
        assert isolated_experiment(*grid) == isolated

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("method", ["exact", "pipeline"])
    def test_mean_runtime_finite_and_positive(self, method, workers):
        spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 16.0), trials=4,
                         seed=16, method=method)
        for cell in run_sweep(spec, workers=workers).cells:
            assert math.isfinite(cell.mean_runtime) and cell.mean_runtime > 0

    def test_import_loads_no_process_pool(self):
        # only a sweep run over several workers imports multiprocessing
        src = str(Path(lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import looselab, sys; "
             "print('concurrent.futures' in sys.modules, "
             "'multiprocessing' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == "False False\n"

    def test_without_fork_the_sweep_runs_in_process(self, monkeypatch):
        def no_helper(*share):
            raise AssertionError("a helper was forked")

        spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 6.0), trials=5,
                         seed=13)
        base = run_sweep(spec).to_csv_text()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(lab, "_fork_helper", no_helper)
        assert run_sweep(spec, workers=3).to_csv_text() == base

    def test_pipeline_matching_has_no_size_cap(self):
        # m = 260/4 = 65 triple-system slots: decided, not refused mid-sweep
        spec = SweepSpec(n_values=(8, 260), c_values=(16.0,), trials=2,
                         seed=12, method="pipeline")
        res = run_sweep(spec)
        assert [(c.n, c.trials) for c in res.cells] == [(8, 2), (260, 2)]

    def test_pipeline_method_runs(self):
        spec = SweepSpec(n_values=(8,), c_values=(1e9,), trials=5, seed=2,
                         method="pipeline")
        res = run_sweep(spec)
        assert res.cells[0].freq == 1.0
        assert res.cells[0].method == "pipeline"

    def test_csv_layout(self, tmp_path):
        spec = SweepSpec(n_values=(8,), c_values=(2.0, 4.0), trials=10, seed=3)
        res = run_sweep(spec)
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == \
            "n,c,p,trials,successes,freq,ci_low,ci_high,method,seed,r"
        assert len(lines) == 1 + 2
        first = lines[1].split(",")
        assert first[0] == "8" and first[9] == "3" and first[10] == "4"
        rows = [c.record() for c in res.cells]
        assert len(rows) == 2
        assert set(rows[0]) == {"n", "c", "p", "trials", "successes", "freq",
                                "ci_low", "ci_high", "method", "seed", "r"}

    def test_cells_in_grid_order(self):
        spec = SweepSpec(n_values=(8, 12), c_values=(2.0, 4.0), trials=5,
                         seed=4)
        res = run_sweep(spec)
        assert [(c.n, c.c) for c in res.cells] == \
            [(8, 2.0), (8, 4.0), (12, 2.0), (12, 4.0)]


class TestSweepHelperFailures:
    """Helpers inherit a patched ``lab.exact_loose_hamilton`` through the
    fork."""

    SPEC = SweepSpec(n_values=(8,), c_values=(2.0, 16.0), trials=6, seed=14)

    @staticmethod
    def patch_trial(monkeypatch, in_helper=None, in_caller=None):
        caller, real = os.getpid(), lab.exact_loose_hamilton

        def trial(h, **kwargs):
            hook = in_caller if os.getpid() == caller else in_helper
            if hook is not None:
                hook()
            return real(h, **kwargs)

        monkeypatch.setattr(lab, "exact_loose_hamilton", trial)

    def test_helper_exception_raised_in_caller(self, monkeypatch):
        def fail():
            raise LookupError("trial 3 of the helper")

        self.patch_trial(monkeypatch, in_helper=fail)
        with pytest.raises(LookupError) as info:
            run_sweep(self.SPEC, workers=2)
        assert info.type is LookupError
        assert str(info.value) == "trial 3 of the helper"
        assert multiprocessing.active_children() == []

    def test_helper_that_dies_names_its_exit_code(self, monkeypatch):
        self.patch_trial(monkeypatch, in_helper=lambda: os._exit(7))
        with pytest.raises(RuntimeError, match="exited with code 7 "):
            run_sweep(self.SPEC, workers=3)
        assert multiprocessing.active_children() == []

    def test_caller_exception_kills_every_helper(self, monkeypatch):
        def fail():
            raise ValueError("caller share")

        helpers = []
        fork = lab._fork_helper

        def record(*share):
            helper = fork(*share)
            helpers.append(helper[0])
            return helper

        # the helpers would sleep far longer than the test if left to run
        self.patch_trial(monkeypatch, in_helper=lambda: time.sleep(20),
                         in_caller=fail)
        monkeypatch.setattr(lab, "_fork_helper", record)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^caller share$"):
            run_sweep(self.SPEC, workers=3)
        assert time.perf_counter() - t0 < 10
        assert [p.exitcode for p in helpers] == [-signal.SIGKILL] * 2
        assert multiprocessing.active_children() == []

    def test_no_child_left_after_a_sweep(self):
        run_sweep(self.SPEC, workers=4)
        assert multiprocessing.active_children() == []


class TestIsolatedExperiment:
    def test_p_zero_and_one_edges(self):
        cells = isolated_experiment((8,), (0.0, 1e9), trials=200, seed=5)
        empty, full = cells
        assert empty.p == 0.0
        assert empty.mean_isolated == 8.0
        assert empty.z_score == 0.0
        assert empty.prob_at_least_one == 1.0
        assert full.p == 1.0
        assert full.mean_isolated == 0.0
        assert full.z_score == 0.0
        assert full.prob_at_least_one == 0.0

    def test_every_vertex_isolated_at_tiny_p(self):
        # p is about 3e-19 here, below where a raw geometric gap wraps int64
        (cell,) = isolated_experiment([8], [1e-17], 3, 0)
        assert cell.mean_isolated == 8.0
        assert cell.z_score == 0.0

    def test_mean_matches_closed_form(self):
        (cell,) = isolated_experiment((16,), (0.5,), trials=10_000, seed=6)
        assert abs(cell.z_score) <= 3.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            isolated_experiment((8,), (1.0,), trials=trials, seed=7)

    @pytest.mark.parametrize("n", [0, -4])
    def test_rejects_n_below_three(self, n):
        with pytest.raises(ValueError, match=f"need n >= 3, got {n}"):
            isolated_experiment((n,), (1.0,), trials=1, seed=7)

    def test_rejects_empty_c_grid(self):
        # refused as SweepSpec refuses an empty grid, not run as no cells
        with pytest.raises(ValueError,
                           match="n and c grids must be non-empty"):
            isolated_experiment((8,), (), trials=5, seed=7)

    def test_n_grid_is_the_cells_of_each_n(self):
        # cell (n, c_values[k]) draws from (seed, k, trial) for every n
        c, trials, seed = (0.5, 2.0), 20, 9
        assert isolated_experiment((8, 16), c, trials, seed) == \
            isolated_experiment((8,), c, trials, seed) + \
            isolated_experiment((16,), c, trials, seed)

    @pytest.mark.parametrize("n_values,c_values,trials,seed,error,message", [
        ((16, 2), (1.0,), 5, 7, ValueError, "need n >= 3, got 2"),
        ((8, 16), (), 5, 7, ValueError, "n and c grids must be non-empty"),
        ((8, 16), (1.0, math.nan), 5, 7, ValueError,
         "c must be finite and >= 0, got nan"),
        ((8, 16), (1.0, math.inf), 5, 7, ValueError,
         "c must be finite and >= 0, got inf"),
        ((8, 8.5), (1.0,), 3, 0, TypeError, "cannot be interpreted as an integer"),
        ((8,), (1.0,), 2.5, 7, TypeError, "cannot be interpreted as an integer"),
        ((8,), (1.0,), 5, 1.5, TypeError, "cannot be interpreted as an integer"),
    ], ids=["n", "empty-c", "nan-c", "inf-c", "float-n", "float-trials",
            "float-seed"])
    def test_grid_refused_before_any_trial(self, n_values, c_values, trials,
                                           seed, error, message, monkeypatch):
        draws = []
        monkeypatch.setattr(lab, "_sample_h3_batch",
                            lambda *args: draws.append(args))
        with pytest.raises(error, match=message):
            isolated_experiment(n_values, c_values, trials, seed)
        assert not draws

    def test_batches_match_one_draw_per_trial(self):
        # 150 trials span three batches, the last one short
        trials, seed = 150, 8
        (cell,) = isolated_experiment((12,), (2.0,), trials, seed)
        p = probability_from_c(12, 2.0)
        counts = [len(isolated_vertices(
            sample_h3(12, p, derived_rng(seed, 0, t)))) for t in range(trials)]
        assert cell.mean_isolated == sum(counts) / trials
        assert cell.prob_at_least_one == sum(k >= 1 for k in counts) / trials

    def test_record_fields(self):
        (cell,) = isolated_experiment((8,), (1.0,), trials=50, seed=7)
        assert set(cell.record()) == {
            "n", "c", "p", "trials", "mean_isolated", "expected", "z_score",
            "prob_at_least_one"}


class TestContiguityProbe:
    def test_smallest_case_matches_exhaustive(self):
        report = contiguity_probe(4, 1, trials=4000, seed=8)
        assert report.union.all_regular and report.pairing.all_regular

        # union of two K4 matchings: excess 2 with probability 1/3,
        # Hamiltonian (the two matchings differ) with probability 2/3
        trials = report.trials
        dist = dict(report.union.parallel_dist)
        for value, prob in ((0, 2 / 3), (2, 1 / 3)):
            sigma = math.sqrt(prob * (1 - prob) / trials)
            assert abs(dist.get(value, 0) / trials - prob) <= 3 * sigma
        sigma = math.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(report.union.hamilton_freq - 2 / 3) <= 3 * sigma

        # loopless pairing model at d=2: single 4-cycle with probability
        # 48/60 (all 105 pairings of 8 stubs, loops rejected)
        sigma = math.sqrt(0.8 * 0.2 / trials)
        assert abs(report.pairing.hamilton_freq - 0.8) <= 3 * sigma

    @pytest.mark.parametrize("m2,trials", [(8, 300), (16, 150)])
    def test_regularity_and_summaries_emitted(self, m2, trials):
        report = contiguity_probe(m2, 4, trials=trials, seed=9)
        assert report.union.all_regular
        assert report.pairing.all_regular
        assert report.union.degree == report.pairing.degree == 8
        payload = asdict(report)
        assert payload["m2"] == m2
        assert payload["union"]["parallel_dist"]
        assert payload["pairing"]["triangle_mean"] >= 0.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            contiguity_probe(8, 4, trials=trials, seed=10)

    @pytest.mark.parametrize("m2", [2, 4, 6, 8])
    @pytest.mark.parametrize("r", [1, 2])
    def test_hamilton_freq_matches_naive_scan(self, m2, r):
        # redraw each model's graphs from the probe's own streams and decide
        # them by permutation scan
        trials, seed = 60, 11
        report = contiguity_probe(m2, r, trials=trials, seed=seed)
        samplers = (lambda gen: sample_union_matchings(m2, r, gen),
                    lambda gen: sample_pairing_regular(m2, 2 * r, gen))
        freqs = [sum(hamilton_exists_naive(sampler(derived_rng(seed, k, t)))
                     for t in range(trials)) / trials
                 for k, sampler in enumerate(samplers)]
        assert freqs == [report.union.hamilton_freq,
                         report.pairing.hamilton_freq]

    @pytest.mark.parametrize("m2", [4, 6, 8, 10])
    @pytest.mark.parametrize("r", [1, 2])
    def test_triangle_stats_match_brute_force(self, m2, r):
        # redraw each model's graphs from the probe's own streams and count
        # the skeleton's triangles over every vertex triple
        trials, seed = 60, 12
        report = contiguity_probe(m2, r, trials=trials, seed=seed)
        samplers = (lambda gen: sample_union_matchings(m2, r, gen),
                    lambda gen: sample_pairing_regular(m2, 2 * r, gen))
        for k, (sampler, stats) in enumerate(
                zip(samplers, (report.union, report.pairing))):
            counts = []
            for t in range(trials):
                g = sampler(derived_rng(seed, k, t))
                adjacent = {(u, v) for u, v, _c in g.edges if u != v}
                counts.append(sum(
                    {(a, b), (a, c), (b, c)} <= adjacent
                    for a, b, c in combinations(range(1, m2 + 1), 3)))
            assert (stats.triangle_mean, stats.triangle_std) == \
                (sum(counts) / trials, statistics.pstdev(counts))

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            report = contiguity_probe(8, 4, trials=50, seed=1)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert report.union.hamilton_freq is not None

    def test_hamilton_skipped_above_limit(self):
        report = contiguity_probe(16, 1, trials=5, seed=10)
        assert report.union.hamilton_freq is None
