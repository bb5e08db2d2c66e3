from collections import Counter

import pytest

from looselab import (
    Hypergraph3,
    build_gstar,
    exact_loose_hamilton,
    run_pipeline,
    sample_coupled,
    verify_loose_hamilton,
)
from looselab import pipeline
from looselab.colored import RainbowCycleCert
from looselab.hypergraph import BudgetExhausted
from looselab.lab import probability_from_c
from looselab.sampling import TripleSystem, derived_rng
from looselab.solvers import exact_matching, exact_rainbow_hamilton

from oracles import is_equitable, rainbow_hamilton_exists_naive


def smallest_systems():
    # r=1, m=1: copy-set blocks ((3, 1),) and ((4, 1),), each system full
    return [TripleSystem((slot,), frozenset({(1, 2, slot)}))
            for slot in ((3, 1), (4, 1))]


class TestBuildGstar:
    def test_two_parallel_edges_smallest_case(self):
        # r=1, m=1: two matchings over X={1,2} give two parallel edges
        # with the two distinct colors
        m1 = ((1, 2, (3, 1)),)
        m2 = ((1, 2, (4, 1)),)
        g = build_gstar([m1, m2], smallest_systems())
        assert len(g.edges) == 2
        assert {(u, v) for u, v, _c in g.edges} == {(1, 2)}
        assert {c for _u, _v, c in g.edges} == {3, 4}
        assert is_equitable(g, 1, (3, 4))

    def test_pipeline_inputs_regular_and_equitable(self):
        gen = derived_rng(0)
        for _ in range(25):
            h, systems = sample_coupled(16, 1.0, 4, gen)
            matchings = [exact_matching(ts) for ts in systems]
            g = build_gstar(matchings, systems)
            assert len(g.edges) == 2 * 4 * 4
            assert all(d == 8 for d in g.degrees.values())
            assert is_equitable(g, 4, range(9, 17))

    def test_edge_multiset_is_projection_of_triples(self):
        gen = derived_rng(1)
        h, systems = sample_coupled(8, 1.0, 4, gen)
        matchings = [exact_matching(ts) for ts in systems]
        g = build_gstar(matchings, systems)
        want = Counter()
        for pm in matchings:
            for x1, x2, (y, _i) in pm:
                want[(x1, x2, y)] += 1
        got = Counter(g.edges)
        assert got == want

    def test_rejects_inconsistent_inputs(self):
        systems = smallest_systems()
        wrong_slot = ((1, 2, (4, 1)),)
        with pytest.raises(ValueError, match="matching 1: triple not present"):
            build_gstar([wrong_slot, wrong_slot], systems)
        with pytest.raises(ValueError, match="expected 2 matchings"):
            build_gstar([wrong_slot], systems)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no triple systems"):
            build_gstar([], [])

    def test_rejects_matching_missing_from_its_system(self):
        # partitions X and uses block 1's slot, but system 1 lacks the triple
        systems = smallest_systems()
        systems[0] = TripleSystem(((3, 1),), frozenset())
        with pytest.raises(ValueError, match="matching 1: triple not present"):
            build_gstar([((1, 2, (3, 1)),), ((1, 2, (4, 1)),)], systems)


class TestRunPipeline:
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_p_one_succeeds_exact(self, n):
        rep = run_pipeline(n, 1.0, 4, seed=5, keep_instance=True)
        assert rep.success
        assert rep.failed_stage is None
        assert rep.matchings_found == 8
        assert verify_loose_hamilton(rep.hypergraph, rep.loose_cycle)

    def test_p_zero_fails_at_matching(self):
        rep = run_pipeline(8, 0.0, 4, seed=5)
        assert not rep.success
        assert rep.failed_stage == "matching"
        assert rep.matchings_found == 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            run_pipeline(10, 0.5, 4, seed=0)

    def test_soundness_and_oracle_confirmation(self):
        # every reported success verifies and is confirmed by the oracle;
        # at n=8 only p=1 gets past matching, so n=16 carries p < 1
        successes = {}
        for n, p in ((8, 1.0), (16, 0.9)):
            successes[n] = 0
            for seed in range(100):
                rep = run_pipeline(n, p, 4, seed=seed, keep_instance=True)
                if rep.success:
                    successes[n] += 1
                    assert verify_loose_hamilton(rep.hypergraph,
                                                 rep.loose_cycle)
                    assert exact_loose_hamilton(rep.hypergraph) is not None
        assert successes[8] == 100
        assert successes[16] >= 1

    def test_successes_verify_against_the_checked_build(self):
        # the lift asks the coupled draws about each window; here every
        # success also faces its edge list rebuilt by the checking
        # constructor and searched by bisect, so the draws never judge
        # alone (at n=8 only p=1 gets past matching)
        successes = Counter()
        for n, p in ((8, 0.9), (8, 1.0), (16, 0.9), (28, 0.9)):
            for seed in range(50):
                rep = run_pipeline(n, p, 4, seed=seed, keep_instance=True)
                if rep.success:
                    successes[n, p] += 1
                    checked = Hypergraph3(n, rep.hypergraph.edge_list)
                    assert verify_loose_hamilton(checked, rep.loose_cycle)
        assert successes[8, 1.0] == 50
        assert successes[16, 0.9] >= 1 and successes[28, 0.9] >= 1

    def test_n64_dense_succeeds_within_the_default_budget(self):
        # n=64 at p=0.9: every seed gets through matching, and the rainbow
        # search decides each G* (32 vertices) well inside its budget
        for seed in range(10):
            rep = run_pipeline(64, 0.9, 4, seed=seed, keep_instance=True)
            assert rep.success, (seed, rep.failed_stage)
            assert verify_loose_hamilton(rep.hypergraph, rep.loose_cycle)

    def test_r2_rainbow_answers_match_enumeration(self):
        # at r=2 and threshold-scale p most G* that reach the rainbow stage
        # have no rainbow Hamilton cycle; each ABSENT is checked here
        # against enumeration on the pipeline's own derived graphs
        reached = absent = 0
        for n, seeds in ((16, range(60)), (20, range(6))):
            for seed in seeds:
                rep = run_pipeline(n, probability_from_c(n, 64), 2,
                                   seed=seed, keep_instance=True)
                if rep.gstar is None:
                    continue
                found = exact_rainbow_hamilton(rep.gstar) is not None
                assert found == rainbow_hamilton_exists_naive(rep.gstar), \
                    (n, seed)
                reached += 1
                absent += not found
        assert reached == 60 and absent == 38

    def test_deterministic_report(self):
        a = run_pipeline(16, 0.9, 4, seed=11).to_dict()
        b = run_pipeline(16, 0.9, 4, seed=11).to_dict()
        a.pop("stage_seconds")
        b.pop("stage_seconds")
        assert a == b

    def test_rainbow_budget_exhausted_is_undecided(self, monkeypatch):
        def spent(g, *, stats=None):
            stats["nodes"] = 7
            raise BudgetExhausted("spent")

        monkeypatch.setattr(pipeline, "exact_rainbow_hamilton", spent)
        rep = run_pipeline(8, 1.0, 4, seed=1)
        assert not rep.success
        assert rep.failed_stage == "rainbow"
        assert rep.rainbow_undecided is True
        assert rep.stage_steps["rainbow"] == 7
        assert rep.to_dict()["rainbow_undecided"] is True

    def test_cert_that_does_not_lift_fails_lift_stage(self, monkeypatch):
        # a repeated color is a repeated middle: the verifier's verdict
        # fails the lift stage, nothing raises
        def repeated(g, *, stats=None):
            return RainbowCycleCert((1, 2, 3, 4), (5, 5, 6, 7))

        monkeypatch.setattr(pipeline, "exact_rainbow_hamilton", repeated)
        rep = run_pipeline(8, 1.0, 4, seed=1)
        assert not rep.success
        assert rep.failed_stage == "lift"
        assert rep.loose_cycle is None

    def test_report_serializes(self):
        rep = run_pipeline(8, 1.0, 4, seed=1)
        payload = rep.to_dict()
        assert payload["success"] is True
        assert payload["rainbow_undecided"] is False
        assert payload["loose_cycle"]["links"]
        assert payload["seed"] == 1
        assert set(rep.to_dict()) == {
            "n", "p", "r", "seed", "matchings_found", "rainbow_undecided",
            "success", "failed_stage", "matchings", "rainbow_cert",
            "loose_cycle", "stage_seconds", "stage_steps"}

    def test_matching_absent_from_its_system_rejected(self, monkeypatch):
        # each matching partitions X and uses its block's slots, but at
        # p = 0 no system contains any of its triples
        def outside(ts, *, gen=None, stats=None):
            pairs = [(1, 2)] + [(x, x + 1) for x in range(3, 2 * ts.m, 2)]
            return tuple((a, b, s) for (a, b), s in zip(pairs, ts.slots))

        monkeypatch.setattr(pipeline, "exact_matching", outside)
        with pytest.raises(ValueError, match="matching 1: triple not present"):
            run_pipeline(8, 0.0, 4, seed=1)

    def test_success_carries_witnesses(self):
        rep = run_pipeline(16, 1.0, 4, seed=2)
        assert rep.loose_cycle is not None
        assert rep.rainbow_cert is not None
        assert rep.matchings is not None and len(rep.matchings) == 8

