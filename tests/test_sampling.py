import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looselab import (
    TripleSystem,
    sample_copyset_partition,
    sample_coupled,
    sample_gamma,
    sample_h3,
    sample_pairing_regular,
    sample_union_matchings,
    split_probability,
)
from looselab.sampling import (
    derived_rng,
    rng_from_seed,
    unrank_pairs,
    unrank_triples,
)

from oracles import complete_triple_system


def reconstruct(p1: float, power: int) -> float:
    # 1 - (1 - p1)^power without cancellation
    return -math.expm1(power * math.log1p(-p1))


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


class TestSplitProbability:
    def test_zero(self):
        sp = split_probability(0.0, 3)
        assert sp.p1 == sp.p2 == sp.q == 0.0

    def test_one_degenerate(self):
        sp = split_probability(1.0, 4)
        assert sp.p1 == sp.p2 == sp.q == 1.0

    def test_closed_form_small_case(self):
        sp = split_probability(0.01, 4)
        assert rel_err(sp.p1, 1.0 - 0.99 ** (1.0 / 8.0)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-12, max_value=0.99),
        st.integers(min_value=1, max_value=8),
    )
    def test_identities_round_trip(self, p, r):
        sp = split_probability(p, r)
        assert rel_err(reconstruct(sp.p1, 2 * r), p) <= 1e-12
        assert rel_err(reconstruct(sp.p2, r), sp.p1) <= 1e-12
        assert rel_err(reconstruct(sp.p1, r), sp.q) <= 1e-12

    def test_tiny_p_stable(self):
        sp = split_probability(1e-12, 4)
        assert rel_err(reconstruct(sp.p1, 8), 1e-12) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            split_probability(-0.1, 2)
        with pytest.raises(ValueError):
            split_probability(1.5, 2)
        with pytest.raises(ValueError):
            split_probability(0.5, 0)


class TestUnranking:
    @pytest.mark.parametrize("n", [3, 4, 5, 9, 16, 33])
    def test_triples_match_lex_order(self, n):
        a, b, c = unrank_triples(n, np.arange(math.comb(n, 3)))
        assert list(zip(a.tolist(), b.tolist(), c.tolist())) == \
            list(combinations(range(1, n + 1), 3))

    def test_triples_closed_form_at_large_n(self):
        n = 3000
        total = math.comb(n, 3)
        ranks = np.concatenate([
            np.arange(5000), np.arange(total - 5000, total),
            rng_from_seed(17).integers(0, total, size=100_000)])
        a, b, c = unrank_triples(n, ranks)
        assert ((1 <= a) & (a < b) & (b < c) & (c <= n)).all()

        def comb2(k):
            return k * (k - 1) // 2

        def comb3(k):
            return k * (k - 1) * (k - 2) // 6

        # rank of (a, b, c): triples led by a smaller first element, then
        # pairs led by a smaller second element, then c's offset
        back = (total - comb3(n - a + 1) + comb2(n - a) - comb2(n - b + 1)
                + (c - b - 1))
        assert (back == ranks).all()

    @pytest.mark.parametrize("m", [2, 5, 12, 40])
    def test_pairs_match_lex_order(self, m):
        u, v = unrank_pairs(m, np.arange(math.comb(m, 2)))
        assert list(zip(u.tolist(), v.tolist())) == \
            list(combinations(range(1, m + 1), 2))


class TestSampleH3:
    def test_p_one_complete(self):
        h = sample_h3(7, 1.0, rng_from_seed(0))
        assert len(h.edge_list) == math.comb(7, 3)

    def test_p_zero_empty(self):
        assert sample_h3(7, 0.0, rng_from_seed(0)).edge_list == ()

    def test_deterministic_for_seed(self):
        a = sample_h3(20, 0.07, rng_from_seed(99))
        b = sample_h3(20, 0.07, rng_from_seed(99))
        assert a == b

    def test_large_sparse_is_cheap(self):
        h = sample_h3(400, 1e-7, rng_from_seed(1))
        assert len(h.edge_list) < 40

    def test_fixed_triple_marginal(self):
        n, p, trials = 12, 0.05, 100_000
        gen = rng_from_seed(314)
        hits = sum((2, 5, 9) in sample_h3(n, p, gen).edges
                   for _ in range(trials))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma


class TestCopySet:
    def test_block_sizes_and_multiplicity(self):
        blocks = sample_copyset_partition(3, 4, rng_from_seed(5))
        assert len(blocks) == 8
        assert all(len(b) == 3 for b in blocks)
        assert sorted(el for blk in blocks for el in blk) == \
            [(y, i) for y in range(7, 13) for i in range(1, 5)]

    def test_default_base_colors(self):
        blocks = sample_copyset_partition(2, 1, rng_from_seed(5))
        assert {y for blk in blocks for y, _ in blk} == {5, 6, 7, 8}

    def test_smallest_case_uniform(self):
        # m=1, r=1: two elements into two singleton blocks
        trials = 10_000
        gen = rng_from_seed(77)
        first = sum(
            sample_copyset_partition(1, 1, gen)[0][0][0] == 3
            for _ in range(trials))
        sigma = math.sqrt(0.25 / trials)
        assert abs(first / trials - 0.5) <= 3 * sigma


class TestSampleGamma:
    def test_p_one_complete(self):
        ts = sample_gamma(("a", "b"), 1.0, rng_from_seed(0))
        assert len(ts.present) == math.comb(4, 2) * 2

    def test_p_zero_empty(self):
        ts = sample_gamma(("a", "b"), 0.0, rng_from_seed(0))
        assert ts.present == frozenset()

    def test_requires_a_slot(self):
        with pytest.raises(ValueError, match="need at least one slot"):
            sample_gamma((), 0.5, rng_from_seed(0))

    def test_fixed_triple_marginal(self):
        p1, trials = 0.1, 100_000
        gen = rng_from_seed(8)
        target = ((1, 3), "b")
        hits = sum(target in sample_gamma(("a", "b"), p1, gen).present
                   for _ in range(trials))
        sigma = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(hits / trials - p1) <= 3 * sigma


class TestSampleCoupled:
    def test_rejects_bad_n(self):
        for n in (6, 10, 4):
            with pytest.raises(ValueError):
                sample_coupled(n, 0.5, 2, rng_from_seed(0))

    def test_p_zero_all_empty(self):
        h, systems = sample_coupled(8, 0.0, 2, rng_from_seed(0))
        assert h.edge_list == ()
        assert all(ts.present == frozenset() for ts in systems)

    def test_shapes(self):
        h, systems = sample_coupled(16, 0.3, 4, rng_from_seed(1))
        assert len(systems) == 8
        # the 2r slot blocks partition the copy set {(y, i)}
        assert all(ts.m == 4 for ts in systems)
        assert sorted(el for ts in systems for el in ts.slots) == \
            [(y, i) for y in range(9, 17) for i in range(1, 5)]

    def test_projection_containment(self):
        gen = rng_from_seed(2)
        for _ in range(50):
            h, systems = sample_coupled(16, 0.4, 4, gen)
            for ts in systems:
                for (x1, x2), (y, _i) in ts.present:
                    assert (x1, x2, y) in h.edges

    def test_marginals_both_shapes(self):
        n, r, p, trials = 16, 4, 0.2, 20_000
        gen = rng_from_seed(3)
        coupled_hits = other_hits = 0
        for _ in range(trials):
            h, _systems = sample_coupled(n, p, r, gen)
            coupled_hits += (1, 2, 9) in h.edges
            other_hits += (2, 3, 4) in h.edges
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(coupled_hits / trials - p) <= 3 * sigma
        assert abs(other_hits / trials - p) <= 3 * sigma

    def test_deterministic_for_seed(self):
        a = sample_coupled(16, 0.3, 4, rng_from_seed(10))
        b = sample_coupled(16, 0.3, 4, rng_from_seed(10))
        assert a[0] == b[0]
        assert all(x.slots == y.slots and x.present == y.present
                   for x, y in zip(a[1], b[1]))


class TestUnionMatchings:
    def test_regular_and_edge_count(self):
        gen = rng_from_seed(4)
        for _ in range(50):
            g = sample_union_matchings(8, 4, gen)
            assert len(g.edges) == 4 * 8
            assert all(d == 8 for d in g.degrees.values())

    def test_colored_variant_equitable(self):
        from looselab import is_equitable

        gen = rng_from_seed(5)
        for _ in range(50):
            g = sample_union_matchings(8, 4, gen, colored=True)
            assert g.colors == tuple(range(9, 17))
            assert is_equitable(g, 4)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            sample_union_matchings(5, 2, rng_from_seed(0))

    @pytest.mark.parametrize("r", [1, 2])
    def test_duplicate_excess_matches_exhaustive(self, r):
        # enumerate all 3^(2r) tuples of K4 matchings for the exact law
        matchings = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        exact = Counter()

        def rec(depth, acc):
            if depth == 2 * r:
                exact[len(acc) - len(set(acc))] += 1
                return
            for m in matchings:
                rec(depth + 1, acc + list(m))

        rec(0, [])
        total = 3 ** (2 * r)
        trials = 4000
        gen = rng_from_seed(6)
        seen = Counter()
        for _ in range(trials):
            g = sample_union_matchings(4, r, gen)
            pairs = Counter(e.pair for e in g.edges)
            seen[len(g.edges) - len(pairs)] += 1
        for value, count in exact.items():
            prob = count / total
            sigma = math.sqrt(prob * (1 - prob) / trials)
            assert abs(seen[value] / trials - prob) <= 3 * sigma + 1e-9


class TestPairingModel:
    def test_regular_and_loopless(self):
        gen = rng_from_seed(7)
        for _ in range(50):
            g = sample_pairing_regular(8, 3, gen)
            assert all(d == 3 for d in g.degrees.values())
            assert all(e.u != e.v for e in g.edges)

    def test_d1_uniform_perfect_matching(self):
        trials = 6000
        gen = rng_from_seed(8)
        seen = Counter()
        for _ in range(trials):
            g = sample_pairing_regular(4, 1, gen)
            seen[tuple(sorted(e.pair for e in g.edges))] += 1
        assert len(seen) == 3
        sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
        for count in seen.values():
            assert abs(count / trials - 1 / 3) <= 3 * sigma

    def test_four_cycle_rate_matches_pairing_law(self):
        # enumerate all 105 pairings of 8 stubs for the exact conditional law
        def pairings(stubs):
            if not stubs:
                yield []
                return
            a = stubs[0]
            for i in range(1, len(stubs)):
                rest = stubs[1:i] + stubs[i + 1:]
                for sub in pairings(rest):
                    yield [(a, stubs[i])] + sub

        loopless = single = 0
        for pr in pairings(list(range(8))):
            edges = [(a // 2, b // 2) for a, b in pr]
            if any(u == v for u, v in edges):
                continue
            loopless += 1
            if len({tuple(sorted(e)) for e in edges}) == 4:
                single += 1
        exact = single / loopless

        trials = 4000
        gen = rng_from_seed(9)
        hits = 0
        for _ in range(trials):
            g = sample_pairing_regular(4, 2, gen)
            hits += len({e.pair for e in g.edges}) == 4
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits / trials - exact) <= 3 * sigma

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            sample_pairing_regular(5, 3, rng_from_seed(0))
        with pytest.raises(ValueError):
            sample_pairing_regular(1, 2, rng_from_seed(0))


class TestStreams:
    def test_derived_streams_differ_by_index(self):
        a = sample_h3(12, 0.2, derived_rng(5, 0))
        b = sample_h3(12, 0.2, derived_rng(5, 1))
        assert a != b

    def test_derived_streams_reproduce(self):
        assert sample_h3(12, 0.2, derived_rng(5, 3)) == \
            sample_h3(12, 0.2, derived_rng(5, 3))

    def test_every_sampler_reproduces_bit_for_bit(self):
        def edges(g):
            return [(e.u, e.v, e.color) for e in g.edges]

        a = sample_union_matchings(8, 2, rng_from_seed(17), colored=True)
        b = sample_union_matchings(8, 2, rng_from_seed(17), colored=True)
        assert edges(a) == edges(b)
        a = sample_pairing_regular(8, 3, rng_from_seed(18))
        b = sample_pairing_regular(8, 3, rng_from_seed(18))
        assert edges(a) == edges(b)
        assert sample_copyset_partition(3, 2, rng_from_seed(19)) == \
            sample_copyset_partition(3, 2, rng_from_seed(19))
        a = sample_gamma(("a", "b", "c"), 0.4, rng_from_seed(20))
        b = sample_gamma(("a", "b", "c"), 0.4, rng_from_seed(20))
        assert a.present == b.present


class TestTripleSystem:
    def test_complete_count(self):
        ts = complete_triple_system(("a", "b", "c"))
        assert len(ts.present) == math.comb(6, 2) * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TripleSystem(("a", "b"),
                         frozenset({((2, 1), "a")}))  # unordered pair
        with pytest.raises(ValueError):
            TripleSystem(("a", "b"),
                         frozenset({((1, 2), "z")}))  # unknown slot
        with pytest.raises(ValueError):
            TripleSystem(("a", "b"),
                         frozenset({((3, 5), "a")}))  # 5 outside X = 1..4
