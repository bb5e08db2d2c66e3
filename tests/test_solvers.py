import gc
from collections import Counter
from itertools import combinations

import pytest

from looselab import (
    BudgetExhausted,
    ColoredMultigraph,
    build_gstar,
    exact_matching,
    exact_rainbow_hamilton,
    run_pipeline,
    verify_rainbow_hamilton,
)
from looselab.lab import probability_from_c
from looselab.sampling import TripleSystem, derived_rng, sample_coupled
from looselab.solvers import verify_matching

from oracles import (complete_triple_system, perfect_matching_exists_naive,
                     rainbow_full_scan, rainbow_hamilton_exists_naive,
                     relabelled_matching)

XS4 = (1, 2, 3, 4)
SLOTS2 = ("a", "b")
ALL_TRIPLES_M2 = [(x1, x2, s)
                  for x1, x2 in combinations(XS4, 2) for s in SLOTS2]


def system_m2(present):
    return TripleSystem(SLOTS2, frozenset(present))


def random_system(rng, xs, slots, density):
    pool = [(x1, x2, s)
            for x1, x2 in combinations(xs, 2) for s in slots]
    mask = rng.random(len(pool)) < density
    return TripleSystem(tuple(slots),
                        frozenset(t for t, keep in zip(pool, mask) if keep))


class TestExactMatching:
    def test_simple_instance(self):
        ts = system_m2([(1, 2, "a"), (3, 4, "b")])
        pm = exact_matching(ts)
        assert pm is not None
        assert set(pm) == {(1, 2, "a"), (3, 4, "b")}

    def test_uncoverable_vertex(self):
        ts = system_m2([(1, 2, "a"), (1, 3, "b")])
        assert exact_matching(ts) is None

    def test_exhaustive_m2_space_agrees_with_naive(self):
        # every subset of the 12 possible triples
        for mask in range(1 << len(ALL_TRIPLES_M2)):
            ts = system_m2([t for i, t in enumerate(ALL_TRIPLES_M2)
                            if mask >> i & 1])
            got = exact_matching(ts) is not None
            assert got == perfect_matching_exists_naive(ts), f"mask={mask}"

    def test_returned_matchings_verify(self):
        rng = derived_rng(1)
        for _ in range(100):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.3)
            pm = exact_matching(ts)
            if pm is not None:
                assert verify_matching(ts, pm)

    def test_matches_naive_on_m3(self):
        rng = derived_rng(2)
        for _ in range(150):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.25)
            assert (exact_matching(ts) is not None) == \
                perfect_matching_exists_naive(ts)

    def test_monotone_under_added_triples(self):
        rng = derived_rng(3)
        for _ in range(80):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.2)
            pool = [(x1, x2, s) for x1, x2 in combinations(range(1, 7), 2)
                    for s in ("a", "b", "c")]
            extra = {pool[i] for i in
                     rng.choice(len(pool), size=6, replace=False).tolist()}
            bigger = TripleSystem(ts.slots, ts.present | extra)
            if exact_matching(ts) is not None:
                assert exact_matching(bigger) is not None

    def test_no_size_cap(self):
        # m=70 is searched, not refused: a planted perfect matching among
        # random decoys is found, and an edgeless system has none
        m = 70
        xs = tuple(range(1, 2 * m + 1))
        slots = tuple(range(1000, 1000 + m))
        planted = {(2 * k + 1, 2 * k + 2, slots[k]) for k in range(m)}
        rng = derived_rng(4)
        decoys = set()
        for _ in range(3 * m):
            x1, x2 = sorted(rng.choice(xs, size=2, replace=False).tolist())
            decoys.add((x1, x2, slots[int(rng.integers(m))]))
        ts = TripleSystem(slots, frozenset(planted | decoys))
        pm = exact_matching(ts)
        assert pm is not None
        assert verify_matching(ts, pm)
        assert exact_matching(TripleSystem(slots, frozenset())) is None

    def test_depth_beyond_the_recursion_limit(self):
        # a planted matching of 1200 triples is 1200 choices deep, beyond
        # Python's default recursion limit of 1000, so the search must not
        # recurse; an edgeless system still expands no node
        m = 1200
        slots = tuple(range(2 * m + 1, 3 * m + 1))
        ts = TripleSystem(slots, frozenset(
            (2 * k + 1, 2 * k + 2, slots[k]) for k in range(m)))
        stats = {}
        pm = exact_matching(ts, stats=stats)
        assert verify_matching(ts, pm)
        assert stats["nodes"] == m + 1
        stats = {}
        assert exact_matching(TripleSystem(slots, frozenset()),
                              stats=stats) is None
        assert stats == {"nodes": 0}

    def test_leaves_no_cyclic_garbage(self):
        # a search's state is freed by reference counting when it returns,
        # found, absent or failing at the root alike
        systems = [ts for seed in range(4) for ts in
                   sample_coupled(28, 0.9, 4, derived_rng(seed))[1]]
        systems += sample_coupled(40, probability_from_c(40, 16), 4,
                                  derived_rng(0))[1]
        gens = [derived_rng(k) for k in range(len(systems))]
        gc.collect()
        gc.disable()
        try:
            outcomes = {exact_matching(ts, gen=g, stats={}) is None
                        for ts, g in zip(systems, gens)}
            outcomes |= {exact_matching(ts) is None for ts in systems}
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert outcomes == {True, False}

    def test_seed_free_deterministic(self):
        ts = complete_triple_system(("a", "b", "c", "d"))
        assert exact_matching(ts) == exact_matching(ts)

    def test_generator_numbering_is_the_relabelled_search(self):
        # the generator's two permutations number the columns exactly as a
        # relabelled copy of the system would: same matching, same draws
        systems = [TripleSystem(("a", "b", "c"), frozenset())]
        for n, p in ((28, 0.9), (40, probability_from_c(40, 64))):
            for seed in range(60):
                systems += sample_coupled(n, p, 4, derived_rng(seed))[1]
        found = 0
        for k, ts in enumerate(systems):
            g1, g2 = derived_rng(k), derived_rng(k)
            pm = exact_matching(ts, gen=g1)
            assert pm == relabelled_matching(ts, g2), f"system {k}"
            assert g1.bit_generator.state == g2.bit_generator.state
            found += pm is not None
        assert 0 < found < len(systems)

    def test_unorderable_slots(self):
        # a str, an int and a tuple never compare, so the search must never
        # order two triples by their slots
        slots = ("a", 1, (2, 3))
        rng = derived_rng(5)
        found = 0
        for k in range(60):
            ts = random_system(rng, range(1, 7), slots, 0.35)
            exists = perfect_matching_exists_naive(ts)
            relabelled = exact_matching(ts, gen=derived_rng(k))
            assert relabelled == relabelled_matching(ts, derived_rng(k)), \
                f"system {k}"
            for pm in (exact_matching(ts), relabelled):
                assert (pm is not None) == exists, f"system {k}"
                assert pm is None or verify_matching(ts, pm)
            found += exists
        assert 0 < found < 60


def rainbow_square_with_clutter():
    edges = [(1, 2, 5), (2, 3, 6), (3, 4, 7), (1, 4, 8)]
    edges += [(1, 3, 5), (2, 4, 5), (1, 2, 5)]
    return ColoredMultigraph(4, edges)


def rainbow_ring(nv):
    """The nv-cycle 1, 2, ..., nv with a distinct color on every edge."""
    edges = [(i, i % nv + 1, nv + i) for i in range(1, nv + 1)]
    return ColoredMultigraph(nv, edges)


def rainbow_decision(engine, g, budget=10 ** 6):
    """An engine's "found" (its cert verified), None or "undecided" on g."""
    try:
        cert = engine(g, budget=budget)
    except BudgetExhausted:
        return "undecided"
    if cert is None:
        return None
    assert verify_rainbow_hamilton(g, cert), (cert, g.edges)
    return "found"


def random_colored(rng, nv=4, max_edges=8, palette=(5, 6, 7, 8), loops=False):
    pairs = list(combinations(range(1, nv + 1), 2))
    if loops:
        pairs += [(v, v) for v in range(1, nv + 1)]
    k = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(k):
        u, v = pairs[int(rng.integers(len(pairs)))]
        edges.append((u, v, palette[int(rng.integers(len(palette)))]))
    return ColoredMultigraph(nv, edges)


class TestExactRainbow:
    def test_square_with_clutter_found(self):
        g = rainbow_square_with_clutter()
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)

    def test_monochromatic_absent(self):
        edges = [(u, v, 5)
                 for u, v in combinations(range(1, 5), 2)]
        g = ColoredMultigraph(4, edges)
        assert exact_rainbow_hamilton(g) is None

    def test_two_vertex_parallel_edges(self):
        # each vertex has one distinct neighbour, which is all nv - 1 = 1
        # allows, and the second edge closes the one chosen path
        g = ColoredMultigraph(2, [(1, 2, 3), (1, 2, 4)])
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)

    def test_two_rainbow_triangles_absent(self):
        # six edges of six colors give every vertex two edges, but they
        # close two triangles, not a 6-cycle
        edges = [(1, 2, 7), (2, 3, 8), (1, 3, 9),
                 (4, 5, 10), (5, 6, 11), (4, 6, 12)]
        g = ColoredMultigraph(6, edges)
        assert exact_rainbow_hamilton(g) is None

    def test_matches_naive_oracle(self):
        # on 6 vertices the color-coverage prune is on when exactly 6
        # colors lie off the loops, which no cycle uses; a palette of 7
        # also draws graphs with 7 such colors, where it stays off
        for nv, max_edges, palette, loops in (
                (4, 8, (5, 6, 7, 8), False),
                (6, 30, tuple(range(7, 13)), True),
                (6, 30, tuple(range(7, 14)), True)):
            rng = derived_rng(5)
            found = 0
            for _ in range(200):
                g = random_colored(rng, nv, max_edges, palette, loops)
                exists = rainbow_hamilton_exists_naive(g)
                got = rainbow_decision(exact_rainbow_hamilton, g)
                assert got == ("found" if exists else None), g.edges
                found += exists
            assert 0 < found < 200

    def test_spare_color_may_stay_unused(self):
        # the 5-ring is the only Hamilton cycle and leaves the chord's
        # color unused, so the coverage prune must not fire on 6 colors
        edges = [(i, i % 5 + 1, 5 + i) for i in range(1, 6)]
        g = ColoredMultigraph(5, edges + [(1, 3, 11)])
        cert = exact_rainbow_hamilton(g)
        assert cert is not None and 11 not in cert.colors
        assert verify_rainbow_hamilton(g, cert)

    def test_no_size_cap(self):
        # 24 vertices are searched, not refused: a rainbow 24-cycle is
        # found, and an edgeless graph is proven to have none
        nv = 24
        g = rainbow_ring(nv)
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)
        assert exact_rainbow_hamilton(ColoredMultigraph(nv, [])) is None

    def test_depth_beyond_the_recursion_limit(self):
        # a path of 1100 vertices is deeper than Python's default
        # recursion limit of 1000, so the search must not recurse
        g = rainbow_ring(1100)
        stats = {}
        cert = exact_rainbow_hamilton(g, stats=stats)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)
        # one node per edge chosen, and the node that finds the cycle
        assert stats["nodes"] == 1101

    def test_budget_bounds_a_large_search(self):
        # the 130-vertex G* of run_pipeline(260, c=600, r=4, seed=0), an
        # undecided trial, spends exactly the budget it is given
        gen = derived_rng(0)
        _, systems = sample_coupled(260, probability_from_c(260, 600), 4, gen)
        g = build_gstar([exact_matching(ts, gen=gen) for ts in systems],
                        systems)
        assert g.num_vertices == 130
        stats = {}
        with pytest.raises(BudgetExhausted):
            exact_rainbow_hamilton(g, budget=5000, stats=stats)
        assert stats["nodes"] == 5000

    def test_agrees_with_full_scan_reference(self):
        # the edge-choosing search must decide what the path-growing
        # reference decides, and a small budget may leave it undecided but
        # never change its answer.  Loops, spare colors and pairs with
        # several colors, which pipeline graphs rarely have, are where the
        # usable-edge rules could go wrong, so most inputs are small random
        # graphs with all three
        rng = derived_rng(6)
        outcomes = Counter()
        for k in range(2000):
            nv = 2 + k % 7
            palette = tuple(range(nv + 1, 2 * nv + 1 + k // 7 % 2))
            g = random_colored(rng, nv, 8 * nv, palette, loops=True)
            got = rainbow_decision(exact_rainbow_hamilton, g)
            assert got == rainbow_decision(rainbow_full_scan, g), g.edges
            small = rainbow_decision(exact_rainbow_hamilton, g, 3)
            assert small in (got, "undecided"), g.edges
            outcomes[got] += 1
            outcomes["undecided at 3"] += small == "undecided"
        assert min(outcomes[None], outcomes["found"]) > 50
        assert outcomes["undecided at 3"] > 50
        for n, seeds in ((28, 12), (40, 4)):
            for seed in range(seeds):
                g = run_pipeline(n, 0.9, 4, seed, keep_instance=True).gstar
                assert rainbow_decision(exact_rainbow_hamilton, g) \
                    == rainbow_decision(rainbow_full_scan, g), (n, seed)

    def test_budget_exhausted_is_not_absence(self):
        g = rainbow_square_with_clutter()
        stats = {}
        assert exact_rainbow_hamilton(g, stats=stats) is not None
        assert stats["nodes"] > 1
        with pytest.raises(BudgetExhausted):
            exact_rainbow_hamilton(g, budget=1)
        # a budget of exactly the nodes needed still decides
        assert exact_rainbow_hamilton(g, budget=stats["nodes"]) is not None

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            exact_rainbow_hamilton(rainbow_square_with_clutter(), budget=budget)
        # refused before any other check, even on a graph decided at once
        with pytest.raises(ValueError, match="budget must be >= 1"):
            exact_rainbow_hamilton(ColoredMultigraph(1, []), budget=budget)

    def test_seed_free_deterministic(self):
        g = rainbow_square_with_clutter()
        assert exact_rainbow_hamilton(g) == exact_rainbow_hamilton(g)
