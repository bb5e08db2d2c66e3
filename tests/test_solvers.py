from itertools import combinations

import pytest

from looselab import (
    BudgetExhausted,
    ColoredEdge,
    ColoredMultigraph,
    TripleSystem,
    exact_matching,
    exact_rainbow_hamilton,
    verify_matching,
    verify_rainbow_hamilton,
)
from looselab.lab import probability_from_c
from looselab.sampling import rng_from_seed, sample_coupled

from oracles import (complete_triple_system, perfect_matching_exists_naive,
                     rainbow_hamilton_exists_naive, relabelled_matching)

XS4 = (1, 2, 3, 4)
SLOTS2 = ("a", "b")
ALL_TRIPLES_M2 = [((x1, x2), s)
                  for x1, x2 in combinations(XS4, 2) for s in SLOTS2]


def system_m2(present):
    return TripleSystem(SLOTS2, frozenset(present))


def random_system(rng, xs, slots, density):
    pool = [((x1, x2), s)
            for x1, x2 in combinations(xs, 2) for s in slots]
    mask = rng.random(len(pool)) < density
    return TripleSystem(tuple(slots),
                        frozenset(t for t, keep in zip(pool, mask) if keep))


class TestExactMatching:
    def test_simple_instance(self):
        ts = system_m2([((1, 2), "a"), ((3, 4), "b")])
        pm = exact_matching(ts)
        assert pm is not None
        assert set(pm) == {((1, 2), "a"), ((3, 4), "b")}

    def test_uncoverable_vertex(self):
        ts = system_m2([((1, 2), "a"), ((1, 3), "b")])
        assert exact_matching(ts) is None

    def test_exhaustive_m2_space_agrees_with_naive(self):
        # every subset of the 12 possible triples
        for mask in range(1 << len(ALL_TRIPLES_M2)):
            ts = system_m2([t for i, t in enumerate(ALL_TRIPLES_M2)
                            if mask >> i & 1])
            got = exact_matching(ts) is not None
            assert got == perfect_matching_exists_naive(ts), f"mask={mask}"

    def test_returned_matchings_verify(self):
        rng = rng_from_seed(1)
        for _ in range(100):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.3)
            pm = exact_matching(ts)
            if pm is not None:
                assert verify_matching(ts, pm)

    def test_matches_naive_on_m3(self):
        rng = rng_from_seed(2)
        for _ in range(150):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.25)
            assert (exact_matching(ts) is not None) == \
                perfect_matching_exists_naive(ts)

    def test_monotone_under_added_triples(self):
        rng = rng_from_seed(3)
        for _ in range(80):
            ts = random_system(rng, range(1, 7), ("a", "b", "c"), 0.2)
            pool = [((x1, x2), s) for x1, x2 in combinations(range(1, 7), 2)
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
        planted = {((2 * k + 1, 2 * k + 2), slots[k]) for k in range(m)}
        rng = rng_from_seed(4)
        decoys = set()
        for _ in range(3 * m):
            x1, x2 = sorted(rng.choice(xs, size=2, replace=False).tolist())
            decoys.add(((x1, x2), slots[int(rng.integers(m))]))
        ts = TripleSystem(slots, frozenset(planted | decoys))
        pm = exact_matching(ts)
        assert pm is not None
        assert verify_matching(ts, pm)
        assert exact_matching(TripleSystem(slots, frozenset())) is None

    def test_seed_free_deterministic(self):
        ts = complete_triple_system(("a", "b", "c", "d"))
        assert exact_matching(ts) == exact_matching(ts)

    def test_generator_numbering_is_the_relabelled_search(self):
        # the generator's two permutations number the columns exactly as a
        # relabelled copy of the system would: same matching, same draws
        systems = [TripleSystem(("a", "b", "c"), frozenset())]
        for n, p in ((28, 0.9), (40, probability_from_c(40, 64))):
            for seed in range(60):
                systems += sample_coupled(n, p, 4, rng_from_seed(seed))[1]
        found = 0
        for k, ts in enumerate(systems):
            g1, g2 = rng_from_seed(k), rng_from_seed(k)
            pm = exact_matching(ts, gen=g1)
            assert pm == relabelled_matching(ts, g2), f"system {k}"
            assert g1.bit_generator.state == g2.bit_generator.state
            found += pm is not None
        assert 0 < found < len(systems)


def rainbow_square_with_clutter():
    edges = [ColoredEdge(1, 2, 5), ColoredEdge(2, 3, 6), ColoredEdge(3, 4, 7),
             ColoredEdge(1, 4, 8)]
    edges += [ColoredEdge(1, 3, 5), ColoredEdge(2, 4, 5), ColoredEdge(1, 2, 5)]
    return ColoredMultigraph(4, (5, 6, 7, 8), edges)


def random_colored(rng, nv=4, max_edges=8, palette=(5, 6, 7, 8)):
    pairs = list(combinations(range(1, nv + 1), 2))
    k = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(k):
        u, v = pairs[int(rng.integers(len(pairs)))]
        edges.append(ColoredEdge(u, v, palette[int(rng.integers(len(palette)))]))
    return ColoredMultigraph(nv, palette, edges)


class TestExactRainbow:
    def test_square_with_clutter_found(self):
        g = rainbow_square_with_clutter()
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)

    def test_monochromatic_absent(self):
        edges = [ColoredEdge(u, v, 5)
                 for u, v in combinations(range(1, 5), 2)]
        g = ColoredMultigraph(4, (5, 6, 7, 8), edges)
        assert exact_rainbow_hamilton(g) is None

    def test_two_vertex_parallel_edges(self):
        g = ColoredMultigraph(2, (3, 4),
                              [ColoredEdge(1, 2, 3), ColoredEdge(1, 2, 4)])
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)

    def test_matches_naive_oracle(self):
        rng = rng_from_seed(5)
        for _ in range(200):
            g = random_colored(rng)
            assert (exact_rainbow_hamilton(g) is not None) == \
                rainbow_hamilton_exists_naive(g), g.edges

    def test_no_size_cap(self):
        # 24 vertices are searched, not refused: a rainbow 24-cycle is
        # found, and an edgeless graph is proven to have none
        nv = 24
        edges = [ColoredEdge(i, i % nv + 1, nv + i) for i in range(1, nv + 1)]
        g = ColoredMultigraph(nv, tuple(range(nv + 1, 2 * nv + 1)), edges)
        cert = exact_rainbow_hamilton(g)
        assert cert is not None
        assert verify_rainbow_hamilton(g, cert)
        assert exact_rainbow_hamilton(ColoredMultigraph(nv, (), [])) is None

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
            exact_rainbow_hamilton(ColoredMultigraph(1, (), []), budget=budget)

    def test_seed_free_deterministic(self):
        g = rainbow_square_with_clutter()
        assert exact_rainbow_hamilton(g) == exact_rainbow_hamilton(g)
