import gc
import math
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from looselab import (
    FormatError,
    Hypergraph3,
    LooseCycle,
    exact_loose_hamilton,
    read_hypergraph,
    sample_coupled,
    sample_h3,
    verify_loose_hamilton,
    write_hypergraph,
)
from looselab.hypergraph import LOOSE_CAP, expected_isolated, \
    isolated_vertices, read_claim, triple, write_claim
from looselab.lab import probability_from_c
from looselab.sampling import derived_rng

from oracles import complete_hypergraph, loose_hamilton_exists_naive, \
    random_hypergraph_instance


class TestTriple:
    def test_sorted(self):
        assert triple(3, 1, 2) == (1, 2, 3)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            triple(1, 1, 2)


class TestHypergraph3:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph3(4, [(1, 2, 3), (3, 2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph3(4, [(1, 2, 5)])

    def test_membership_any_order(self):
        h = Hypergraph3(5, [(1, 2, 3)])
        assert (1, 2, 3) in h
        assert (1, 2, 4) not in h
        assert (3, 2, 1) not in h


class TestMembership:
    """``t in h`` answers as a set of the edge list would, for every int
    tuple of length 2 to 4 over 0..n+1, in any order."""

    @staticmethod
    def check(h):
        edges = set(h.edge_list)
        for k in (2, 3, 4):
            for t in product(range(h.n + 2), repeat=k):
                assert (t in h) == (t in edges), t

    def test_constructed(self):
        rng = derived_rng(5)
        for h in (Hypergraph3(6), complete_hypergraph(6),
                  *(random_hypergraph_instance(rng, 6, 12) for _ in range(5))):
            self.check(h)

    def test_read(self, tmp_path):
        rng = derived_rng(6)
        for i in range(5):
            path = tmp_path / f"h{i}.txt"
            write_hypergraph(random_hypergraph_instance(rng, 6, 12), path)
            self.check(read_hypergraph(path))

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_sample_h3(self, p):
        for seed in range(3):
            self.check(sample_h3(6, p, derived_rng(seed)))

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_sample_coupled(self, p):
        # n = 8 is the smallest size the coupled sampler accepts
        for seed in range(3):
            self.check(sample_coupled(8, p, 2, derived_rng(seed))[0])

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_sample_coupled_unread(self, n, r):
        # a coupled hypergraph answers from its draws; its answers, all
        # given before edge_list is read, match a same-seed twin's edges
        tuples = [t for k in (2, 3, 4) for t in product(range(n + 2), repeat=k)]
        for seed, p in enumerate((0.05, 0.3, 0.9, 1.0)):
            h, _systems = sample_coupled(n, p, r, derived_rng(seed))
            answers = [t in h for t in tuples]
            assert h._build is not None  # edge_list still unread
            twin, _systems = sample_coupled(n, p, r, derived_rng(seed))
            edges = set(twin.edge_list)
            assert answers == [t in edges for t in tuples]

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.0])
    def test_sample_coupled_every_triple(self, n, p):
        triples = list(combinations(range(1, n + 1), 3))
        for seed in range(2):
            h, _systems = sample_coupled(n, p, 4, derived_rng(seed))
            answers = [t in h for t in triples]
            twin, _systems = sample_coupled(n, p, 4, derived_rng(seed))
            edges = set(twin.edge_list)
            assert answers == [t in edges for t in triples]


class TestLooseCycle:
    def test_windows_rotation_invariant(self):
        c = LooseCycle((2, 4, 6), (1, 3, 5))
        rotated = LooseCycle((4, 6, 2), (3, 5, 1))
        assert set(c.windows()) == set(rotated.windows())


class TestVerify:
    def test_smallest_loose_cycle(self):
        h = Hypergraph3(4, [(1, 3, 2), (2, 4, 1)])
        assert verify_loose_hamilton(h, LooseCycle((1, 2), (3, 4)))

    def test_eight_vertex_cycle_from_definition(self):
        h = Hypergraph3(8, [(1, 5, 2), (2, 6, 3), (3, 7, 4), (4, 8, 1)])
        assert verify_loose_hamilton(h, LooseCycle((1, 2, 3, 4), (5, 6, 7, 8)))

    def test_missing_edge_reported_with_index(self):
        h = Hypergraph3(4, [(1, 2, 3)])
        v = verify_loose_hamilton(h, LooseCycle((1, 2), (3, 4)))
        assert not v
        assert v.reason == "missing edge"
        assert v.index == 2

    def test_bad_partition_reported(self):
        h = complete_hypergraph(4)
        for links, middles in (((1, 2), (3, 3)), ((1, 2, 3), (4,)),
                               ((1, 2), (2, 3)), ((1, 2), (3, 5))):
            assert not verify_loose_hamilton(h, LooseCycle(links, middles))

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_verdict_invariant_under_rotation_and_reflection(self, s, rnd):
        verts = list(range(1, 2 * s + 1))
        rnd.shuffle(verts)
        links, mids = tuple(verts[:s]), tuple(verts[s:])
        h = Hypergraph3(2 * s, LooseCycle(links, mids).windows())
        k = rnd.randrange(s)
        rot_links = links[k:] + links[:k]
        rot_mids = mids[k:] + mids[:k]
        assert verify_loose_hamilton(h, LooseCycle(rot_links, rot_mids))
        # reversed traversal: (x1, x_s, ..., x2) with middles (y_s, ..., y1)
        rev_links = (rot_links[0],) + tuple(reversed(rot_links[1:]))
        rev_mids = tuple(reversed(rot_mids))
        assert verify_loose_hamilton(h, LooseCycle(rev_links, rev_mids))

    def test_rejects_malformed_n(self):
        with pytest.raises(ValueError):
            verify_loose_hamilton(Hypergraph3(5), LooseCycle((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            verify_loose_hamilton(Hypergraph3(2), LooseCycle((1,), (2,)))

    def test_agrees_with_naive_recheck(self):
        # independent re-check: windows present and partition correct
        rng = derived_rng(11)
        for trial in range(50):
            h = random_hypergraph_instance(rng, 6, 10)
            perm = rng.permutation(6) + 1
            links, mids = tuple(perm[0::2].tolist()), tuple(perm[1::2].tolist())
            verdict = verify_loose_hamilton(h, LooseCycle(links, mids))
            s = 3
            edges = set(h.edge_list)
            naive = all(
                tuple(sorted((links[i], mids[i], links[(i + 1) % s]))) in edges
                for i in range(s)
            )
            assert bool(verdict) == naive


class TestExactSearch:
    def test_complete_has_cycle(self):
        c = exact_loose_hamilton(complete_hypergraph(8))
        assert c is not None
        assert verify_loose_hamilton(complete_hypergraph(8), c)

    def test_isolated_vertex_means_none(self):
        # both have at least n/2 edges, so only the isolated-vertex exit
        # answers, and it returns before the search counts a node
        sparse = Hypergraph3(6, [(1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)])
        dense = Hypergraph3(8, combinations(range(2, 9), 3))
        for h, lone in ((sparse, 6), (dense, 1)):
            assert isolated_vertices(h) == {lone}
            stats = {}
            assert exact_loose_hamilton(h, stats=stats) is None
            assert stats == {}

    def test_cap_enforced(self):
        with pytest.raises(ValueError,
                           match="n=20 exceeds the exact-search cap 16"):
            exact_loose_hamilton(Hypergraph3(20), cap=16)
        with pytest.raises(ValueError, match="need even n >= 4, got n=7"):
            exact_loose_hamilton(Hypergraph3(7))

    @pytest.mark.parametrize("n", [2, 5, 7, 20])
    def test_refuses_before_reading_an_edge(self, n):
        # a bad n in the verifier's words, n above the cap in the cap's
        def build():
            raise AssertionError("edges read before refusing")

        def has(e):
            raise AssertionError("membership asked before refusing")

        with pytest.raises(ValueError) as searched:
            exact_loose_hamilton(Hypergraph3._deferred(n, build, has))
        if n > LOOSE_CAP:
            words = f"n={n} exceeds the exact-search cap {LOOSE_CAP}"
        else:
            with pytest.raises(ValueError) as verified:
                verify_loose_hamilton(Hypergraph3(n), LooseCycle((), ()))
            words = str(verified.value)
        assert str(searched.value) == words

    def test_returned_cycles_always_verify(self):
        rng = derived_rng(23)
        for trial in range(100):
            h = random_hypergraph_instance(rng, 8, 12)
            c = exact_loose_hamilton(h)
            if c is not None:
                assert verify_loose_hamilton(h, c)

    def test_matches_naive_oracle_on_small_instances(self):
        rng = derived_rng(37)
        for trial in range(150):
            h = random_hypergraph_instance(rng, 6, 6)
            assert (exact_loose_hamilton(h) is not None) == \
                loose_hamilton_exists_naive(h)

    @staticmethod
    def middle_one_cycle(n, seed, decoys, through_one=0):
        """Edges of a loose Hamilton cycle on 1..n in a seeded order whose
        first middle is vertex 1, plus ``decoys`` uniform edges avoiding
        vertex 1 and ``through_one`` uniform edges through it."""
        rng = derived_rng(seed)
        order = (rng.permutation(n - 1) + 2).tolist()
        order.insert(1, 1)
        links, middles, s = order[0::2], order[1::2], n // 2
        edges = {triple(links[i], middles[i], links[(i + 1) % s])
                 for i in range(s)}
        for _ in range(decoys):
            edges.add(triple(*(rng.choice(n - 1, 3, replace=False) + 2)))
        for _ in range(through_one):
            edges.add(triple(1, *(rng.choice(n - 1, 2, replace=False) + 2)))
        return edges

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_finds_vertex_one_as_a_lone_middle(self, n):
        # vertex 1 lies in one edge, so it is a middle in every cycle and
        # only the root at that window's smaller link finds one
        for seed in range(5):
            h = Hypergraph3(n, self.middle_one_cycle(n, seed, decoys=n))
            (_, a, b), = (e for e in h.edge_list if 1 in e)  # a < b
            cycle = exact_loose_hamilton(h)
            assert cycle is not None and verify_loose_hamilton(h, cycle)
            assert (cycle.links[:2], cycle.middles[0]) == ((a, b), 1)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_finds_vertex_one_as_a_middle_among_decoys(self, n):
        for seed in range(5):
            h = Hypergraph3(n, self.middle_one_cycle(n, seed, decoys=n,
                                                     through_one=3))
            cycle = exact_loose_hamilton(h)
            assert cycle is not None and verify_loose_hamilton(h, cycle)

    def test_degree_one_vertex_matches_naive_oracle(self):
        # each draw keeps one edge through vertex 1, so any cycle has
        # vertex 1 as a middle
        rng = derived_rng(43)
        found = absent = 0
        for trial in range(150):
            n = (4, 6, 8)[trial % 3]
            h = sample_h3(n, float(rng.uniform(0.2, 0.9)), rng)
            ones = [e for e in h.edge_list if e[0] == 1]
            if not ones:
                continue
            keep = ones[int(rng.integers(len(ones)))]
            h = Hypergraph3(n, [e for e in h.edge_list
                                if e[0] != 1 or e == keep])
            cycle = exact_loose_hamilton(h)
            assert (cycle is not None) == loose_hamilton_exists_naive(h)
            if cycle is not None:
                assert verify_loose_hamilton(h, cycle)
                assert cycle.middles.count(1) == 1
            found += cycle is not None
            absent += cycle is None
        assert found > 50 and absent > 20

    def test_leaves_no_cyclic_garbage(self):
        # a search's state is freed by reference counting when it returns,
        # found, absent or refused early for an isolated vertex alike
        hs = [sample_h3(16, probability_from_c(16, 4), derived_rng(seed))
              for seed in range(100)]
        hs.append(Hypergraph3(6, [(1, 2, 3), (1, 4, 5), (2, 4, 5)]))
        gc.collect()
        gc.disable()
        try:
            outcomes = [exact_loose_hamilton(h) is None for h in hs]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert set(outcomes[:-1]) == {True, False} and outcomes[-1]
        assert isolated_vertices(hs[-1]) == {6}

    def test_monotone_under_added_edges(self):
        from itertools import combinations

        pool = list(combinations(range(1, 7), 3))
        rng = derived_rng(41)
        for trial in range(60):
            h1 = random_hypergraph_instance(rng, 6, 8)
            extra = [pool[i] for i in
                     rng.choice(len(pool), size=4, replace=False).tolist()
                     if pool[i] not in h1]
            h2 = Hypergraph3(6, list(h1.edge_list) + extra)
            if exact_loose_hamilton(h1) is not None:
                assert exact_loose_hamilton(h2) is not None


class TestIsolated:
    def test_empty_graph_all_isolated(self):
        assert isolated_vertices(Hypergraph3(4)) == {1, 2, 3, 4}

    def test_single_edge(self):
        assert isolated_vertices(Hypergraph3(4, [(1, 2, 3)])) == {4}

    def test_exactly_the_empty_incidence_lists(self):
        rng = derived_rng(13)
        for _ in range(30):
            h = random_hypergraph_instance(rng, 9, 6)
            assert isolated_vertices(h) == \
                {v for v in range(1, h.n + 1)
                 if not any(v in e for e in h.edge_list)}

    def test_expected_isolated_edges(self):
        assert expected_isolated(10, 0.0) == 10
        assert expected_isolated(10, 1.0) == 0
        assert expected_isolated(8, 0.1) == pytest.approx(8 * 0.9 ** 21)
        with pytest.raises(ValueError):
            expected_isolated(8, 1.5)

    def test_monte_carlo_mean_matches_closed_form(self):
        # each vertex avoids C(7,2) = 21 potential triples at n = 8
        n, p, trials = 8, 0.1, 100_000
        gen = derived_rng(2024)
        counts = [len(isolated_vertices(sample_h3(n, p, gen)))
                  for _ in range(trials)]
        mean = sum(counts) / trials
        expected = expected_isolated(n, p)
        var = sum((k - mean) ** 2 for k in counts) / (trials - 1)
        se = math.sqrt(var / trials)
        assert abs(mean - expected) <= 3 * se


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        h = sample_h3(10, 0.25, derived_rng(3))
        path = tmp_path / "h.txt"
        write_hypergraph(h, path)
        assert read_hypergraph(path) == h

    def test_lines_in_any_order(self, tmp_path):
        # each line is checked, then the edges are sorted into edge_list
        path = tmp_path / "h.txt"
        path.write_text("5 3\n2 4 5\n1 2 3\n1 4 5\n")
        h = read_hypergraph(path)
        assert h.edge_list == ((1, 2, 3), (1, 4, 5), (2, 4, 5))
        assert h == Hypergraph3(5, [(2, 4, 5), (1, 2, 3), (1, 4, 5)])
        assert (1, 4, 5) in h and (1, 2, 4) not in h

    def test_rejects_unsorted_triple(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n3 2 1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_hypergraph(path)

    def test_rejects_duplicate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n1 2 3\n1 2 3\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_hypergraph(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n1 2 3\n")
        with pytest.raises(FormatError, match="expected 2 edge lines"):
            read_hypergraph(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n2 3 5\n")
        with pytest.raises(FormatError):
            read_hypergraph(path)

    def test_cycle_claim_round_trip(self, tmp_path):
        c = LooseCycle((1, 2), (3, 4))
        path = tmp_path / "c.txt"
        write_claim(c, path)
        assert read_claim(path, LooseCycle) == c
