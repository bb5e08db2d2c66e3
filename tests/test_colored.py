from collections import Counter

import numpy as np
import pytest

from looselab import (
    ColoredMultigraph,
    FormatError,
    LooseCycle,
    exact_rainbow_hamilton,
    lift_to_loose,
    read_colored,
    verify_loose_hamilton,
    verify_rainbow_hamilton,
    write_colored,
)
from looselab.colored import RainbowCycleCert
from looselab.hypergraph import read_claim, write_claim

from oracles import complete_hypergraph, is_equitable


def square(colors=(5, 6, 7, 8)):
    # 4-cycle 1-2-3-4-1 with one color per step
    edges = [(1, 2, colors[0]), (2, 3, colors[1]), (3, 4, colors[2]),
             (1, 4, colors[3])]
    return ColoredMultigraph(4, edges)


class TestColoredMultigraph:
    def test_counts_cached(self):
        g = square()
        assert g.degrees == {1: 2, 2: 2, 3: 2, 4: 2}
        assert Counter(c for _u, _v, c in g.edges) == {5: 1, 6: 1, 7: 1, 8: 1}

    def test_counts_match_recount(self):
        g = square()
        usage = Counter(c for _u, _v, c in g.edges)
        degrees = Counter()
        for u, v, _c in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert usage == Counter((5, 6, 7, 8))
        assert all(g.degrees[v] == degrees.get(v, 0) for v in range(1, 5))

    def test_uncolored_graph(self):
        g = ColoredMultigraph(3, [(1, 2, 0), (2, 3, 0)])
        assert all(c == 0 for _u, _v, c in g.edges)

    def test_parallel_edges_kept_distinct(self):
        g = ColoredMultigraph(2, [(1, 2, 3), (1, 2, 4)])
        assert len(g.edges) == 2

    def test_loop_allowed_in_type(self):
        g = ColoredMultigraph(2, [(1, 1, 0)])
        assert g.degrees[1] == 2


def test_edges_are_int_triples_low_end_first():
    g = ColoredMultigraph(4, [(2, 1, 5), (np.int64(3), 4, 6)])
    assert g.edges == ((1, 2, 5), (3, 4, 6))
    assert all(type(x) is int for e in g.edges for x in e)


class TestEquitable:
    def test_each_color_r_times(self):
        g = ColoredMultigraph(
            4, [(1, 2, 5), (3, 4, 5), (1, 3, 6), (2, 4, 6)])
        assert is_equitable(g, 2, (5, 6))
        assert not is_equitable(g, 1, (5, 6))

    def test_missing_color_fails(self):
        g = ColoredMultigraph(4, [(1, 2, 5)])
        assert not is_equitable(g, 1, (5, 6))

    def test_wrong_color_set_fails(self):
        # each color is used r = 2 times, but not the expected ones
        g = ColoredMultigraph(
            4, [(1, 2, 5), (3, 4, 5), (1, 3, 6), (2, 4, 6)])
        assert not is_equitable(g, 2, (5, 7))
        assert not is_equitable(g, 2, (5,))
        assert not is_equitable(g, 2, (5, 6, 7))


class TestVerifyRainbow:
    def test_four_cycle_accepted(self):
        cert = RainbowCycleCert((1, 2, 3, 4), (5, 6, 7, 8))
        assert verify_rainbow_hamilton(square(), cert)

    def test_repeated_color_rejected(self):
        g = ColoredMultigraph(
            4, [(1, 2, 5), (2, 3, 6),
             (3, 4, 5), (1, 4, 8)])
        v = verify_rainbow_hamilton(
            g, RainbowCycleCert((1, 2, 3, 4), (5, 6, 5, 8)))
        assert not v
        assert v.reason == "repeated color"
        assert v.index == 3
        # a repeat far from its first use is found, at the later step
        v = verify_rainbow_hamilton(
            g, RainbowCycleCert((1, 2, 3, 4), (5, 6, 7, 5)))
        assert not v
        assert v.reason == "repeated color"
        assert v.index == 4

    def test_right_endpoints_wrong_color_rejected(self):
        v = verify_rainbow_hamilton(
            square(), RainbowCycleCert((1, 2, 3, 4), (5, 6, 7, 6)))
        assert not v

    def test_wrong_color_on_existing_pair_reports_missing_edge(self):
        # the pair (3, 4) exists but never with color 6
        g = ColoredMultigraph(
            4, [(1, 2, 5), (2, 3, 8),
             (3, 4, 7), (3, 4, 8), (1, 4, 6)])
        v = verify_rainbow_hamilton(
            g, RainbowCycleCert((1, 2, 3, 4), (5, 8, 6, 7)))
        assert not v
        assert v.reason == "missing edge"
        assert v.index == 3

    def test_parallel_edge_any_match_accepts(self):
        g = ColoredMultigraph(
            4, [(1, 2, 5), (1, 2, 6), (2, 3, 6),
             (3, 4, 7), (1, 4, 8)])
        assert verify_rainbow_hamilton(
            g, RainbowCycleCert((1, 2, 3, 4), (5, 6, 7, 8)))

    def test_not_a_permutation(self):
        assert not verify_rainbow_hamilton(
            square(), RainbowCycleCert((1, 2, 3, 3), (5, 6, 7, 8)))

    def test_one_vertex_loop_rejected(self):
        g = ColoredMultigraph(1, [(1, 1, 5)])
        v = verify_rainbow_hamilton(g, RainbowCycleCert((1,), (5,)))
        assert not v
        assert v.reason == "cycle needs at least 2 vertices"
        assert exact_rainbow_hamilton(g) is None


class TestLift:
    def test_two_vertex_cert(self):
        cert = RainbowCycleCert((1, 2), (3, 4))
        assert lift_to_loose(cert) == LooseCycle((1, 2), (3, 4))

    # the lift checks nothing; the loose verifier rejects what it returns
    def test_repeated_color_rejected(self):
        cycle = lift_to_loose(RainbowCycleCert((1, 2), (3, 3)))
        v = verify_loose_hamilton(complete_hypergraph(4), cycle)
        assert not v
        assert v.reason == "repeated middle vertex"

    def test_colors_overlapping_vertices_rejected(self):
        cycle = lift_to_loose(RainbowCycleCert((1, 2), (2, 3)))
        v = verify_loose_hamilton(complete_hypergraph(4), cycle)
        assert not v
        assert v.reason == "links and middles overlap"


class TestColoredFormat:
    def test_round_trip(self, tmp_path):
        g = square()
        path = tmp_path / "g.txt"
        write_colored(g, 1, path)
        g2, r = read_colored(path)
        assert r == 1
        assert g2.num_vertices == 4
        assert g2.edges == g.edges

    def test_rejects_color_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n1 2 9\n")
        with pytest.raises(FormatError, match="color"):
            read_colored(path)

    def test_rejects_odd_vertex_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 1\n")
        with pytest.raises(FormatError):
            read_colored(path)

    def test_uncolored_round_trip(self, tmp_path):
        g = ColoredMultigraph(4, [(1, 2, 0), (3, 4, 0)])
        path = tmp_path / "g.txt"
        write_colored(g, 1, path)
        g2, _r = read_colored(path)
        assert g2.edges == ((1, 2, 0), (3, 4, 0))

    def test_rejects_mixed_coloring(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n1 2 0\n3 4 5\n")
        with pytest.raises(FormatError, match="mixes"):
            read_colored(path)

    def test_cert_round_trip(self, tmp_path):
        cert = RainbowCycleCert((1, 2, 3, 4), (5, 6, 7, 8))
        path = tmp_path / "cert.txt"
        write_claim(cert, path)
        assert read_claim(path, RainbowCycleCert) == cert
