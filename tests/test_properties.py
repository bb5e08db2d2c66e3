"""Property tests: every text format round-trips through a path and through
a stream, and every verifier rejects single-edit corruptions of a valid
certificate."""

import io
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from looselab import (
    ColoredEdge,
    ColoredMultigraph,
    Hypergraph3,
    LooseCycle,
    RainbowCycleCert,
    TripleSystem,
    read_colored,
    read_hypergraph,
    read_loose_cycle_claim,
    read_rainbow_claim,
    verify_loose_hamilton,
    verify_matching,
    verify_rainbow_hamilton,
    write_colored,
    write_hypergraph,
    write_loose_cycle,
    write_rainbow_cert,
)


def round_trip(write, read, obj):
    """Write ``obj`` to a stream and to a path and read both back.

    Streams passed in must stay open, and both routes must agree
    byte for byte; returns what was read.
    """
    out = io.StringIO()
    write(obj, out)
    assert not out.closed
    text = out.getvalue()
    inp = io.StringIO(text)
    from_stream = read(inp)
    assert not inp.closed
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.txt"
        write(obj, path)
        assert path.read_text(encoding="utf-8") == text
        from_path = read(path)
        write(obj, str(path))
        assert read(str(path)) == from_path
    return from_stream, from_path


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(3, 9))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 3)))))
    return Hypergraph3(n, edges)


@st.composite
def colored_graphs(draw):
    m2 = 2 * draw(st.integers(1, 5))
    r = draw(st.integers(1, 4))
    vertex = st.integers(1, m2)
    if draw(st.booleans()):
        colors = range(m2 + 1, 2 * m2 + 1)
        color = st.sampled_from(colors)
        size = 0
    else:
        colors = ()
        color = st.just(0)
        size = 1  # an empty uncolored file reads back as colored
    edges = draw(st.lists(st.builds(ColoredEdge, vertex, vertex, color),
                          min_size=size, max_size=12))
    return ColoredMultigraph(m2, colors, edges), r


@st.composite
def loose_cycles(draw):
    s = draw(st.integers(2, 8))
    perm = draw(st.permutations(range(1, 2 * s + 1)))
    return LooseCycle(perm[:s], perm[s:])


ints = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40)


def graph_key(pair):
    g, r = pair
    return (g.num_vertices, g.colors, g.edges, r)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(hypergraphs())
    def test_hypergraph(self, h):
        assert round_trip(write_hypergraph, read_hypergraph, h) == (h, h)

    @settings(max_examples=60, deadline=None)
    @given(colored_graphs())
    def test_colored_multigraph(self, pair):
        got = round_trip(lambda gr, f: write_colored(gr[0], gr[1], f),
                         lambda f: graph_key(read_colored(f)), pair)
        assert got == (graph_key(pair), graph_key(pair))

    @settings(max_examples=60, deadline=None)
    @given(loose_cycles())
    def test_loose_certificate(self, cycle):
        want = (cycle.links, cycle.middles)
        assert round_trip(write_loose_cycle, read_loose_cycle_claim,
                          cycle) == (want, want)

    @settings(max_examples=60, deadline=None)
    @given(ints, ints)
    def test_rainbow_certificate(self, order, colors):
        cert = RainbowCycleCert(order, colors)
        want = (cert.order, cert.colors)
        assert round_trip(write_rainbow_cert, read_rainbow_claim,
                          cert) == (want, want)


def spots(data, length, label):
    """Two distinct positions in 0..length-1."""
    i = data.draw(st.integers(0, length - 1), label=label)
    j = data.draw(st.integers(0, length - 2), label=label)
    return i, j + (j >= i)


class TestVerifiersRejectSingleEdits:
    @settings(max_examples=80, deadline=None)
    @given(loose_cycles(), st.data())
    def test_loose(self, cycle, data):
        h = Hypergraph3(cycle.n, cycle.windows())
        links, middles = list(cycle.links), list(cycle.middles)
        assert verify_loose_hamilton(h, (links, middles))
        s = len(links)
        i, j = spots(data, s, "positions")
        edit = data.draw(st.sampled_from(
            ["repeat link", "repeat middle", "link as middle", "drop",
             "append", "absent edge"]))
        if edit == "repeat link":
            links[i] = links[j]
        elif edit == "repeat middle":
            middles[i] = middles[j]
        elif edit == "link as middle":
            middles[i] = links[j]
        elif edit == "drop":
            del (links if data.draw(st.booleans()) else middles)[i]
        elif edit == "append":
            (links if data.draw(st.booleans()) else middles).append(links[i])
        else:
            missing = cycle.windows()[i]
            h = Hypergraph3(cycle.n, [t for t in h.edge_list if t != missing])
        assert not verify_loose_hamilton(h, (links, middles))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 10).flatmap(
        lambda nv: st.tuples(st.permutations(range(1, nv + 1)),
                             st.permutations(range(nv + 1, 2 * nv + 1)))),
        st.data())
    def test_rainbow(self, cert, data):
        order, colors = list(cert[0]), list(cert[1])
        nv = len(order)
        edges = [ColoredEdge(order[k], order[(k + 1) % nv], colors[k])
                 for k in range(nv)]
        universe = range(nv + 1, 2 * nv + 1)
        assert verify_rainbow_hamilton(ColoredMultigraph(nv, universe, edges),
                                       (order, colors))
        i, j = spots(data, nv, "positions")
        edit = data.draw(st.sampled_from(
            ["repeat vertex", "repeat color", "drop", "append",
             "absent edge"]))
        if edit == "repeat vertex":
            order[i] = order[j]
        elif edit == "repeat color":
            colors[i] = colors[j]
        elif edit == "drop":
            del (order if data.draw(st.booleans()) else colors)[i]
        elif edit == "append":
            (order if data.draw(st.booleans()) else colors).append(order[i])
        else:
            del edges[i]
        # the instance also holds every step the edited claim takes, so a
        # repeat is rejected as a repeat, not as a missing edge
        if edit in ("repeat vertex", "repeat color"):
            edges += [ColoredEdge(order[k], order[(k + 1) % nv], colors[k])
                      for k in range(nv) if order[k] != order[(k + 1) % nv]]
        g = ColoredMultigraph(nv, universe, edges)
        assert not verify_rainbow_hamilton(g, (order, colors))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda m: st.tuples(st.permutations(range(1, 2 * m + 1)),
                            st.permutations(range(100, 100 + m)))),
        st.data())
    def test_matching(self, drawn, data):
        perm, slots = drawn
        m = len(slots)
        triples = [(tuple(sorted(perm[2 * k:2 * k + 2])), slots[k])
                   for k in range(m)]
        assert verify_matching(TripleSystem(slots, frozenset(triples)),
                               triples)
        present = set(triples)
        i, j = spots(data, m, "positions")
        edit = data.draw(st.sampled_from(
            ["repeat vertex", "repeat slot", "drop", "append",
             "absent triple"]))
        (a, b), slot = triples[i]
        (c, _d), other_slot = triples[j]
        if edit == "repeat vertex":
            triples[i] = (tuple(sorted((c, b))), slot)
        elif edit == "repeat slot":
            triples[i] = ((a, b), other_slot)
        elif edit == "drop":
            del triples[i]
        elif edit == "append":
            triples.append(triples[j])
        else:
            present.discard(triples[i])
        if edit.startswith("repeat"):
            present.add(triples[i])  # only the repeat is wrong
        ts = TripleSystem(slots, frozenset(present))
        assert not verify_matching(ts, triples)
