"""Property tests: every text format round-trips through a path and through
a stream and names the line of a non-integer field, and every verifier
rejects single-edit corruptions of a valid certificate."""

import io
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from looselab import (
    ColoredMultigraph,
    FormatError,
    Hypergraph3,
    LooseCycle,
    read_colored,
    read_hypergraph,
    verify_loose_hamilton,
    verify_rainbow_hamilton,
    write_colored,
    write_hypergraph,
)
from looselab.colored import RainbowCycleCert
from looselab.hypergraph import read_claim, write_claim
from looselab.sampling import TripleSystem
from looselab.solvers import verify_matching


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
        color = st.sampled_from(range(m2 + 1, 2 * m2 + 1))
    else:
        color = st.just(0)
    edges = draw(st.lists(st.tuples(vertex, vertex, color), max_size=12))
    return ColoredMultigraph(m2, edges), r


@st.composite
def loose_cycles(draw):
    s = draw(st.integers(2, 8))
    perm = draw(st.permutations(range(1, 2 * s + 1)))
    return LooseCycle(perm[:s], perm[s:])


ints = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40)


def graph_key(pair):
    g, r = pair
    return (g.num_vertices, g.edges, r)


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
        assert round_trip(write_claim, lambda f: read_claim(f, LooseCycle),
                          cycle) == (cycle, cycle)

    @settings(max_examples=60, deadline=None)
    @given(ints, ints)
    def test_rainbow_certificate(self, order, colors):
        cert = RainbowCycleCert(order, colors)
        assert round_trip(write_claim,
                          lambda f: read_claim(f, RainbowCycleCert),
                          cert) == (cert, cert)


@pytest.mark.parametrize("read,text", [
    (read_hypergraph, "4 1\n\n1 2 x\n"),
    (read_colored, "4 1\n\n1 2 x\n"),
    (lambda f: read_claim(f, LooseCycle), "1 2\n\n3 x\n"),
    (lambda f: read_claim(f, RainbowCycleCert), "1 2\n\n3 x\n"),
], ids=["hypergraph", "colored", "loose", "rainbow"])
def test_non_integer_field_names_its_line(read, text):
    # blank lines count towards the line number
    with pytest.raises(FormatError, match="^line 3: fields must be integers$"):
        read(io.StringIO(text))


def spots(data, length, label):
    """Two distinct positions in 0..length-1."""
    i = data.draw(st.integers(0, length - 1), label=label)
    j = data.draw(st.integers(0, length - 2), label=label)
    return i, j + (j >= i)


class TestVerifiersRejectSingleEdits:
    @settings(max_examples=80, deadline=None)
    @given(loose_cycles(), st.data())
    def test_loose(self, cycle, data):
        h = Hypergraph3(2 * len(cycle.links), cycle.windows())
        links, middles = list(cycle.links), list(cycle.middles)
        assert verify_loose_hamilton(h, LooseCycle(links, middles))
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
            h = Hypergraph3(h.n, [t for t in h.edge_list if t != missing])
        assert not verify_loose_hamilton(h, LooseCycle(links, middles))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 10).flatmap(
        lambda nv: st.tuples(st.permutations(range(1, nv + 1)),
                             st.permutations(range(nv + 1, 2 * nv + 1)))),
        st.data())
    def test_rainbow(self, cert, data):
        order, colors = list(cert[0]), list(cert[1])
        nv = len(order)
        edges = [(order[k], order[(k + 1) % nv], colors[k])
                 for k in range(nv)]
        assert verify_rainbow_hamilton(ColoredMultigraph(nv, edges),
                                       RainbowCycleCert(order, colors))
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
            edges += [(order[k], order[(k + 1) % nv], colors[k])
                      for k in range(nv) if order[k] != order[(k + 1) % nv]]
        g = ColoredMultigraph(nv, edges)
        assert not verify_rainbow_hamilton(g, RainbowCycleCert(order, colors))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda m: st.tuples(st.permutations(range(1, 2 * m + 1)),
                            st.permutations(range(100, 100 + m)))),
        st.data())
    def test_matching(self, drawn, data):
        perm, slots = drawn
        m = len(slots)
        triples = [(*sorted(perm[2 * k:2 * k + 2]), slots[k])
                   for k in range(m)]
        assert verify_matching(TripleSystem(slots, frozenset(triples)),
                               triples)
        present = set(triples)
        i, j = spots(data, m, "positions")
        edit = data.draw(st.sampled_from(
            ["repeat vertex", "repeat slot", "drop", "append",
             "absent triple"]))
        a, b, slot = triples[i]
        c, _d, other_slot = triples[j]
        if edit == "repeat vertex":
            triples[i] = (*sorted((c, b)), slot)
        elif edit == "repeat slot":
            triples[i] = (a, b, other_slot)
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
