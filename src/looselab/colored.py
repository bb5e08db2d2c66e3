"""Edge-colored multigraphs on the link half of a loose cycle.

The derived graph of a hypergraph instance lives on the link vertices
1..2m and has an edge (x, x') of color y, kept as the int triple
(x, x', y), for every hypergraph edge {x, y, x'} whose middle y falls in
the color universe 2m+1..4m.  A rainbow Hamilton cycle of the derived
graph lifts directly to a loose Hamilton cycle of the hypergraph: cycle
vertices become links, edge colors become middles.  The file formats
here use the row helpers of ``hypergraph``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import FormatError, LooseCycle, Verdict, _read_rows, \
    _read_table, _write_rows


class ColoredMultigraph:
    """Immutable multigraph on vertices 1..num_vertices with colored edges.

    ``colors`` is the color universe (empty for uncolored graphs, in which
    case every edge carries color 0).  ``edges`` takes any iterable of
    ``(u, v, color)`` triples and keeps them, in input order, as a tuple
    of int triples ``(min(u, v), max(u, v), color)``; parallel edges stay
    distinct entries.  Loops (u == v) are legal, though builders that
    derive edges from matchings never produce them.  Per-vertex degree
    counts are cached at construction; loops add 2 to a degree.
    """

    __slots__ = ("num_vertices", "colors", "edges", "degrees", "_adjacency")

    def __init__(self, num_vertices: int, colors: Iterable[int],
                 edges: Iterable[tuple[int, int, int]]):
        num_vertices = int(num_vertices)
        if num_vertices < 1:
            raise ValueError("vertex count must be >= 1")
        universe = tuple(sorted({int(c) for c in colors}))
        if 0 in universe:
            raise ValueError("color 0 is reserved for uncolored edges")
        uni = set(universe)
        degrees: Counter = Counter()
        canon = []
        for u, v, c in edges:
            u, v, c = int(u), int(v), int(c)
            if u > v:
                u, v = v, u
            e = (u, v, c)
            if not 1 <= u <= v <= num_vertices:
                raise ValueError(f"edge {e} endpoint outside 1..{num_vertices}")
            if universe:
                if c not in uni:
                    raise ValueError(f"edge {e} color outside the universe")
            elif c != 0:
                raise ValueError(f"edge {e} colored but the universe is empty")
            degrees[u] += 1
            degrees[v] += 1
            canon.append(e)
        self.num_vertices = num_vertices
        self.colors = universe
        self.edges = tuple(canon)
        self.degrees = {v: degrees.get(v, 0) for v in range(1, num_vertices + 1)}
        self._adjacency = None

    @property
    def adjacency(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """v -> {w: sorted distinct colors of the edges vw}, built on first use.

        Vertices and each vertex's neighbours come in ascending order;
        loops are left out, since no cycle through two or more vertices
        can use one.
        """
        if self._adjacency is None:
            by_pair: dict[tuple[int, int], set[int]] = {}
            for u, v, c in self.edges:
                if u != v:
                    by_pair.setdefault((u, v), set()).add(c)
            adj: dict[int, dict[int, tuple[int, ...]]] = {
                v: {} for v in range(1, self.num_vertices + 1)}
            # in sorted pair order each vertex meets its smaller
            # neighbours (as the pair's second element) before its larger
            for (u, v), cs in sorted(by_pair.items()):
                adj[u][v] = adj[v][u] = tuple(sorted(cs))
            self._adjacency = adj
        return self._adjacency

    def __repr__(self) -> str:
        kind = f"{len(self.colors)} colors" if self.colors else "uncolored"
        return (f"ColoredMultigraph(vertices={self.num_vertices}, "
                f"edges={len(self.edges)}, {kind})")


@dataclass(frozen=True)
class RainbowCycleCert:
    """Rainbow-cycle record: vertex order plus per-step colors.

    colors[i] is the color of the edge (order[i], order[i+1]), indices
    cyclic, so colors[-1] belongs to the last edge, back to order[0].
    The record only coerces both sequences to int tuples; it checks
    nothing.  ``verify_rainbow_hamilton`` is the one check.
    """

    order: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))


def verify_rainbow_hamilton(g: ColoredMultigraph,
                            cert: RainbowCycleCert) -> Verdict:
    """Check a rainbow Hamilton cycle claim against ``g``.

    A step is accepted if any parallel edge matches its endpoint pair and
    color.  On failure the first violated condition is reported, with the
    1-based step index where applicable.
    """
    order, colors = cert.order, cert.colors
    nv = g.num_vertices
    if nv < 2:
        return Verdict(False, "cycle needs at least 2 vertices")
    if len(order) != nv:
        return Verdict(False, f"expected {nv} vertices in order, got {len(order)}")
    if len(colors) != nv:
        return Verdict(False, f"expected {nv} colors, got {len(colors)}")
    if set(order) != set(range(1, nv + 1)):
        return Verdict(False, f"order is not a permutation of 1..{nv}")
    seen: set[int] = set()
    for i, c in enumerate(colors):
        if c in seen:
            return Verdict(False, "repeated color", index=i + 1)
        seen.add(c)
    adj = g.adjacency
    for i in range(nv):
        if colors[i] not in adj[order[i]].get(order[(i + 1) % nv], ()):
            return Verdict(False, "missing edge", index=i + 1)
    return Verdict(True)


def lift_to_loose(cert: RainbowCycleCert) -> LooseCycle:
    """Read a rainbow cycle as the loose cycle it encodes.

    Cycle vertices become links and step colors become middles, so the
    window {order[i], colors[i], order[i+1]} is exactly the hypergraph
    edge behind each derived-graph step.  Nothing is checked here: a
    certificate whose order and colors do not partition 1..2s as links
    and middles lifts to a record that ``verify_loose_hamilton`` rejects.
    """
    return LooseCycle(cert.order, cert.colors)


# ---------------------------------------------------------------------------
# text format: header "2m r", then one line "u v y" per edge
# ---------------------------------------------------------------------------
#
# The file color universe is fixed to 2m+1..4m (the lift convention); the
# header's r records the equitability parameter the writer intended.


def write_colored(g: ColoredMultigraph, r: int, f) -> None:
    _write_rows(f, [(g.num_vertices, r), *g.edges])


def read_colored(f) -> tuple[ColoredMultigraph, int]:
    (k, (m2, r)), body = _read_table(f, "2m r")
    if m2 < 2 or m2 % 2:
        raise FormatError(f"line {k}: vertex count must be even and >= 2")
    if r < 1:
        raise FormatError(f"line {k}: r must be >= 1")
    lo, hi = m2 + 1, 2 * m2
    for k, (u, v, y) in body:
        if not (1 <= u <= m2 and 1 <= v <= m2):
            raise FormatError(f"line {k}: endpoints must lie in 1..{m2}")
        if y != 0 and not lo <= y <= hi:
            raise FormatError(
                f"line {k}: color must lie in {lo}..{hi} (or 0 when "
                f"the whole file is uncolored)")
    edges = [row for _k, row in body]
    if any(y == 0 for _u, _v, y in edges):
        if any(y != 0 for _u, _v, y in edges):
            raise FormatError("file mixes colored and uncolored edges")
        return ColoredMultigraph(m2, (), edges), r
    return ColoredMultigraph(m2, range(lo, hi + 1), edges), r


def write_rainbow_cert(cert: RainbowCycleCert, f) -> None:
    _write_rows(f, (cert.order, cert.colors))


def read_rainbow_claim(f) -> RainbowCycleCert:
    """Read a claimed rainbow cycle (order line, colors line) as a record.

    Only the two-line integer format is checked here; a bogus claim
    reaches ``verify_rainbow_hamilton`` and comes back as a false verdict."""
    rows = _read_rows(f)
    if len(rows) != 2:
        raise FormatError(f"expected 2 lines (order, colors), found {len(rows)}")
    return RainbowCycleCert(rows[0][1], rows[1][1])
