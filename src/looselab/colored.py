"""Edge-colored multigraphs on the link half of a loose cycle.

The derived graph of a hypergraph instance lives on the link vertices
1..2m and has an edge (x, x') of color y, kept as the int triple
(x, x', y), for every hypergraph edge {x, y, x'} whose middle y lies in
2m+1..4m.  A rainbow Hamilton cycle of the derived graph lifts directly
to a loose Hamilton cycle of the hypergraph: cycle vertices become
links, edge colors become middles.  The multigraph file format uses the
row helpers of ``hypergraph``, whose ``read_claim`` reads certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .hypergraph import FormatError, LooseCycle, Verdict, _read_table, \
    _write_rows


class ColoredMultigraph:
    """Immutable multigraph on vertices 1..num_vertices with colored edges.

    ``edges`` takes any iterable of ``(u, v, color)`` triples and keeps
    them, in input order, as a tuple of int triples
    ``(min(u, v), max(u, v), color)``; parallel edges stay distinct
    entries.  Colors are plain ints: the graph keeps no color universe,
    and color 0 marks an uncolored edge only by the convention of the
    samplers and the file format.  Loops (u == v) are legal, though
    builders that derive edges from matchings never produce them.
    """

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int,
                 edges: Iterable[tuple[int, int, int]]):
        num_vertices = int(num_vertices)
        if num_vertices < 1:
            raise ValueError("vertex count must be >= 1")
        canon = []
        for u, v, c in edges:
            u, v, c = int(u), int(v), int(c)
            if u > v:
                u, v = v, u
            e = (u, v, c)
            if not 1 <= u <= v <= num_vertices:
                raise ValueError(f"edge {e} endpoint outside 1..{num_vertices}")
            canon.append(e)
        self.num_vertices = num_vertices
        self.edges = tuple(canon)

    @property
    def degrees(self) -> dict[int, int]:
        """v -> degree of every vertex, counted on each read; loops add 2."""
        degrees = dict.fromkeys(range(1, self.num_vertices + 1), 0)
        for u, v, _c in self.edges:
            degrees[u] += 1
            degrees[v] += 1
        return degrees

    def __repr__(self) -> str:
        return (f"ColoredMultigraph(vertices={self.num_vertices}, "
                f"edges={len(self.edges)})")


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
    edges = set(g.edges)
    for i in range(nv):
        u, w = order[i], order[(i + 1) % nv]
        if (min(u, w), max(u, w), colors[i]) not in edges:
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
# File colors lie in 2m+1..4m (the lift convention), or are all 0 for an
# uncolored graph; the header's r is the equitability parameter intended.


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
    colors = {y for _k, (_u, _v, y) in body}
    if 0 in colors and len(colors) > 1:
        raise FormatError("file mixes colored and uncolored edges")
    return ColoredMultigraph(m2, [row for _k, row in body]), r
