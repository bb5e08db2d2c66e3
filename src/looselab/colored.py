"""Edge-colored multigraphs on the link half of a loose cycle.

The derived graph of a hypergraph instance lives on the link vertices
1..2m and has an edge (x, x') of color y for every hypergraph edge
{x, y, x'} whose middle y falls in the color universe 2m+1..4m.  A rainbow
Hamilton cycle of the derived graph lifts directly to a loose Hamilton
cycle of the hypergraph: cycle vertices become links, edge colors become
middles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .hypergraph import FormatError, LooseCycle, Verdict, _open_maybe


@dataclass(frozen=True)
class ColoredEdge:
    """Undirected colored edge; endpoints are stored with u <= v.

    Loops (u == v) are legal for the general multigraph type; builders
    that derive edges from matchings never produce them.  Uncolored
    graphs use color 0.
    """

    u: int
    v: int
    color: int = 0

    def __post_init__(self):
        u, v = int(self.u), int(self.v)
        if u > v:
            u, v = v, u
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "color", int(self.color))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class ColoredMultigraph:
    """Immutable multigraph on vertices 1..num_vertices with colored edges.

    ``colors`` is the color universe (empty for uncolored graphs, in which
    case every edge carries color 0).  Parallel edges are distinct entries
    of ``edges`` with stable indices.  Per-color usage and per-vertex
    degree counts are cached at construction; loops add 2 to a degree.
    """

    __slots__ = ("num_vertices", "colors", "edges", "color_usage", "degrees",
                 "_pair_colors")

    def __init__(self, num_vertices: int, colors: Iterable[int],
                 edges: Iterable[ColoredEdge]):
        num_vertices = int(num_vertices)
        if num_vertices < 1:
            raise ValueError("vertex count must be >= 1")
        universe = tuple(sorted({int(c) for c in colors}))
        if 0 in universe:
            raise ValueError("color 0 is reserved for uncolored edges")
        edge_tuple = tuple(
            e if isinstance(e, ColoredEdge) else ColoredEdge(*e) for e in edges
        )
        uni = set(universe)
        usage: Counter = Counter()
        degrees: Counter = Counter()
        for e in edge_tuple:
            if not 1 <= e.u <= num_vertices or not 1 <= e.v <= num_vertices:
                raise ValueError(f"edge {e} endpoint outside 1..{num_vertices}")
            if universe:
                if e.color not in uni:
                    raise ValueError(f"edge {e} color outside the universe")
            elif e.color != 0:
                raise ValueError(f"edge {e} colored but the universe is empty")
            usage[e.color] += 1
            degrees[e.u] += 1
            degrees[e.v] += 1
        self.num_vertices = num_vertices
        self.colors = universe
        self.edges = edge_tuple
        self.color_usage = {c: usage.get(c, 0) for c in universe} if universe \
            else dict(usage)
        self.degrees = {v: degrees.get(v, 0) for v in range(1, num_vertices + 1)}
        self._pair_colors = None

    def pair_colors(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(u, v) -> sorted distinct colors available on that endpoint pair."""
        if self._pair_colors is None:
            acc: dict[tuple[int, int], set[int]] = {}
            for e in self.edges:
                acc.setdefault(e.pair, set()).add(e.color)
            self._pair_colors = {k: tuple(sorted(v)) for k, v in acc.items()}
        return self._pair_colors

    def has_edge(self, u: int, v: int, color: int) -> bool:
        if u > v:
            u, v = v, u
        return color in self.pair_colors().get((u, v), ())

    def __repr__(self) -> str:
        kind = f"{len(self.colors)} colors" if self.colors else "uncolored"
        return (f"ColoredMultigraph(vertices={self.num_vertices}, "
                f"edges={len(self.edges)}, {kind})")


def is_equitable(g: ColoredMultigraph, r: int) -> bool:
    """True iff every color of the universe is used exactly r times.

    Meaningful only for colored graphs; an empty universe is vacuously
    equitable.
    """
    return all(g.color_usage[c] == r for c in g.colors)


@dataclass(frozen=True)
class RainbowCycleCert:
    """Claimed rainbow Hamilton cycle: vertex order plus per-step colors.

    colors[i] is the color of the edge (order[i], order[i+1]), indices
    cyclic, so colors[-1] belongs to the closing edge back to order[0].
    """

    order: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))


CertLike = Union[RainbowCycleCert, tuple[Sequence[int], Sequence[int]]]


def _cert_parts(cert: CertLike) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if isinstance(cert, RainbowCycleCert):
        return cert.order, cert.colors
    raw_order, raw_colors = cert
    return tuple(int(v) for v in raw_order), tuple(int(c) for c in raw_colors)


def cert_internally_valid(cert: CertLike) -> Verdict:
    """Structural checks that need no host graph."""
    order, colors = _cert_parts(cert)
    if len(order) < 2:
        return Verdict(False, "cycle needs at least 2 vertices")
    if len(colors) != len(order):
        return Verdict(False, f"expected {len(order)} colors, got {len(colors)}")
    if len(set(order)) != len(order):
        return Verdict(False, "repeated vertex in cycle order")
    if len(set(colors)) != len(colors):
        for i, c in enumerate(colors):
            if c in colors[:i]:
                return Verdict(False, "repeated color", index=i + 1)
    return Verdict(True)


def verify_rainbow_hamilton(g: ColoredMultigraph, cert: CertLike) -> Verdict:
    """Check a rainbow Hamilton cycle claim against ``g``.

    A step is accepted if any parallel edge matches its endpoint pair and
    color.  On failure the first violated condition is reported, with the
    1-based step index where applicable.
    """
    order, colors = _cert_parts(cert)
    nv = g.num_vertices
    if len(order) != nv:
        return Verdict(False, f"expected {nv} vertices in order, got {len(order)}")
    if len(colors) != nv:
        return Verdict(False, f"expected {nv} colors, got {len(colors)}")
    if set(order) != set(range(1, nv + 1)):
        return Verdict(False, f"order is not a permutation of 1..{nv}")
    for i, c in enumerate(colors):
        if c in colors[:i]:
            return Verdict(False, "repeated color", index=i + 1)
    for i in range(nv):
        u, v = order[i], order[(i + 1) % nv]
        if not g.has_edge(u, v, colors[i]):
            return Verdict(False, "missing edge", index=i + 1)
    return Verdict(True)


def lift_to_loose(cert: CertLike) -> LooseCycle:
    """Lift a rainbow cycle to the loose cycle it encodes.

    Cycle vertices become links and step colors become middles, so the
    window {order[i], colors[i], order[i+1]} is exactly the hypergraph
    edge behind each derived-graph step.  Internally invalid certificates
    (and color sets that cannot complete a vertex partition) are rejected.
    """
    verdict = cert_internally_valid(cert)
    if not verdict:
        raise ValueError(f"invalid certificate: {verdict.reason}")
    order, colors = _cert_parts(cert)
    try:
        return LooseCycle(order, colors)
    except ValueError as exc:
        raise ValueError(f"certificate does not lift to a loose cycle: {exc}") from None


# ---------------------------------------------------------------------------
# text format: header "2m r", then one line "u v y" per edge
# ---------------------------------------------------------------------------
#
# The file color universe is fixed to 2m+1..4m (the lift convention); the
# header's r records the equitability parameter the writer intended.


def write_colored(g: ColoredMultigraph, r: int, f) -> None:
    fh, closing = _open_maybe(f, "w")
    try:
        fh.write(f"{g.num_vertices} {r}\n")
        for e in g.edges:
            fh.write(f"{e.u} {e.v} {e.color}\n")
    finally:
        if closing:
            fh.close()


def read_colored(f) -> tuple[ColoredMultigraph, int]:
    fh, closing = _open_maybe(f, "r")
    try:
        lines = fh.read().splitlines()
    finally:
        if closing:
            fh.close()
    rows = [(i + 1, ln.split()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise FormatError("empty file, expected '2m r' header")
    lineno, head = rows[0]
    if len(head) != 2:
        raise FormatError(f"line {lineno}: header must be '2m r'")
    try:
        m2, r = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header must be two integers") from None
    if m2 < 2 or m2 % 2:
        raise FormatError(f"line {lineno}: vertex count must be even and >= 2")
    if r < 1:
        raise FormatError(f"line {lineno}: r must be >= 1")
    lo, hi = m2 + 1, 2 * m2
    edges = []
    for lineno, fields in rows[1:]:
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'u v y'")
        try:
            u, v, y = (int(x) for x in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: fields must be integers") from None
        if not (1 <= u <= m2 and 1 <= v <= m2):
            raise FormatError(f"line {lineno}: endpoints must lie in 1..{m2}")
        if y != 0 and not lo <= y <= hi:
            raise FormatError(
                f"line {lineno}: color must lie in {lo}..{hi} (or 0 when "
                f"the whole file is uncolored)")
        edges.append(ColoredEdge(u, v, y))
    if any(e.color == 0 for e in edges):
        if any(e.color != 0 for e in edges):
            raise FormatError("file mixes colored and uncolored edges")
        return ColoredMultigraph(m2, (), edges), r
    return ColoredMultigraph(m2, range(m2 + 1, 2 * m2 + 1), edges), r


def write_rainbow_cert(cert: RainbowCycleCert, f) -> None:
    fh, closing = _open_maybe(f, "w")
    try:
        fh.write(" ".join(str(v) for v in cert.order) + "\n")
        fh.write(" ".join(str(c) for c in cert.colors) + "\n")
    finally:
        if closing:
            fh.close()


def read_rainbow_claim(f) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read a claimed (order, colors) pair without validating it."""
    fh, closing = _open_maybe(f, "r")
    try:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    finally:
        if closing:
            fh.close()
    if len(lines) != 2:
        raise FormatError(f"expected 2 lines (order, colors), found {len(lines)}")
    try:
        order = tuple(int(x) for x in lines[0].split())
        colors = tuple(int(x) for x in lines[1].split())
    except ValueError:
        raise FormatError("certificate lines must contain integers") from None
    return order, colors
