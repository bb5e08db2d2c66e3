"""3-uniform hypergraphs and loose Hamilton cycles.

A loose Hamilton cycle on a vertex set 1..n (n even) is a cyclic sequence
of n/2 edges {x_i, y_i, x_(i+1)} in which consecutive edges overlap in the
single "link" vertex x_(i+1).  The links x_1..x_(n/2) and the "middle"
vertices y_1..y_(n/2) together cover every vertex exactly once.

Instance and certificate files are lines of integers: ``_read_rows`` alone
parses them, naming the line of a bad field, and ``_write_rows`` writes them.
``read_claim`` and ``write_claim`` carry both certificate records.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from functools import cache
from typing import Callable, Iterable, Optional, Sequence


class FormatError(ValueError):
    """Malformed instance or certificate file."""


class BudgetExhausted(RuntimeError):
    """A complete search spent its node budget without deciding."""


Triple = tuple[int, int, int]

# Largest n exact_loose_hamilton searches unless given another cap.
LOOSE_CAP = 16


def triple(a: int, b: int, c: int) -> Triple:
    """Sorted triple of three distinct vertex ids."""
    x, y, z = sorted((int(a), int(b), int(c)))
    if x == y or y == z:
        raise ValueError(f"triple needs three distinct vertices, got {(a, b, c)}")
    return (x, y, z)


class Hypergraph3:
    """Immutable 3-uniform hypergraph on vertices 1..n.

    Edges are one strictly ascending tuple of sorted triples (``edge_list``,
    giving each edge a stable id), which ``e in h`` binary-searches.  The
    constructor validates; samplers are trusted, via ``_from_sorted`` or
    ``_deferred`` (built on first read, ``e in h`` answered by its own
    function), as ``TestSortedEdgeList`` and ``TestMembership`` check.
    """

    __slots__ = ("n", "_edges", "_build", "_has")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        n = int(n)
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        canon = sorted(triple(*e) for e in edges)
        for prev, cur in zip(canon, canon[1:]):
            if prev == cur:
                raise ValueError(f"duplicate triple {cur}")
        if canon and (canon[0][0] < 1 or max(e[2] for e in canon) > n):
            raise ValueError("edge vertex outside 1..n")
        self.n = n
        self._edges: tuple[Triple, ...] = tuple(canon)
        self._build = self._has = None

    @classmethod
    def _from_sorted(cls, n: int, edge_list: Sequence[Triple]) -> "Hypergraph3":
        # Trusted fast path for samplers and checked files: edges already
        # sorted ascending, distinct, canonical, and within range.
        self = cls.__new__(cls)
        self.n, self._edges = n, tuple(edge_list)
        self._build = self._has = None
        return self

    @classmethod
    def _deferred(cls, n: int, build: Callable,
                  has: Callable) -> "Hypergraph3":
        # As _from_sorted, but build() gives the edges, called once on the
        # first read of edge_list, and ``e in h`` is always has(tuple(e)).
        self = cls.__new__(cls)
        self.n, self._build, self._has = n, build, has
        return self

    @property
    def edge_list(self) -> tuple[Triple, ...]:
        if self._build is not None:
            self._edges = tuple(self._build())
            self._build = None
        return self._edges

    def __contains__(self, e) -> bool:
        if self._has is not None:
            return self._has(tuple(e))
        e, edges = tuple(e), self.edge_list
        i = bisect_left(edges, e)
        return i < len(edges) and edges[i] == e

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.edge_list == other.edge_list
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edge_list))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, m={len(self.edge_list)})"


@dataclass(frozen=True)
class LooseCycle:
    """Loose-cycle record: links x_1..x_s and middles y_1..y_s.

    Edge i is {x_i, y_i, x_(i+1)}, indices cyclic.  The record only
    coerces both sequences to int tuples; it checks nothing and keeps
    the order it was given.  ``verify_loose_hamilton`` is the one check.
    """

    links: tuple[int, ...]
    middles: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(int(v) for v in self.links))
        object.__setattr__(self, "middles",
                           tuple(int(v) for v in self.middles))

    def windows(self) -> tuple[Triple, ...]:
        """The s edges {x_i, y_i, x_(i+1)} traced by the cycle."""
        s = len(self.links)
        return tuple(
            triple(self.links[i], self.middles[i], self.links[(i + 1) % s])
            for i in range(s)
        )


@dataclass(frozen=True)
class Verdict:
    """Boolean check outcome carrying the first violated condition."""

    ok: bool
    reason: str = ""
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_loose_hamilton(h: Hypergraph3, cycle: LooseCycle) -> Verdict:
    """Check a claimed loose Hamilton cycle against ``h``.

    This is the one check a ``LooseCycle`` gets, whether it was read from
    a file, lifted from a rainbow certificate or found by a search.
    Conditions are checked in order: link/middle counts, duplicates,
    link-middle overlap, vertex coverage, then each cyclic window
    {x_i, y_i, x_(i+1)}; the 1-based window index is reported on the
    first miss.

    Raises ValueError for h.n odd or below 4, where the question is
    malformed rather than false.
    """
    if h.n < 4 or h.n % 2:
        raise ValueError(f"loose Hamilton cycles need even n >= 4, got n={h.n}")
    links, middles = cycle.links, cycle.middles
    s = h.n // 2
    if len(links) != s:
        return Verdict(False, f"expected {s} links, got {len(links)}")
    if len(middles) != s:
        return Verdict(False, f"expected {s} middles, got {len(middles)}")
    link_set, middle_set = set(links), set(middles)
    if len(link_set) != s:
        return Verdict(False, "repeated link vertex")
    if len(middle_set) != s:
        return Verdict(False, "repeated middle vertex")
    if link_set & middle_set:
        return Verdict(False, "links and middles overlap")
    if link_set | middle_set != set(range(1, h.n + 1)):
        return Verdict(False, f"links and middles do not cover 1..{h.n}")
    for i, t in enumerate(cycle.windows(), 1):
        if t not in h:
            return Verdict(False, "missing edge", index=i)
    return Verdict(True)


def isolated_vertices(h: Hypergraph3) -> frozenset[int]:
    """Vertices lying in no edge."""
    covered: set[int] = set()
    for a, b, c in h.edge_list:
        covered.add(a)
        covered.add(b)
        covered.add(c)
    return frozenset(v for v in range(1, h.n + 1) if v not in covered)


def expected_isolated(n: int, p: float) -> float:
    """Expected isolated-vertex count n*(1-p)^C(n-1,2) under edge probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return n * (1.0 - p) ** math.comb(n - 1, 2)


@cache
def _candidates(n: int) -> tuple[tuple[Triple, ...], ...]:
    """``[y][w]`` is the candidate (y, w, 1 << y | 1 << w) for 0 <= y, w <= n,
    one tuple shared by every search on n vertices."""
    return tuple(tuple((y, w, 1 << y | 1 << w) for w in range(n + 1))
                 for y in range(n + 1))


def exact_loose_hamilton(h: Hypergraph3, *, cap: int = LOOSE_CAP,
                         stats: Optional[dict] = None) -> Optional[LooseCycle]:
    """Complete search for a loose Hamilton cycle; None iff none exists.

    Branches on the next link and middle simultaneously, and returns the
    first cycle the search reaches.  The roots: vertex 1 as the link v0,
    then, for each edge {1, a, b} with a < b, the link v0 = a with {a, 1, b}
    its only first window, since vertex 1 is a link or the middle of one
    window; so each cycle has one root and one direction.  Raises
    ValueError, before reading an edge, for n odd, below 4 or above
    ``cap``.  The search is a loop over an explicit stack with one frame
    per link, and the cycle is read off the frames; ``stats["nodes"]``
    accumulates the frames pushed, roots included.

    Two checks drop only children with no cycle below them, so the first
    cycle reached stays the same.  Closing: the last window {x_s, y_s, v0}
    needs an edge {a, b, v0} whose a and b are unused or the new link w.
    Coverage: each unused vertex's window lies inside the unused vertices,
    w and v0, so it needs an edge there.
    """
    n = h.n
    if n < 4 or n % 2:
        raise ValueError(f"loose Hamilton cycles need even n >= 4, got n={n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the exact-search cap {cap}")
    s = n // 2
    if len(h.edge_list) < s:
        return None

    # vertex v is bit v; per vertex, its (middle, next link, their bits)
    # candidates, taken from the shared table, each edge's other two
    # vertices as bits, and near[v] the vertices sharing an edge with v
    cand: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    pairs: list[list[int]] = [[] for _ in range(n + 1)]
    near = [0] * (n + 1)
    table = _candidates(n)
    for a, b, c in h.edge_list:
        ta, tb, tc = table[a], table[b], table[c]
        bc, ac, ab = tb[c], ta[c], ta[b]
        cand[a] += (bc, tc[b])
        cand[b] += (ac, tc[a])
        cand[c] += (ab, tb[a])
        pairs[a].append(bc[2])
        pairs[b].append(ac[2])
        pairs[c].append(ab[2])
        near[a] |= bc[2]
        near[b] |= ac[2]
        near[c] |= ab[2]
    if not all(near[1:]):  # an isolated vertex
        return None

    tally = {} if stats is None else stats
    tally["nodes"] = tally.get("nodes", 0)
    full = (1 << n + 1) - 2
    # cand[1] holds (a, b, ...) then (b, a, ...) per edge {1, a, b}, a < b
    roots = [(1, cand[1])] + [(a, [table[1][b]]) for a, b, _ in cand[1][::2]]
    for v0, first in roots:
        close = pairs[v0]
        # a frame: [link, used vertices, its untried candidates, the
        # middle taken]; the s-th link closes the cycle
        stack = [[v0, 1 << v0, iter(first), 0]]
        tally["nodes"] += 1
        while stack:
            frame = stack[-1]
            u, used, untried, _ = frame
            if len(stack) == s:  # the closing check found {u, y, v0}
                y = (full & ~used).bit_length() - 1  # the one vertex left
                return LooseCycle([f[0] for f in stack],
                                  [f[3] for f in stack[:-1]] + [y])
            for y, w, bits in untried:
                if not used & bits:
                    # the vertices used after the push, less w and v0
                    out = used ^ 1 << v0 | 1 << y
                    for m in close:  # a closing pair is still free
                        if not m & out:
                            break
                    else:
                        continue
                    # a push takes only u and y out of the coverage set
                    left = (near[u] | near[y]) & ~(used | bits)
                    while left:
                        z = left & -left
                        left ^= z
                        for m in pairs[z.bit_length() - 1]:
                            if not m & out:
                                break
                        else:
                            break
                    else:
                        frame[3] = y
                        stack.append([w, used | bits, iter(cand[w]), 0])
                        tally["nodes"] += 1
                        break
            else:
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# text formats: a hypergraph is a header "n m", then m lines "a b c" with
# a < b < c; a certificate is two lines of whitespace-separated integers
# ---------------------------------------------------------------------------


@contextmanager
def _opened(f, mode: str):
    """Yield ``f`` unchanged, left open, when it is a stream; otherwise open
    the path ``f`` as UTF-8 text and close it on exit."""
    if hasattr(f, "read") or hasattr(f, "write"):
        yield f
    else:
        with open(f, mode, encoding="utf-8") as fh:
            yield fh


_Row = tuple[int, tuple[int, ...]]


def _read_rows(f) -> list[_Row]:
    """(1-based line number, integers) for each non-blank line of ``f``."""
    with _opened(f, "r") as fh:
        lines = fh.read().splitlines()
    rows = []
    for k, line in enumerate(lines, 1):
        if line.strip():
            try:
                rows.append((k, tuple(int(x) for x in line.split())))
            except ValueError:
                raise FormatError(f"line {k}: fields must be integers") from None
    return rows


def _read_table(f, header: str) -> tuple[_Row, list[_Row]]:
    """The header row ``(k, (a, b))`` and the body rows of a file made of a
    two-integer header named ``header`` and three-integer lines."""
    rows = _read_rows(f)
    if not rows:
        raise FormatError(f"empty file, expected '{header}' header")
    k, head = rows[0]
    if len(head) != 2:
        raise FormatError(f"line {k}: header must be '{header}'")
    for j, row in rows[1:]:
        if len(row) != 3:
            raise FormatError(f"line {j}: expected 3 integers")
    return rows[0], rows[1:]


def _write_rows(f, rows: Iterable[Iterable[int]]) -> None:
    """Write each row as one line of space-separated integers."""
    with _opened(f, "w") as fh:
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")


def write_hypergraph(h: Hypergraph3, f) -> None:
    _write_rows(f, [(h.n, len(h.edge_list)), *h.edge_list])


def read_hypergraph(f) -> Hypergraph3:
    """Parse the hypergraph text format, rejecting malformed lines.

    Non-integer fields, out-of-range vertices, unsorted or repeated
    triples, field-count and edge-count mismatches all raise FormatError;
    every fault of a single line names that line.
    """
    (k, (n, m)), body = _read_table(f, "n m")
    if n < 1 or m < 0:
        raise FormatError(f"line {k}: need n >= 1 and m >= 0")
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    seen: set[Triple] = set()
    for k, t in body:
        if not (1 <= t[0] < t[1] < t[2] <= n):
            raise FormatError(f"line {k}: need 1 <= a < b < c <= {n}")
        if t in seen:
            raise FormatError(f"line {k}: duplicate triple {t}")
        seen.add(t)
    return Hypergraph3._from_sorted(n, sorted(seen))


def read_claim(f, record):
    """Read a claimed cycle as ``record`` (``LooseCycle`` or
    ``RainbowCycleCert``), one line per field.  Only the two-line integer
    format is checked; a bogus claim gets a false verdict from its verifier."""
    names = ", ".join(fl.name for fl in fields(record))
    rows = _read_rows(f)
    if len(rows) != 2:
        raise FormatError(f"expected 2 lines ({names}), found {len(rows)}")
    return record(rows[0][1], rows[1][1])


def write_claim(claim, f) -> None:
    """Write a cycle record as ``read_claim`` reads it, one line per field."""
    _write_rows(f, astuple(claim))
