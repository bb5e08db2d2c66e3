"""3-uniform hypergraphs and loose Hamilton cycles.

A loose Hamilton cycle on a vertex set 1..n (n even) is a cyclic sequence
of n/2 edges {x_i, y_i, x_(i+1)} in which consecutive edges overlap in the
single "link" vertex x_(i+1).  The links x_1..x_(n/2) and the "middle"
vertices y_1..y_(n/2) together cover every vertex exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union


class FormatError(ValueError):
    """Malformed instance or certificate file."""


class SizeCapExceeded(ValueError):
    """An exact engine was asked to search beyond its configured cap."""


class BudgetExhausted(RuntimeError):
    """A complete search spent its node budget without deciding."""


Triple = tuple[int, int, int]


def triple(a: int, b: int, c: int) -> Triple:
    """Sorted triple of three distinct vertex ids."""
    x, y, z = sorted((int(a), int(b), int(c)))
    if x == y or y == z:
        raise ValueError(f"triple needs three distinct vertices, got {(a, b, c)}")
    return (x, y, z)


class Hypergraph3:
    """Immutable 3-uniform hypergraph on vertices 1..n.

    Edges are kept both as a sorted tuple (``edge_list``, giving each edge
    a stable id) and as a frozenset (``edges``) for membership tests.
    Duplicate triples are rejected rather than silently merged, so sampler
    bugs surface instead of disappearing.
    """

    __slots__ = ("n", "edge_list", "edges", "_incidence")

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
        self.edge_list: tuple[Triple, ...] = tuple(canon)
        self.edges: frozenset[Triple] = frozenset(canon)
        self._incidence = None

    @classmethod
    def _from_sorted(cls, n: int, edge_list: Sequence[Triple]) -> "Hypergraph3":
        # Trusted fast path for samplers: edges already sorted ascending,
        # distinct, canonical, and within range.
        self = cls.__new__(cls)
        self.n = n
        self.edge_list = tuple(edge_list)
        self.edges = frozenset(self.edge_list)
        self._incidence = None
        return self

    @property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """vertex -> ids of incident edges (ids index ``edge_list``)."""
        if self._incidence is None:
            inc: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
            for i, (a, b, c) in enumerate(self.edge_list):
                inc[a].append(i)
                inc[b].append(i)
                inc[c].append(i)
            self._incidence = {v: tuple(ids) for v, ids in inc.items()}
        return self._incidence

    def __contains__(self, e) -> bool:
        return tuple(e) in self.edges

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


def _canonical_rotation(
    links: tuple[int, ...], middles: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Rotate so the smallest link leads, then fix the direction: second
    # link below last link; with only two links that test is vacuous and
    # the lexicographically smaller middle sequence wins.
    s = len(links)
    k = links.index(min(links))
    fl = links[k:] + links[:k]
    fm = middles[k:] + middles[:k]
    rl = (fl[0],) + tuple(reversed(fl[1:]))
    rm = tuple(reversed(fm))
    if s == 2:
        return (fl, fm) if fm <= rm else (rl, rm)
    return (fl, fm) if fl[1] < fl[-1] else (rl, rm)


@dataclass(frozen=True)
class LooseCycle:
    """Loose-cycle witness: links x_1..x_s and middles y_1..y_s.

    Instances are stored in canonical form (see ``_canonical_rotation``),
    so equal cycles compare equal and deduplication is a set operation.
    Construction validates that links and middles partition 1..2s.
    """

    links: tuple[int, ...]
    middles: tuple[int, ...]

    def __post_init__(self):
        links = tuple(int(v) for v in self.links)
        middles = tuple(int(v) for v in self.middles)
        s = len(links)
        if s < 2 or len(middles) != s:
            raise ValueError("need equally many links and middles, at least two each")
        n = 2 * s
        combined = set(links) | set(middles)
        if len(set(links)) != s or len(set(middles)) != s or len(combined) != n:
            raise ValueError("links and middles must be disjoint and duplicate-free")
        if combined != set(range(1, n + 1)):
            raise ValueError(f"links and middles must cover 1..{n} exactly")
        links, middles = _canonical_rotation(links, middles)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "middles", middles)

    @property
    def n(self) -> int:
        return 2 * len(self.links)

    def windows(self) -> tuple[Triple, ...]:
        """The s edges {x_i, y_i, x_(i+1)} traced by the cycle."""
        s = len(self.links)
        return tuple(
            triple(self.links[i], self.middles[i], self.links[(i + 1) % s])
            for i in range(s)
        )

    def edge_set(self) -> frozenset[Triple]:
        return frozenset(self.windows())


@dataclass(frozen=True)
class Verdict:
    """Boolean check outcome carrying the first violated condition."""

    ok: bool
    reason: str = ""
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


CycleLike = Union[LooseCycle, tuple[Sequence[int], Sequence[int]]]


def verify_loose_hamilton(h: Hypergraph3, cycle: CycleLike) -> Verdict:
    """Check a claimed loose Hamilton cycle against ``h``.

    Accepts a ``LooseCycle`` or a raw ``(links, middles)`` pair, so claims
    read from files can be judged without trusting their structure.
    Conditions are checked in order: link/middle counts, duplicates,
    link-middle overlap, vertex coverage, then each cyclic window
    {x_i, y_i, x_(i+1)}; the 1-based window index is reported on the
    first miss.

    Raises ValueError for h.n odd or below 4, where the question is
    malformed rather than false.
    """
    if h.n < 4 or h.n % 2:
        raise ValueError(f"loose Hamilton cycles need even n >= 4, got n={h.n}")
    if isinstance(cycle, LooseCycle):
        links, middles = cycle.links, cycle.middles
    else:
        raw_links, raw_middles = cycle
        links = tuple(int(v) for v in raw_links)
        middles = tuple(int(v) for v in raw_middles)
    s = h.n // 2
    if len(links) != s:
        return Verdict(False, f"expected {s} links, got {len(links)}")
    if len(middles) != s:
        return Verdict(False, f"expected {s} middles, got {len(middles)}")
    if len(set(links)) != s:
        return Verdict(False, "repeated link vertex")
    if len(set(middles)) != s:
        return Verdict(False, "repeated middle vertex")
    if set(links) & set(middles):
        return Verdict(False, "links and middles overlap")
    if set(links) | set(middles) != set(range(1, h.n + 1)):
        return Verdict(False, f"links and middles do not cover 1..{h.n}")
    for i in range(s):
        t = triple(links[i], middles[i], links[(i + 1) % s])
        if t not in h.edges:
            return Verdict(False, "missing edge", index=i + 1)
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


def _check_searchable(h: Hypergraph3, cap: int) -> None:
    if h.n % 2:
        raise ValueError(f"loose Hamilton cycles need even n, got n={h.n}")
    if h.n < 4:
        raise ValueError(f"loose Hamilton cycles need n >= 4, got n={h.n}")
    if h.n > cap:
        raise SizeCapExceeded(f"n={h.n} exceeds the exact-search cap {cap}")


def _loose_cycle_search(h: Hypergraph3, first_only: bool) -> list[LooseCycle]:
    n = h.n
    s = n // 2
    results: list[LooseCycle] = []
    if len(h.edge_list) < s or isolated_vertices(h):
        return results

    cand: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for a, b, c in h.edge_list:
        cand[a] += ((b, c), (c, b))
        cand[b] += ((a, c), (c, a))
        cand[c] += ((a, b), (b, a))

    # midcap[v]: largest lower bound on the two flanking links of any edge
    # through v; v can serve as a middle only while the minimum link is at
    # most this value.
    midcap = {v: max(min(y, w) for y, w in cand[v]) for v in range(1, n + 1)}

    bit = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    full = (1 << n) - 1
    edges = h.edges

    def dfs(u: int, used: int, links: list[int], mids: list[int], v0: int) -> bool:
        if len(links) == s:
            rest = full & ~used
            y = rest.bit_length()  # the single remaining vertex
            a, b, c = sorted((u, y, v0))
            if (a, b, c) in edges:
                results.append(LooseCycle(tuple(links), tuple(mids) + (y,)))
                return first_only
            return False
        for y, w in cand[u]:
            if w <= v0:
                continue
            byw = bit[y] | bit[w]
            if used & byw:
                continue
            links.append(w)
            mids.append(y)
            stop = dfs(w, used | byw, links, mids, v0)
            links.pop()
            mids.pop()
            if stop:
                return True
        return False

    # v0 is the smallest link; every vertex below it is forced to be a
    # middle, which needs an edge with both flanks >= v0.
    lowmid = n + 1
    for v0 in range(1, s + 2):
        if v0 > 1:
            lowmid = min(lowmid, midcap[v0 - 1])
        if lowmid < v0:
            break
        if dfs(v0, bit[v0], [v0], [], v0):
            break
    return results


def exact_loose_hamilton(h: Hypergraph3, *, cap: int = 16) -> Optional[LooseCycle]:
    """Complete search for a loose Hamilton cycle; None iff none exists.

    Branches on the next link and middle simultaneously, anchored at the
    smallest link vertex.  Intended for n up to ``cap`` (default 16);
    larger inputs raise SizeCapExceeded.
    """
    _check_searchable(h, cap)
    found = _loose_cycle_search(h, first_only=True)
    return found[0] if found else None


def enumerate_loose_hamilton(h: Hypergraph3, *, cap: int = 12) -> list[LooseCycle]:
    """All loose Hamilton cycles of ``h``, one per distinct edge set."""
    _check_searchable(h, cap)
    distinct: dict[frozenset[Triple], LooseCycle] = {}
    for cyc in _loose_cycle_search(h, first_only=False):
        distinct.setdefault(cyc.edge_set(), cyc)
    return sorted(distinct.values(), key=lambda c: (c.links, c.middles))


def complete_hypergraph(n: int) -> Hypergraph3:
    """K_n^(3): every triple present."""
    from itertools import combinations

    return Hypergraph3._from_sorted(n, list(combinations(range(1, n + 1), 3)))


# ---------------------------------------------------------------------------
# text format: first line "n m", then m lines "a b c" with a < b < c
# ---------------------------------------------------------------------------


def _open_maybe(f, mode: str):
    if hasattr(f, "read") or hasattr(f, "write"):
        return f, False
    return open(f, mode, encoding="utf-8"), True


def write_hypergraph(h: Hypergraph3, f) -> None:
    fh, closing = _open_maybe(f, "w")
    try:
        fh.write(f"{h.n} {len(h.edge_list)}\n")
        for a, b, c in h.edge_list:
            fh.write(f"{a} {b} {c}\n")
    finally:
        if closing:
            fh.close()


def read_hypergraph(f) -> Hypergraph3:
    """Parse the hypergraph text format, rejecting malformed lines.

    Out-of-range vertices, unsorted or repeated triples, field-count and
    edge-count mismatches all raise FormatError with the offending line.
    """
    fh, closing = _open_maybe(f, "r")
    try:
        lines = fh.read().splitlines()
    finally:
        if closing:
            fh.close()
    rows = [(i + 1, ln.split()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise FormatError("empty file, expected 'n m' header")
    lineno, head = rows[0]
    if len(head) != 2:
        raise FormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header must be two integers") from None
    if n < 1 or m < 0:
        raise FormatError(f"line {lineno}: need n >= 1 and m >= 0")
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    seen: set[Triple] = set()
    edges: list[Triple] = []
    for lineno, fields in body:
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 3 vertex ids")
        try:
            a, b, c = (int(x) for x in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: vertex ids must be integers") from None
        if not (1 <= a < b < c <= n):
            raise FormatError(f"line {lineno}: need 1 <= a < b < c <= {n}")
        t = (a, b, c)
        if t in seen:
            raise FormatError(f"line {lineno}: duplicate triple {t}")
        seen.add(t)
        edges.append(t)
    return Hypergraph3(n, edges)


def write_loose_cycle(cycle: LooseCycle, f) -> None:
    fh, closing = _open_maybe(f, "w")
    try:
        fh.write(" ".join(str(v) for v in cycle.links) + "\n")
        fh.write(" ".join(str(v) for v in cycle.middles) + "\n")
    finally:
        if closing:
            fh.close()


def read_loose_cycle_claim(f) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read a claimed (links, middles) pair; structure is NOT validated here,
    so bogus claims reach the verifier and come back as false verdicts."""
    fh, closing = _open_maybe(f, "r")
    try:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    finally:
        if closing:
            fh.close()
    if len(lines) != 2:
        raise FormatError(f"expected 2 lines (links, middles), found {len(lines)}")
    try:
        links = tuple(int(x) for x in lines[0].split())
        middles = tuple(int(x) for x in lines[1].split())
    except ValueError:
        raise FormatError("cycle lines must contain integers") from None
    return links, middles
