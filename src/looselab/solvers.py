"""Combinatorial engines: perfect matchings of triple systems and rainbow
Hamilton cycles of colored multigraphs.

A matching is a sorted tuple of flat ``(x, x', slot)`` triples, x < x',
and ``verify_matching`` is its one validity check.  One complete search per
problem returns a witness that passes its verifier, or ``None`` only when
it has proven that none exists; the tests check both against unpruned
enumeration oracles at small sizes.  Neither search has a size cap or
recurses, both branch on the most constrained choice, and their prunes
cut only subtrees without a witness, so they keep the first one.  Both
number their items, triples or edges, as the bits of an int: each column,
vertex and color has the int mask of its items, a frame holds its live
items as one int, and a count is the bit count of an intersection.
"""

from __future__ import annotations

from typing import Optional

from .colored import ColoredMultigraph, RainbowCycleCert
from .hypergraph import BudgetExhausted, Verdict
from .sampling import Slot, TripleSystem

MatchTriple = tuple[int, int, Slot]

# Search nodes exact_rainbow_hamilton may expand before giving up: about
# 257x the most any of 1000 seeded pipeline graphs at n=40, p=0.9 needed
# (3,889, at seed 156).  Spending it all takes about 12 s at n=96, p=0.9.
DEFAULT_RAINBOW_BUDGET = 1_000_000


def verify_matching(ts: TripleSystem, matching) -> Verdict:
    """Check that a claimed matching covers X and the slots using only
    present triples."""
    triples = tuple(matching)
    if len(triples) != ts.m:
        return Verdict(False, f"expected {ts.m} triples, got {len(triples)}")
    for i, t in enumerate(triples):
        if t not in ts.present:
            return Verdict(False, "triple not present in the system", index=i + 1)
    xs = sorted(x for x1, x2, _ in triples for x in (x1, x2))
    if xs != list(range(1, 2 * ts.m + 1)):
        return Verdict(False, "pairs do not partition X")
    # m slots used and m distinct slots: equal sets mean each used once
    if {slot for _, _, slot in triples} != set(ts.slots):
        return Verdict(False, "slots are not each used exactly once")
    return Verdict(True)


# ---------------------------------------------------------------------------
# exact matching: exact cover over columns = X vertices + slots
# ---------------------------------------------------------------------------


def exact_matching(ts: TripleSystem, *, gen=None, stats: Optional[dict] = None
                   ) -> Optional[tuple[MatchTriple, ...]]:
    """Complete perfect-matching search, framed as exact cover.

    Rows are present triples; columns are the 2m X-vertices and the m
    slots.  The most constrained column is branched first, ties broken by
    lowest column, and its rows are tried in (lower X column, higher X
    column, slot column) order.  Returns a matching, its triples sorted,
    iff one exists; ``stats["nodes"]`` accumulates the nodes expanded.

    Row k is bit k of an int and ``at[c]`` the mask of column c's rows.  A
    node holds its live rows as one int, and a chosen row clears its three
    columns' masks from them.  Rows are numbered in the system's iteration
    order, which reaches no output: a column's rows are sorted when chosen.

    Without ``gen``, X-vertex x is column x - 1 and slot j column 2m + j.
    A fixed numbering would hand every saturated system the same witness
    and collapse the derived graph to parallel bundles.  So, given a
    generator, ``gen.permutation(2m)`` then ``gen.permutation(m)`` number
    them, drawn before any return: the search of a uniformly relabelled
    copy, whose witness is equivariant and keeps the matchings symmetric.
    """
    m, two_m = ts.m, 2 * ts.m
    xperm = range(two_m) if gen is None else gen.permutation(two_m).tolist()
    sperm = range(m) if gen is None else gen.permutation(m).tolist()
    xcol = [None, *xperm]  # X starts at 1
    scol = {s: two_m + c for s, c in zip(ts.slots, sperm)}
    triples = list(ts.present)
    at = [0] * (two_m + m)
    for k, (x1, x2, slot) in enumerate(triples):
        bit = 1 << k
        at[xcol[x1]] |= bit
        at[xcol[x2]] |= bit
        at[scol[slot]] |= bit
    # a frame: [live rows, open columns, its untried rows in branch order,
    # the triple being tried]; an edgeless system expands no node
    stack: list[list] = []
    live, open_cols, nodes = (1 << len(triples)) - 1, list(range(len(at))), 0
    try:
        while triples:
            nodes += 1
            if not open_cols:
                return tuple(sorted(frame[3] for frame in stack))
            fewest, col = len(triples) + 1, 0
            for c in open_cols:
                k = (live & at[c]).bit_count()
                if k < fewest:
                    fewest, col = k, c
                    if not k:
                        break
            if fewest:
                branch = []
                rows = live & at[col]
                while rows:
                    x1, x2, slot = t = triples[(rows & -rows).bit_length() - 1]
                    rows &= rows - 1
                    a, b = xcol[x1], xcol[x2]
                    branch.append((a, b, scol[slot], t) if a < b
                                  else (b, a, scol[slot], t))
                branch.sort()
                stack.append([live, open_cols, iter(branch), None])
            # step to the next row of the deepest frame that has one
            while stack and (row := next(stack[-1][2], None)) is None:
                stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            a, b, s, frame[3] = row
            live = frame[0] & ~(at[a] | at[b] | at[s])
            open_cols = frame[1].copy()
            for c in (a, b, s):
                open_cols.remove(c)
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return None


# ---------------------------------------------------------------------------
# exact rainbow Hamilton cycle: choose edges, the scarcest constraint first
# ---------------------------------------------------------------------------


def _cert(chosen: list) -> RainbowCycleCert:
    """Walk a rainbow Hamilton cycle, given as its edges, from vertex 1."""
    at: dict[int, list] = {}
    for e in chosen:
        at.setdefault(e[0], []).append(e)
        at.setdefault(e[1], []).append(e)
    order, colors = [], []
    v, e = 1, at[1][0]
    for _ in chosen:
        order.append(v)
        colors.append(e[2])
        v = e[0] + e[1] - v
        first, second = at[v]
        e = second if first == e else first
    return RainbowCycleCert(tuple(order), tuple(colors))


def exact_rainbow_hamilton(g: ColoredMultigraph, *,
                           budget: int = DEFAULT_RAINBOW_BUDGET,
                           stats: Optional[dict] = None
                           ) -> Optional[RainbowCycleCert]:
    """Complete search for a rainbow Hamilton cycle.

    Returns a cert, or ``None`` when no rainbow Hamilton cycle exists;
    raises ``BudgetExhausted`` when deciding would take more than
    ``budget`` search nodes, and ``ValueError`` when ``budget`` is below 1.

    A rainbow Hamilton cycle takes one edge of each of nv colors and two
    edges at each vertex, so the search chooses edges, the scarcest
    constraint first.  The edges are the distinct ``(u, w, c)`` of ``g``
    off its loops, sorted.  An edge is usable when its color is unused,
    its endpoints have fewer than two chosen edges each, and it does not
    join the two endpoints of one chosen path, unless it is the cycle's
    last edge.
    A node is dead when a vertex has fewer distinct usable neighbours
    than ``min(edges it still needs, nv - 1)``, or when the graph has
    exactly nv colors off its loops (so a cycle uses all of them) and an
    unused color has no usable edge.  Otherwise it branches over the
    usable edges, in order, of the color (only in that exact-palette
    case) or vertex with the fewest, ties to colors and then the lowest;
    each branch excludes the ones before it, so the search is complete.

    Edge k is bit k of an int; ``at[v]`` and ``of[c]`` mask vertex v's and
    color c's edges.  A frame holds its usable edges as one int.  A chosen
    edge's child drops its color, any end it brings to degree 2 and, but
    for the last edge, the edges that would close its path; a tried edge
    leaves its frame.  ``deg`` holds the degrees and ``end[v]`` the other
    end of the chosen path ending at v; both are undone on backtracking.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    edges = sorted({e for e in g.edges if e[0] != e[1]})
    at = [0] * (nv + 1)
    of: dict[int, int] = {}
    for k, (u, w, c) in enumerate(edges):
        bit = 1 << k
        at[u] |= bit
        at[w] |= bit
        of[c] = of.get(c, 0) | bit
    if len(of) < nv:
        return None
    # the unused colors a cycle must each use: all if exactly nv, else none
    cover = sorted(of) if len(of) == nv else []
    deg = [0] * (nv + 1)
    end = list(range(nv + 1))
    # a frame: [edges usable at its node, its untried branch edges, the
    # edge being tried, endpoints of the path that edge made, its cover]
    stack: list[list] = []
    live, nodes = (1 << len(edges)) - 1, 0
    try:
        while True:
            if nodes >= budget:
                raise BudgetExhausted(
                    f"rainbow search undecided after {budget} nodes")
            nodes += 1
            if len(stack) == nv:
                return _cert([edges[f[2]] for f in stack])
            fewest, mask = len(edges) + 1, 0
            for c in cover:
                mine = live & of[c]
                if not mine:
                    break
                k = mine.bit_count()
                if k < fewest:
                    fewest, mask = k, mine
            else:
                for v in range(1, nv + 1):
                    if deg[v] == 2:
                        continue
                    mine = live & at[v]
                    if not mine:
                        break
                    if deg[v] == 0 and nv > 2:
                        u, w, _ = edges[(mine & -mine).bit_length() - 1]
                        if not mine & ~at[u + w - v]:
                            break
                    k = mine.bit_count()
                    if k < fewest:
                        fewest, mask = k, mine
                else:
                    stack.append([live, mask, -1, 0, 0, cover])
            # step to the next branch of the deepest frame that has one
            while stack:
                frame = stack[-1]
                live, rest, k, a, b, cover = frame
                if k >= 0:  # undo the branch tried last and exclude it
                    u, w, _ = edges[k]
                    deg[u] -= 1
                    deg[w] -= 1
                    end[a], end[b] = u, w
                    live &= ~(1 << k)
                    frame[0] = live
                if rest:
                    break
                stack.pop()
            else:
                return None
            k = (rest & -rest).bit_length() - 1
            u, w, c = edges[k]
            a, b = end[u], end[w]
            end[a], end[b] = b, a
            deg[u] += 1
            deg[w] += 1
            frame[1:5] = rest & (rest - 1), k, a, b
            live &= ~of[c]
            cover = [x for x in cover if x != c]
            if deg[u] == 2:
                live &= ~at[u]
            if deg[w] == 2:
                live &= ~at[w]
            if len(stack) < nv - 1:
                live &= ~(at[a] & at[b])
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
