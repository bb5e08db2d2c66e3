"""Combinatorial engines: perfect matchings of triple systems and rainbow
Hamilton cycles of colored multigraphs.

A matching is a sorted tuple of flat ``(x, x', slot)`` triples, x < x',
and ``verify_matching`` is its one validity check.  One complete search per
problem, seed-free unless handed a generator for the column relabelling.
Each returns a witness that passes its verifier, or ``None`` only when it
has proven that no witness exists; the test suite checks both against
unpruned enumeration oracles at small sizes.
Neither has a size cap: the matching engine runs to a decision on any
input, and the rainbow engine spends at most a node budget and raises
``BudgetExhausted`` when the search is undecided.  Both loop over an
explicit stack, so their depth is not bounded by the recursion limit, and
both branch on the most constrained choice: a column of the exact cover,
or the color or vertex with the fewest usable edges.  A frame holds what
is still live at its node, rows or edges, and a child filters its
parent's list.  A matching row carries the triple it adds, and a matching
frame the int bit mask of its open columns; the rainbow search undoes the
vertex degrees and path endpoints its chosen edges set.  Its prunes only cut
subtrees that hold no cycle, so a prune lowers the node count and keeps
the first certificate.
"""

from __future__ import annotations

from typing import Optional

from .colored import ColoredMultigraph, RainbowCycleCert
from .hypergraph import BudgetExhausted, Verdict
from .sampling import Slot, TripleSystem

MatchTriple = tuple[int, int, Slot]

# Search nodes exact_rainbow_hamilton may expand before giving up: about
# 257x the most any of 1000 seeded pipeline graphs at n=40, p=0.9 needed
# (3,889, at seed 156).  Spending all of it takes about 30 s at n=96.
DEFAULT_RAINBOW_BUDGET = 1_000_000


def verify_matching(ts: TripleSystem, matching) -> Verdict:
    """Check that a claimed matching covers X and the slots using only
    present triples."""
    triples = tuple(matching)
    if len(triples) != ts.m:
        return Verdict(False, f"expected {ts.m} triples, got {len(triples)}")
    used_x: list[int] = []
    used_slots = []
    for i, t in enumerate(triples):
        if t not in ts.present:
            return Verdict(False, "triple not present in the system", index=i + 1)
        x1, x2, slot = t
        used_x += [x1, x2]
        used_slots.append(slot)
    if sorted(used_x) != list(range(1, 2 * ts.m + 1)):
        return Verdict(False, "pairs do not partition X")
    # m slots used and m distinct slots: equal sets mean each used once
    if set(used_slots) != set(ts.slots):
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
    iff one exists, for any m: there is no size cap, no node budget and
    no recursion.  ``stats["nodes"]`` accumulates the search nodes expanded.

    A row is its three columns in that order, their mask and its triple;
    rows differ in columns and a matching's triples in pairs, so no sort
    compares slots.  A node has the live rows, sorted, and the mask of
    open columns; a chosen row passes down the live rows disjoint from it.

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
    rows = []
    for t in ts.present:
        x1, x2, slot = t
        a, b, s = xcol[x1], xcol[x2], scol[slot]
        if a > b:
            a, b = b, a
        rows.append((a, b, s, 1 << a | 1 << b | 1 << s, t))
    rows.sort()
    ncols = two_m + m
    # a frame: [live rows, open columns, branch column, its untried rows,
    # the triple being tried]; an edgeless system expands no node
    stack: list[list] = []
    live, open_cols, nodes = rows, (1 << ncols) - 1, 0
    try:
        while rows:
            nodes += 1
            if not open_cols:
                return tuple(sorted(frame[4] for frame in stack))
            counts = [0] * ncols
            for a, b, s, _, _ in live:
                counts[a] += 1
                counts[b] += 1
                counts[s] += 1
            fewest, col = min((counts[c], c) for c in range(ncols)
                              if open_cols >> c & 1)
            if fewest:
                stack.append([live, open_cols, col, iter(live), None])
            # step to the next row of the deepest frame that covers its column
            while stack:
                frame = stack[-1]
                live, open_cols, col, untried, _ = frame
                for a, b, s, mask, t in untried:
                    if col == a or col == b or col == s:
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                return None
            frame[4] = t
            live = [r for r in live if not r[3] & mask]
            open_cols &= ~mask
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

    A frame holds the edges usable at its node, and a child filters its
    parent's list.  Chosen edges set ``deg``, the vertex degrees, and
    ``end``, where ``end[v]`` is the other endpoint of the chosen path
    with endpoint v; both are undone on backtracking.  The search is a
    loop over an explicit stack, so its depth is not bounded by the
    recursion limit.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    edges = sorted({e for e in g.edges if e[0] != e[1]})
    ncolors = len({c for _, _, c in edges})
    if ncolors < nv:
        return None
    cover = ncolors == nv
    # the distinct usable neighbours a vertex of degree 0, 1, 2 needs;
    # vertex 0 does not exist, and degree 2 keeps it out of every test
    needs = (min(2, nv - 1), 1, 0)
    deg = [2] + [0] * nv
    end = list(range(nv + 1))
    used: set[int] = set()
    # a frame: [edges usable at its node, the edges it branches over,
    # index of its next branch, endpoints of the path its branch made]
    stack: list[list] = []
    live, nodes = edges, 0
    try:
        while True:
            if nodes >= budget:
                raise BudgetExhausted(
                    f"rainbow search undecided after {budget} nodes")
            nodes += 1
            if len(stack) == nv:
                return _cert([f[1][f[2] - 1] for f in stack])
            count = [0] * (nv + 1)
            nbrs = [0] * (nv + 1)
            per_color: dict[int, int] = {}
            pu = pw = 0
            for u, w, c in live:
                count[u] += 1
                count[w] += 1
                if u != pu or w != pw:  # parallel edges are adjacent
                    nbrs[u] += 1
                    nbrs[w] += 1
                    pu, pw = u, w
                per_color[c] = per_color.get(c, 0) + 1
            if not (cover and len(per_color) < nv - len(stack) or any(
                    n < needs[d] for n, d in zip(nbrs, deg))):
                scarce = [(k, 1, v) for v, k in enumerate(count)
                          if deg[v] < 2]
                if cover:
                    scarce += [(k, 0, c) for c, k in per_color.items()]
                _, kind, x = min(scarce)
                branch = [e for e in live if e[2] == x] if kind == 0 else \
                    [e for e in live if e[0] == x or e[1] == x]
                stack.append([live, branch, 0, 0, 0])
            # step to the next branch of the deepest frame that has one
            while stack:
                frame = stack[-1]
                live, branch, i, a, b = frame
                if i:  # undo the branch tried last and exclude it
                    u, w, c = e = branch[i - 1]
                    deg[u] -= 1
                    deg[w] -= 1
                    end[a], end[b] = u, w
                    used.discard(c)
                    live.remove(e)
                if i < len(branch):
                    break
                stack.pop()
            else:
                return None
            u, w, c = branch[i]
            a, b = end[u], end[w]
            end[a], end[b] = b, a
            deg[u] += 1
            deg[w] += 1
            used.add(c)
            frame[2:] = i + 1, a, b
            last = len(stack) == nv - 1
            live = [e for e in live if e[2] not in used and deg[e[0]] < 2
                    and deg[e[1]] < 2 and (last or end[e[0]] != e[1])]
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
