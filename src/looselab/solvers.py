"""Combinatorial engines: perfect matchings of triple systems and rainbow
Hamilton cycles of colored multigraphs.

A matching is a tuple of ``((x, x'), slot)`` triples sorted by pair, and
``verify_matching`` is its one validity check.  One complete search per
problem, seed-free unless handed a generator for the column relabelling.
Each returns a witness that passes its verifier, or ``None`` only when it
has proven that no witness exists; the test suite checks both against
unpruned enumeration oracles at small sizes.
Neither has a size cap: the matching engine runs to a decision on any
input, and the rainbow engine spends at most a node budget and raises
``BudgetExhausted`` when the search is undecided.  Both recurse with
their search state as int bit masks passed by value, so a failed branch
has nothing to undo; only the partial witness is a list, and a matching
row carries the triple it adds.  The rainbow engine's prunes never
reorder its branches, so a prune only lowers the node count and keeps
the first certificate.
"""

from __future__ import annotations

from typing import Optional

from .colored import ColoredMultigraph, RainbowCycleCert
from .hypergraph import BudgetExhausted, Verdict
from .sampling import Slot, TripleSystem

MatchTriple = tuple[tuple[int, int], Slot]

# Search nodes exact_rainbow_hamilton may expand before giving up: about
# 46x the most any of 1000 seeded pipeline graphs at n=40, p=0.9 needed
# (21,569, at seed 316).
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
        (x1, x2), slot = t
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
    column, slot column) order.  Returns a matching, its triples sorted by
    pair, iff one exists, for any m: there is no size cap and no node
    budget.  ``stats["nodes"]`` accumulates the search nodes expanded.

    A row is its three columns in that order, their mask and its triple;
    rows differ in their columns, so sorting never compares triples.  A
    node receives the live rows, sorted, and the mask of open columns; a
    chosen row passes down the live rows disjoint from it.

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
        (x1, x2), slot = t
        a, b, s = xcol[x1], xcol[x2], scol[slot]
        if a > b:
            a, b = b, a
        rows.append((a, b, s, 1 << a | 1 << b | 1 << s, t))
    rows.sort()
    ncols = two_m + m
    chosen: list[MatchTriple] = []

    def solve(live: list, open_cols: int) -> bool:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + 1
        if not open_cols:
            return True
        counts = [0] * ncols
        for a, b, s, _, _ in live:
            counts[a] += 1
            counts[b] += 1
            counts[s] += 1
        fewest, col = min((counts[c], c) for c in range(ncols)
                          if open_cols >> c & 1)
        if not fewest:
            return False
        for a, b, s, mask, t in live:
            if col == a or col == b or col == s:
                chosen.append(t)
                if solve([r for r in live if not r[3] & mask],
                         open_cols & ~mask):
                    return True
                chosen.pop()
        return False

    if rows and solve(rows, (1 << ncols) - 1):
        return tuple(sorted(chosen, key=lambda t: t[0]))
    return None


# ---------------------------------------------------------------------------
# exact rainbow Hamilton cycle: pruned backtracking over (vertex, color)
# ---------------------------------------------------------------------------


def exact_rainbow_hamilton(g: ColoredMultigraph, *,
                           budget: int = DEFAULT_RAINBOW_BUDGET,
                           stats: Optional[dict] = None
                           ) -> Optional[RainbowCycleCert]:
    """Complete search for a rainbow Hamilton cycle.

    Returns a cert, or ``None`` when no rainbow Hamilton cycle exists;
    raises ``BudgetExhausted`` when deciding would take more than
    ``budget`` search nodes, and ``ValueError`` when ``budget`` is below 1.

    Backtracks over (next vertex, edge color) extensions from vertex 1,
    neighbours ascending and then their colors ascending, with the cycle's
    direction canonicalized (second vertex below the last).  Prunes on
    used colors, on unvisited vertices left with fewer than two usable
    distinct colors (or, above 2 vertices, fewer than two usable
    neighbors), on usable-edge connectivity of the region still to be
    traversed, and, when the graph has exactly nv colors off its loops,
    on color coverage: a rainbow Hamilton cycle then uses every color,
    so each unused one must lie on a usable edge at an unvisited vertex.
    Visited vertices and used colors are masks (bit v, bit c).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    if nv < 2:
        return None
    adj = g.adjacency
    if any(not adj[v] for v in adj):
        return None
    palette = {e.color for e in g.edges if e.u != e.v}
    if len(palette) < nv:
        return None
    # the colors the coverage prune checks: none unless there are exactly nv
    must_cover = sum(1 << c for c in palette) if len(palette) == nv else 0
    # v -> ascending (w, bit of w, color mask of vw, colors of vw)
    nbrs = {v: tuple((w, 1 << w, sum(1 << c for c in cs), cs)
                     for w, cs in adj[v].items()) for v in adj}
    start, start_bit = 1, 1 << 1
    everyone = (1 << (nv + 1)) - 2  # bits 1..nv
    path = [start]
    colors_seq: list[int] = []

    def viable(u: int, visited: int, used: int) -> bool:
        allowed = (everyone & ~visited) | 1 << u | start_bit
        reach = 0
        for w in range(1, nv + 1):
            if visited >> w & 1:
                continue
            free = usable_neighbors = 0
            for _, bit, cmask, _ in nbrs[w]:
                if allowed & bit and cmask & ~used:
                    usable_neighbors += 1
                    free |= cmask & ~used
            if free & (free - 1) == 0 or (nv > 2 and usable_neighbors < 2):
                return False
            reach |= free
        # every edge left to traverse meets an unvisited vertex
        if must_cover & ~used & ~reach:
            return False
        # the rest of the cycle must connect u to start through the
        # unvisited region using edges with unused colors
        frontier = [u]
        seen = 1 << u
        while frontier:
            for w, bit, cmask, _ in nbrs[frontier.pop()]:
                if allowed & bit and not seen & bit and cmask & ~used:
                    seen |= bit
                    frontier.append(w)
        return allowed & ~seen == 0

    result: Optional[RainbowCycleCert] = None
    nodes = 0

    def dfs(u: int, visited: int, used: int) -> bool:
        nonlocal result, nodes
        if nodes >= budget:
            raise BudgetExhausted(
                f"rainbow search undecided after {budget} nodes")
        nodes += 1
        if len(path) == nv:
            if nv > 2 and path[1] > path[-1]:
                return False
            for c in adj[u].get(start, ()):
                if not used >> c & 1:
                    result = RainbowCycleCert(tuple(path), (*colors_seq, c))
                    return True
            return False
        if not viable(u, visited, used):
            return False
        for w, bit, _, cs in nbrs[u]:
            if visited & bit:
                continue
            for c in cs:
                if used >> c & 1:
                    continue
                path.append(w)
                colors_seq.append(c)
                if dfs(w, visited | bit, used | 1 << c):
                    return True
                path.pop()
                colors_seq.pop()
        return False

    try:
        dfs(start, start_bit, 0)
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return result
