"""Combinatorial engines: perfect matchings of triple systems and rainbow
Hamilton cycles of colored multigraphs.

A matching is a tuple of ``((x, x'), slot)`` triples sorted by pair, and
``verify_matching`` is its one validity check.  One complete, seed-free
search per problem.  Each returns a witness that passes its verifier, or
``None`` only when it has proven that no witness exists; the test suite
checks both against unpruned enumeration oracles at small sizes.
Neither has a size cap: the matching engine runs to a decision on any
input, and the rainbow engine spends at most a node budget and raises
``BudgetExhausted`` when the search is undecided.
"""

from __future__ import annotations

from typing import Optional

from .colored import ColoredMultigraph, RainbowCycleCert
from .hypergraph import BudgetExhausted, Verdict
from .sampling import Slot, TripleSystem

MatchTriple = tuple[tuple[int, int], Slot]

# Search nodes exact_rainbow_hamilton may expand before giving up: about
# 20x the most any of 1000 seeded pipeline graphs at n=40 needed (~52k).
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
    if sorted(used_x) != list(ts.xs):
        return Verdict(False, "pairs do not partition X")
    # m slots used and m distinct slots: equal sets mean each used once
    if set(used_slots) != set(ts.slots):
        return Verdict(False, "slots are not each used exactly once")
    return Verdict(True)


def _sorted_rows(ts: TripleSystem) -> list[MatchTriple]:
    rank = {s: i for i, s in enumerate(ts.slots)}
    return sorted(ts.present, key=lambda t: (t[0], rank[t[1]]))


# ---------------------------------------------------------------------------
# exact matching: exact cover over columns = X vertices + slots
# ---------------------------------------------------------------------------


def exact_matching(ts: TripleSystem, *, stats: Optional[dict] = None
                   ) -> Optional[tuple[MatchTriple, ...]]:
    """Complete perfect-matching search, framed as exact cover.

    Rows are present triples; columns are the 2m X-vertices and the m
    slots; the most constrained column is branched first, ties broken by
    lowest column index.  Returns a matching, its triples sorted by pair,
    iff one exists, for any m: there is no size cap and no node budget.
    ``stats["nodes"]`` accumulates the search nodes expanded.
    """
    m = ts.m
    if m == 0:
        return ()
    rows = _sorted_rows(ts)
    if not rows:
        return None
    xcol = {x: i for i, x in enumerate(ts.xs)}
    scol = {s: len(ts.xs) + i for i, s in enumerate(ts.slots)}
    row_cols = [
        (xcol[x1], xcol[x2], scol[slot]) for (x1, x2), slot in rows
    ]
    cols: dict[int, set[int]] = {c: set() for c in range(len(ts.xs) + m)}
    for rid, rc in enumerate(row_cols):
        for c in rc:
            cols[c].add(rid)

    def select(rid: int) -> list[set[int]]:
        removed = []
        for j in row_cols[rid]:
            for i in cols[j]:
                for k in row_cols[i]:
                    if k != j:
                        cols[k].discard(i)
            removed.append(cols.pop(j))
        return removed

    def deselect(rid: int, removed: list[set[int]]) -> None:
        for j in reversed(row_cols[rid]):
            cols[j] = removed.pop()
            for i in cols[j]:
                for k in row_cols[i]:
                    if k != j:
                        cols[k].add(i)

    chosen: list[int] = []

    def solve() -> bool:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + 1
        if not cols:
            return True
        col = min(cols, key=lambda c: (len(cols[c]), c))
        if not cols[col]:
            return False
        for rid in sorted(cols[col]):
            chosen.append(rid)
            removed = select(rid)
            if solve():
                return True
            deselect(rid, removed)
            chosen.pop()
        return False

    if solve():
        return tuple(sorted((rows[rid] for rid in chosen), key=lambda t: t[0]))
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
    with the cycle's direction canonicalized (second vertex below the
    last).  Prunes on used colors, on unvisited vertices left with fewer
    than two usable distinct colors (or, above 2 vertices, fewer than two
    usable neighbors), and on usable-edge connectivity of the region still
    to be traversed.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    if nv < 2:
        return None
    adj = g.adjacency
    if any(not adj[v] for v in adj):
        return None
    if len({e.color for e in g.edges if e.u != e.v}) < nv:
        return None
    start = 1
    path = [start]
    visited = {start}
    used_colors: set[int] = set()
    colors_seq: list[int] = []

    def viable(u: int) -> bool:
        allowed = (set(range(1, nv + 1)) - visited) | {u, start}
        unvisited = allowed - {u, start}
        for w in unvisited:
            usable_colors: set[int] = set()
            usable_neighbors = 0
            for w2, cs in adj[w].items():
                if w2 in allowed:
                    free = [c for c in cs if c not in used_colors]
                    if free:
                        usable_neighbors += 1
                        usable_colors.update(free)
            if len(usable_colors) < 2 or (nv > 2 and usable_neighbors < 2):
                return False
        # the rest of the cycle must connect u to start through the
        # unvisited region using edges with unused colors
        frontier = [u]
        seen = {u}
        while frontier:
            x = frontier.pop()
            for w2, cs in adj[x].items():
                if w2 in allowed and w2 not in seen \
                        and any(c not in used_colors for c in cs):
                    seen.add(w2)
                    frontier.append(w2)
        return allowed <= seen

    result: Optional[RainbowCycleCert] = None
    nodes = 0

    def dfs(u: int) -> bool:
        nonlocal result, nodes
        if nodes >= budget:
            raise BudgetExhausted(
                f"rainbow search undecided after {budget} nodes")
        nodes += 1
        if len(path) == nv:
            if nv > 2 and path[1] > path[-1]:
                return False
            for c in adj[u].get(start, ()):
                if c not in used_colors:
                    result = RainbowCycleCert(tuple(path), tuple(colors_seq) + (c,))
                    return True
            return False
        if not viable(u):
            return False
        for w, cs in adj[u].items():
            if w in visited:
                continue
            for c in cs:
                if c in used_colors:
                    continue
                path.append(w)
                visited.add(w)
                used_colors.add(c)
                colors_seq.append(c)
                if dfs(w):
                    return True
                path.pop()
                visited.discard(w)
                used_colors.discard(c)
                colors_seq.pop()
        return False

    try:
        dfs(start)
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return result
