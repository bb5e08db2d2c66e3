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
explicit stack, so their depth is not bounded by the recursion limit,
and neither undoes a move.  A matching frame holds its live rows and the
int bit mask of its open columns, and a row carries the triple it adds.
A rainbow move copies the per-vertex state it changes, and a node
re-checks only the vertices that move changed.  The rainbow engine's
prunes never reorder its branches, so a prune only lowers the node count
and keeps the first certificate.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional

from .colored import ColoredMultigraph, RainbowCycleCert
from .hypergraph import BudgetExhausted, Verdict
from .sampling import Slot, TripleSystem

MatchTriple = tuple[int, int, Slot]

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
    An edge is usable when its color is unused and both its ends are
    allowed: unvisited, the current vertex, or vertex 1.

    Visited vertices and used colors are masks (bit v, bit c).  Two lists
    indexed by vertex hold the rest of a node's state: ``fm[x]``, the
    colors of x's edges to allowed vertices (0 once x is visited), and
    ``un[x]``, x's neighbours joined by a pair with an unused color.  A
    move copies the lists it changes, so nothing is undone, and a node
    re-checks only the unvisited vertices the move could change: the
    neighbours of the vertex left and the ends of the new color's pairs.
    The search is a loop over an explicit stack of frames, so its depth
    is not bounded by the recursion limit.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    if nv < 2:
        return None
    adj = g.adjacency
    if any(not adj[v] for v in adj):
        return None
    palette = {c for u, v, c in g.edges if u != v}
    if len(palette) < nv:
        return None
    # the colors the coverage prune checks: none unless there are exactly nv
    must_cover = sum(1 << c for c in palette) if len(palette) == nv else 0
    min_nbrs = 2 if nv > 2 else 0
    start, start_bit = 1, 1 << 1
    everyone = (1 << (nv + 1)) - 2  # bits 1..nv
    fm, un = [0] * (nv + 1), [0] * (nv + 1)
    holders: list = [None] * (nv + 1)  # v: {c: v's neighbours by c}
    moves: list = [None] * (nv + 1)  # v: flat (w, bit w, c, bit c) moves
    pairs: dict[int, list] = {}  # c: [(a, bit a, b, bit b, colors of ab)]
    ends: dict[int, int] = {}  # c: the ends of its pairs
    for v, row in adj.items():
        held: dict[int, int] = {}
        flat: list[int] = []
        for w, cs in row.items():
            wbit, cmask = 1 << w, 0
            for c in cs:
                cmask |= 1 << c
                flat += (w, wbit, c, 1 << c)
                held[c] = held.get(c, 0) | wbit
            fm[v] |= cmask
            un[v] |= wbit
            if v < w:
                for c in cs:
                    pairs.setdefault(c, []).append((v, 1 << v, w, wbit, cmask))
                    ends[c] = ends.get(c, 0) | 1 << v | wbit
        holders[v] = held
        moves[v] = tuple(flat)
    nbr_mask = un[:]
    fm[start] = 0

    def viable(ubit: int, visited: int, used: int, fm: list, un: list,
               changed: int) -> bool:
        allowed = (everyone & ~visited) | ubit | start_bit
        while changed:
            b = changed & -changed
            changed ^= b
            x = b.bit_length() - 1
            free = fm[x] & ~used
            if not free & (free - 1) or \
                    (un[x] & allowed).bit_count() < min_nbrs:
                return False
        # every edge left to traverse meets an unvisited vertex
        if must_cover and must_cover & ~used & ~reduce(or_, fm):
            return False
        # the rest of the cycle must connect u to start through the
        # unvisited region using usable edges
        frontier, unseen = ubit, allowed & ~ubit
        while frontier and unseen:
            b = frontier & -frontier
            frontier ^= b
            new = un[b.bit_length() - 1] & unseen
            unseen ^= new
            frontier |= new
        return not unseen

    path = [start]
    colors_seq: list[int] = []
    # a frame: [visited, used, fm of u's children, un, moves of u, index
    # of u's next move, u's neighbours] for each vertex u on the path
    stack: list[list] = []
    u, ubit, visited, used = start, start_bit, start_bit, 0
    changed = everyone & ~start_bit  # the root checks every vertex
    nodes = 0
    try:
        while True:
            if nodes >= budget:
                raise BudgetExhausted(
                    f"rainbow search undecided after {budget} nodes")
            nodes += 1
            if len(path) == nv:
                if not (nv > 2 and path[1] > path[-1]):
                    for c in adj[u].get(start, ()):
                        if not used >> c & 1:
                            return RainbowCycleCert(tuple(path),
                                                    (*colors_seq, c))
            elif viable(ubit, visited, used, fm, un, changed):
                if u != start:  # u leaves the allowed set
                    allowed = (everyone & ~visited) | start_bit
                    fm = fm[:]
                    for x, cs in adj[u].items():
                        f = fm[x]
                        if f:  # x is unvisited
                            held = holders[x]
                            for c in cs:
                                if not held[c] & allowed:
                                    f &= ~(1 << c)
                            fm[x] = f
                stack.append([visited, used, fm, un, moves[u], 0,
                              nbr_mask[u]])
            # step to the next move of the deepest frame that has one
            while stack:
                frame = stack[-1]
                visited, used, _, _, mv, i, _ = frame
                for i in range(i, len(mv), 4):
                    if not (visited & mv[i + 1] or used & mv[i + 3]):
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                return None
            frame[5] = i + 4
            u, ubit, c, cbit = mv[i:i + 4]
            depth = len(stack)
            del path[depth:], colors_seq[depth - 1:]
            path.append(u)
            colors_seq.append(c)
            visited |= ubit
            used |= cbit
            fm = frame[2][:]
            fm[u] = 0
            un = frame[3]
            for a, abit, b, bbit, cmask in pairs[c]:
                if not cmask & ~used:  # ab has no unused color left
                    if un is frame[3]:
                        un = un[:]
                    un[a] &= ~bbit
                    un[b] &= ~abit
            changed = (frame[6] | ends[c]) & ~visited
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
