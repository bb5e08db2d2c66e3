"""Independent brute-force oracles for the exact engines, and the test-only
helpers no library code calls.

Every oracle is deliberately naive: plain permutation scans with no
pruning and no shared code with the engines under test.  There are five
exceptions.  ``relabelled_matching`` pins how the matching engine reads
a generator by rebuilding the relabelled system that engine's column
numbering stands in for.  ``rainbow_full_scan`` is a pruned path-growing
search, an earlier form of the rainbow engine, kept as a reference for
its decisions: the two branch differently, so their certificates and
node counts differ.  ``matching_list_filter`` and ``rainbow_list_filter``
run the two engines' searches over filtered lists in place of int
bitsets, as references for every output: witness, node count and the
budget at which the search gives up; the rainbow one walks its cert with
the engine's own ``_cert``.  ``loose_unpruned`` is the loose search before
its closing and coverage checks, a reference for its cycle and an upper
bound on its node count.
"""

from collections import Counter
from itertools import combinations, permutations, product
from typing import Optional

from looselab import BudgetExhausted, ColoredMultigraph, Hypergraph3, \
    exact_matching
from looselab.hypergraph import LOOSE_CAP, LooseCycle, isolated_vertices
from looselab.colored import RainbowCycleCert
from looselab.sampling import TripleSystem
from looselab.solvers import DEFAULT_RAINBOW_BUDGET, _cert


def loose_hamilton_exists_naive(h: Hypergraph3) -> bool:
    """Scan every permutation of 1..n read as (x1, y1, x2, y2, ...)."""
    n = h.n
    s = n // 2
    edges = set(h.edge_list)
    for perm in permutations(range(1, n + 1)):
        links = perm[0::2]
        mids = perm[1::2]
        if all(
            tuple(sorted((links[i], mids[i], links[(i + 1) % s]))) in edges
            for i in range(s)
        ):
            return True
    return False


def _pair_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _pair_partitions(rest):
            yield [(first, items[i])] + sub


def perfect_matching_exists_naive(ts: TripleSystem) -> bool:
    """Try every pair partition of X against every slot permutation."""
    m = ts.m
    for pairing in _pair_partitions(range(1, 2 * m + 1)):
        for slot_order in permutations(ts.slots):
            if all(
                (min(a, b), max(a, b), slot_order[i]) in ts.present
                for i, (a, b) in enumerate(pairing)
            ):
                return True
    return False


def relabelled_matching(ts: TripleSystem, gen):
    """Draw a uniform relabelling of X and of the slots, search the
    relabelled copy with the seed-free engine, and map its witness back.

    ``exact_matching(ts, gen=gen)`` must return the same matching and
    leave ``gen`` in the same state.
    """
    m = ts.m
    xperm = gen.permutation(2 * m).tolist()
    sperm = gen.permutation(m).tolist()
    xmap = {x: xperm[x - 1] + 1 for x in range(1, 2 * m + 1)}
    smap = {ts.slots[i]: ts.slots[sperm[i]] for i in range(m)}
    relabelled = TripleSystem(ts.slots, frozenset(
        (*sorted((xmap[x1], xmap[x2])), smap[s])
        for x1, x2, s in ts.present))
    pm = exact_matching(relabelled)
    if pm is None:
        return None
    inv_x = {v: k for k, v in xmap.items()}
    inv_s = {v: k for k, v in smap.items()}
    return tuple(sorted((*sorted((inv_x[x1], inv_x[x2])), inv_s[s])
                        for x1, x2, s in pm))


def hamilton_exists_naive(g: ColoredMultigraph) -> bool:
    """Fix vertex 1 and try every order of the rest, colors ignored; on two
    vertices the cycle is two parallel edges."""
    nv = g.num_vertices
    pairs = Counter((u, v) for u, v, _c in g.edges if u != v)
    if nv < 3:
        return pairs[1, 2] >= 2
    for rest in permutations(range(2, nv + 1)):
        order = (1,) + rest + (1,)
        if all((min(a, b), max(a, b)) in pairs
               for a, b in zip(order, order[1:])):
            return True
    return False


def rainbow_hamilton_exists_naive(g) -> bool:
    """Try every vertex order and every per-step color assignment."""
    nv = g.num_vertices
    if nv < 2:
        return False
    pc = {}
    for u, v, c in g.edges:
        pc.setdefault((u, v), set()).add(c)

    def colors_on(u, v):
        return sorted(pc.get((min(u, v), max(u, v)), ()))

    for rest in permutations(range(2, nv + 1)):
        order = (1,) + rest
        step_options = []
        ok = True
        for i in range(nv):
            opts = colors_on(order[i], order[(i + 1) % nv])
            if not opts:
                ok = False
                break
            step_options.append(opts)
        if not ok:
            continue
        for assignment in product(*step_options):
            if len(set(assignment)) == nv:
                return True
    return False


def rainbow_full_scan(g: ColoredMultigraph, *,
                      budget: int = DEFAULT_RAINBOW_BUDGET,
                      stats: Optional[dict] = None
                      ) -> Optional[RainbowCycleCert]:
    """A rainbow search that grows a path from vertex 1 over (next vertex,
    edge color) extensions, in a recursion, and prunes by rescanning every
    unvisited vertex's neighbourhood at every node.

    ``exact_rainbow_hamilton`` must find a cert exactly when this does.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    nv = g.num_vertices
    if nv < 2:
        return None
    # v -> {w: sorted distinct colors of the edges vw}, ascending, loops
    # left out
    by_pair: dict[tuple[int, int], set[int]] = {}
    for u, v, c in g.edges:
        if u != v:
            by_pair.setdefault((u, v), set()).add(c)
    adj: dict[int, dict[int, tuple[int, ...]]] = {
        v: {} for v in range(1, nv + 1)}
    for (u, v), cs in sorted(by_pair.items()):
        adj[u][v] = adj[v][u] = tuple(sorted(cs))
    if any(not adj[v] for v in adj):
        return None
    palette = {c for u, v, c in g.edges if u != v}
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


def matching_list_filter(ts: TripleSystem, *, gen=None,
                         stats: Optional[dict] = None):
    """The search of ``exact_matching`` over lists: each node recounts its
    live rows, held as a sorted list of ``(a, b, s, mask, triple)``, and a
    child filters its parent's list.

    The two must return the same matching, expand the same nodes and
    draw the same permutations from ``gen``.
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


def rainbow_list_filter(g: ColoredMultigraph, *,
                        budget: int = DEFAULT_RAINBOW_BUDGET,
                        stats: Optional[dict] = None
                        ) -> Optional[RainbowCycleCert]:
    """The search of ``exact_rainbow_hamilton`` over lists: each node
    recounts its usable edges, held as a sorted list, and a child filters
    its parent's list.

    The two must return the same cert or ``None``, expand the same nodes,
    and raise ``BudgetExhausted`` at the same budgets.
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


def loose_unpruned(h: Hypergraph3, *, cap: int = LOOSE_CAP,
                   stats: Optional[dict] = None) -> Optional[LooseCycle]:
    """``exact_loose_hamilton`` without its closing and coverage checks:
    the same roots (vertex 1 as the link v0, then v0 = a with the one first
    window {a, 1, b} per edge {1, a, b}, a < b) and the same search order,
    pruned only on used vertices, with the same node counter (frames
    pushed, roots included)."""
    n = h.n
    if n < 4 or n % 2:
        raise ValueError(f"loose Hamilton cycles need even n >= 4, got n={n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the exact-search cap {cap}")
    s = n // 2
    if len(h.edge_list) < s or isolated_vertices(h):
        return None

    cand: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for a, b, c in h.edge_list:
        cand[a] += ((b, c), (c, b))
        cand[b] += ((a, c), (c, a))
        cand[c] += ((a, b), (b, a))

    full, nodes = (1 << n + 1) - 2, 0  # vertex v is bit v
    try:
        # cand[1] holds (a, b) then (b, a) per edge {1, a, b}, a < b
        roots = [(1, cand[1])] + [(a, [(1, b)]) for a, b in cand[1][::2]]
        for v0, first in roots:
            # a frame: [link, used vertices, its untried (middle, next link)
            # pairs, the middle taken]; the s-th link closes the cycle
            stack = [[v0, 1 << v0, iter(first), 0]]
            nodes += 1
            while stack:
                frame = stack[-1]
                u, used, untried, _ = frame
                if len(stack) == s:
                    y = (full & ~used).bit_length() - 1  # the one vertex left
                    if tuple(sorted((u, y, v0))) in h:
                        return LooseCycle([f[0] for f in stack],
                                          [f[3] for f in stack[:-1]] + [y])
                    stack.pop()
                    continue
                for y, w in untried:
                    if not used >> y & 1 and not used >> w & 1:
                        frame[3] = y
                        stack.append([w, used | 1 << y | 1 << w,
                                      iter(cand[w]), 0])
                        nodes += 1
                        break
                else:
                    stack.pop()
    finally:
        if stats is not None:
            stats["nodes"] = stats.get("nodes", 0) + nodes
    return None


def random_hypergraph_instance(rng, n: int, max_edges: int) -> Hypergraph3:
    """Uniform edge count 0..max_edges, then a uniform edge subset."""
    pool = list(combinations(range(1, n + 1), 3))
    k = int(rng.integers(0, max_edges + 1))
    idx = rng.choice(len(pool), size=k, replace=False)
    return Hypergraph3(n, [pool[i] for i in sorted(idx.tolist())])


def complete_hypergraph(n: int) -> Hypergraph3:
    """K_n^(3): every triple present."""
    return Hypergraph3(n, combinations(range(1, n + 1), 3))


def complete_triple_system(slots) -> TripleSystem:
    """Every (pair, slot) triple over X = 1..2m present."""
    slots = tuple(slots)
    return TripleSystem(slots, frozenset(
        (*pair, s) for pair in combinations(range(1, 2 * len(slots) + 1), 2)
        for s in slots))


def is_equitable(g: ColoredMultigraph, r: int, colors) -> bool:
    """True iff the edges use exactly the given colors, each r times."""
    usage = Counter(c for _u, _v, c in g.edges)
    return usage == Counter(dict.fromkeys(colors, r))
