"""Independent brute-force oracles for the exact engines.

Everything here is deliberately naive: plain permutation scans with no
pruning and no shared code with the engines under test.  The one
exception is ``relabelled_matching``, which pins how the matching engine
reads a generator by rebuilding the relabelled system that engine's
column numbering stands in for.
"""

from itertools import combinations, permutations, product

from looselab import Hypergraph3, TripleSystem, exact_matching


def loose_hamilton_exists_naive(h: Hypergraph3) -> bool:
    """Scan every permutation of 1..n read as (x1, y1, x2, y2, ...)."""
    n = h.n
    s = n // 2
    for perm in permutations(range(1, n + 1)):
        links = perm[0::2]
        mids = perm[1::2]
        if all(
            tuple(sorted((links[i], mids[i], links[(i + 1) % s]))) in h.edges
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
                ((min(a, b), max(a, b)), slot_order[i]) in ts.present
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
        (tuple(sorted((xmap[x1], xmap[x2]))), smap[s])
        for (x1, x2), s in ts.present))
    pm = exact_matching(relabelled)
    if pm is None:
        return None
    inv_x = {v: k for k, v in xmap.items()}
    inv_s = {v: k for k, v in smap.items()}
    return tuple(sorted((tuple(sorted((inv_x[x1], inv_x[x2]))), inv_s[s])
                        for (x1, x2), s in pm))


def rainbow_hamilton_exists_naive(g) -> bool:
    """Try every vertex order and every per-step color assignment."""
    nv = g.num_vertices
    if nv < 2:
        return False
    pc = {}
    for e in g.edges:
        pc.setdefault((e.u, e.v), set()).add(e.color)

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
        (pair, s) for pair in combinations(range(1, 2 * len(slots) + 1), 2)
        for s in slots))
