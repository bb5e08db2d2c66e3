"""Independent brute-force oracles for the exact engines.

Everything here is deliberately naive: plain permutation scans with no
pruning and no shared code with the engines under test.
"""

from itertools import combinations, permutations, product

from looselab import Hypergraph3, TripleSystem


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


def loose_hamilton_edge_sets_naive(h: Hypergraph3) -> set[frozenset]:
    """All loose Hamilton cycles as edge sets, by full permutation scan."""
    n = h.n
    s = n // 2
    found = set()
    for perm in permutations(range(1, n + 1)):
        links = perm[0::2]
        mids = perm[1::2]
        windows = [
            tuple(sorted((links[i], mids[i], links[(i + 1) % s])))
            for i in range(s)
        ]
        if all(w in h.edges for w in windows):
            found.add(frozenset(windows))
    return found


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
    for pairing in _pair_partitions(ts.xs):
        for slot_order in permutations(ts.slots):
            if all(
                ((min(a, b), max(a, b)), slot_order[i]) in ts.present
                for i, (a, b) in enumerate(pairing)
            ):
                return True
    return False


def rainbow_hamilton_exists_naive(g) -> bool:
    """Try every vertex order and every per-step color assignment."""
    nv = g.num_vertices
    if nv < 2:
        return False
    pc = g.pair_colors()

    def colors_on(u, v):
        return pc.get((min(u, v), max(u, v)), ())

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


def complete_triple_system(xs, slots) -> TripleSystem:
    """Every (pair, slot) triple present."""
    xs = tuple(sorted(xs))
    return TripleSystem(xs, tuple(slots), frozenset(
        (pair, s) for pair in combinations(xs, 2) for s in slots))
