"""The exact engines against their reference forms, and their outputs
against the numbering of their bits.

``exact_matching`` and ``exact_rainbow_hamilton`` hold each node's live
rows or usable edges as an int bitset.  ``matching_list_filter`` and
``rainbow_list_filter`` are the same searches over filtered lists.  The
two forms must agree on every output: the witness or ``None``,
``stats["nodes"]``, the generator's state after the call, and the
budget at which the search raises ``BudgetExhausted``.

``exact_loose_hamilton`` prunes with a closing and a coverage check that
``loose_unpruned`` lacks; both must return the same cycle or ``None``,
the pruned search in no more nodes.
"""

import copy
import os
import subprocess
import sys

import numpy as np
import pytest

import looselab
from looselab import BudgetExhausted, ColoredMultigraph, Hypergraph3, \
    build_gstar, exact_loose_hamilton, exact_matching, \
    exact_rainbow_hamilton, sample_h3
from looselab.hypergraph import triple
from looselab.lab import probability_from_c
from looselab.sampling import derived_rng, sample_coupled

from oracles import loose_unpruned, matching_list_filter, \
    rainbow_list_filter
from test_solvers import random_system


def outcome(engine, *args, **kwargs):
    """(return value or the BudgetExhausted message, stats["nodes"])."""
    stats = {}
    try:
        out = engine(*args, stats=stats, **kwargs)
    except BudgetExhausted as exc:
        out = ("BudgetExhausted", str(exc))
    return out, stats.get("nodes")


def assert_matchings_agree(ts, gen=None):
    """Both forms on ts, each with its own copy of gen's state."""
    ref_gen = copy.deepcopy(gen)
    got = outcome(exact_matching, ts, gen=gen)
    assert got == outcome(matching_list_filter, ts, gen=ref_gen)
    if gen is not None:
        assert gen.bit_generator.state == ref_gen.bit_generator.state
    return got


def random_graph(rng, nv):
    """Loops, repeated edges, parallel pairs in several colors, and up to
    three colors more than vertices."""
    ncolors = nv + int(rng.integers(0, 4))
    edges = []
    for _ in range(int(rng.integers(0, 6 * nv + 1))):
        u, w = (int(x) for x in rng.integers(1, nv + 1, size=2))
        c = int(rng.integers(1, ncolors + 1))
        edges.append((u, w, c))
        if rng.random() < 0.3:  # a parallel edge, maybe the same color
            edges.append((u, w, int(rng.integers(1, ncolors + 1))))
    return ColoredMultigraph(nv, edges)


@pytest.mark.parametrize("budget", [1, 3, None])
def test_rainbow_random_graphs(budget):
    rng = np.random.default_rng(2024)
    kwargs = {} if budget is None else {"budget": budget}
    found = absent = gave_up = 0
    for trial in range(2000):
        g = random_graph(rng, 1 + trial % 9)
        got = outcome(exact_rainbow_hamilton, g, **kwargs)
        assert got == outcome(rainbow_list_filter, g, **kwargs), g.edges
        out = got[0]
        found += out is not None and not isinstance(out, tuple)
        absent += out is None
        gave_up += isinstance(out, tuple)
    # the draws reach every outcome the budget allows; no cycle takes 1 node
    assert absent
    assert bool(found) == (budget != 1)
    assert bool(gave_up) == (budget is not None)


@pytest.mark.parametrize("seeded", [False, True])
def test_matching_random_systems(seeded):
    rng = np.random.default_rng(7)
    found = absent = 0
    for trial in range(300):
        m = 1 + trial % 5
        slots = [2 * m + 1 + j for j in range(m)] if trial % 2 else \
            [(j, trial % 3) for j in range(m)]
        ts = random_system(rng, range(1, 2 * m + 1), slots,
                           rng.uniform(0.05, 0.6))
        gen = np.random.default_rng(trial) if seeded else None
        pm, _ = assert_matchings_agree(ts, gen)
        found += pm is not None
        absent += pm is None
    assert found and absent


@pytest.mark.parametrize("n, p", [(28, 0.9), (40, 0.9), (40, 0.25),
                                  (40, probability_from_c(40, 128))])
def test_pipeline_systems_and_gstar(n, p):
    """Each system searched with the trial's generator, replayed for the
    reference, and without one; then G* at budgets around its count."""
    for seed in range(4):
        gen = derived_rng(seed)
        _, systems = sample_coupled(n, p, 4, gen)
        matchings = []
        for ts in systems:
            assert_matchings_agree(ts)
            matchings.append(assert_matchings_agree(ts, gen)[0])
        if None in matchings:
            continue
        g = build_gstar(matchings, systems)
        cert, nodes = outcome(exact_rainbow_hamilton, g)
        assert (cert, nodes) == outcome(rainbow_list_filter, g)
        for budget in {1, max(1, nodes // 2), nodes - 1 or 1, nodes}:
            assert outcome(exact_rainbow_hamilton, g, budget=budget) == \
                outcome(rainbow_list_filter, g, budget=budget)


def assert_loose_agree(h, **kwargs):
    """The pruned search returns the unpruned one's cycle, or both None,
    in no more nodes; returns ((links, middles) or None, pruned nodes)."""
    runs = []
    for engine in (exact_loose_hamilton, loose_unpruned):
        stats = {}
        cycle = engine(h, stats=stats, **kwargs)
        runs.append((None if cycle is None else (cycle.links, cycle.middles),
                     stats.get("nodes", 0)))
    (got, nodes), (want, ref_nodes) = runs
    assert got == want, h.edge_list
    assert nodes <= ref_nodes, h.edge_list
    return got, nodes


def planted_cycle(rng, n, decoys):
    """A loose Hamilton cycle through a uniform order of 1..n, plus up to
    ``decoys`` uniform edges."""
    order = (rng.permutation(n) + 1).tolist()
    links, middles, s = order[0::2], order[1::2], n // 2
    edges = {triple(links[i], middles[i], links[(i + 1) % s])
             for i in range(s)}
    for _ in range(decoys):
        edges.add(triple(*(rng.choice(n, size=3, replace=False) + 1).tolist()))
    return Hypergraph3(n, edges)


def test_loose_random_hypergraphs():
    """n = 4..16 at c log-uniform in [1, 40], across the threshold."""
    rng = np.random.default_rng(30)
    found = searched_absent = 0
    for trial in range(2100):
        n = 4 + 2 * (trial % 7)
        c = float(np.exp(rng.uniform(0, np.log(40))))
        cycle, nodes = assert_loose_agree(
            sample_h3(n, probability_from_c(n, c), rng))
        found += cycle is not None
        searched_absent += cycle is None and nodes > 0
    assert found > 1000 and searched_absent > 100


def test_loose_planted_cycles():
    rng = np.random.default_rng(31)
    for trial in range(600):
        n = 4 + 2 * (trial % 7)
        h = planted_cycle(rng, n, int(rng.integers(0, 3 * n)))
        assert assert_loose_agree(h)[0] is not None


def test_loose_pipeline_scale_draws():
    """Past the default cap, where the unpruned search's tail is long."""
    found = 0
    for n in (20, 24, 28):
        for c in (2, 4, 8):
            for seed in range(5):
                h = sample_h3(n, probability_from_c(n, c), derived_rng(seed))
                found += assert_loose_agree(h, cap=28)[0] is not None
    assert 0 < found < 45


# Systems with string slots, whose frozenset order follows the hash seed;
# prints that order and each search's witness and node count.
HASH_SCRIPT = """
from itertools import combinations
import numpy as np
from looselab import exact_matching
from looselab.sampling import TripleSystem
rng = np.random.default_rng(11)
for trial in range(40):
    m = 2 + trial % 5
    slots = tuple(f"slot-{j}" for j in range(m))
    pool = [(a, b, s) for a, b in combinations(range(1, 2 * m + 1), 2)
            for s in slots]
    keep = rng.random(len(pool)) < 0.3
    ts = TripleSystem(slots, frozenset(t for t, k in zip(pool, keep) if k))
    print("order", list(ts.present))
    for gen in (None, np.random.default_rng(trial)):
        stats = {}
        print(exact_matching(ts, gen=gen, stats=stats), stats["nodes"])
"""


def test_bit_numbering_reaches_no_output():
    """The engine numbers rows in the system's iteration order, which for
    string slots changes with PYTHONHASHSEED; its outputs must not."""
    src = os.path.dirname(os.path.dirname(looselab.__file__))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        runs.append(([ln for ln in lines if ln.startswith("order")],
                     [ln for ln in lines if not ln.startswith("order")]))
    (order1, results1), (order2, results2) = runs
    assert order1 != order2  # the two runs did number the rows differently
    assert len(results1) == 80
    assert results1 == results2
