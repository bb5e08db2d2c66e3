"""The samplers' and exact engines' outputs on fixed seeded inputs, pinned.

Each engine's first witness follows from its branch order alone, and its
node count from that order and its prunes, so a rewrite that keeps both
reproduces every value here and one that drifts from either fails.  The
inputs are the pipeline's own: seed s's coupled triple systems (r=4),
each searched with the trial's generator as ``run_pipeline`` does and
again without one, and the derived graph G* their generator-drawn
matchings build.  Matchings are pinned by a digest of their repr; node
counts and rainbow certificates literally.  The samplers that feed them
are pinned first, by a digest of each draw and of the generator's next
value, so a rewrite must make the same generator calls and return the
same objects.  The exact loose oracle's cycles on seeded ``sample_h3``
draws are pinned literally, links and middles, so a rewrite of its
search must keep its branch order, and its node counts on the same draws
too, so a weakened prune shows.  Its decisions on the default exact sweep
grid are pinned by a digest of the sweep's CSV, so a change to its roots,
order or prunes that flips any decision fails whatever cycles it returns.
"""

import hashlib

import pytest

from looselab import BudgetExhausted, build_gstar, exact_loose_hamilton, \
    exact_matching, exact_rainbow_hamilton, sample_h3
from looselab.lab import SweepSpec, probability_from_c, run_sweep
from looselab.sampling import derived_rng, sample_coupled, sample_gamma


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def nested(present) -> list:
    """A system's sorted triples in the ((x, x'), slot) shape the digests
    were pinned in; sorting the flat (x, x', slot) rows gives that order."""
    return [((a, b), s) for a, b, s in sorted(present)]


# (n, "p" or "c", value) at r=4 -> digests of seeds 0, 1, 2
COUPLED_PINS = {
    (8, "p", 1.0): ["ff0672d4c5603d97", "57d6e92ca9fb827e", "730f4b1cce06bb98"],
    (12, "p", 0.0): ["0956507a76e71e3a", "ef47775bc4ebf27e", "0861ce234ae6faf0"],
    (16, "c", 64): ["f3211d0dcf097ad1", "fa50b05634cda6d5", "203c520b15a19d03"],
    (28, "p", 0.9): ["56171e27d76695ba", "a929becdb3a55c2e", "4bcbefbe1df8b54c"],
    (40, "c", 32): ["13985cdccbec12e8", "54e21fe69b9e48c3", "122c36b7138bde81"],
    (64, "c", 128): ["7723828a55b83ffc", "e963c919a8359c5b", "d387ef3dac8a1bca"],
}

# (slots, p1) -> digests of seeds 0, 1, 2
GAMMA_PINS = {
    (("a", "b", "c"), 0.4): ["0d6cf061fe991313", "3a0da67a310a0272",
                             "7cce492c8827bdc5"],
    ((9, 10, 11, 12), 0.25): ["5c7768e39232e559", "1fc79ce669ca7776",
                              "5e3616c071e5972f"],
    ((7, 8, 9), 1.0): ["daa001706799504e", "fcec58fd75a9a632",
                       "def4be02da48f64e"],
}


@pytest.mark.parametrize("n, kind, value", sorted(COUPLED_PINS))
def test_coupled_samples_pinned(n, kind, value):
    p = value if kind == "p" else probability_from_c(n, value)
    digests = []
    for seed in range(3):
        gen = derived_rng(seed)
        h, systems = sample_coupled(n, p, 4, gen)
        digests.append(sha((h.n, h.edge_list,
                            [(ts.slots, nested(ts.present)) for ts in systems],
                            int(gen.integers(1 << 62)))))
    assert digests == COUPLED_PINS[n, kind, value]


@pytest.mark.parametrize("slots, p1", sorted(GAMMA_PINS, key=repr))
def test_gamma_samples_pinned(slots, p1):
    digests = []
    for seed in range(3):
        gen = derived_rng(seed)
        ts = sample_gamma(slots, p1, gen)
        digests.append(sha((ts.slots, nested(ts.present),
                            int(gen.integers(1 << 62)))))
    assert digests == GAMMA_PINS[slots, p1]


def search_systems(n, p, seed):
    """Sample seed's coupled systems; return them with the (witness, nodes)
    of each search with the trial's generator and without one."""
    gen = derived_rng(seed)
    _, systems = sample_coupled(n, p, 4, gen)
    drawn, plain = [], []
    for ts in systems:
        for out, g in ((drawn, gen), (plain, None)):
            stats = {}
            pm = exact_matching(ts, gen=g, stats=stats)
            out.append((pm, stats["nodes"]))
    return systems, drawn, plain


def digest(searches) -> str:
    witnesses = [None if pm is None else
                 [((int(a), int(b)), (int(y), int(i)))
                  for a, b, (y, i) in pm]
                 for pm, _ in searches]
    return sha(witnesses)


# (n, seed) at p=0.9: (nodes with gen, nodes without, digest with gen, digest
# without, cert order, cert colors, rainbow nodes)
GSTAR_PINS = {
    (28, 0): (
        [8, 8, 8, 9, 9, 10, 8, 8], [8, 8, 8, 8, 8, 8, 9, 8],
        "fe5482bffe76187d", "e9aec6f0869c24c6",
        (1, 2, 9, 14, 12, 6, 3, 5, 10, 11, 13, 7, 4, 8),
        (15, 18, 24, 19, 27, 20, 22, 21, 17, 28, 26, 25, 23, 16),
        43),
    (28, 1): (
        [8, 10, 8, 8, 9, 8, 8, 8], [10, 8, 13, 8, 8, 11, 8, 8],
        "92ca57e7aa71e4c2", "b62b18aee32fb70c",
        (1, 7, 6, 9, 13, 5, 14, 10, 8, 3, 12, 2, 4, 11),
        (16, 26, 24, 18, 15, 23, 17, 25, 27, 22, 20, 19, 28, 21),
        52),
    (28, 2): (
        [8, 8, 8, 8, 8, 8, 8, 9], [8, 8, 8, 8, 14, 8, 8, 14],
        "941a05ba2019bd7a", "f7ff2d9a1c453f57",
        (1, 3, 13, 12, 7, 6, 14, 2, 10, 9, 5, 11, 8, 4),
        (16, 23, 27, 24, 28, 20, 18, 15, 19, 21, 26, 17, 25, 22),
        31),
    (40, 0): (
        [11, 11, 12, 12, 11, 12, 12, 12], [12, 11, 11, 13, 12, 11, 11, 12],
        "25bf4a36dd4ec433", "d167d2368dc5e105",
        (1, 18, 14, 10, 11, 16, 20, 8, 3, 12,
         5, 6, 2, 17, 4, 9, 7, 19, 13, 15),
        (21, 25, 33, 28, 32, 35, 39, 36, 22, 38,
         26, 30, 29, 34, 23, 31, 27, 24, 37, 40),
        1170),
    (40, 1): (
        [11, 11, 11, 12, 11, 11, 11, 11], [11, 16, 11, 11, 12, 11, 13, 11],
        "04223d50cb9430e6", "85bf89bccb93a9ac",
        (1, 10, 7, 6, 5, 19, 17, 12, 2, 20,
         8, 18, 9, 13, 3, 14, 16, 15, 4, 11),
        (27, 29, 34, 36, 32, 23, 26, 38, 37, 22,
         40, 24, 25, 33, 35, 39, 30, 21, 31, 28),
        751),
}

# (n, c, seed), where matchings backtrack: (nodes with gen, nodes without,
# digest with gen, digest without); seed 0's third system has no perfect
# matching
MATCHING_PINS = {
    (40, 128, 0): ([28, 14, 19, 56, 54, 15, 14, 29],
                   [14, 32, 16, 34, 85, 43, 15, 43],
                   "3164cfcca589cb93", "8c3903d8c9b59194"),
    (40, 128, 1): ([17, 30, 11, 52, 20, 15, 27, 14],
                   [40, 14, 11, 13, 66, 18, 53, 24],
                   "4d02bd6029755535", "2408ffb40121fae2"),
}


def matching_pin(drawn, plain):
    return ([k for _, k in drawn], [k for _, k in plain],
            digest(drawn), digest(plain))


@pytest.mark.parametrize("n, seed", sorted(GSTAR_PINS))
def test_pipeline_gstar_pinned(n, seed):
    *match_pin, order, colors, nodes = GSTAR_PINS[n, seed]
    systems, drawn, plain = search_systems(n, 0.9, seed)
    assert matching_pin(drawn, plain) == tuple(match_pin)
    g = build_gstar([pm for pm, _ in drawn], systems)
    stats = {}
    cert = exact_rainbow_hamilton(g, stats=stats)
    assert (cert.order, cert.colors, stats["nodes"]) == (order, colors, nodes)
    # the budget that first decides is exactly the node count
    assert exact_rainbow_hamilton(g, budget=nodes) == cert
    with pytest.raises(BudgetExhausted):
        exact_rainbow_hamilton(g, budget=nodes - 1)


@pytest.mark.parametrize("n, c, seed", sorted(MATCHING_PINS))
def test_backtracking_matchings_pinned(n, c, seed):
    _, drawn, plain = search_systems(n, probability_from_c(n, c), seed)
    assert matching_pin(drawn, plain) == MATCHING_PINS[n, c, seed]


# (n, c) -> the (links, middles) exact_loose_hamilton returns, or None, on
# sample_h3(n, probability_from_c(n, c)) for seeds 0, 1, 2
LOOSE_PINS = {
    (8, 2): [None, None, None],
    (8, 4): [None, None, ((1, 2, 6, 3), (5, 7, 8, 4))],
    (8, 16): [((1, 4, 3, 5), (2, 6, 7, 8)), ((1, 3, 5, 8), (2, 4, 6, 7)),
              ((1, 3, 7, 5), (2, 4, 6, 8))],
    (12, 2): [None, None, None],
    (12, 4): [None, None, None],
    (12, 16): [((1, 5, 9, 12, 6, 4), (2, 3, 10, 11, 7, 8)),
               ((1, 6, 4, 5, 7, 9), (2, 12, 3, 8, 11, 10)),
               ((1, 3, 5, 7, 8, 10), (2, 4, 6, 9, 11, 12))],
    (16, 2): [None, None, None],
    # seed 1's cycle is found at a middle root: vertex 1 is the middle of
    # its first window {3, 1, 14}
    (16, 4): [None,
              ((3, 14, 8, 9, 4, 10, 5, 11), (1, 2, 12, 16, 15, 13, 6, 7)),
              ((1, 2, 15, 14, 13, 12, 6, 16), (5, 3, 4, 9, 7, 8, 10, 11))],
    (16, 16): [((1, 6, 12, 15, 5, 13, 14, 9), (2, 3, 4, 8, 10, 7, 16, 11)),
               ((1, 8, 9, 10, 7, 13, 14, 16), (2, 3, 4, 5, 6, 12, 15, 11)),
               ((1, 3, 12, 9, 8, 10, 13, 14), (2, 5, 4, 6, 16, 7, 11, 15))],
}


@pytest.mark.parametrize("n, c", sorted(LOOSE_PINS))
def test_loose_cycles_pinned(n, c):
    found = []
    for seed in range(3):
        h = sample_h3(n, probability_from_c(n, c), derived_rng(seed))
        cycle = exact_loose_hamilton(h)
        found.append(None if cycle is None else (cycle.links, cycle.middles))
    assert found == LOOSE_PINS[n, c]


# (n, c) -> the nodes exact_loose_hamilton expands over the LOOSE_PINS
# draws of that cell; the unpruned reference search takes 3,540 in all
LOOSE_NODE_PINS = {
    (8, 2): 3, (8, 4): 22, (8, 16): 12,
    (12, 2): 0, (12, 4): 81, (12, 16): 34,
    (16, 2): 0, (16, 4): 114, (16, 16): 30,
}


def test_loose_node_counts_pinned():
    nodes = {}
    for n, c in LOOSE_NODE_PINS:
        stats = {}
        for seed in range(3):
            h = sample_h3(n, probability_from_c(n, c), derived_rng(seed))
            exact_loose_hamilton(h, stats=stats)
        nodes[n, c] = stats.get("nodes", 0)
    assert nodes == LOOSE_NODE_PINS


# sha256 of the CSV of the default-grid exact sweep at 100 trials, seed 7:
# its 1,800 decisions, whatever cycles the oracle returns
EXACT_SWEEP_SHA256 = \
    "bcc007241c5cc81d9ab5f3365c5171cdc063a313cfc155ff8f1c99869603a516"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_exact_sweep_decisions_pinned(workers):
    spec = SweepSpec(method="exact", trials=100, seed=7)
    text = run_sweep(spec, workers=workers).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_SWEEP_SHA256
