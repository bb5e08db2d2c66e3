"""Seeded random generators for every model the lab studies.

All samplers draw from numpy's PCG64 via ``numpy.random.Generator``.
``derived_rng`` builds an independent stream from (master seed, path
indices), so Monte Carlo trials are reproducible bit-for-bit no matter
how they are scheduled across workers.

Sparse models are sampled by geometric skipping over a ranked universe
(triples in lexicographic order) instead of one Bernoulli coin per slot,
which keeps cost proportional to the number of edges drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .colored import ColoredEdge, ColoredMultigraph
from .hypergraph import Hypergraph3

Slot = Hashable

DEFAULT_R = 4

# pairings sample_pairing_regular draws before giving up on a loopless one
PAIRING_ATTEMPTS = 100_000


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a trial, keyed by (master seed, path)."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    )


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator, an integer seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return rng_from_seed(rng)


# ---------------------------------------------------------------------------
# probability splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitParams:
    """Per-layer probabilities tied by p = 1-(1-p1)^(2r), p1 = 1-(1-p2)^r,
    and the top-up rate q = 1-(1-p1)^r used by the coupled sampler."""

    r: int
    p: float
    p1: float
    p2: float
    q: float


def split_probability(p: float, r: int) -> SplitParams:
    """Solve the split identities via log/expm1 of the complement.

    Stable down to p ~ 1e-12, where naive root-taking of numbers near 1
    would lose every significant digit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    r = int(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if p == 1.0:
        return SplitParams(r, 1.0, 1.0, 1.0, 1.0)
    log_comp = math.log1p(-p)
    p1 = -math.expm1(log_comp / (2 * r))
    p2 = -math.expm1(log_comp / (2 * r * r))
    q = -math.expm1(log_comp / 2)
    return SplitParams(r, float(p), p1, p2, q)


# ---------------------------------------------------------------------------
# ranked-universe machinery
# ---------------------------------------------------------------------------


def _included_positions(gen: np.random.Generator, count: int, prob: float) -> np.ndarray:
    """Ascending positions of an iid Bernoulli(prob) process over range(count)."""
    if count <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    pos = -1
    mean = count * prob
    size = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    while True:
        gaps = gen.geometric(prob, size=size)
        pts = pos + np.cumsum(gaps)
        cut = int(np.searchsorted(pts, count))
        if cut < len(pts):
            chunks.append(pts[:cut])
            break
        chunks.append(pts)
        pos = int(pts[-1])
        size = 32
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


_PAIR_CUM: dict[int, np.ndarray] = {}
_TRIPLE_CUM: dict[int, np.ndarray] = {}


def _pair_cum(m: int) -> np.ndarray:
    tab = _PAIR_CUM.get(m)
    if tab is None:
        tab = np.cumsum(np.arange(m - 1, 0, -1, dtype=np.int64))
        _PAIR_CUM[m] = tab
    return tab


def unrank_pairs(m: int, ranks) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic rank -> pair (u, v), 1 <= u < v <= m."""
    ranks = np.asarray(ranks, dtype=np.int64)
    cum = _pair_cum(m)
    ui = np.searchsorted(cum, ranks, side="right")
    base = np.where(ui > 0, cum[np.maximum(ui - 1, 0)], 0)
    u = ui + 1
    v = u + 1 + (ranks - base)
    return u.astype(np.int64), v.astype(np.int64)


def unrank_triples(n: int, ranks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic rank -> triple (a, b, c), 1 <= a < b < c <= n."""
    ranks = np.asarray(ranks, dtype=np.int64)
    tab = _TRIPLE_CUM.get(n)
    if tab is None:
        firsts = np.array([math.comb(n - a, 2) for a in range(1, n - 1)],
                          dtype=np.int64)
        tab = np.cumsum(firsts)
        _TRIPLE_CUM[n] = tab
    ai = np.searchsorted(tab, ranks, side="right")
    base = np.where(ai > 0, tab[np.maximum(ai - 1, 0)], 0)
    # (b, c) is a pair of the last k elements of 1..n-1, shifted up by
    # one; those pairs are the last C(k, 2) in lexicographic order
    k = n - 1 - ai
    b, c = unrank_pairs(n - 1, math.comb(n - 1, 2) - k * (k - 1) // 2
                        + (ranks - base))
    return (ai + 1).astype(np.int64), b + 1, c + 1


# ---------------------------------------------------------------------------
# the binomial random hypergraph
# ---------------------------------------------------------------------------


def sample_h3(n: int, p: float, rng=None) -> Hypergraph3:
    """Random 3-uniform hypergraph: each of C(n,3) triples kept with
    probability p, independently."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gen = as_generator(rng)
    pos = _included_positions(gen, math.comb(n, 3), p)
    if len(pos) == 0:
        return Hypergraph3._from_sorted(n, ())
    a, b, c = unrank_triples(n, pos)
    return Hypergraph3._from_sorted(n, list(zip(a.tolist(), b.tolist(), c.tolist())))


# ---------------------------------------------------------------------------
# copy sets and triple systems
# ---------------------------------------------------------------------------


Block = tuple[tuple[int, int], ...]


def sample_copyset_partition(m: int, r: int, rng=None) -> tuple[Block, ...]:
    """Uniformly random partition of the 2rm copy elements into 2r blocks
    of size m (a uniform shuffle sliced into consecutive blocks).

    The copy elements are the pairs (y, i) with base color y in 2m+1..4m
    and copy index i in 1..r: y runs over the color vertices of the
    coupled sampler at n = 4m, and over the colors of a derived graph on
    2m vertices.  Block j is the slot set of the j-th triple system.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    gen = as_generator(rng)
    elems = [(y, i) for y in range(2 * m + 1, 4 * m + 1)
             for i in range(1, r + 1)]
    order = gen.permutation(len(elems)).tolist()
    shuffled = [elems[k] for k in order]
    return tuple(tuple(shuffled[j * m:(j + 1) * m]) for j in range(2 * r))


@dataclass(frozen=True)
class TripleSystem:
    """Random triple system over pairs of X = 1..2m times m >= 1 slots.

    ``present`` holds the included triples ((x, x'), slot), 1 <= x < x' <= 2m;
    a perfect matching is m of them, disjoint, covering X and the slots.
    """

    slots: tuple[Slot, ...]
    present: frozenset

    def __post_init__(self):
        slots = tuple(self.slots)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "present", frozenset(self.present))
        if not slots:
            raise ValueError("need at least one slot")
        if len(set(slots)) != len(slots):
            raise ValueError("slots must be distinct")
        xset, sset = set(range(1, 2 * len(slots) + 1)), set(slots)
        for (x1, x2), slot in self.present:
            if not (x1 in xset and x2 in xset and x1 < x2):
                raise ValueError(f"pair ({x1}, {x2}) is not ordered in 1..{len(xset)}")
            if slot not in sset:
                raise ValueError(f"slot {slot!r} outside the slot set")

    @property
    def m(self) -> int:
        return len(self.slots)


def sample_gamma(slots: Sequence[Slot], p1: float, rng=None) -> TripleSystem:
    """Triple system over X = 1..2m and the m ``slots``, with each of the
    C(2m,2)*m triples kept with probability p1."""
    slots = tuple(slots)
    if not slots:
        raise ValueError("need at least one slot")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    gen = as_generator(rng)
    ns = len(slots)
    pos = _included_positions(gen, math.comb(2 * ns, 2) * ns, p1)
    u, v = unrank_pairs(2 * ns, pos // ns)
    return TripleSystem(slots, frozenset(
        ((uu, vv), slots[ss])
        for uu, vv, ss in zip(u.tolist(), v.tolist(), (pos % ns).tolist())))


# ---------------------------------------------------------------------------
# the coupled sampler
# ---------------------------------------------------------------------------


def sample_coupled(n: int, p: float, r: int = DEFAULT_R, rng=None
                   ) -> tuple[Hypergraph3, tuple[TripleSystem, ...]]:
    """Sample 2r independent triple systems at p1 together with a hypergraph
    distributed exactly as the binomial model at p, coupled so that every
    present copy-triple projects into the hypergraph.

    Construction, for n = 4m, X = 1..2m, colors 2m+1..4m:

    * partition the copy set into blocks Y_1..Y_2r and draw each system
      over (X, Y_j) at p1, where p = 1-(1-p1)^(2r); system j's ``slots``
      is block Y_j, so the systems' slots together are the copy set;
    * a base triple {x, y, x'} with x, x' in X and y a color is placed in
      the hypergraph iff one of its r copy-triples is present in some
      system OR an independent top-up coin at q = 1-(1-p1)^r succeeds,
      for a total presence probability 1-(1-p1)^r * (1-q) = p;
    * every triple of any other shape is placed independently at p.
    """
    if n % 4 or n < 8:
        raise ValueError(f"need n divisible by 4 and >= 8, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gen = as_generator(rng)
    params = split_probability(p, r)
    m = n // 4
    two_m = 2 * m

    systems = tuple(sample_gamma(blk, params.p1, gen)
                    for blk in sample_copyset_partition(m, r, gen))

    edges: set[tuple[int, int, int]] = set()
    for ts in systems:
        for (x1, x2), (y, _copy) in ts.present:
            edges.add((x1, x2, y))

    # top-up coins over base triples, ranked pair-major then by color
    pos = _included_positions(gen, math.comb(two_m, 2) * two_m, params.q)
    if len(pos):
        pair_rank = pos // two_m
        color_idx = (pos % two_m).tolist()
        u, v = unrank_pairs(two_m, pair_rank)
        for uu, vv, yy in zip(u.tolist(), v.tolist(), color_idx):
            edges.add((uu, vv, two_m + 1 + yy))

    # remaining shapes come straight from the full sampler at rate p
    backdrop = sample_h3(n, p, gen)
    for a, b, c in backdrop.edge_list:
        if not (b <= two_m < c):
            edges.add((a, b, c))

    h = Hypergraph3._from_sorted(n, sorted(edges))
    return h, systems


# ---------------------------------------------------------------------------
# regular multigraph models
# ---------------------------------------------------------------------------


def sample_union_matchings(m2: int, r: int, rng=None, *,
                           colored: bool = False) -> ColoredMultigraph:
    """Union of 2r independent uniform perfect matchings of 1..m2.

    The result is 2r-regular with r*m2 edges.  With ``colored=True`` each
    matching layer is colored by a random bijection with one block of a
    fresh copy-set partition (base colors m2+1..2*m2), which makes the
    coloring equitable with parameter r by construction.
    """
    if m2 < 2 or m2 % 2:
        raise ValueError(f"vertex count must be even and >= 2, got {m2}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    gen = as_generator(rng)
    m = m2 // 2
    if colored:
        blocks = sample_copyset_partition(m, r, gen)
    edges: list[ColoredEdge] = []
    for j in range(2 * r):
        perm = (gen.permutation(m2) + 1).tolist()
        layer = [(perm[2 * i], perm[2 * i + 1]) for i in range(m)]
        if colored:
            block = blocks[j]
            order = gen.permutation(m).tolist()
            edges.extend(
                ColoredEdge(u, v, block[k][0])
                for (u, v), k in zip(layer, order)
            )
        else:
            edges.extend(ColoredEdge(u, v, 0) for u, v in layer)
    colors = range(m2 + 1, 2 * m2 + 1) if colored else ()
    return ColoredMultigraph(m2, colors, edges)


def sample_pairing_regular(m2: int, d: int, rng=None) -> ColoredMultigraph:
    """Configuration-model d-regular multigraph on 1..m2, uncolored.

    Half-edges are paired by a uniform shuffle; any pairing containing a
    loop is rejected wholesale and redrawn, so the output is uniform over
    loopless pairings.  Parallel edges are retained.
    """
    if m2 < 2 or d < 1 or (m2 * d) % 2:
        raise ValueError(f"infeasible degree sequence: m2={m2}, d={d}")
    gen = as_generator(rng)
    stubs = np.repeat(np.arange(1, m2 + 1, dtype=np.int64), d)
    for _ in range(PAIRING_ATTEMPTS):
        pairing = gen.permutation(stubs)
        a = pairing[0::2]
        b = pairing[1::2]
        if np.any(a == b):
            continue
        us = np.minimum(a, b).tolist()
        vs = np.maximum(a, b).tolist()
        return ColoredMultigraph(m2, (), [ColoredEdge(u, v, 0) for u, v in zip(us, vs)])
    raise RuntimeError(f"no loopless pairing found in {PAIRING_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# bridging triple systems and the hypergraph text format
# ---------------------------------------------------------------------------
#
# A triple system over X = 1..2m with integer slots 2m+1..3m is exactly a
# 3-uniform hypergraph on 3m vertices whose every edge has two vertices in
# X and one slot, so the hypergraph file format doubles as the on-disk
# representation for matching instances.


def triple_system_from_hypergraph(h: Hypergraph3) -> TripleSystem:
    if h.n % 3:
        raise ValueError(f"vertex count must be 3m (got {h.n})")
    m = h.n // 3
    two_m = 2 * m
    present = set()
    for a, b, c in h.edge_list:
        if not b <= two_m < c:
            raise ValueError(f"edge {(a, b, c)} is not (pair, slot)-shaped")
        present.add(((a, b), c))
    return TripleSystem(tuple(range(two_m + 1, h.n + 1)), frozenset(present))


def hypergraph_from_triple_system(ts: TripleSystem) -> Hypergraph3:
    m = ts.m
    if ts.slots != tuple(range(2 * m + 1, 3 * m + 1)):
        raise ValueError("system must use integer slots 2m+1..3m")
    edges = sorted((x1, x2, slot) for (x1, x2), slot in ts.present)
    return Hypergraph3._from_sorted(3 * m, edges)
