"""Seeded random generators for every model the lab studies.

All samplers draw from numpy's PCG64 via ``numpy.random.Generator``.
``derived_rng`` builds an independent stream from (master seed, path
indices), so Monte Carlo trials are reproducible bit-for-bit no matter
how they are scheduled across workers.

Sparse models are sampled by geometric skipping over a ranked universe
(triples in lexicographic order) instead of one Bernoulli coin per slot,
which keeps cost proportional to the number of edges drawn.  The coupled
sampler merges its sources as int64 keys, one per triple, sorted and
deduplicated in numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .colored import ColoredMultigraph
from .hypergraph import Hypergraph3, Triple

Slot = Hashable

# pairings sample_pairing_regular draws before giving up on a loopless one
PAIRING_ATTEMPTS = 100_000


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a trial, keyed by (master seed, path).

    With no path this is the stream of ``SeedSequence(master_seed)``.
    """
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    )


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
    """Ascending positions of an iid Bernoulli(prob) process over range(count).

    Each geometric gap is clipped at count + 1: a gap that long already
    leaves the range, and the clip keeps the running sum inside int64
    however small prob is.
    """
    if count <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    mean = count * prob
    gaps = gen.geometric(prob, size=int(mean + 6.0 * math.sqrt(mean) + 16.0))
    np.minimum(gaps, count + 1, out=gaps)
    while gaps.sum() <= count:  # the last position, sum - 1, is below count
        gaps = np.append(gaps, np.minimum(gen.geometric(prob, size=32), count + 1))
    pts = gaps.cumsum() - 1
    return pts[:pts.searchsorted(count)]


@functools.cache
def _offsets(n: int, k: int) -> np.ndarray:
    """Entry a - 1 counts the k-subsets of 1..n led by an element below a."""
    return np.cumsum([0] + [math.comb(n - a, k - 1) for a in range(1, n - k + 1)],
                     dtype=np.int64)


def unrank_pairs(m: int, ranks) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic rank -> pair (u, v), 1 <= u < v <= m."""
    ranks = np.asarray(ranks, dtype=np.int64)
    off = _offsets(m, 2)
    u = np.searchsorted(off, ranks, side="right")
    return u, u + 1 + ranks - off[u - 1]


def unrank_triples(n: int, ranks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographic rank -> triple (a, b, c), 1 <= a < b < c <= n."""
    ranks = np.asarray(ranks, dtype=np.int64)
    off = _offsets(n, 3)
    a = np.searchsorted(off, ranks, side="right")
    # (b, c) is a pair of the last k elements of 1..n-1, shifted up by
    # one; those pairs are the last C(k, 2) in lexicographic order
    k = n - a
    b, c = unrank_pairs(n - 1, math.comb(n - 1, 2) - k * (k - 1) // 2
                        + (ranks - off[a - 1]))
    return a, b + 1, c + 1


def _pair_rank(m: int, u: int, v: int) -> int:
    """Lexicographic rank of the pair 1 <= u < v <= m; inverts unrank_pairs."""
    return int(_offsets(m, 2)[u - 1]) + v - u - 1


def _triple_rank(n: int, a: int, b: int, c: int) -> int:
    """Lexicographic rank of 1 <= a < b < c <= n; inverts unrank_triples."""
    return int(_offsets(n, 3)[a - 1]) + _pair_rank(n - a, b - a, c - a)


# ---------------------------------------------------------------------------
# the binomial random hypergraph
# ---------------------------------------------------------------------------


def sample_h3(n: int, p: float, gen: np.random.Generator) -> Hypergraph3:
    """Random 3-uniform hypergraph: each of C(n,3) triples kept with
    probability p, independently."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pos = _included_positions(gen, math.comb(n, 3), p)
    a, b, c = unrank_triples(n, pos)
    return Hypergraph3._from_sorted(n, list(zip(a.tolist(), b.tolist(), c.tolist())))


# ---------------------------------------------------------------------------
# copy sets and triple systems
# ---------------------------------------------------------------------------


Block = tuple[tuple[int, int], ...]


def sample_copyset_partition(m: int, r: int, gen: np.random.Generator
                             ) -> tuple[Block, ...]:
    """Uniformly random partition of the 2rm copy elements into 2r blocks
    of size m (a uniform shuffle sliced into consecutive blocks).

    The copy elements are the pairs (y, i) with base color y in 2m+1..4m
    and copy index i in 1..r: y runs over the color vertices of the
    coupled sampler at n = 4m, and over the colors of a derived graph on
    2m vertices.  Block j is the slot set of the j-th triple system.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    elems = [(y, i) for y in range(2 * m + 1, 4 * m + 1)
             for i in range(1, r + 1)]
    order = gen.permutation(len(elems)).tolist()
    shuffled = [elems[k] for k in order]
    return tuple(tuple(shuffled[j * m:(j + 1) * m]) for j in range(2 * r))


@dataclass(frozen=True)
class TripleSystem:
    """Random triple system over pairs of X = 1..2m times m >= 1 slots.

    ``present`` holds the included triples (x, x', slot), 1 <= x < x' <= 2m;
    a perfect matching is m of them, disjoint, covering X and the slots.
    The constructor validates all of it; sampled and file-read systems are
    trusted, and with slots 2m+1..3m a system is its hypergraph's edges.
    """

    slots: tuple[Slot, ...]
    present: frozenset

    def __post_init__(self):
        slots = tuple(self.slots)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "present", frozenset(self.present))
        if not slots:
            raise ValueError("need at least one slot")
        sset = set(slots)
        if len(sset) != len(slots):
            raise ValueError("slots must be distinct")
        xset = set(range(1, 2 * len(slots) + 1))
        for x1, x2, slot in self.present:
            if not (x1 in xset and x2 in xset and x1 < x2):
                raise ValueError(f"pair ({x1}, {x2}) is not ordered in 1..{len(xset)}")
            if slot not in sset:
                raise ValueError(f"slot {slot!r} outside the slot set")

    @classmethod
    def _from_draw(cls, slots: tuple, present: frozenset) -> "TripleSystem":
        # Trusted path for sample_gamma and the file bridge: slots distinct
        # and non-empty, each pair ordered in 1..2m, each slot in ``slots``.
        self = cls.__new__(cls)
        self.__dict__.update(slots=slots, present=present)
        return self

    @property
    def m(self) -> int:
        return len(self.slots)


def sample_gamma(slots: Sequence[Slot], p1: float,
                 gen: np.random.Generator) -> TripleSystem:
    """Triple system over X = 1..2m and the m ``slots``, with each of the
    C(2m,2)*m triples kept with probability p1."""
    slots = tuple(slots)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    ns = len(slots)
    if not ns:
        raise ValueError("need at least one slot")
    if len(set(slots)) != ns:
        raise ValueError("slots must be distinct")
    pos = _included_positions(gen, math.comb(2 * ns, 2) * ns, p1)
    u, v = unrank_pairs(2 * ns, pos // ns)
    return TripleSystem._from_draw(slots, frozenset(zip(
        u.tolist(), v.tolist(), [slots[k] for k in (pos % ns).tolist()])))


# ---------------------------------------------------------------------------
# the coupled sampler
# ---------------------------------------------------------------------------


def sample_coupled(n: int, p: float, r: int, gen: np.random.Generator
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

    All draws are made here.  The hypergraph answers ``e in h`` from them
    and assembles its ``edge_list`` on first read, neither drawing anything.
    """
    if n % 4 or n < 8:
        raise ValueError(f"need n divisible by 4 and >= 8, got {n}")
    params = split_probability(p, r)
    two_m = n // 2
    systems = tuple(sample_gamma(blk, params.p1, gen)
                    for blk in sample_copyset_partition(n // 4, r, gen))
    # top-up coins over base triples, ranked pair-major then by color
    topup = _included_positions(gen, math.comb(two_m, 2) * two_m, params.q)
    # every other shape at rate p, drawn over all of C(n,3) as sample_h3 does
    rest = _included_positions(gen, math.comb(n, 3), p)
    draws = (n, systems, topup, rest)
    return Hypergraph3._deferred(n, functools.partial(_coupled_edges, *draws),
                                 functools.partial(_coupled_has, *draws)), systems


def _coupled_edges(n: int, systems: tuple[TripleSystem, ...],
                   topup: np.ndarray, rest: np.ndarray) -> list[Triple]:
    """Sorted distinct edges of ``sample_coupled``'s hypergraph on 1..n."""
    two_m = n // 2
    # triple a < b < c is the key (a*base + b)*base + c, so keys sort as
    # triples do
    base = n + 1
    keys = [np.array([(x1 * base + x2) * base + y for ts in systems
                      for x1, x2, (y, _copy) in ts.present], dtype=np.int64)]
    u, v = unrank_pairs(two_m, topup // two_m)
    keys.append((u * base + v) * base + two_m + 1 + topup % two_m)
    # drop the coupled shape x < x' <= 2m < y from the backdrop
    a, b, c = unrank_triples(n, rest)
    keys.append(((a * base + b) * base + c)[~((b <= two_m) & (two_m < c))])

    keys = np.sort(np.concatenate([[-1], *keys]))  # -1 sorts below every key
    keys = keys[1:][keys[1:] != keys[:-1]]
    ab, c = np.divmod(keys, base)
    a, b = np.divmod(ab, base)
    return list(zip(a.tolist(), b.tolist(), c.tolist()))


def _coupled_has(n: int, systems: tuple[TripleSystem, ...],
                 topup: np.ndarray, rest: np.ndarray, t: tuple) -> bool:
    """Whether ``t`` is among ``_coupled_edges(n, systems, topup, rest)``."""
    if len(t) != 3 or not 1 <= t[0] < t[1] < t[2] <= n:
        return False
    a, b, c = t
    two_m = n // 2
    coupled = b <= two_m < c
    ranks, key = ((topup, _pair_rank(two_m, a, b) * two_m + c - two_m - 1)
                  if coupled else (rest, _triple_rank(n, a, b, c)))
    i = ranks.searchsorted(key)
    if i < len(ranks) and ranks[i] == key:
        return True
    return coupled and any((a, b, (c, k)) in ts.present for ts in systems
                           for k in range(1, len(systems) // 2 + 1))


# ---------------------------------------------------------------------------
# regular multigraph models
# ---------------------------------------------------------------------------


def sample_union_matchings(m2: int, r: int, gen: np.random.Generator, *,
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
    m = m2 // 2
    if colored:
        blocks = sample_copyset_partition(m, r, gen)
    edges: list[tuple[int, int, int]] = []
    for j in range(2 * r):
        perm = (gen.permutation(m2) + 1).tolist()
        layer = [(perm[2 * i], perm[2 * i + 1]) for i in range(m)]
        if colored:
            block = blocks[j]
            order = gen.permutation(m).tolist()
            edges.extend((u, v, block[k][0]) for (u, v), k in zip(layer, order))
        else:
            edges.extend((u, v, 0) for u, v in layer)
    return ColoredMultigraph(m2, edges)


def sample_pairing_regular(m2: int, d: int,
                           gen: np.random.Generator) -> ColoredMultigraph:
    """Configuration-model d-regular multigraph on 1..m2, m2 even, uncolored.

    Half-edges are paired by a uniform shuffle; any pairing containing a
    loop is rejected wholesale and redrawn, so the output is uniform over
    loopless pairings.  Parallel edges are retained.
    """
    if m2 < 2 or m2 % 2 or d < 1:
        raise ValueError(f"need even m2 >= 2 and d >= 1, got m2={m2}, d={d}")
    stubs = np.repeat(np.arange(1, m2 + 1, dtype=np.int64), d)
    for _ in range(PAIRING_ATTEMPTS):
        pairing = gen.permutation(stubs)
        a = pairing[0::2]
        b = pairing[1::2]
        if np.any(a == b):
            continue
        return ColoredMultigraph(
            m2, ((u, v, 0) for u, v in zip(a.tolist(), b.tolist())))
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
    two_m = 2 * (h.n // 3)
    for a, b, c in h.edge_list:
        if not b <= two_m < c:
            raise ValueError(f"edge {(a, b, c)} is not (pair, slot)-shaped")
    # a valid hypergraph's edges of this shape pass every TripleSystem check
    return TripleSystem._from_draw(tuple(range(two_m + 1, h.n + 1)),
                                   frozenset(h.edge_list))


def hypergraph_from_triple_system(ts: TripleSystem) -> Hypergraph3:
    m = ts.m
    if ts.slots != tuple(range(2 * m + 1, 3 * m + 1)):
        raise ValueError("system must use integer slots 2m+1..3m")
    return Hypergraph3._from_sorted(3 * m, sorted(ts.present))
