"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they complete.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import math
import time

from looselab import (
    Hypergraph3,
    SweepSpec,
    exact_loose_hamilton,
    exact_matching,
    exact_rainbow_hamilton,
    isolated_experiment,
    run_pipeline,
    run_sweep,
    sample_coupled,
    sample_pairing_regular,
    sample_union_matchings,
    verify_loose_hamilton,
)
from looselab.lab import probability_from_c
from looselab.sampling import derived_rng, split_probability

from oracles import (
    is_equitable,
    loose_hamilton_exists_naive,
    perfect_matching_exists_naive,
    rainbow_hamilton_exists_naive,
    random_hypergraph_instance,
)
from test_solvers import ALL_TRIPLES_M2, random_colored, system_m2


def report(num: int, name: str, ok: bool, elapsed: float, cap: float) -> None:
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} "
          f"[{elapsed:.1f}s of {cap:.0f}s budget]", flush=True)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < cap, f"criterion {num} exceeded {cap}s ({elapsed:.1f}s)"


def test_criterion_1_lifting_soundness():
    t0 = time.perf_counter()
    runs = successes = lift_failures = 0
    for n in (8, 16):
        for p in (0.5, 0.9):
            for seed in range(250):
                rep = run_pipeline(n, p, 4, seed=seed, keep_instance=True)
                runs += 1
                if rep.success:
                    successes += 1
                    if not verify_loose_hamilton(rep.hypergraph,
                                                 rep.loose_cycle):
                        lift_failures += 1
    elapsed = time.perf_counter() - t0
    print(f"  criterion 1: {runs} runs, {successes} successes, "
          f"{lift_failures} lift failures")
    report(1, "lifting soundness", runs == 1000 and lift_failures == 0,
           elapsed, 120.0)


def test_criterion_2_oracle_agreement():
    t0 = time.perf_counter()
    disagreements = 0

    rng = derived_rng(1001)
    for _ in range(500):
        h = random_hypergraph_instance(rng, 6, 6)
        if (exact_loose_hamilton(h) is not None) != \
                loose_hamilton_exists_naive(h):
            disagreements += 1

    matching_instances = 0
    for mask in range(1 << len(ALL_TRIPLES_M2)):
        ts = system_m2([t for i, t in enumerate(ALL_TRIPLES_M2)
                        if mask >> i & 1])
        matching_instances += 1
        if (exact_matching(ts) is not None) != \
                perfect_matching_exists_naive(ts):
            disagreements += 1

    rng = derived_rng(1002)
    for _ in range(500):
        g = random_colored(rng)
        if (exact_rainbow_hamilton(g) is not None) != \
                rainbow_hamilton_exists_naive(g):
            disagreements += 1

    elapsed = time.perf_counter() - t0
    print(f"  criterion 2: 500 + {matching_instances} + 500 instances, "
          f"{disagreements} disagreements")
    report(2, "oracle agreement",
           disagreements == 0 and matching_instances == 4096, elapsed, 300.0)


def test_criterion_3_coupling_exactness():
    t0 = time.perf_counter()
    n, r, p, trials = 16, 4, 0.2, 100_000
    p1 = split_probability(p, r).p1
    gen = derived_rng(1003)
    coupled_triple = (1, 2, 9)   # two link vertices, one color vertex
    other_triple = (2, 3, 4)     # entirely inside the link half
    copy_a = (1, 2, (9, 1))      # two disjoint copy-triples
    copy_b = (3, 4, (10, 1))
    hits_coupled = hits_other = hits_a = hits_b = hits_joint = 0
    for _ in range(trials):
        h, systems = sample_coupled(n, p, r, gen)
        hits_coupled += coupled_triple in h
        hits_other += other_triple in h
        a = any(copy_a in ts.present for ts in systems)
        b = any(copy_b in ts.present for ts in systems)
        hits_a += a
        hits_b += b
        hits_joint += a and b

    sigma_p = math.sqrt(p * (1 - p) / trials)
    ok_coupled = abs(hits_coupled / trials - p) <= 3 * sigma_p
    ok_other = abs(hits_other / trials - p) <= 3 * sigma_p
    sigma_p1 = math.sqrt(p1 * (1 - p1) / trials)
    ok_marg = (abs(hits_a / trials - p1) <= 3 * sigma_p1
               and abs(hits_b / trials - p1) <= 3 * sigma_p1)
    joint = p1 * p1
    sigma_joint = math.sqrt(joint * (1 - joint) / trials)
    ok_joint = abs(hits_joint / trials - joint) <= 3 * sigma_joint

    elapsed = time.perf_counter() - t0
    print(f"  criterion 3: coupled {hits_coupled / trials:.4f} / other "
          f"{hits_other / trials:.4f} vs p={p}; joint "
          f"{hits_joint / trials:.6f} vs p1^2={joint:.6f}")
    report(3, "coupling exactness",
           ok_coupled and ok_other and ok_marg and ok_joint, elapsed, 120.0)


def test_criterion_4_structural_invariants():
    t0 = time.perf_counter()
    bad = 0

    gstar_count = 0
    for i in range(1000):
        n = 8 if i % 2 else 16
        rep = run_pipeline(n, 1.0, 4, seed=2000 + i, keep_instance=True)
        g = rep.gstar
        if g is None:
            bad += 1
            continue
        gstar_count += 1
        two_m = n // 2
        if len(g.edges) != 4 * two_m or \
                any(d != 8 for d in g.degrees.values()) or \
                not is_equitable(g, 4, range(two_m + 1, 2 * two_m + 1)):
            bad += 1

    gen = derived_rng(1004)
    for _ in range(1000):
        g = sample_union_matchings(8, 4, gen)
        if any(d != 8 for d in g.degrees.values()):
            bad += 1
    for _ in range(1000):
        g = sample_pairing_regular(8, 8, gen)
        if any(d != 8 for d in g.degrees.values()):
            bad += 1

    elapsed = time.perf_counter() - t0
    print(f"  criterion 4: {gstar_count} derived graphs + 1000 + 1000 "
          f"regular samples, {bad} violations")
    report(4, "structural invariants", bad == 0 and gstar_count == 1000,
           elapsed, 60.0)


def test_criterion_5_split_identities():
    t0 = time.perf_counter()

    def rel(got, want):
        return abs(got - want) / want if want else abs(got)

    def reconstruct(x, power):
        return -math.expm1(power * math.log1p(-x))

    gen = derived_rng(1005)
    worst = 0.0
    cases = [(1e-12, r) for r in range(1, 9)]
    while len(cases) < 10_000:
        p = 10.0 ** gen.uniform(-12.0, math.log10(0.99))
        cases.append((p, int(gen.integers(1, 9))))
    for p, r in cases:
        sp = split_probability(p, r)
        worst = max(worst,
                    rel(reconstruct(sp.p1, 2 * r), p),
                    rel(reconstruct(sp.p2, r), sp.p1),
                    rel(reconstruct(sp.p1, r), sp.q))
    elapsed = time.perf_counter() - t0
    print(f"  criterion 5: {len(cases)} round trips, worst relative "
          f"error {worst:.2e}")
    report(5, "split identities", worst <= 1e-12, elapsed, 30.0)


def test_criterion_6_threshold_behaviour():
    t0 = time.perf_counter()
    spec = SweepSpec()  # the documented default grid
    result = run_sweep(spec, workers=1)
    csv_text = result.to_csv_text()

    ok = True
    by_n = {}
    for cell in result.cells:
        by_n.setdefault(cell.n, []).append(cell)
    for n, cells in by_n.items():
        cells.sort(key=lambda c: c.c)
        if cells[0].freq >= 0.2 or cells[-1].freq <= 0.8:
            ok = False
        for prev, cur in zip(cells, cells[1:]):
            if cur.freq < prev.freq and cur.ci_low > prev.ci_high:
                ok = False  # a real decrease beyond interval overlap

    rerun = run_sweep(spec, workers=1).to_csv_text()
    parallel = run_sweep(spec, workers=2).to_csv_text()
    reproducible = csv_text == rerun == parallel

    elapsed = time.perf_counter() - t0
    print(f"  criterion 6: {len(result.cells)} cells, monotone={ok}, "
          f"byte-identical across reruns/workers={reproducible}")
    report(6, "threshold behaviour", ok and reproducible, elapsed, 600.0)


def test_criterion_7_isolated_expectation():
    t0 = time.perf_counter()
    worst_z = 0.0
    for n in (8, 12, 16):
        for cell in isolated_experiment((n,), (0.5, 1.0, 2.0), trials=10_000,
                                        seed=1006 + n):
            worst_z = max(worst_z, abs(cell.z_score))
    elapsed = time.perf_counter() - t0
    print(f"  criterion 7: 9 cells x 10^4 trials, worst |z| = {worst_z:.2f}")
    report(7, "isolated-vertex expectation", worst_z <= 3.0, elapsed, 120.0)


def test_criterion_8_r1_matching_symmetry():
    # At r=1, G* is the union of the two systems' perfect matchings of the
    # 2m link vertices with each color on one edge, so any Hamilton cycle
    # of it is rainbow.  If each witness is a uniform perfect matching, as
    # exact_matching's random column numbering claims, the union is one
    # Hamilton cycle with probability 2^(m-1) (m-1)! / (2m-1)!!.  At p=1
    # every system is complete, so a fixed numbering would give both the
    # same witness and never succeed.
    t0 = time.perf_counter()
    n, m, trials = 16, 4, 2000
    want = 2 ** (m - 1) * math.factorial(m - 1) / math.prod(range(1, 2 * m, 2))
    ok = True
    for p in (probability_from_c(n, 64), 1.0):
        reached = successes = 0
        for seed in range(trials):
            rep = run_pipeline(n, p, 1, seed=seed)
            if rep.failed_stage != "matching":
                reached += 1
                successes += rep.success
        rate = successes / max(reached, 1)
        sigma = math.sqrt(want * (1 - want) / max(reached, 1))
        ok = ok and reached >= trials // 2 and abs(rate - want) <= 3 * sigma
        print(f"  criterion 8: p={p:.3f}, {successes}/{reached} past matching "
              f"succeed, {rate:.4f} vs {want:.4f} (3 sigma = {3 * sigma:.4f})")
    elapsed = time.perf_counter() - t0
    report(8, "r=1 matching symmetry", ok, elapsed, 60.0)
