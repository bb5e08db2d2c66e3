"""Loose Hamilton cycles in random 3-uniform hypergraphs.

Samplers for the binomial hypergraph and its coupled layered view,
verifiers and complete search engines for loose Hamilton cycles, perfect
matchings of triple systems and rainbow Hamilton cycles of edge-colored
multigraphs, the matching-to-rainbow reduction pipeline, and a Monte
Carlo harness for threshold sweeps.
"""

from .colored import (ColoredEdge, ColoredMultigraph, RainbowCycleCert,
                      is_equitable, lift_to_loose, read_colored,
                      read_rainbow_claim, verify_rainbow_hamilton,
                      write_colored, write_rainbow_cert)
from .hypergraph import (BudgetExhausted, FormatError, Hypergraph3, LooseCycle,
                         SizeCapExceeded, Triple, Verdict,
                         exact_loose_hamilton, expected_isolated,
                         isolated_vertices, read_hypergraph,
                         read_loose_cycle_claim, triple, verify_loose_hamilton,
                         write_hypergraph, write_loose_cycle)
from .lab import (ContiguityReport, IsolatedCell, SweepCell, SweepResult,
                  SweepSpec, contiguity_probe, isolated_experiment,
                  probability_from_c, run_sweep, wilson_interval)
from .pipeline import PipelineReport, build_gstar, run_pipeline
from .sampling import (SplitParams, TripleSystem, derived_rng,
                       rng_from_seed, sample_copyset_partition, sample_coupled,
                       sample_gamma, sample_h3, sample_pairing_regular,
                       sample_union_matchings, split_probability)
from .solvers import exact_matching, exact_rainbow_hamilton, verify_matching

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted", "ColoredEdge", "ColoredMultigraph", "ContiguityReport",
    "FormatError", "Hypergraph3", "IsolatedCell", "LooseCycle",
    "PipelineReport", "RainbowCycleCert", "SizeCapExceeded", "SplitParams",
    "SweepCell", "SweepResult", "SweepSpec", "Triple", "TripleSystem",
    "Verdict", "build_gstar", "contiguity_probe", "derived_rng",
    "exact_loose_hamilton", "exact_matching", "exact_rainbow_hamilton",
    "expected_isolated", "is_equitable", "isolated_experiment",
    "isolated_vertices", "lift_to_loose", "probability_from_c", "read_colored",
    "read_hypergraph", "rng_from_seed", "run_pipeline", "run_sweep",
    "sample_copyset_partition", "sample_coupled", "sample_gamma", "sample_h3",
    "sample_pairing_regular", "sample_union_matchings", "split_probability",
    "triple", "verify_matching", "verify_loose_hamilton",
    "verify_rainbow_hamilton", "wilson_interval", "write_colored",
    "write_hypergraph",
]
