"""Loose Hamilton cycles in random 3-uniform hypergraphs.

Samplers for the binomial hypergraph and its coupled layered view,
verifiers and complete search engines for loose Hamilton cycles, perfect
matchings of triple systems and rainbow Hamilton cycles of edge-colored
multigraphs, the matching-to-rainbow reduction pipeline, and a Monte
Carlo harness for threshold sweeps.

The package root exports the entry points; import every other name from
its module.
"""

from .colored import (ColoredMultigraph, lift_to_loose, read_colored,
                      verify_rainbow_hamilton, write_colored)
from .hypergraph import (BudgetExhausted, FormatError, Hypergraph3, LooseCycle,
                         exact_loose_hamilton, read_hypergraph,
                         verify_loose_hamilton, write_hypergraph)
from .lab import (SweepSpec, contiguity_probe, isolated_experiment,
                  probability_from_c, run_sweep)
from .pipeline import build_gstar, run_pipeline
from .sampling import (derived_rng, sample_copyset_partition, sample_coupled,
                       sample_gamma, sample_h3, sample_pairing_regular,
                       sample_union_matchings)
from .solvers import exact_matching, exact_rainbow_hamilton

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted", "ColoredMultigraph", "FormatError", "Hypergraph3",
    "LooseCycle", "SweepSpec", "build_gstar", "contiguity_probe",
    "derived_rng", "exact_loose_hamilton", "exact_matching",
    "exact_rainbow_hamilton", "isolated_experiment", "lift_to_loose",
    "probability_from_c", "read_colored", "read_hypergraph", "run_pipeline",
    "run_sweep", "sample_copyset_partition", "sample_coupled", "sample_gamma",
    "sample_h3", "sample_pairing_regular", "sample_union_matchings",
    "verify_loose_hamilton", "verify_rainbow_hamilton", "write_colored",
    "write_hypergraph",
]
