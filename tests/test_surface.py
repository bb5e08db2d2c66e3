import types

import looselab

ENTRY_POINTS = {
    "BudgetExhausted", "ColoredMultigraph", "FormatError", "Hypergraph3",
    "LooseCycle", "SweepSpec", "build_gstar", "contiguity_probe",
    "derived_rng", "exact_loose_hamilton", "exact_matching",
    "exact_rainbow_hamilton", "isolated_experiment", "lift_to_loose",
    "probability_from_c", "read_colored", "read_hypergraph", "run_pipeline",
    "run_sweep", "sample_copyset_partition", "sample_coupled", "sample_gamma",
    "sample_h3", "sample_pairing_regular", "sample_union_matchings",
    "verify_loose_hamilton", "verify_rainbow_hamilton", "write_colored",
    "write_hypergraph",
}


def test_root_exports_only_the_entry_points():
    assert len(looselab.__all__) == len(ENTRY_POINTS) == 29
    assert set(looselab.__all__) == ENTRY_POINTS
    public = {name for name, value in vars(looselab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == ENTRY_POINTS
