import ast
import types
from pathlib import Path

import looselab

REPO = Path(__file__).resolve().parents[1]

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


def test_every_definition_has_a_caller():
    """Each module-level def or class in looselab is named, as a name or an
    attribute, outside its own body in looselab or perfbench's program
    files; the root's re-exports and the tests do not count as callers."""
    package = REPO / "src" / "looselab"
    modules = sorted(p for p in package.glob("*.py")
                     if p.name != "__init__.py")
    callers = modules + sorted(p for p in (REPO / "perfbench").glob("*.py")
                               if not p.name.startswith("test_"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    uses = {}  # name -> [(file, line)]
    for p, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((p, node.lineno))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = [(p, d) for p in modules for d in trees[p].body
            if isinstance(d, kinds)]
    orphans = [f"{p.name}:{d.name}" for p, d in defs
               if all(q == p and d.lineno <= line <= d.end_lineno
                      for q, line in uses.get(d.name, []))]
    assert len(defs) > 80
    assert orphans == []
