"""Every refusal below names its fault in an exact message, raised before
any work is done."""

import io

import pytest

from looselab import (
    ColoredMultigraph,
    FormatError,
    Hypergraph3,
    SweepSpec,
    contiguity_probe,
    derived_rng,
    read_colored,
    read_hypergraph,
    run_sweep,
    sample_copyset_partition,
    sample_gamma,
    sample_h3,
    sample_pairing_regular,
    sample_union_matchings,
)
from looselab import sampling
from looselab.sampling import TripleSystem


def _loopless_pairing_in_five_attempts():
    # with 40 stubs on each of two vertices a draw is loopless with
    # probability about 1e-11, so five attempts all fail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "PAIRING_ATTEMPTS", 5)
        sample_pairing_regular(2, 40, derived_rng(0))


CASES = [
    ("hypergraph_empty", lambda: read_hypergraph(io.StringIO("")),
     FormatError, "empty file, expected 'n m' header"),
    ("hypergraph_header", lambda: read_hypergraph(io.StringIO("4 1 2\n")),
     FormatError, "line 1: header must be 'n m'"),
    ("hypergraph_row", lambda: read_hypergraph(io.StringIO("4 1\n1 2\n")),
     FormatError, "line 2: expected 3 integers"),
    ("hypergraph_n", lambda: read_hypergraph(io.StringIO("0 0\n")),
     FormatError, "line 1: need n >= 1 and m >= 0"),
    ("colored_r", lambda: read_colored(io.StringIO("4 0\n")),
     FormatError, "line 1: r must be >= 1"),
    ("colored_endpoint", lambda: read_colored(io.StringIO("4 1\n1 5 5\n")),
     FormatError, "line 2: endpoints must lie in 1..4"),
    ("hypergraph_no_vertices", lambda: Hypergraph3(0),
     ValueError, "vertex count must be >= 1"),
    ("multigraph_no_vertices", lambda: ColoredMultigraph(0, []),
     ValueError, "vertex count must be >= 1"),
    ("multigraph_endpoint", lambda: ColoredMultigraph(3, [(1, 4, 0)]),
     ValueError, "edge (1, 4, 0) endpoint outside 1..3"),
    ("sweep_r", lambda: SweepSpec(r=0), ValueError, "r must be >= 1"),
    ("sweep_workers",
     lambda: run_sweep(SweepSpec(n_values=(8,), c_values=(1.0,), trials=1),
                       workers=0),
     ValueError, "workers must be >= 1"),
    ("contiguity_m2", lambda: contiguity_probe(7, 1, 1, 0),
     ValueError, "m2 must be even and >= 2, got 7"),
    ("h3_n", lambda: sample_h3(2, 0.5, derived_rng(0)),
     ValueError, "need n >= 3, got 2"),
    ("h3_p", lambda: sample_h3(8, 1.5, derived_rng(0)),
     ValueError, "p must lie in [0, 1], got 1.5"),
    ("gamma_p1", lambda: sample_gamma([1, 2], 1.5, derived_rng(0)),
     ValueError, "p1 must lie in [0, 1], got 1.5"),
    ("union_r", lambda: sample_union_matchings(4, 0, derived_rng(0)),
     ValueError, "r must be >= 1, got 0"),
    ("copyset_m", lambda: sample_copyset_partition(0, 1, derived_rng(0)),
     ValueError, "need m >= 1 and r >= 1"),
    ("triple_system_slots", lambda: TripleSystem((), ()),
     ValueError, "need at least one slot"),
    ("derived_rng_seed", lambda: derived_rng(-1),
     ValueError, "seed must be >= 0, got -1"),
    ("pairing_attempts", _loopless_pairing_in_five_attempts,
     RuntimeError, "no loopless pairing found in 5 attempts"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refusal_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
