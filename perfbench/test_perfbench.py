"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import time

import pytest

import run

run.load_program()

import looselab.pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from looselab.hypergraph import Hypergraph3  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(100)), 0.9) == 89
    assert run.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 0.5)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),  # nested: covered by a, not root
        _span("b", 4.0, 6.0, 0),  # starts where a ends
        _span("c", 9.0, 12.0, 0),  # runs past the parent; clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 3.0])


def test_self_time_overlapping_children_counted_once():
    spans = [_span("root", 0.0, 4.0, None),
             _span("x", 1.0, 3.0, 0), _span("y", 2.0, 3.5, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def _bindings():
    return {(mod, attr): getattr(__import__(mod, fromlist=[attr]), attr)
            for mod, attr, _, _ in tracing.TARGETS}


def test_traced_run_restores_module_attributes():
    before = _bindings()
    wl = workloads.make_workload("pipeline_sparse", 3)
    wl.traced_calls = 3
    metrics, report, problems, spans = run.trace(wl)
    assert _bindings() == before
    assert not problems
    assert set(metrics) == {m for m, _ in run.PER_LAYER}
    assert metrics["sampling.sample_coupled.calls"] == 3
    assert report["layers"]["sampling.sample_gamma"]["calls"] == 3 * 8
    assert all(s[4] in (0, 1, 2) for s in spans)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert looselab.pipeline.sample_coupled is not \
                before[("looselab.pipeline", "sample_coupled")]
            raise RuntimeError("boom")
    assert _bindings() == before


def test_unsound_success_is_flagged():
    wl = workloads.make_workload("pipeline_dense", 5)
    rep = wl.call(0)
    assert rep.success and wl.check(0, rep).bad == 0
    rep.hypergraph = Hypergraph3(rep.n)  # the cycle is not in this instance
    chk = wl.check(0, rep)
    assert chk.bad == 1 and chk.found == 0


def test_raising_call_counts_as_error():
    class Raises:
        name, root, trials_per_call = "raises", "root", 3

        def call(self, i, workers):
            raise RuntimeError("no")

    acc = run.Pass()
    assert run.run_call(Raises(), 0, 1, acc) is None
    assert (acc.attempted, acc.errors, acc.good) == (3, 3, 0)
    assert acc.per_trial_s == [math.inf]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_rerun_with_other_counts_is_reported(tmp_path):
    path = tmp_path / "fingerprints.json"
    first = {"digest": "ab", "counts": {"solvers.exact_matching.nodes": 7}}
    assert run.remember(path, "k", first) == []
    assert run.remember(path, "k", first) == []
    changed = {"digest": "ab", "counts": {"solvers.exact_matching.nodes": 8}}
    assert len(run.remember(path, "k", changed)) == 1
    assert run.remember(path, "other", changed) == []


def test_measure_puts_times_on_the_reference_host(monkeypatch):
    import hostspeed

    class Sleeps:
        name, root, workers, trials_per_call, check_calls = \
            "sleeps", "root", 1, 1, 2

        def call(self, i, workers):
            time.sleep(1e-4)
            return i

        def check(self, i, out):
            return workloads.Check(0, 0, str(out))

        def deep_check(self, i, out):
            return True

    # A host reading twice the reference runs at half the reference speed.
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_S)
    metrics, report, problems = run.measure(Sleeps(), seconds=0.0)
    assert not problems and report["calls"] == run.MIN_CALLS
    raw = report["unscaled"]
    assert metrics["trial_p50_ms"] == pytest.approx(raw["trial_p50_ms"] / 2)
    assert metrics["trial_p90_ms"] == pytest.approx(raw["trial_p90_ms"] / 2)
    assert metrics["trials_per_s"] == pytest.approx(2 * raw["trials_per_s"])
