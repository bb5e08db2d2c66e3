"""looselab benchmark: end-to-end and per-layer numbers from one command.

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload pipeline_dense --seed 7 --seconds 35
    python3 perfbench/run.py --workload sweep_exact --trace 1

Run it from the root of a checkout; it imports looselab from ``src/``.

With ``--trace 0`` each workload runs as a closed loop with one client for
``--seconds`` of measured call time (and at least MIN_CALLS calls, so the
p90 has ten samples beyond it).  Every call into the public API is timed
from outside and its output checked; afterwards the first calls are made
again and must reproduce their outputs byte for byte.  Every time is put
on the reference host of hostspeed.py with readings of the host's speed
taken around it, so that the slow spells of a shared host do not read as a
slower program; the unscaled figures are printed and stored beside them.
The end-to-end metrics are trials_per_s, trial_p50_ms, trial_p90_ms (per
trial: a pipeline call is one trial, a sweep call is divided by its trial
count), setup_s (median over fresh interpreters of importing numpy and
looselab and building the inputs) and peak_rss_mb (the largest pool worker
added for the sweep; with several workloads in one process it is the peak
so far).  found_rate and error_share are printed alongside.

With ``--trace 1`` a fixed number of calls, so every count repeats
exactly, runs once with tracing.py's wrappers installed and once without;
the ratio of the two throughputs is the tracing overhead.  The traced
sweep runs at one worker so that its spans stay in this process; the lab
figures (utilisation) come from an extra untraced pass at two workers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details, run metadata and spans go
to perfbench/results/.  The exit code is 1 when any output fails its check
or a rerun with the same code and seed gives a different digest or count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

WORKLOADS = ("pipeline_dense", "pipeline_sparse", "sweep_exact")
DEFAULT_SEED = 1
MIN_BEYOND = 10  # samples a reported percentile must have above it
MIN_CALLS = 100
MAX_LOOP_S = 140.0  # keeps a slow run inside the 180 s a run may take
SETUP_PROBES = 9
PROBE_EVERY_S = 0.5  # loop time between two readings of the host's speed

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_p50_ms", "ms"),
    ("trial_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); a metric is <span name>.<field>.  A *_share field is the
# span's busy or self time as a share of the time spent in the workload's
# root calls (run_pipeline or run_sweep); counts are summed over spans.
PER_LAYER = (
    ("sampling.sample_coupled.calls", "count"),
    ("sampling.sample_coupled.busy_share", "fraction"),
    ("sampling.sample_coupled.self_share", "fraction"),
    ("sampling.sample_coupled.edges", "count"),
    ("sampling.sample_gamma.busy_share", "fraction"),
    ("sampling.sample_gamma.triples", "count"),
    ("sampling.sample_copyset_partition.busy_share", "fraction"),
    ("sampling.sample_h3.calls", "count"),
    ("sampling.sample_h3.busy_share", "fraction"),
    ("sampling.sample_h3.edges", "count"),
    ("solvers.exact_matching.calls", "count"),
    ("solvers.exact_matching.busy_share", "fraction"),
    ("solvers.exact_matching.nodes", "count"),
    ("solvers.exact_matching.found_ratio", "fraction"),
    ("pipeline.matching_stage.self_share", "fraction"),
    ("solvers.exact_rainbow_hamilton.calls", "count"),
    ("solvers.exact_rainbow_hamilton.busy_share", "fraction"),
    ("solvers.exact_rainbow_hamilton.nodes", "count"),
    ("solvers.exact_rainbow_hamilton.nodes_per_ms", "1/ms"),
    ("solvers.exact_rainbow_hamilton.found_ratio", "fraction"),
    ("pipeline.build_gstar.busy_share", "fraction"),
    ("pipeline.run_pipeline.self_share", "fraction"),
    ("colored.lift_to_loose.busy_share", "fraction"),
    ("hypergraph.verify_loose_hamilton.busy_share", "fraction"),
    ("pipeline.failed_stage.matching", "count"),
    ("pipeline.failed_stage.rainbow", "count"),
    ("pipeline.failed_stage.lift", "count"),
    ("hypergraph.exact_loose_hamilton.calls", "count"),
    ("hypergraph.exact_loose_hamilton.busy_share", "fraction"),
    ("hypergraph.exact_loose_hamilton.found_ratio", "fraction"),
    ("lab.run_sweep.self_share", "fraction"),
    ("lab.worker_utilisation", "fraction"),
    ("trace.speed_ratio", "fraction"),
)


def load_program():
    """Import numpy and the checkout's looselab; exit 2 if they are absent."""
    src = ROOT / "src"
    if not (src / "looselab" / "__init__.py").is_file():
        print(f"perfbench: no looselab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import looselab
    if Path(looselab.__file__).resolve().parent != (src / "looselab").resolve():
        print(f"perfbench: imported looselab from {looselab.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    return looselab


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile, refused with fewer than MIN_BEYOND samples
    above it (so p50 needs 20 samples and p90 needs 100)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    rank = math.ceil(q * len(values))
    if len(values) - rank < MIN_BEYOND:
        raise ValueError(f"{len(values)} samples leave fewer than {MIN_BEYOND} "
                         f"beyond the {q:g} quantile")
    return sorted(values)[rank - 1]


def timed_setup(name: str, seed: int):
    """Import the program and build one workload's inputs; (workload, s)."""
    t0 = time.perf_counter()
    load_program()
    import workloads
    wl = workloads.make_workload(name, seed)
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """timed_setup in SETUP_PROBES fresh interpreters, one after another;
    (seconds, the host's speed read right after) from each."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup_s, reading = proc.stdout.split()[-2:]
        out.append((float(setup_s), float(reading)))
    return out


class Pass:
    """Running totals of one pass of calls over a workload."""

    def __init__(self):
        self.calls = 0
        self.attempted = 0
        self.errors = 0
        self.found = 0
        self.busy_s = 0.0
        self.per_trial_s: list[float] = []
        self.records: list[str] = []
        self.tallies: dict = {}
        self.unsound: list[str] = []

    @property
    def good(self) -> int:
        return self.attempted - self.errors

    def digest(self) -> str:
        h = hashlib.sha256()
        for rec in self.records:
            h.update(rec.encode())
            h.update(b"\n")
        return h.hexdigest()

    def counts(self) -> dict:
        return {"found": self.found, "errors": self.errors,
                **{k: v for k, v in sorted(self.tallies.items())
                   if k.startswith("failed_stage.")}}


def run_call(wl, i: int, workers: int, acc: Pass, tracer=None) -> object:
    """Time one call from outside, then check its output (untimed)."""
    acc.calls += 1
    acc.attempted += wl.trials_per_call
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.call(i, workers)
        else:
            tracer.trial = i
            out = tracer.call(wl.root, wl.call, i, workers)
    except Exception as exc:  # a raising trial counts as an error, not an abort
        dt = time.perf_counter() - t0
        acc.busy_s += dt
        acc.errors += wl.trials_per_call
        acc.per_trial_s.append(math.inf)
        acc.records.append(f"error {type(exc).__name__}: {exc}")
        print(f"# {wl.name} call {i} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None
    dt = time.perf_counter() - t0
    acc.busy_s += dt
    acc.per_trial_s.append(dt / wl.trials_per_call)
    chk = wl.check(i, out)
    acc.found += chk.found
    acc.errors += chk.bad
    if chk.bad:
        acc.unsound.append(f"call {i}: output failed re-verification")
    acc.records.append(chk.record)
    for key, value in chk.tallies.items():
        acc.tallies[key] = acc.tallies.get(key, 0) + value
    return out


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "looselab").glob("*.py"),
                        *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata() -> dict:
    import numpy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_looselab_lines": sum(
            len(p.read_text().splitlines())
            for p in (ROOT / "src" / "looselab").glob("*.py")),
        "code_hash": code_hash(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def remember(path: Path, key: str, fingerprint: dict) -> list[str]:
    """Compare with what an earlier run of the same code and seed stored in
    ``path``; store it if there is none.  Returns the mismatches."""
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = fingerprint
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [f"{field} differs from an earlier run: {known[key].get(field)} "
            f"vs {value}" for field, value in fingerprint.items()
            if known[key].get(field) != value]


def measure(wl, seconds: float) -> tuple[dict, dict, list[str]]:
    """The untraced closed loop; (metrics, report, problems).

    Every PROBE_EVERY_S of the loop the host's speed is read with
    hostspeed.probe(), and each call's time is put on the reference host
    with the mean of the readings just before and after it, so that a slow
    spell of the shared host does not read as a slower program.
    """
    import hostspeed
    acc = Pass()
    readings = [hostspeed.probe()]
    scaled: list[float] = []  # acc.per_trial_s on the reference host

    def read_host():
        readings.append(hostspeed.probe())
        factor = hostspeed.scale(statistics.fmean(readings[-2:]))
        scaled.extend(t * factor for t in acc.per_trial_s[len(scaled):])

    start = last_read = time.perf_counter()
    i = 0
    while (acc.busy_s < seconds or acc.calls < MIN_CALLS) \
            and time.perf_counter() - start < MAX_LOOP_S:
        run_call(wl, i, wl.workers, acc)
        i += 1
        if time.perf_counter() - last_read >= PROBE_EVERY_S:
            read_host()
            last_read = time.perf_counter()
    read_host()
    problems = list(acc.unsound)

    # Determinism: the first calls again, at one worker, must reproduce
    # the same bytes (for the sweep this also pins worker-count identity).
    again = Pass()
    first = run_call(wl, 0, 1, again)
    for j in range(1, wl.check_calls):
        run_call(wl, j, 1, again)
    if again.records != acc.records[:wl.check_calls]:
        problems.append("rerun of the first calls changed their outputs")
    if first is None or not wl.deep_check(0, first):
        problems.append("independent re-decision of call 0 disagrees")
    problems += again.unsound

    ok = [t for t in scaled if t < math.inf]
    metrics = {
        "trials_per_s": len(ok) / sum(ok) if ok else 0.0,
        "trial_p50_ms": 1e3 * percentile(scaled, 0.5),
        "trial_p90_ms": 1e3 * percentile(scaled, 0.9),
    }
    report = {
        "calls": acc.calls, "attempted": acc.attempted, "errors": acc.errors,
        "found_rate": acc.found / acc.attempted,
        "error_share": acc.errors / acc.attempted,
        "busy_s": acc.busy_s, "digest": again.digest(),
        "counts": again.counts(),
        "unscaled": {
            "trials_per_s": acc.good / acc.busy_s,
            "trial_p50_ms": 1e3 * percentile(acc.per_trial_s, 0.5),
            "trial_p90_ms": 1e3 * percentile(acc.per_trial_s, 0.9)},
        "host_readings_ms": [1e3 * r for r in readings],
    }
    return metrics, report, problems


def layer_metrics(table: dict, traced: Pass, untraced: Pass,
                  pooled: Pass | None, workers: int) -> dict:
    root = traced.busy_s

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    out: dict = {}
    for metric, _unit in PER_LAYER:
        name, key = metric.rsplit(".", 1)
        if key == "busy_share":
            out[metric] = get(name, "busy_s") / root
        elif key == "self_share":
            out[metric] = get(name, "self_s") / root
        elif key == "found_ratio":
            calls = get(name, "calls")
            out[metric] = get(name, "found") / calls if calls else 0.0
        elif key == "nodes_per_ms":
            busy = get(name, "busy_s")
            out[metric] = get(name, "nodes") / (1e3 * busy) if busy else 0.0
        elif name == "pipeline.failed_stage":
            out[metric] = traced.tallies.get(f"failed_stage.{key}", 0)
        else:
            out[metric] = get(name, key)
    out["pipeline.matching_stage.self_share"] = max(
        0.0, traced.tallies.get("matching_stage_s", 0.0)
        - get("solvers.exact_matching", "busy_s")) / root
    if pooled is not None:
        out["lab.worker_utilisation"] = \
            pooled.tallies["trial_busy_s"] / (workers * pooled.busy_s)
    out["trace.speed_ratio"] = (traced.good / traced.busy_s) \
        / (untraced.good / untraced.busy_s)
    return out


def trace(wl) -> tuple[dict, dict, list[str], list]:
    from tracing import Tracer, summarise
    tracer = Tracer()
    traced, untraced = Pass(), Pass()
    pooled = Pass() if wl.workers > 1 else None
    # Each call runs traced, then untraced, so that both see the same
    # machine conditions and the overhead ratio compares like with like.
    for i in range(wl.traced_calls):
        with tracer.installed():
            run_call(wl, i, 1, traced, tracer)
        run_call(wl, i, 1, untraced)
        if pooled is not None:
            run_call(wl, i, wl.workers, pooled)
    problems = []
    for other in (traced, untraced, pooled):
        if other is not None:
            problems += other.unsound
            if other.records != traced.records:
                problems.append("traced and untraced passes gave different outputs")
    table = summarise(tracer.spans)
    metrics = layer_metrics(table, traced, untraced, pooled, wl.workers)
    report = {
        "calls": traced.calls, "attempted": traced.attempted,
        "errors": traced.errors,
        "found_rate": traced.found / traced.attempted,
        "traced_trials_per_s": traced.good / traced.busy_s,
        "untraced_trials_per_s": untraced.good / untraced.busy_s,
        "layers": table, "digest": traced.digest(),
        "counts": {**traced.counts(), **{
            f"{name}.{key}": value for name, row in sorted(table.items())
            for key, value in row.items() if not key.endswith("_s")}},
    }
    if pooled is not None:
        report["lab"] = {
            "workers": wl.workers, "run_sweep.wall_s": pooled.busy_s,
            "trial_busy_s": pooled.tallies["trial_busy_s"],
            "worker_utilisation": metrics["lab.worker_utilisation"]}
    spans = [[s.name, s.start, s.end, s.parent, s.trial, s.counts]
             for s in tracer.spans]
    return metrics, report, problems, spans


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import hostspeed
    load_before = loadavg()
    probes = probe_setup(name, seed)
    wl, _ = timed_setup(name, seed)
    meta = metadata()
    if traced:
        metrics, report, problems, spans = trace(wl)
        units = dict(PER_LAYER)
    else:
        metrics, report, problems = measure(wl, seconds)
        metrics["setup_s"] = statistics.median(
            t * hostspeed.scale(reading) for t, reading in probes)
        report["unscaled"]["setup_s"] = statistics.median(t for t, _ in probes)
        metrics["peak_rss_mb"] = peak_rss_mb(with_children=wl.workers > 1)
        units = dict(END_TO_END)
        spans = None
    key = f"{meta['code_hash']}:{name}:{seed}:trace{int(traced)}"
    RESULTS.mkdir(exist_ok=True)
    problems += remember(RESULTS / "fingerprints.json", key,
                         {"digest": report["digest"], "counts": report["counts"]})
    meta.update(load_start=load_before, load_end=loadavg())
    report.update(workload=name, seed=seed, setup_probes_s=probes,
                  metrics=metrics, problems=problems, meta=meta)

    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"# {name} seed={seed} trace={int(traced)} calls={report['calls']} "
          f"trials={report['attempted']} digest={report['digest'][:16]}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    samples = {"setup_s": len(probes), "peak_rss_mb": 1,
               "trial_p50_ms": report["calls"], "trial_p90_ms": report["calls"]}
    for metric, value in metrics.items():
        print(f"{name:16} {metric:46} {value:14.6g} {units[metric]:9} "
              f"n={samples.get(metric, report['attempted'])}")
    print(f"{name:16} {'found_rate':46} {report['found_rate']:14.6g} "
          f"{'fraction':9} n={report['attempted']}")
    if not traced:
        print(f"{name:16} {'error_share':46} {report['error_share']:14.6g} "
              f"{'fraction':9} n={report['attempted']}")
        readings = sorted(report["host_readings_ms"])
        print(f"# unscaled {json.dumps(report['unscaled'])}; host probe "
              f"{readings[0]:.4g}..{readings[-1]:.4g} ms (reference "
              f"{1e3 * hostspeed.REFERENCE_S:.4g} ms), {len(readings)} readings")
    else:
        print(f"# tracing overhead: traced {report['traced_trials_per_s']:.6g} "
              f"vs untraced {report['untraced_trials_per_s']:.6g} trials/s"
              + (" (both at 1 worker)" if wl.workers > 1 else ""))
        for layer, row in sorted(report["layers"].items(),
                                 key=lambda kv: -kv[1]["busy_s"]):
            extra = " ".join(f"{k}={v:.6g}" for k, v in row.items())
            print(f"# layer {layer:42} {extra}")
        if "lab" in report:
            print(f"# lab {json.dumps(report['lab'])}")
    for problem in problems:
        print(f"# PROBLEM {name}: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": report["attempted"],
            "failed": report["errors"],
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_s = timed_setup(args.workload, args.seed)[1]
        import hostspeed
        print(setup_s, hostspeed.probe())
        return 0
    load_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
