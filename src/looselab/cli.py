"""Command-line front end.

Exit codes: 0 on success / verified-true / witness found, 1 on
verified-false, witness proven absent, or a search left undecided by its
budget, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, contextmanager

from . import __version__
from .colored import read_colored, read_rainbow_claim, verify_rainbow_hamilton, \
    write_colored, write_rainbow_cert
from .hypergraph import LOOSE_CAP, BudgetExhausted, FormatError, \
    read_hypergraph, read_loose_cycle_claim, verify_loose_hamilton, \
    write_hypergraph
from .lab import SweepSpec, atomic_output, contiguity_probe, \
    isolated_experiment, probability_from_c, run_sweep
from .pipeline import run_pipeline
from .sampling import hypergraph_from_triple_system, rng_from_seed, sample_gamma, \
    sample_h3, sample_pairing_regular, sample_union_matchings, \
    triple_system_from_hypergraph
from .solvers import DEFAULT_RAINBOW_BUDGET, exact_matching, \
    exact_rainbow_hamilton


def _banner(command: str, **params) -> None:
    detail = " ".join(f"{k}={v}" for k, v in params.items())
    print(f"looselab {__version__} | {command} | {detail}", file=sys.stderr)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _resolve_p(args, n: int) -> float:
    if args.p is not None:
        return args.p
    if args.c is not None:
        return probability_from_c(n, args.c)
    raise FormatError("one of --p or --c is required")


def _cmd_sample(args) -> int:
    gen = rng_from_seed(args.seed)
    if args.model == "h3":
        p = _resolve_p(args, args.n)
        _banner("sample", model="h3", n=args.n, p=p, seed=args.seed)
        h = sample_h3(args.n, p, gen)
        write_hypergraph(h, args.out if args.out else sys.stdout)
    elif args.model == "gamma":
        _banner("sample", model="gamma", m=args.m, p1=args.p1, seed=args.seed)
        ts = sample_gamma(range(2 * args.m + 1, 3 * args.m + 1), args.p1, gen)
        write_hypergraph(hypergraph_from_triple_system(ts),
                         args.out if args.out else sys.stdout)
    elif args.model == "union":
        _banner("sample", model="union", m2=args.m2, r=args.r,
                colored=args.colored, seed=args.seed)
        g = sample_union_matchings(args.m2, args.r, gen, colored=args.colored)
        write_colored(g, args.r, args.out if args.out else sys.stdout)
    else:  # pairing
        _banner("sample", model="pairing", m2=args.m2, d=args.d, seed=args.seed)
        g = sample_pairing_regular(args.m2, args.d, gen)
        write_colored(g, 1, args.out if args.out else sys.stdout)
    return 0


def _cmd_solve_matching(args) -> int:
    ts = triple_system_from_hypergraph(read_hypergraph(args.input))
    _banner("solve matching", input=args.input)
    pm = exact_matching(ts)
    if pm is None:
        print("no perfect matching found")
        return 1
    for (x1, x2), slot in pm:
        print(f"{x1} {x2} {slot}")
    return 0


def _cmd_solve_rainbow(args) -> int:
    g, _r = read_colored(args.input)
    _banner("solve rainbow", input=args.input, budget=args.budget)
    try:
        cert = exact_rainbow_hamilton(g, budget=args.budget)
    except BudgetExhausted as exc:
        print(f"undecided: {exc}")
        return 1
    if cert is None:
        print("no rainbow Hamilton cycle found")
        return 1
    write_rainbow_cert(cert, sys.stdout)
    return 0


# kind -> (instance reader, claim reader, verifier)
_VERIFIERS = {
    "loose": (read_hypergraph, read_loose_cycle_claim, verify_loose_hamilton),
    "rainbow": (lambda f: read_colored(f)[0], read_rainbow_claim,
                verify_rainbow_hamilton),
}


def _cmd_verify(args) -> int:
    read_instance, read_claim, verify = _VERIFIERS[args.kind]
    instance = read_instance(args.instance)
    claim = read_claim(args.cert)
    _banner(f"verify {args.kind}", instance=args.instance, cert=args.cert)
    verdict = verify(instance, claim)
    if verdict:
        print(f"valid {args.kind} Hamilton cycle")
        return 0
    where = f" at index {verdict.index}" if verdict.index is not None else ""
    print(f"invalid: {verdict.reason}{where}")
    return 1


def _cmd_pipeline(args) -> int:
    p = _resolve_p(args, args.n)
    _banner("pipeline", n=args.n, p=p, r=args.r, seed=args.seed)
    rep = run_pipeline(args.n, p, args.r, args.seed)
    if args.format == "json":
        print(rep.to_json())
    else:
        d = rep.to_dict()
        for key in ("n", "p", "r", "seed", "coupling_ok",
                    "matchings_found", "gstar_built", "rainbow_found",
                    "rainbow_undecided", "lift_verified", "success",
                    "failed_stage"):
            print(f"{key}: {d[key]}")
        if rep.loose_cycle is not None:
            print(f"links: {' '.join(str(v) for v in rep.loose_cycle.links)}")
            print(f"middles: {' '.join(str(v) for v in rep.loose_cycle.middles)}")
    return 0 if rep.success else 1


@contextmanager
def _output(out):
    """Stdout, or the file ``out`` reserved on entry by ``atomic_output``."""
    if out:
        with atomic_output(out) as fh:
            yield fh
    else:
        yield sys.stdout


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        n_values=tuple(args.n), c_values=tuple(args.c), r=args.r,
        trials=args.trials, method=args.method, seed=args.seed,
        loose_cap=args.cap)
    _banner("sweep", n=args.n, c=args.c, trials=args.trials,
            method=args.method, seed=args.seed, workers=args.workers)
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    with ExitStack() as stack:
        # every output file is reserved before the first trial runs
        sinks = [(fmt, stack.enter_context(
                     atomic_output(f"{args.out}.{fmt}"))) for fmt in formats] \
            if args.out else [("csv", sys.stdout)]
        result = run_sweep(spec, workers=args.workers)
        for fmt, fh in sinks:
            fh.write(result.to_csv_text() if fmt == "csv"
                     else result.to_json_text())
    return 0


def _cmd_probe_isolated(args) -> int:
    _banner("probe isolated", n=args.n, c=args.c, trials=args.trials,
            seed=args.seed)
    with _output(args.out) as fh:
        rows = []
        for n in args.n:
            rows.extend(cell.record()
                        for cell in isolated_experiment(n, args.c, args.trials,
                                                        args.seed))
        fh.write(json.dumps(rows, indent=2) + "\n")
    return 0


def _cmd_probe_contiguity(args) -> int:
    _banner("probe contiguity", m2=args.m2, r=args.r, trials=args.trials,
            seed=args.seed)
    with _output(args.out) as fh:
        report = contiguity_probe(args.m2, args.r, args.trials, args.seed)
        fh.write(report.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looselab",
        description="Loose Hamilton cycles in random 3-uniform hypergraphs: "
                    "samplers, solvers, the matching-to-rainbow reduction, "
                    "and Monte Carlo sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"looselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="emit instance files")
    ps.add_argument("--model", choices=("h3", "gamma", "union", "pairing"),
                    required=True)
    ps.add_argument("--n", type=int, default=12, help="vertex count (h3)")
    group = ps.add_mutually_exclusive_group()
    group.add_argument("--p", type=float)
    group.add_argument("--c", type=float)
    ps.add_argument("--m", type=int, default=4, help="slot count (gamma)")
    ps.add_argument("--p1", type=float, default=0.2, help="triple rate (gamma)")
    ps.add_argument("--m2", type=int, default=8,
                    help="vertex count (union/pairing)")
    ps.add_argument("--r", type=int, default=4, help="matchings per color (union)")
    ps.add_argument("--d", type=int, default=3, help="degree (pairing)")
    ps.add_argument("--colored", action="store_true")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out")
    ps.set_defaults(func=_cmd_sample)

    pv = sub.add_parser("solve", help="run an engine on an instance file")
    svsub = pv.add_subparsers(dest="problem", required=True)
    sm = svsub.add_parser("matching")
    sm.add_argument("--in", dest="input", required=True)
    sm.set_defaults(func=_cmd_solve_matching)
    sr = svsub.add_parser("rainbow")
    sr.add_argument("--in", dest="input", required=True)
    sr.add_argument("--budget", type=int, default=DEFAULT_RAINBOW_BUDGET,
                    help="search nodes before giving up undecided")
    sr.set_defaults(func=_cmd_solve_rainbow)

    pf = sub.add_parser("verify", help="check a claimed certificate")
    vfsub = pf.add_subparsers(dest="kind", required=True)
    for name in _VERIFIERS:
        vp = vfsub.add_parser(name)
        vp.add_argument("--instance", required=True)
        vp.add_argument("--cert", required=True)
        vp.set_defaults(func=_cmd_verify)

    pp = sub.add_parser("pipeline", help="run the full reduction once")
    pp.add_argument("--n", type=int, required=True)
    group = pp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--c", type=float)
    pp.add_argument("--r", type=int, default=4)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--format", choices=("text", "json"), default="text")
    pp.set_defaults(func=_cmd_pipeline)

    pw = sub.add_parser("sweep", help="threshold sweep over (n, c)")
    pw.add_argument("--n", type=_int_list, default=list(SweepSpec().n_values))
    pw.add_argument("--c", type=_float_list, default=list(SweepSpec().c_values))
    pw.add_argument("--r", type=int, default=4)
    pw.add_argument("--trials", type=int, default=SweepSpec().trials)
    pw.add_argument("--method", choices=("exact", "pipeline"), default="exact")
    pw.add_argument("--seed", type=int, default=SweepSpec().seed)
    pw.add_argument("--cap", type=int, default=LOOSE_CAP)
    pw.add_argument("--workers", type=int, default=1)
    pw.add_argument("--format", choices=("csv", "json", "both"), default="both")
    pw.add_argument("--out", help="output path prefix (.csv/.json appended)")
    pw.set_defaults(func=_cmd_sweep)

    pb = sub.add_parser("probe", help="statistical experiments")
    pbsub = pb.add_subparsers(dest="experiment", required=True)
    pi = pbsub.add_parser("isolated")
    pi.add_argument("--n", type=_int_list, default=[16])
    pi.add_argument("--c", type=_float_list, default=[0.5, 1.0, 2.0])
    pi.add_argument("--trials", type=int, default=1000)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--out")
    pi.set_defaults(func=_cmd_probe_isolated)
    pc = pbsub.add_parser("contiguity")
    pc.add_argument("--m2", type=int, default=8)
    pc.add_argument("--r", type=int, default=4)
    pc.add_argument("--trials", type=int, default=1000)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_probe_contiguity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
