"""Command-line front end.

After parsing, and before the command runs, ``main`` prints one stderr
banner, ``looselab <version> | name=value ...``, naming every parsed
argument, so each output can be reproduced from its header.  Refusals of
bad parameters are left to the library calls the commands make, except
``sample``'s refusal of ``--p``/``--c`` for a model other than h3.

Exit codes: 0 on success / verified-true / witness found, 1 on
verified-false, witness proven absent, or a search left undecided by its
budget, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import asdict

from . import __version__
from .colored import RainbowCycleCert, read_colored, \
    verify_rainbow_hamilton, write_colored
from .hypergraph import BudgetExhausted, FormatError, LooseCycle, \
    _write_rows, read_claim, read_hypergraph, verify_loose_hamilton, \
    write_claim, write_hypergraph
from .lab import SweepSpec, contiguity_probe, isolated_experiment, \
    probability_from_c, run_sweep
from .pipeline import run_pipeline
from .sampling import derived_rng, hypergraph_from_triple_system, sample_gamma, \
    sample_h3, sample_pairing_regular, sample_union_matchings, \
    triple_system_from_hypergraph
from .solvers import DEFAULT_RAINBOW_BUDGET, exact_matching, \
    exact_rainbow_hamilton


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _resolve_p(args) -> float:
    if args.p is not None:
        return args.p
    if args.c is not None:
        return probability_from_c(args.n, args.c)
    raise FormatError("one of --p or --c is required")


def _json_text(value) -> str:
    return json.dumps(value, indent=2) + "\n"


@contextmanager
def atomic_output(path):
    """Yield ``sys.stdout`` when ``path`` is empty, else a text stream that
    replaces ``path`` when the block ends.

    On entry a directory at ``path`` is refused and the temporary file is
    created beside ``path``, so a destination that cannot be written
    fails, naming ``path``, before the block does any work; a block that
    raises leaves ``path`` untouched and no temporary file behind.  The
    file gets the mode ``open`` would give it, 0o666 less the umask, not
    the 0o600 of ``mkstemp``.
    """
    if not path:
        yield sys.stdout
        return
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   suffix=".tmp")
    except OSError as exc:  # name the path given, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_sample(args) -> int:
    for flag in ("p", "c"):
        if args.model != "h3" and getattr(args, flag) is not None:
            raise FormatError(f"--{flag} applies only to --model h3")
    gen = derived_rng(args.seed)
    with atomic_output(args.out) as out:
        if args.model == "h3":
            h = sample_h3(args.n, _resolve_p(args), gen)
            write_hypergraph(h, out)
        elif args.model == "gamma":
            ts = sample_gamma(range(2 * args.m + 1, 3 * args.m + 1), args.p1,
                              gen)
            write_hypergraph(hypergraph_from_triple_system(ts), out)
        elif args.model == "union":
            g = sample_union_matchings(args.m2, args.r, gen,
                                       colored=args.colored)
            write_colored(g, args.r, out)
        else:  # pairing
            g = sample_pairing_regular(args.m2, args.d, gen)
            write_colored(g, 1, out)
    return 0


def _cmd_solve_matching(args) -> int:
    ts = triple_system_from_hypergraph(read_hypergraph(args.input))
    pm = exact_matching(ts)
    if pm is None:
        print("no perfect matching found")
        return 1
    _write_rows(sys.stdout, pm)
    return 0


def _cmd_solve_rainbow(args) -> int:
    g, _r = read_colored(args.input)
    try:
        cert = exact_rainbow_hamilton(g, budget=args.budget)
    except BudgetExhausted as exc:
        print(f"undecided: {exc}")
        return 1
    if cert is None:
        print("no rainbow Hamilton cycle found")
        return 1
    write_claim(cert, sys.stdout)
    return 0


# kind -> (instance reader, claim record, verifier)
_VERIFIERS = {
    "loose": (read_hypergraph, LooseCycle, verify_loose_hamilton),
    "rainbow": (lambda f: read_colored(f)[0], RainbowCycleCert,
                verify_rainbow_hamilton),
}


def _cmd_verify(args) -> int:
    read_instance, record, verify = _VERIFIERS[args.kind]
    instance = read_instance(args.instance)
    claim = read_claim(args.cert, record)
    verdict = verify(instance, claim)
    if verdict:
        print(f"valid {args.kind} Hamilton cycle")
        return 0
    where = f" at index {verdict.index}" if verdict.index is not None else ""
    print(f"invalid: {verdict.reason}{where}")
    return 1


def _cmd_pipeline(args) -> int:
    rep = run_pipeline(args.n, _resolve_p(args), args.r, args.seed)
    if args.format == "json":
        sys.stdout.write(_json_text(rep.to_dict()))
    else:
        d = rep.to_dict()
        for key in ("n", "p", "r", "seed", "matchings_found",
                    "rainbow_undecided", "success", "failed_stage"):
            print(f"{key}: {d[key]}")
        if rep.loose_cycle is not None:
            print(f"links: {' '.join(str(v) for v in rep.loose_cycle.links)}")
            print(f"middles: {' '.join(str(v) for v in rep.loose_cycle.middles)}")
    return 0 if rep.success else 1


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        n_values=tuple(args.n), c_values=tuple(args.c), r=args.r,
        trials=args.trials, method=args.method, seed=args.seed)
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    with ExitStack() as stack:
        # every output file is reserved before the first trial runs;
        # stdout takes one format, the CSV for "both"
        sinks = [(fmt, stack.enter_context(atomic_output(
                     args.out and f"{args.out}.{fmt}")))
                 for fmt in formats[:None if args.out else 1]]
        result = run_sweep(spec, workers=args.workers)
        for fmt, fh in sinks:
            fh.write(result.to_csv_text() if fmt == "csv" else
                     _json_text([cell.record() for cell in result.cells]))
    return 0


def _cmd_probe_isolated(args) -> int:
    with atomic_output(args.out) as fh:
        cells = isolated_experiment(args.n, args.c, args.trials, args.seed)
        fh.write(_json_text([cell.record() for cell in cells]))
    return 0


def _cmd_probe_contiguity(args) -> int:
    with atomic_output(args.out) as fh:
        report = contiguity_probe(args.m2, args.r, args.trials, args.seed)
        fh.write(_json_text(asdict(report)))
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
    # a list value is comma-joined, as the parser reads it
    detail = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in vars(args).items() if k != "func")
    print(f"looselab {__version__} | {detail}", file=sys.stderr)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
