import json
import os
import shlex
import stat
import sys
from pathlib import Path

import pytest

from looselab.cli import atomic_output, build_parser, main
from looselab.lab import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main(list(argv))


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, as RFC 8259
    does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestVerifyCommand:
    def test_valid_loose_cycle_exits_zero(self, tmp_path, capsys):
        inst = tmp_path / "h.txt"
        inst.write_text("4 2\n1 2 3\n1 2 4\n")
        cert = tmp_path / "c.txt"
        cert.write_text("1 2\n3 4\n")
        assert run("verify", "loose", "--instance", str(inst),
                   "--cert", str(cert)) == 0
        assert "valid" in capsys.readouterr().out

    def test_false_claim_exits_one(self, tmp_path, capsys):
        inst = tmp_path / "h.txt"
        inst.write_text("4 1\n1 2 3\n")
        cert = tmp_path / "c.txt"
        cert.write_text("1 2\n3 4\n")
        assert run("verify", "loose", "--instance", str(inst),
                   "--cert", str(cert)) == 1
        assert "missing edge" in capsys.readouterr().out

    def test_garbage_cert_exits_two(self, tmp_path):
        inst = tmp_path / "h.txt"
        inst.write_text("4 1\n1 2 3\n")
        cert = tmp_path / "c.txt"
        cert.write_text("not numbers\n3 4\n")
        assert run("verify", "loose", "--instance", str(inst),
                   "--cert", str(cert)) == 2

    def test_malformed_instance_exits_two(self, tmp_path, capsys):
        inst = tmp_path / "h.txt"
        inst.write_text("4 1\n3 2 1\n")
        cert = tmp_path / "c.txt"
        cert.write_text("1 2\n3 4\n")
        assert run("verify", "loose", "--instance", str(inst),
                   "--cert", str(cert)) == 2
        assert "input error" in capsys.readouterr().err

    def test_rainbow_verify_round_trip(self, tmp_path):
        inst = tmp_path / "g.txt"
        inst.write_text("4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n")
        cert = tmp_path / "c.txt"
        cert.write_text("1 2 3 4\n5 6 7 8\n")
        assert run("verify", "rainbow", "--instance", str(inst),
                   "--cert", str(cert)) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n5 6 7 5\n")
        assert run("verify", "rainbow", "--instance", str(inst),
                   "--cert", str(bad)) == 1

    def test_missing_file_exits_two(self, tmp_path):
        assert run("verify", "loose", "--instance", str(tmp_path / "no.txt"),
                   "--cert", str(tmp_path / "no2.txt")) == 2

    @pytest.mark.parametrize("kind,instance,fields", [
        ("loose", "4 2\n1 2 3\n1 2 4\n", "links, middles"),
        ("rainbow", "4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n", "order, colors"),
    ], ids=["loose", "rainbow"])
    def test_three_line_cert_exits_two(self, kind, instance, fields, tmp_path,
                                       capsys):
        inst = tmp_path / "i.txt"
        inst.write_text(instance)
        cert = tmp_path / "c.txt"
        cert.write_text("1 2\n3 4\n5\n")
        assert run("verify", kind, "--instance", str(inst),
                   "--cert", str(cert)) == 2
        assert capsys.readouterr().err.endswith(
            f"input error: expected 2 lines ({fields}), found 3\n")


class TestSampleCommand:
    def test_h3_writes_parseable_file(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run("sample", "--model", "h3", "--n", "12", "--p", "0.2",
                   "--seed", "3", "--out", str(out)) == 0
        from looselab import read_hypergraph
        h = read_hypergraph(out)
        assert h.n == 12

    def test_h3_accepts_c(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run("sample", "--model", "h3", "--n", "8", "--c", "4.0",
                   "--seed", "3", "--out", str(out)) == 0

    def test_h3_needs_p_or_c(self, capsys):
        assert run("sample", "--model", "h3", "--n", "8") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "\ninput error: one of --p or --c is required\n")

    def test_p_and_c_mutually_exclusive(self, tmp_path):
        assert run("sample", "--model", "h3", "--n", "8", "--p", "0.5",
                   "--c", "2.0") == 2

    def test_union_and_pairing_files(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run("sample", "--model", "union", "--m2", "8", "--r", "2",
                   "--colored", "--seed", "1", "--out", str(out)) == 0
        from looselab import read_colored
        g, r = read_colored(out)
        assert r == 2 and len(g.edges) == 16
        assert run("sample", "--model", "pairing", "--m2", "8", "--d", "3",
                   "--seed", "1", "--out", str(out)) == 0
        g, _r = read_colored(out)
        assert all(c == 0 for _u, _v, c in g.edges)
        assert all(d == 3 for d in g.degrees.values())

    def test_pairing_with_odd_m2_exits_two(self, tmp_path, capsys):
        # the coloured-file format needs an even vertex count, so the
        # sampler refuses what solve and verify could not read back
        out = tmp_path / "p.txt"
        assert run("sample", "--model", "pairing", "--m2", "3", "--d", "2",
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "error: need even m2 >= 2" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_gamma_file_solvable(self, tmp_path):
        out = tmp_path / "ts.txt"
        assert run("sample", "--model", "gamma", "--m", "3", "--p1", "1.0",
                   "--seed", "1", "--out", str(out)) == 0
        assert run("solve", "matching", "--in", str(out)) == 0

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_gamma_without_slots_exits_two(self, m, tmp_path, capsys):
        out = tmp_path / "ts.txt"
        assert run("sample", "--model", "gamma", "--m", m,
                   "--out", str(out)) == 2
        assert "error: need at least one slot" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--p", "0.5"), ("--c", "inf"),
                                             ("--c", "nan")])
    @pytest.mark.parametrize("model, args", [
        ("gamma", ("--m", "2")),
        ("union", ("--m2", "4", "--r", "1")),
        ("pairing", ("--m2", "8", "--d", "3")),
    ])
    def test_p_or_c_refused_for_other_models(self, model, args, flag, value,
                                             tmp_path, monkeypatch, capsys):
        def no_draw(seed):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr("looselab.cli.derived_rng", no_draw)
        out = tmp_path / "x.txt"
        assert run("sample", "--model", model, *args, flag, value,
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"{flag} applies only to --model h3" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestSolveCommand:
    def test_matching_not_found_exits_one(self, tmp_path):
        inst = tmp_path / "ts.txt"
        inst.write_text("6 1\n1 2 5\n")  # n=6 means m=2; single triple
        assert run("solve", "matching", "--in", str(inst)) == 1

    def test_matching_found_exits_zero(self, tmp_path, capsys):
        inst = tmp_path / "ts.txt"
        inst.write_text("6 2\n1 2 5\n3 4 6\n")
        assert run("solve", "matching", "--in", str(inst)) == 0
        out = capsys.readouterr().out
        assert "1 2 5" in out and "3 4 6" in out

    def test_matching_beyond_the_recursion_limit(self, tmp_path, capsys):
        # 1000 planted triples are 1000 choices deep, at Python's default
        # recursion limit
        m = 1000
        inst = tmp_path / "ts.txt"
        inst.write_text(f"{3 * m} {m}\n" + "".join(
            f"{2 * k + 1} {2 * k + 2} {2 * m + k + 1}\n" for k in range(m)))
        assert run("solve", "matching", "--in", str(inst)) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == [f"{2 * k + 1} {2 * k + 2} {2 * m + k + 1}"
                        for k in range(m)]

    def test_rainbow_solve(self, tmp_path, capsys):
        inst = tmp_path / "g.txt"
        inst.write_text("4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n")
        assert run("solve", "rainbow", "--in", str(inst)) == 0
        order = capsys.readouterr().out.splitlines()[0].split()
        assert sorted(order) == ["1", "2", "3", "4"]

    def test_rainbow_absent_exits_one(self, tmp_path):
        inst = tmp_path / "g.txt"
        inst.write_text("4 1\n1 2 5\n2 3 5\n3 4 5\n1 4 5\n")
        assert run("solve", "rainbow", "--in", str(inst)) == 1

    def test_rainbow_budget_spent_is_undecided(self, tmp_path, capsys):
        inst = tmp_path / "g.txt"
        inst.write_text("4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n")
        assert run("solve", "rainbow", "--in", str(inst), "--budget", "1") == 1
        out = capsys.readouterr().out
        assert "undecided" in out
        assert "no rainbow Hamilton cycle found" not in out

    def test_rainbow_budget_below_one_exits_two(self, tmp_path, capsys):
        inst = tmp_path / "g.txt"
        inst.write_text("4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n")
        assert run("solve", "rainbow", "--in", str(inst), "--budget", "0") == 2
        captured = capsys.readouterr()
        assert "error: budget must be >= 1" in captured.err
        assert "undecided" not in captured.out


class TestPipelineCommand:
    def test_success_exit_zero(self, capsys):
        assert run("pipeline", "--n", "8", "--p", "1.0", "--r", "4",
                   "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "success: True" in out

    def test_failure_exit_one(self):
        assert run("pipeline", "--n", "8", "--p", "0.0", "--r", "4",
                   "--seed", "1") == 1

    def test_tiny_p_fails_at_matching(self, capsys):
        assert main(["pipeline", "--n", "8", "--p", "1e-19", "--seed", "1"]) == 1
        assert "failed_stage: matching" in capsys.readouterr().out.splitlines()

    def test_json_format(self, capsys):
        assert run("pipeline", "--n", "8", "--p", "1.0", "--seed", "2",
                   "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True

    def test_text_lines(self, capsys):
        assert run("pipeline", "--n", "8", "--p", "1.0", "--seed", "1") == 0
        keys = [ln.split(":")[0] for ln in capsys.readouterr().out.splitlines()]
        assert keys == ["n", "p", "r", "seed", "matchings_found",
                        "rainbow_undecided", "success", "failed_stage",
                        "links", "middles"]

    def test_requires_p_or_c(self):
        assert run("pipeline", "--n", "8") == 2

    def test_banner_on_stderr(self, capsys):
        run("pipeline", "--n", "8", "--p", "1.0", "--seed", "1")
        err = capsys.readouterr().err
        assert "looselab" in err and "seed=1" in err


class TestSweepCommand:
    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--trials", "2", "--seed", "5",
                   "--out", str(out)) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 6  # header + |n grid| * |c grid|
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 18

    def test_worker_flag_preserves_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["sweep", "--n", "8", "--c", "2,6", "--trials", "10",
                "--seed", "6", "--format", "csv"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--workers", "2", "--out", str(b)) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_stdout_when_no_out(self, capsys):
        assert run("sweep", "--n", "8", "--c", "4", "--trials", "5",
                   "--seed", "7") == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_json_stdout_when_no_out(self, capsys):
        assert run("sweep", "--n", "8", "--c", "16", "--trials", "3",
                   "--format", "json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["n"], row["trials"]) for row in rows] == [(8, 3)]

    def test_infeasible_combo_exits_two(self, capsys):
        assert run("sweep", "--n", "20", "--c", "2", "--trials", "5") == 2

    def test_negative_seed_names_the_seed(self, capsys, monkeypatch):
        # refused by the spec, before any helper is forked
        def no_helper(*share):
            raise AssertionError("a sweep helper was forked")

        monkeypatch.setattr("looselab.lab._fork_helper", no_helper)
        assert run("sweep", "--n", "8", "--c", "16", "--trials", "2",
                   "--seed", "-1", "--workers", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: seed must be >= 0, got -1\n")


class TestProbeCommand:
    def test_isolated(self, tmp_path):
        out = tmp_path / "iso.json"
        assert run("probe", "isolated", "--n", "8", "--c", "0.5,1",
                   "--trials", "50", "--seed", "1", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "8", "--c", "1", "--trials", "1"],
        ["--n", "16", "--c", "0.01", "--trials", "3"],
    ])
    def test_isolated_infinite_z_is_json_null(self, argv, capsys):
        assert run("probe", "isolated", *argv) == 0
        (row,) = strict_json(capsys.readouterr().out)
        assert row["z_score"] is None

    def test_contiguity(self, tmp_path):
        out = tmp_path / "cont.json"
        assert run("probe", "contiguity", "--m2", "4", "--r", "1",
                   "--trials", "50", "--seed", "1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["union"]["all_regular"] is True

    @pytest.mark.parametrize("experiment", ["isolated", "contiguity"])
    def test_trials_below_one_exits_two(self, experiment, capsys):
        assert run("probe", experiment, "--trials", "0") == 2
        err = capsys.readouterr().err
        assert "error: trials must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ns,bad", [("16,2", 2), ("0", 0), ("-1", -1)])
    def test_isolated_n_below_three_refused_before_any_trial(
            self, ns, bad, monkeypatch, capsys):
        trials = []

        def never(*args, **kwargs):
            trials.append(args)
            raise AssertionError("a trial ran")

        monkeypatch.setattr("looselab.lab._sample_h3_batch", never)
        assert run("probe", "isolated", f"--n={ns}", "--trials", "5") == 2
        assert not trials
        err = capsys.readouterr().err
        assert f"error: need n >= 3, got {bad}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", [["--n="], ["--n=8,16", "--c="]],
                             ids=["n", "c"])
    def test_isolated_empty_grid_refused_before_any_trial(
            self, grid, monkeypatch, capsys):
        # the same refusal and message as sweep's
        trials = []
        monkeypatch.setattr("looselab.lab._sample_h3_batch",
                            lambda *args: trials.append(args))
        assert run("probe", "isolated", *grid, "--trials", "5") == 2
        assert not trials
        err = capsys.readouterr().err
        assert "error: n and c grids must be non-empty" in err
        assert "Traceback" not in err
        assert run("sweep", *grid, "--trials", "5") == 2
        assert "error: n and c grids must be non-empty" in \
            capsys.readouterr().err


class TestAtomicOutput:
    def test_replaces_path_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_output(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_raising_block_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_output(tmp_path / "out.csv") as fh:
                fh.write("partial")
                raise RuntimeError("trial failed")
        assert list(tmp_path.iterdir()) == []

    def test_directory_refused_before_the_block(self, tmp_path):
        ran = False
        with pytest.raises(IsADirectoryError):
            with atomic_output(tmp_path):
                ran = True
        assert not ran
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            with atomic_output(path) as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("path", [None, ""], ids=["none", "empty"])
    def test_empty_path_yields_stdout(self, path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with atomic_output(path) as fh:
            assert fh is sys.stdout
        assert list(tmp_path.iterdir()) == []


# (argv, the looselab.cli name of the experiment it runs)
UNWRITABLE_OUT_RUNS = [
    (["sweep", "--n", "8", "--c", "2", "--trials", "5"], "run_sweep"),
    (["probe", "isolated", "--n", "8", "--trials", "5"], "isolated_experiment"),
    (["probe", "contiguity", "--m2", "4", "--trials", "5"], "contiguity_probe"),
    (["sample", "--model", "h3", "--n", "8", "--c", "2"], "sample_h3"),
]


@pytest.mark.parametrize("argv,experiment", UNWRITABLE_OUT_RUNS,
                         ids=["sweep", "isolated", "contiguity", "sample"])
def test_unwritable_out_refused_before_any_trial(argv, experiment, tmp_path,
                                                 monkeypatch, capsys):
    called = []

    def never(*args, **kwargs):
        called.append(args)
        raise AssertionError(f"{experiment} ran")

    monkeypatch.setattr(f"looselab.cli.{experiment}", never)
    assert run(*argv, "--out", str(tmp_path / "missing" / "x")) == 2
    assert not called
    err = capsys.readouterr().err
    assert "No such file or directory" in err
    # the message names the path given, not the temporary file beside it
    assert str(tmp_path / "missing" / "x") in err
    assert ".tmp" not in err.replace(str(tmp_path), "")


@pytest.mark.parametrize("argv,experiment", UNWRITABLE_OUT_RUNS,
                         ids=["sweep", "isolated", "contiguity", "sample"])
def test_directory_out_refused_before_any_trial(argv, experiment, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.setattr(f"looselab.cli.{experiment}",
                        lambda *a, **k: pytest.fail(f"{experiment} ran"))
    # sweep writes <out>.csv and <out>.json, the others write <out>
    for name in ("x", "x.csv", "x.json"):
        (tmp_path / name).mkdir()
    assert run(*argv, "--out", str(tmp_path / "x")) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["x", "x.csv", "x.json"]


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "h3", "--n", "8"],
    ["pipeline", "--n", "8"],
    ["sweep", "--n", "8", "--trials", "1"],
    ["probe", "isolated", "--n", "8", "--trials", "1"],
], ids=["sample", "pipeline", "sweep", "probe-isolated"])
def test_nan_coefficient_exits_two(argv, capsys):
    for c in ("nan", "inf"):
        assert run(*argv, "--c", c) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err


def test_probe_out_matches_stdout(tmp_path, capsys):
    argv = ["probe", "contiguity", "--m2", "4", "--r", "1", "--trials", "20"]
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cont.json"
    assert run(*argv, "--out", str(out)) == 0
    assert out.read_text() == printed
    assert [p.name for p in tmp_path.iterdir()] == ["cont.json"]


# one argv per leaf command, and sweep again with list values, run in a
# directory holding h.txt, ts.txt, g.txt, loose.txt and rainbow.txt
LEAF_RUNS = {
    "sample-h3": ["sample", "--model", "h3", "--n", "8", "--c", "2"],
    "sample-gamma": ["sample", "--model", "gamma", "--m", "2"],
    "sample-union": ["sample", "--model", "union", "--m2", "4", "--r", "1"],
    "sample-pairing": ["sample", "--model", "pairing", "--m2", "4"],
    "solve-matching": ["solve", "matching", "--in", "ts.txt"],
    "solve-rainbow": ["solve", "rainbow", "--in", "g.txt"],
    "verify-loose": ["verify", "loose", "--instance", "h.txt",
                     "--cert", "loose.txt"],
    "verify-rainbow": ["verify", "rainbow", "--instance", "g.txt",
                       "--cert", "rainbow.txt"],
    "pipeline": ["pipeline", "--n", "8", "--p", "1.0", "--seed", "1"],
    "sweep": ["sweep", "--n", "8", "--c", "16", "--trials", "1",
              "--method", "pipeline", "--r", "2"],
    "sweep-lists": ["sweep", "--n", "8,12", "--c", "2,4", "--trials", "1",
                    "--format", "csv"],
    "probe-isolated": ["probe", "isolated", "--n", "8", "--c", "1",
                       "--trials", "2"],
    "probe-contiguity": ["probe", "contiguity", "--m2", "4", "--r", "1",
                         "--trials", "2"],
}


@pytest.mark.parametrize("argv", LEAF_RUNS.values(), ids=LEAF_RUNS.keys())
def test_banner_names_every_parsed_argument(argv, tmp_path, monkeypatch,
                                            capsys):
    for name, text in [("h.txt", "4 2\n1 2 3\n1 2 4\n"),
                       ("ts.txt", "6 2\n1 2 5\n3 4 6\n"),
                       ("g.txt", "4 1\n1 2 5\n2 3 6\n3 4 7\n1 4 8\n"),
                       ("loose.txt", "1 2\n3 4\n"),
                       ("rainbow.txt", "1 2 3 4\n5 6 7 8\n")]:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 0
    (banner,) = capsys.readouterr().err.splitlines()
    assert banner.startswith("looselab ")
    tokens = banner.split(" | ", 1)[1].split(" ")
    assert all(token.count("=") == 1 for token in tokens)
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    for key, value in parsed.items():
        if isinstance(value, list):  # comma-joined, as the parser reads it
            value = ",".join(map(str, value))
        assert f"{key}={value}" in tokens


def test_sweep_banner_tells_r_apart(capsys):
    banners = []
    for r in ("1", "4"):
        assert run("sweep", "--n", "8", "--c", "16", "--trials", "1",
                   "--method", "pipeline", "--r", r, "--format", "csv") == 0
        banners.append(capsys.readouterr().err)
    assert banners[0] != banners[1]


class TestUsage:
    def test_unknown_command_exits_two(self):
        assert run("frobnicate") == 2

    def test_no_crash_on_malformed_multigraph(self, tmp_path):
        bad = tmp_path / "g.txt"
        bad.write_text("4 1\n1 2 wat\n")
        assert run("solve", "rainbow", "--in", str(bad)) == 2

    def test_readme_command_lines_parse(self):
        # every example in README's "Command line" block must still parse
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        lines = [ln for ln in block.splitlines()
                 if ln.strip().startswith("looselab ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert callable(args.func), line
