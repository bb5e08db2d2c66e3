import json
import shlex
from pathlib import Path

import pytest

from looselab.cli import build_parser, main
from looselab.lab import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main(list(argv))


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
        assert g.colors == () and all(d == 3 for d in g.degrees.values())

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

    def test_json_format(self, capsys):
        assert run("pipeline", "--n", "8", "--p", "1.0", "--seed", "2",
                   "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True

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

    def test_infeasible_combo_exits_two(self, capsys):
        assert run("sweep", "--n", "20", "--c", "2", "--trials", "5") == 2


class TestProbeCommand:
    def test_isolated(self, tmp_path):
        out = tmp_path / "iso.json"
        assert run("probe", "isolated", "--n", "8", "--c", "0.5,1",
                   "--trials", "50", "--seed", "1", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2

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


# (argv, the looselab.cli name of the experiment it runs)
UNWRITABLE_OUT_RUNS = [
    (["sweep", "--n", "8", "--c", "2", "--trials", "5"], "run_sweep"),
    (["probe", "isolated", "--n", "8", "--trials", "5"], "isolated_experiment"),
    (["probe", "contiguity", "--m2", "4", "--trials", "5"], "contiguity_probe"),
]


@pytest.mark.parametrize("argv,experiment", UNWRITABLE_OUT_RUNS,
                         ids=["sweep", "isolated", "contiguity"])
def test_unwritable_out_refused_before_any_trial(argv, experiment, tmp_path,
                                                 monkeypatch, capsys):
    called = []

    def never(*args, **kwargs):
        called.append(args)
        raise AssertionError(f"{experiment} ran")

    monkeypatch.setattr(f"looselab.cli.{experiment}", never)
    assert run(*argv, "--out", str(tmp_path / "missing" / "x")) == 2
    assert not called
    assert "No such file or directory" in capsys.readouterr().err


def test_probe_out_matches_stdout(tmp_path, capsys):
    argv = ["probe", "contiguity", "--m2", "4", "--r", "1", "--trials", "20"]
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cont.json"
    assert run(*argv, "--out", str(out)) == 0
    assert out.read_text() == printed
    assert [p.name for p in tmp_path.iterdir()] == ["cont.json"]


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
