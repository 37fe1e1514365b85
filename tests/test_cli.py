import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutpoly
from cutpoly import cli, format_graph, parse_graph
from cutpoly.cli import main
from helpers import complete, cycle, double_k5, k33, path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k5_file(tmp_path):
    f = tmp_path / "k5.cut"
    f.write_text(format_graph(complete(5)))
    return str(f)


def test_maxcut_command(k5_file, capsys):
    code, out, _ = run_cli(["maxcut", k5_file], capsys)
    assert code == 0 and out == "value 6\n"


def test_maxcut_witness_and_brute(k5_file, capsys):
    code, out, _ = run_cli(["maxcut", k5_file, "--witness"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 6" and lines[1].startswith("side ")
    side = [int(x) for x in lines[1].split()[1:]]
    assert all(1 <= v <= 5 for v in side)
    code, out2, _ = run_cli(["maxcut", k5_file, "--brute"], capsys)
    assert code == 0 and out2.splitlines()[0] == "value 6"


def test_decompose_output_format(tmp_path, capsys):
    f = tmp_path / "g.cut"
    f.write_text(format_graph(double_k5()))
    code, out, _ = run_cli(["decompose", str(f)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("node ")) == 2
    assert all("kind=R" in l for l in lines if l.startswith("node "))
    assert sum(1 for l in lines if l.startswith("tree ")) == 1
    assert "via" in [l for l in lines if l.startswith("tree ")][0]


def test_facets_header_and_rows(k5_file, capsys):
    code, out, _ = run_cli(["facets", k5_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim 10 count 56"
    assert len(lines) == 57
    for row in lines[1:]:
        lhs, rhs = row.split("<=")
        assert len(lhs.split()) == 10
        int(rhs)


def test_classify_command(tmp_path, capsys):
    f = tmp_path / "c4.cut"
    f.write_text(format_graph(cycle(4)))
    code, out, _ = run_cli(["classify", str(f)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "simple no"
    assert lines[2] == "simplicial yes"
    assert lines[1].startswith("reason ") and lines[3].startswith("reason ")


def test_verify_ok_and_facet_file_round_trip(k5_file, tmp_path, capsys):
    code, out, _ = run_cli(["verify", k5_file], capsys)
    assert code == 0
    assert "maxcut ok value 6" in out
    assert "facets ok count 56" in out
    facet_file = tmp_path / "facets.txt"
    code, out, _ = run_cli(["facets", k5_file, "--out", str(facet_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", k5_file, "--facets", str(facet_file)],
                           capsys)
    assert code == 0 and "facets ok" in out


def test_verify_c4_reports_16_facets(tmp_path, capsys):
    f = tmp_path / "c4.cut"
    f.write_text(format_graph(cycle(4)))
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 0
    assert "facets ok count 16" in out
    assert "maxcut ok value 4" in out


def test_verify_corrupted_facet_file(k5_file, tmp_path, capsys):
    facet_file = tmp_path / "facets.txt"
    run_cli(["facets", k5_file, "--out", str(facet_file)], capsys)
    text = facet_file.read_text().replace("<= 6", "<= 5", 1)
    facet_file.write_text(text)
    code, out, _ = run_cli(["verify", k5_file, "--facets", str(facet_file)],
                           capsys)
    assert code == 1 and "MISMATCH" in out


def test_exit_code_unsupported(tmp_path, capsys):
    f = tmp_path / "k33.cut"
    f.write_text(format_graph(k33()))
    code, _, err = run_cli(["maxcut", str(f)], capsys)
    assert code == 3 and "unsupported" in err
    f2 = tmp_path / "path.cut"
    f2.write_text(format_graph(path(4)))
    code, _, err = run_cli(["decompose", str(f2)], capsys)
    assert code == 3


def test_verify_k33_runs_every_stage(tmp_path, capsys):
    f = tmp_path / "k33.cut"
    f.write_text(format_graph(k33()))
    code, out, _ = run_cli(["verify", str(f)], capsys)
    lines = out.splitlines()
    assert code == 0 and "MISMATCH" not in out
    assert lines[0] == "maxcut skipped (K33 minor)"
    assert sum(l.startswith("facets ok") for l in lines) == 1
    assert sum(l.startswith("classify ok") for l in lines) == 1


def test_internal_error_exit_code(k5_file, monkeypatch, capsys):
    def broken(_g):
        raise AssertionError("witness does not match value")

    monkeypatch.setattr(cli, "solve_maxcut", broken)
    code, out, err = run_cli(["maxcut", k5_file], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error: AssertionError")


def test_verify_unsupported_class(tmp_path, capsys):
    f = tmp_path / "k6.cut"
    f.write_text(format_graph(complete(6)))
    code, _, err = run_cli(["verify", str(f)], capsys)
    assert code == 3 and "unsupported" in err


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cut"
    bad.write_text("e 1 1 2\n")
    code, _, err = run_cli(["maxcut", str(bad)], capsys)
    assert code == 2 and "input error" in err
    code, _, err = run_cli(["maxcut", str(tmp_path / "missing.cut")], capsys)
    assert code == 2


def test_gen_deterministic_and_round_trip(capsys):
    code, out1, _ = run_cli(["gen", "--seed", "42"], capsys)
    code2, out2, _ = run_cli(["gen", "--seed", "42"], capsys)
    assert code == code2 == 0 and out1 == out2
    g = parse_graph(out1)
    assert g.node_count > 0
    code, out3, _ = run_cli(["gen", "--seed", "43"], capsys)
    assert out3 != out1


def test_gen_options_and_verify_round_trip(tmp_path, capsys):
    f = tmp_path / "gen.cut"
    code, _, _ = run_cli(["gen", "--seed", "7", "--components", "2",
                          "--non-strict", "--delete-prob", "1/8",
                          "--weights=-5:5", "--out", str(f)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", str(f)], capsys)
    assert code == 0, out


def test_console_script_installed():
    # the child finds the same cutpoly as this process, installed or not
    src = str(Path(cutpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cutpoly.cli", "--help"],
                          capture_output=True, text=True, env=env)
    # argparse prints usage and exits 0 for --help
    assert proc.returncode == 0 and "maxcut" in proc.stdout
