import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylmds
from weylmds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_stable_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "stable", "--rank", "2",
                       "--l", "0,0", "--n", "3", "--p", "7")
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 8 and report["mismatches"] == []


def test_hcoeff_rank1_table(capsys):
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "1",
                       "--n", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["l"] == [1] and obj["n"] == 1
    entries = {tuple(e["k"]): e["value"] for e in obj["entries"]}
    assert entries[(0,)] == [{"c": "1", "q": 0, "g": []}]
    assert entries[(1,)] == [{"c": "-1", "q": 0, "g": []},
                             {"c": "1", "q": 1, "g": []}]
    assert entries[(2,)] == [{"c": "-1", "q": 1, "g": []}]


def test_patterns_count_only(capsys):
    code, out, _ = run(capsys, "patterns", "--rank", "2", "--l", "0,0",
                       "--count-only")
    assert code == 0 and out.strip() == "16"


def test_patterns_json_roundtrip(capsys):
    from weylmds.patterns import GTPattern
    code, out, _ = run(capsys, "patterns", "--rank", "1", "--l", "0")
    assert code == 0
    pats = [GTPattern.from_json(obj) for obj in json.loads(out)]
    assert len(pats) == 2


def test_output_determinism(capsys):
    args = ("hcoeff", "--rank", "2", "--l", "0,0", "--n", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_numeric_column(capsys):
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                       "--n", "1", "--p", "5", "--numeric")
    assert code == 0
    obj = json.loads(out)
    by_k = {tuple(e["k"]): e["numeric"] for e in obj["entries"]}
    assert by_k[(0,)] == [1.0, 0.0]
    assert by_k[(1,)] == [-1.0, 0.0]


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "hcoeff", "--rank", "1", "--l", "0", "--n", "1",
               "--numeric")[0] == 2  # --numeric without --p
    assert run(capsys, "hcoeff", "--rank", "2", "--l", "0",
               "--n", "1")[0] == 2   # wrong l arity
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "hcoeff", "--rank", "1", "--l", "0", "--n", "3",
               "--p", "5", "--numeric")[0] == 2  # 5 != 1 mod 3


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "hamel-king", "--rank", "2",
               "--l", "0,0")[0] == 0
    assert run(capsys, "verify", "lemma3", "--rank", "2", "--l", "1,0")[0] == 0
    assert run(capsys, "verify", "lemma4", "--rank", "2", "--l", "0,1")[0] == 0
    assert run(capsys, "verify", "gauss", "--n", "3", "--p", "7")[0] == 0
    assert run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")[0] == 0


def test_character_output(capsys):
    code, out, _ = run(capsys, "character", "--rank", "1", "--l", "1")
    assert code == 0
    terms = json.loads(out)
    exps = sorted(tuple(t["exp"]) for t in terms)
    assert exps == [(-1, 0, 0), (1, 0, 0)]


def test_tableaux_text(capsys):
    code, out, _ = run(capsys, "tableaux", "--rank", "1", "--l", "0",
                       "--format", "text")
    assert code == 0
    assert "1_" in out and "1" in out


def test_euler_command(capsys):
    code, out, _ = run(capsys, "euler", "--rank", "1", "--m", "1",
                       "--bound", "10")
    assert code == 0
    rows = {tuple(r["c"]): int(r["value"]) for r in json.loads(out)}
    assert rows[(1,)] == 1 and rows[(2,)] == -1


def test_csv_format(capsys):
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "1",
                       "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("0,")


def test_empty_table_serialization():
    from weylmds.coeffs import HTable
    from weylmds.patterns import LambdaTwist
    table = HTable(LambdaTwist((0,)), 1, ())
    assert table.to_json()["entries"] == []


def test_format_values_a_command_does_not_render_exit_two(capsys):
    assert run(capsys, "verify", "gauss", "--n", "3", "--p", "7",
               "--format", "csv")[0] == 2
    assert run(capsys, "character", "--rank", "1", "--l", "1",
               "--format", "text")[0] == 2


def test_closed_stdout_ends_quietly():
    src = str(Path(weylmds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylmds.cli", "patterns", "--rank", "3",
         "--l", "1,1,1", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()  # like `| head -1`
    proc.wait(timeout=120)
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.returncode != 1
