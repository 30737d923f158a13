import hashlib
import json
import os
import subprocess
import sys
import time
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


def test_patterns_strict_count_and_csv_match_enumeration(capsys):
    from weylmds.patterns import LambdaTwist, enumerate_patterns, is_strict
    pats = list(enumerate_patterns(LambdaTwist((1, 0, 1)).top_row))
    strict = sum(1 for P in pats if is_strict(P))
    assert 0 < strict < len(pats)
    args = ("patterns", "--rank", "3", "--l", "1,0,1", "--strict-only")
    code, out, _ = run(capsys, *args, "--count-only")
    assert code == 0 and out == f"{strict}\n"
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == strict


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


# stdout sha256 of commands that no benchmark workload runs
PINNED_STDOUT = {
    ("tableaux", "--rank", "3", "--l", "1,0,0", "--format", "json"):
        "a666beca595d44ea8702739c36eb7b02419436401ba04157c4d88f01152fb09b",
    ("tableaux", "--rank", "3", "--l", "1,0,0", "--format", "text"):
        "30f74c3185bd24d5ed7dff639f3143dcb4f09323cf298b9ab764f7ea911fc8d5",
    ("patterns", "--rank", "3", "--l", "1,0,0", "--format", "json"):
        "b5fc9fdfa49b15a72dbcf9d41f53830d0dd7cd4c0e803f807e8b8250aa1f47fb",
    ("patterns", "--rank", "3", "--l", "1,0,0", "--format", "json",
     "--strict-only"):
        "15ff7f3852bc647176bbd8123f00217db01a78a53fde6477ad5c0c6ec0fea615",
    ("character", "--rank", "3", "--l", "1,1,0", "--format", "json"):
        "ed3a89ef13cc2a0d6cf3fc31cb43358128cb912b257476255751b3b7cddaec84",
    ("character", "--rank", "3", "--l", "1,1,0", "--format", "csv"):
        "5cc8199980f507868e37b4d51c5d6f65cf2bfb6205bf00293dee42f8d91ffe9b",
}


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=" ".join)
def test_pinned_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


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


def test_verify_targets_refuse_flags_they_do_not_read(capsys):
    assert run(capsys, "verify", "gauss", "--rank", "3",
               "--l", "1,1,1")[0] == 2
    assert run(capsys, "verify", "cs", "--n", "9", "--p", "19")[0] == 2
    assert run(capsys, "verify", "lemma3", "--n", "3")[0] == 2


def test_hcoeff_p_without_numeric_exit_two(capsys):
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                         "--n", "1", "--p", "5")
    assert code == 2 and out == "" and "--numeric" in err


def test_hcoeff_numeric_csv_refused_before_any_work(capsys, monkeypatch):
    # csv has no numeric column, so the sums would be computed and dropped
    from weylmds import coeffs, gauss
    calls = []
    monkeypatch.setattr(coeffs, "h_table", lambda *args: calls.append(args))
    monkeypatch.setattr(gauss, "ArithContext",
                        lambda *args: calls.append(args))
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                         "--n", "1", "--p", "5", "--numeric",
                         "--format", "csv")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# each needs more than 10^9 brute-force terms: len(entries) (n - 1) p for
# hcoeff, up to 2 |W| (n - 1) p for verify stable
@pytest.mark.parametrize("argv", [
    ("hcoeff", "--rank", "1", "--l", "0", "--n", "100002", "--p", "100003",
     "--numeric"),
    ("verify", "stable", "--rank", "1", "--l", "0", "--n", "100001",
     "--p", "200003"),
    ("verify", "stable", "--rank", "4", "--l", "0,0,0,0", "--n", "7",
     "--p", "9999991"),
], ids=" ".join)
def test_numeric_work_above_the_term_limit_refused_before_any_sum(
        capsys, monkeypatch, argv):
    from weylmds import gauss

    def no_sum(*args):
        pytest.fail("a brute-force sum ran")

    monkeypatch.setattr(gauss, "gauss_brute", no_sum)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: numeric evaluation needs ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("numeric", [False, True])
def test_hcoeff_json_streams_the_dump_of_the_table(capsys, monkeypatch,
                                                   numeric):
    # 4,202 entries, so the entry list crosses the 4096-entry chunk boundary
    from weylmds import cli, gauss
    from weylmds.coeffs import h_table
    from weylmds.patterns import LambdaTwist
    table = h_table(LambdaTwist((4200,)), 3)
    assert len(table.entries) == 4202
    obj = table.to_json()
    argv = ["hcoeff", "--rank", "1", "--l", "4200", "--n", "3"]
    if numeric:
        # p^e overflows a float at these exponents, so a stand-in value
        # shows that each entry gets the value of its own GaussValue, and
        # the overflow refusal is stood down
        def fake(val, ctx):
            return complex(len(val.terms), sum(e for _, e, _ in val.terms))

        monkeypatch.setattr(gauss, "numeric_eval", fake)
        monkeypatch.setattr(gauss, "check_numeric_terms", lambda *args: None)
        for entry, (_, val) in zip(obj["entries"], table.entries):
            z = fake(val, None)
            entry["numeric"] = [z.real, z.imag]
        argv += ["--p", "7", "--numeric"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli._dump(obj) + "\n"


def test_hcoeff_numeric_failure_in_the_first_chunk_writes_nothing(capsys):
    # 7^e overflows a float at the q exponents of the first 4096 entries
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "400",
                         "--n", "1", "--p", "7", "--numeric")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_numeric_float_overflow_refused_before_the_first_byte(capsys,
                                                            monkeypatch):
    # at rank 1 and n = 1 the largest q exponent of the table is l: 7^364
    # and 2^1023 are floats, 7^365 and 2^1024 are not
    from weylmds import gauss
    for l, p in (("364", "7"), ("1023", "2")):
        code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", l,
                             "--n", "1", "--p", p, "--numeric")
        assert (code, err) == (0, "")
        assert max(e["k"][0] for e in json.loads(out)["entries"]) == int(l) + 1

    def never(*args):
        raise AssertionError("numeric_eval called")

    monkeypatch.setattr(gauss, "numeric_eval", never)
    for l, p in (("365", "7"), ("400", "7"), ("1024", "2")):
        code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", l,
                             "--n", "1", "--p", p, "--numeric")
        assert (code, out) == (2, "")
        assert err == f"error: p^e = {p}^{l} overflows float\n"


def test_verify_stable_float_overflow_refused_before_any_sum(capsys,
                                                            monkeypatch):
    # at rank 1 the compared values of the longest w are -q^l or q^l G[s],
    # so the largest q exponent is l: 271^126 (and 271^126.5) are floats,
    # 271^127 and 1609^200 are not
    from weylmds import stable
    code, out, err = run(capsys, "verify", "stable", "--rank", "1",
                         "--l", "126", "--n", "135", "--p", "271")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"checked": 2, "mismatches": []}

    def never(*args):
        raise AssertionError("numeric_eval called")

    monkeypatch.setattr(stable, "numeric_eval", never)
    for l, n, p in (("127", "135", "271"), ("200", "201", "1609")):
        code, out, err = run(capsys, "verify", "stable", "--rank", "1",
                             "--l", l, "--n", n, "--p", p)
        assert (code, out) == (2, "")
        assert err == f"error: p^e = {p}^{l} overflows float\n"


def test_zero_degree_is_not_absent(capsys):
    assert run(capsys, "verify", "gauss", "--n", "0")[0] == 2
    assert run(capsys, "verify", "gauss", "--n", "0", "--p", "7")[0] == 2


def test_verify_gauss_refuses_large_modulus_before_summing(capsys,
                                                          monkeypatch):
    # the grid reaches v = 4, and 3001^4 > 10^7
    from weylmds import gauss
    calls = []
    monkeypatch.setattr(gauss, "gauss_brute",
                        lambda *args: calls.append(args))
    code, out, err = run(capsys, "verify", "gauss", "--n", "3",
                         "--p", "3001")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: modulus too large for brute-force summation\n"


def test_zero_prime_is_not_absent(capsys):
    code, out, _ = run(capsys, "verify", "stable", "--rank", "1",
                       "--l", "0", "--n", "3", "--p", "0")
    assert code == 2 and out == ""


def test_prime_above_limit_exit_two(capsys):
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                         "--n", "1", "--p", "10000019", "--numeric")
    assert code == 2 and out == "" and "10^7" in err


def test_oversized_enumeration_refused_up_front(capsys):
    # rank 5, l = 0: 2^25 patterns, above the 10^7 limit
    for argv in (("patterns", "--count-only"), ("hcoeff", "--n", "3"),
                 ("tableaux",), ("verify", "lemma3")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--rank", "5",
                             "--l", "0,0,0,0,0")
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == "error: top row 5,4,3,2,1 has 33554432 patterns, " \
                      "more than 10^7\n"
    # the character of lambda = 0 has one pattern and is not refused
    assert run(capsys, "character", "--rank", "5", "--l", "0,0,0,0,0")[0] == 0
    # the prediction is the count itself (criterion 7 checks ranks 1-3)
    from weylmds.chars import weyl_dimension
    code, out, _ = run(capsys, "patterns", "--rank", "4", "--l", "0,0,0,0",
                       "--count-only")
    assert code == 0 and out == "65536\n"
    assert weyl_dimension((4, 3, 2, 1), 4) == 65536


def test_character_and_euler_refuse_oversized_walks_up_front(capsys):
    # the partition 15,12,9,6,3 of character, and the block l = (20,20,20)
    # that euler builds at p = 2
    for argv, top, count in (
            (("character", "--rank", "5", "--l", "3,3,3,3,3"),
             "15,12,9,6,3", 1125899906842624),
            (("euler", "--rank", "3", "--m", "1048576,1048576,1048576",
              "--bound", "2"), "63,42,21", 1207269217792)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == f"error: top row {top} has {count} patterns, " \
                      "more than 10^7\n"


def test_numeric_column_at_p_two(capsys):
    from weylmds.gauss import ArithContext
    assert ArithContext(1, 2).root == 1
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                       "--n", "1", "--p", "2", "--numeric")
    assert code == 0
    by_k = {tuple(e["k"]): e["numeric"] for e in json.loads(out)["entries"]}
    assert by_k == {(0,): [1.0, 0.0], (1,): [-1.0, 0.0]}


def test_internal_check_failure_exit_two(capsys, monkeypatch):
    # a failed internal assertion is neither a pass (0) nor a verification
    # failure (1)
    import weylmds.cli as cli

    def broken(args):
        raise AssertionError("negative support vector (-1,)")

    monkeypatch.setattr(cli, "cmd_hcoeff", broken)
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                         "--n", "1")
    assert code == 2 and out == ""
    assert err == "error: internal check failed: " \
                  "negative support vector (-1,)\n"


def test_euler_output_size_refused_up_front(capsys):
    # bound ** rank = 1001^2 entries, above the 10^6 limit
    start = time.perf_counter()
    code, out, err = run(capsys, "euler", "--rank", "2", "--m", "1,1",
                         "--bound", "1001")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1
    # the same limit at rank 1
    assert run(capsys, "euler", "--rank", "1", "--m", "1",
               "--bound", str(10 ** 6 + 1))[0] == 2


def _readme_cli_lines():
    """The `weylmds ...` lines of the README's CLI block, each split into
    its argv and its trailing comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv and argv[0] == "weylmds":
            out.append((argv[1:], comment.strip()))
    return out


def test_readme_cli_block_runs(capsys):
    lines = _readme_cli_lines()
    # every command and every verify target appears
    assert {tuple(argv[:2]) if argv[0] == "verify" else argv[0]
            for argv, _ in lines} == {
        "patterns", "tableaux", "hcoeff", "character", "euler",
        *(("verify", t) for t in ("stable", "hamel-king", "cs", "lemma3",
                                  "lemma4", "gauss"))}
    for argv, comment in lines:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", (argv, err)
        if comment.isdigit():  # a stated count, such as `# 16`
            assert out == comment + "\n", argv
    assert any(comment.isdigit() for _, comment in lines)


@pytest.mark.parametrize("n", [0, 1, 2, 4096, 4097, 9000])
def test_emit_list_writes_the_dump_of_the_list(capsys, n):
    from weylmds.cli import _dump, _emit_list
    items = [{"c": [i, 2 * i], "value": str(3 - 7 * i)} for i in range(n)]
    _emit_list(iter(items))
    assert capsys.readouterr().out == _dump(items) + "\n"
    # one level deeper, as the value of the last key of an object
    _emit_list(iter(items), '{\n "x": ', indent=" ", end="\n}")
    assert capsys.readouterr().out == _dump({"x": items}) + "\n"
