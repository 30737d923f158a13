import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    from weylmds.patterns import enumerate_patterns, is_strict
    from weylmds.roots import LambdaTwist
    pats = list(enumerate_patterns(LambdaTwist((1, 0, 1)).top_row))
    strict = sum(1 for P in pats if is_strict(P))
    assert 0 < strict < len(pats)
    args = ("patterns", "--rank", "3", "--l", "1,0,1", "--strict-only")
    code, out, _ = run(capsys, *args, "--count-only")
    assert code == 0 and out == f"{strict}\n"
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == strict


def test_patterns_json_roundtrip(capsys):
    from test_patterns import pattern_from_json
    code, out, _ = run(capsys, "patterns", "--rank", "1", "--l", "0")
    assert code == 0
    pats = [pattern_from_json(obj) for obj in json.loads(out)]
    assert len(pats) == 2


def test_output_determinism(capsys):
    args = ("hcoeff", "--rank", "2", "--l", "0,0", "--n", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_numeric_column(capsys):
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                       "--n", "1", "--p", "5")
    assert code == 0
    obj = json.loads(out)
    by_k = {tuple(e["k"]): e["numeric"] for e in obj["entries"]}
    assert by_k[(0,)] == [1.0, 0.0]
    assert by_k[(1,)] == [-1.0, 0.0]


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "hcoeff", "--rank", "1", "--l", "0", "--n", "1",
               "--numeric")[0] == 2  # unknown flag
    assert run(capsys, "hcoeff", "--rank", "2", "--l", "0",
               "--n", "1")[0] == 2   # wrong l arity
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "hcoeff", "--rank", "1", "--l", "0", "--n", "3",
               "--p", "5")[0] == 2  # 5 != 1 mod 3


@pytest.mark.parametrize("value", ["x", "1.5", "1_0", "", "1,,0", "0,0"])
@pytest.mark.parametrize("argv", [
    ["patterns", "--rank", "1", "--count-only", "--l"],
    ["hcoeff", "--rank", "1", "--n", "1", "--l"],
    ["euler", "--rank", "1", "--bound", "3", "--m"]])
def test_integer_lists_name_their_flag(capsys, argv, value):
    # int() would read "1_0" as 10; every other value made int() raise a
    # message that named no flag; "0,0" has two entries at rank 1
    flag = argv[-1]
    want = (f"{flag} must have 1 entries" if value == "0,0"
            else f"{flag} {value!r} is not comma-separated integers")
    assert run(capsys, *argv, value) == (2, "", f"error: {want}\n")


@pytest.mark.parametrize("rank", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["hcoeff", "--l", "0", "--n", "1", "--rank"],
    ["euler", "--m", "1", "--bound", "5", "--rank"]])
def test_nonpositive_rank_names_the_rank_flag(capsys, argv, rank):
    # the entry count of --l or --m was checked first, and named that flag
    assert run(capsys, *argv, rank) == (
        2, "", "error: --rank must be positive\n")


# nonpositive values that parse as integers, refused by the function that
# reads them: the degree by h_table, the entries of --m by euler_product_n1
@pytest.mark.parametrize("argv, text", [
    (("hcoeff", "--rank", "1", "--l", "0", "--n", "0"),
     "degree must be positive"),
    (("euler", "--rank", "2", "--m", "0,1", "--bound", "5"),
     "m entries must be positive integers"),
], ids=["hcoeff-degree", "euler-m"])
def test_nonpositive_values_refused_where_they_are_read(capsys, argv, text):
    assert run(capsys, *argv) == (2, "", f"error: {text}\n")


# the command grammar: each command path with the flags it reads, and for
# each flag values that fit a command of rank r <= 3 with twist entries 0
# or 1 (so that every call stays near a second), or values that are empty,
# negative, zero or garbage
_READS = {
    "patterns": "--rank --l --format --count-only --strict-only",
    "tableaux": "--rank --l --format",
    "hcoeff": "--rank --l --format --n --p",
    "character": "--rank --l --format",
    "euler": "--rank --m --bound --format",
    "verify stable": "--rank --l --n --p",
    "verify gauss": "--n --p",
    **dict.fromkeys(("verify hamel-king", "verify lemma3", "verify lemma4",
                     "verify cs"), "--rank --l"),
}
_FLAGS = sorted({flag for flags in _READS.values() for flag in flags.split()})
_SWITCHES = ("--count-only", "--strict-only")
_BAD = st.sampled_from(["", "x", "-1", "0", "1.5", "1,,0", "-2,1"])


def _fitting(flag, r):
    """Values of `flag` for a command of rank r: every --rank, --l and --m
    fits, while a --p may not be prime or 1 mod n."""
    def entries(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=r, max_size=r).map(
            lambda xs: ",".join(map(str, xs)))

    return {"--rank": st.just(str(r)), "--l": entries(0, 1),
            "--m": entries(1, 3),
            "--n": st.sampled_from(["1", "2", "3", "5", "7"]),
            "--p": st.sampled_from(["2", "5", "7", "8", "11", "29"]),
            "--bound": st.sampled_from(["1", "3", "10"]),
            "--format": st.sampled_from(["json", "csv", "text", "xml"])}[flag]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_never_raises(data):
    command = data.draw(st.sampled_from(sorted(_READS)), label="command")
    r = data.draw(st.integers(1, 3), label="rank")
    flags = _READS[command].split()
    if data.draw(st.integers(0, 4), label="foreign flag") == 4:
        flags.append(data.draw(st.sampled_from(_FLAGS)))
    argv = command.split()
    for flag in flags:
        # 0-2: a fitting value (a switch is given), 3: a bad one, 4: left out
        kind = data.draw(st.integers(0, 4), label=flag)
        if flag in _SWITCHES:
            argv += [flag] if kind < 2 else []
        elif kind < 4:
            argv += [flag, data.draw(_fitting(flag, r) if kind < 3 else _BAD)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    err = err.getvalue()
    if err and not err.startswith("usage:"):
        assert code == 2 and err.startswith("error: "), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "hamel-king", "--rank", "2",
               "--l", "0,0")[0] == 0
    assert run(capsys, "verify", "lemma3", "--rank", "2", "--l", "1,0")[0] == 0
    assert run(capsys, "verify", "lemma4", "--rank", "2", "--l", "0,1")[0] == 0
    assert run(capsys, "verify", "gauss", "--n", "3", "--p", "7")[0] == 0
    assert run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")[0] == 0



def test_lemma4_reports_a_tableau_that_breaks_a_fill_rule(monkeypatch):
    # a mutant fill: the first two different letters of a row trade places.
    # verify lemma4 reads the lemma off the row pairs and fills no tableau;
    # the per-pattern oracle fills, validates and reads back each one
    import test_tableaux
    from weylmds import tableaux
    from weylmds.patterns import enumerate_patterns
    fill = tableaux.tableau_from_pattern

    def swapped(P):
        rows = list(fill(P).rows)
        for R, row in enumerate(rows):
            j = next((j for j in range(len(row) - 1) if row[j] != row[j + 1]),
                     None)
            if j is not None:
                rows[R] = row[:j] + (row[j + 1], row[j]) + row[j + 2:]
                break
        return tableaux.ShiftedTableau(P.rank, tuple(rows))

    monkeypatch.setattr(test_tableaux, "tableau_from_pattern", swapped)
    strict = list(enumerate_patterns((2, 1), strict=True))
    broken = [P for P in strict if swapped(P) != fill(P)]
    assert (len(broken), len(strict)) == (9, 14)
    assert [P for P in strict
            if not test_tableaux.verify_tableau_stats_long(P)] == broken


def test_lemma4_reports_the_classes_of_a_miscounted_pair(capsys,
                                                         monkeypatch):
    # a mutant entry count: a degenerate entry is left out of its pair's
    # maximal count, so #maximal - height - (r - i + 1) is -1 on each row
    # triple below an a-row that ends in 0; the report lists those triples,
    # each once, and the others pass
    from weylmds import tableaux
    from weylmds.patterns import enumerate_patterns, is_degenerate
    classes = tableaux.pair_classes

    def degenerate_not_maximal(r, i, above, b, below):
        maximal, generic = classes(r, i, above, b, below)
        return maximal - is_degenerate(above), generic

    monkeypatch.setattr(tableaux, "pair_classes", degenerate_not_maximal)
    code, out, err = run(capsys, "verify", "lemma4", "--rank", "3",
                         "--l", "0,0,0")
    assert (code, err) == (1, "")
    degenerate = {(i, rows)
                  for P in enumerate_patterns((3, 2, 1), strict=True)
                  for i, rows in enumerate(P.row_pairs(), 1)
                  if is_degenerate(rows[0])}
    assert len(degenerate) == 17
    assert json.loads(out) == {"ok": False, "failures": [
        {"pair": i, "rows": [list(row) for row in rows],
         "residuals": [0, -1, 0]} for i, rows in sorted(degenerate)]}


def _moved_between_pairs(monkeypatch, slot):
    """Patch pair_tableau_stats, where both commands read it, so that one
    unit of its statistic in `slot` moves from row pair 2 to row pair 1:
    every pattern's sum of it stays the same."""
    from weylmds import chars, tableaux
    stats = tableaux.pair_tableau_stats

    def moved(r, i, *rows):
        out = list(stats(r, i, *rows))
        out[slot] += (i == 1) - (i == 2)
        return tuple(out)

    monkeypatch.setattr(tableaux, "pair_tableau_stats", moved)
    monkeypatch.setattr(chars, "pair_tableau_stats", moved)


def test_lemma4_fails_on_a_height_moved_between_pairs(capsys, monkeypatch):
    # each pattern's height sum holds, but pair 1's #maximal - height is
    # one low and pair 2's one high
    _moved_between_pairs(monkeypatch, 3)
    code, out, err = run(capsys, "verify", "lemma4", "--rank", "3",
                         "--l", "1,0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert {(f["pair"], tuple(f["residuals"]))
            for f in report["failures"]} == {(1, (0, -1, 0)), (2, (0, 1, 0))}


def test_hamel_king_fails_on_a_barred_count_moved_between_pairs(
        capsys, monkeypatch):
    # each pattern's barred sum holds, and the tableau side reads no barred
    # count, so only the bridge on each pair sees the move
    _moved_between_pairs(monkeypatch, 2)
    code, out, err = run(capsys, "verify", "hamel-king", "--rank", "3",
                         "--l", "1,0,0")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "residual": []}


def _lemma3_failures(capsys, shift):
    """The failures of verify lemma3 at rank 3, l = (1,0,0), checked to be
    every class, each off by `shift` in sum(k), over all 2,240 patterns."""
    code, out, err = run(capsys, "verify", "lemma3", "--rank", "3",
                         "--l", "1,0,0")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["ok"] is False
    bad = report["failures"]
    assert all(set(f) == {"k", "exponent_sum", "patterns"} for f in bad)
    assert all(sum(f["k"]) == f["exponent_sum"] + shift for f in bad)
    assert sum(f["patterns"] for f in bad) == 2240


def test_lemma3_fails_on_a_support_vector_off_by_one(capsys, monkeypatch):
    # a mutant change of basis in the fold: k_r one too large
    from weylmds import roots
    tails = roots.support_from_tails
    monkeypatch.setattr(roots, "support_from_tails",
                        lambda c: (*tails(c)[:-1], tails(c)[-1] + 1))
    _lemma3_failures(capsys, 1)


def test_lemma3_fails_on_an_entry_exponent_off_by_one(capsys, monkeypatch):
    # a mutant v_{1,1}, one too large, in every pattern
    from weylmds import coeffs
    entries = coeffs.pair_entries

    def shifted(r, i, *rows):
        for e in entries(r, i, *rows):
            yield e._replace(exp=e.exp + 1) if e.pos == ("b", 1, 1) else e

    monkeypatch.setattr(coeffs, "pair_entries", shifted)
    _lemma3_failures(capsys, -1)


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
    ("tableaux", "--rank", "3", "--l", "2,1,0", "--format", "text"):
        "cf956033f993bbfebb3ee3f7279e26281597d4cd2dae302d5ae1833b3ae86285",
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


def test_euler_csv_rows_are_the_json_entries(capsys):
    argv = ("euler", "--rank", "2", "--m", "2,3", "--bound", "4")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    entries = [(*e["c"], int(e["value"])) for e in json.loads(out)]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()]
    assert rows == entries
    assert rows[:3] == [(1, 1, 1), (1, 2, -1), (1, 3, 2)]


def test_csv_format(capsys):
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "1",
                       "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("0,")


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


def test_hcoeff_p_adds_the_numeric_column(capsys):
    # --p alone turns on numeric evaluation: the exact table, with each
    # entry's value at p appended in order
    twist = ("hcoeff", "--rank", "2", "--l", "1,0", "--n", "3")
    code, out, err = run(capsys, *twist)
    assert (code, err) == (0, "")
    exact = json.loads(out)
    code, out, err = run(capsys, *twist, "--p", "7")
    assert (code, err) == (0, "")
    numeric = json.loads(out)
    assert [list(e) for e in numeric["entries"]] == \
        [list(e) + ["numeric"] for e in exact["entries"]]
    for e in numeric["entries"]:
        assert len(e.pop("numeric")) == 2
    assert numeric == exact
    code, out, _ = run(capsys, *twist, "--p", "7", "--numeric")
    assert (code, out) == (2, "")


def test_hcoeff_numeric_csv_refused_before_any_work(capsys, monkeypatch):
    # csv has no numeric column, so the sums would be computed and dropped
    from weylmds import coeffs, gauss
    calls = []
    monkeypatch.setattr(coeffs, "h_table", lambda *args: calls.append(args))
    monkeypatch.setattr(gauss, "ArithContext",
                        lambda *args: calls.append(args))
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                         "--n", "1", "--p", "5",
                         "--format", "csv")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# each context needs more than 10^9 brute-force terms, (n - 1) p; the last
# is at its twist's stability bound or above, so only the limit refuses it
@pytest.mark.parametrize("argv", [
    ("hcoeff", "--rank", "1", "--l", "0", "--n", "100002", "--p", "100003"),
    ("verify", "stable", "--rank", "1", "--l", "0", "--n", "100001",
     "--p", "200003"),
    ("verify", "stable", "--rank", "4", "--l", "0,0,0,0", "--n", "105",
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
    from weylmds.roots import LambdaTwist
    table = h_table(LambdaTwist((4200,)), 3)
    assert len(table.entries) == 4202
    obj = {"l": [4200], "n": 3, "entries": [
        {"k": list(k), "value": val.to_json()} for k, val in table.entries]}
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
        argv += ["--p", "7"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli._dump(obj) + "\n"


def test_hcoeff_numeric_failure_in_the_first_chunk_writes_nothing(capsys):
    # 7^e overflows a float at the q exponents of the first 4096 entries
    code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", "400",
                         "--n", "1", "--p", "7")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_numeric_float_overflow_refused_before_the_first_byte(capsys,
                                                            monkeypatch):
    # at rank 1 and n = 1 the largest q exponent of the table is l: 7^364
    # and 2^1023 are floats, 7^365 and 2^1024 are not
    from weylmds import gauss
    for l, p in (("364", "7"), ("1023", "2")):
        code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", l,
                             "--n", "1", "--p", p)
        assert (code, err) == (0, "")
        assert max(e["k"][0] for e in json.loads(out)["entries"]) == int(l) + 1

    def never(*args):
        raise AssertionError("numeric_eval called")

    monkeypatch.setattr(gauss, "numeric_eval", never)
    for l, p in (("365", "7"), ("400", "7"), ("1024", "2")):
        code, out, err = run(capsys, "hcoeff", "--rank", "1", "--l", l,
                             "--n", "1", "--p", p)
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


def _negated_gauss_eval(*args):
    from weylmds.gauss import gauss_eval
    return -gauss_eval(*args)


# mutants of the product side: every Gauss sum negated (the products over
# an odd number of inverted roots change sign), and the orbit walk's key
# k = 0 for every w, through the support_vector that stable reads and
# h_table does not (the first w takes k = 0 and mismatches there, the other
# seven are duplicates, and the table's seven other nonzero keys lie
# outside the orbit)
@pytest.mark.parametrize("name, mutant, checked, reasons", [
    ("gauss_eval", _negated_gauss_eval, 8, {"symbolic mismatch": 4}),
    ("support_vector", lambda weight: (0,) * len(weight), 1,
     {"duplicate support vector": 7, "support outside the orbit": 7,
      "symbolic mismatch": 1}),
], ids=["negated-gauss-sums", "zero-support-vectors"])
def test_verify_stable_fails_on_a_wrong_product_side(capsys, monkeypatch,
                                                     name, mutant, checked,
                                                     reasons):
    from collections import Counter
    from weylmds import stable
    monkeypatch.setattr(stable, name, mutant)
    code, out, err = run(capsys, "verify", "stable", "--rank", "2",
                         "--l", "0,0", "--n", "5")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["checked"] == checked
    assert Counter(m["reason"] for m in report["mismatches"]) == reasons


def test_verify_stable_fails_on_a_ring_that_pairs_conjugates_to_minus_q(
        capsys, monkeypatch):
    # a mutant ring: G[s] G[n-s] gives -q in place of q.  The table is
    # multiplied in the ring and the product side is counted outside it,
    # so the two sides part where a pair meets in one but not the other
    from weylmds.gauss import GaussValue, _symbol_product

    def minus_q(self, other):
        acc = {}
        for s1, e1, c1 in self.terms:
            for s2, e2, c2 in other.terms:
                extra, syms = _symbol_product(self.n, s1, s2)
                key = (syms, e1 + e2 + extra)
                acc[key] = acc.get(key, 0) + (-1) ** extra * c1 * c2
        return GaussValue._canonical(self.n, acc)

    monkeypatch.setattr(GaussValue, "__mul__", minus_q)
    code, out, err = run(capsys, "verify", "stable", "--rank", "2",
                         "--l", "0,0", "--n", "3")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["checked"] == 8
    assert [m["reason"] for m in report["mismatches"]] == [
        "symbolic mismatch"] * 2


def test_verify_stable_refuses_a_bad_degree_before_the_table(capsys,
                                                             monkeypatch):
    # rank 4 at l = (1,0,0,0) has stability bound 9 and 516,096 patterns;
    # a bad --p is reported before the degree, and a degree below 1 with
    # the text h_table gives it
    from weylmds import stable

    def never(*args):
        raise AssertionError("h_table called")

    monkeypatch.setattr(stable, "h_table", never)
    twist = ("verify", "stable", "--rank", "4", "--l", "1,0,0,0")
    for extra, text in (
            (("--n", "3"), "degree below the stability bound (or even)"),
            (("--n", "10"), "degree below the stability bound (or even)"),
            (("--n", "0"), "degree must be positive"),
            (("--n", "3", "--p", "8"), "8 is not prime")):
        code, out, err = run(capsys, *twist, *extra)
        assert (code, out, err) == (2, "", f"error: {text}\n"), extra


def test_term_size_overflow_refused_with_the_gauss_sum_factor(capsys,
                                                               monkeypatch):
    # at k = (97,) the value is q^96 G[s]: 1609^96 is a float, but the term
    # has size 1609^96.5, since |G[s]| = sqrt(p)
    from weylmds import gauss, stable

    def never(*args):
        raise AssertionError("numeric_eval called")

    monkeypatch.setattr(gauss, "numeric_eval", never)
    monkeypatch.setattr(stable, "numeric_eval", never)
    twist = ("--rank", "1", "--l", "96", "--n", "201", "--p", "1609")
    for argv in (("hcoeff", *twist), ("verify", "stable", *twist)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: |c| p^(e + j/2) = 1 * 1609^96.5 overflows "
                       "float\n")


def test_numeric_eval_refuses_a_value_that_is_not_finite():
    from weylmds.gauss import ArithContext, GaussValue, numeric_eval
    ctx = ArithContext(201, 1609)
    assert numeric_eval(GaussValue.symbol(201, 2, 95), ctx) != 0
    with pytest.raises(OverflowError, match="not finite"):
        numeric_eval(GaussValue.symbol(201, 2, 96), ctx)


def test_hamel_king_fails_on_a_wrong_tableau_height(capsys, monkeypatch):
    # a mutant tableau side: the height of row pair 1 is one too high
    from weylmds import chars
    stats = chars.pair_tableau_stats

    def off_by_one(r, i, above, b, below):
        w, str_total, barred, height = stats(r, i, above, b, below)
        return w, str_total, barred, height + (i == 1)

    monkeypatch.setattr(chars, "pair_tableau_stats", off_by_one)
    code, out, err = run(capsys, "verify", "hamel-king", "--rank", "3",
                         "--l", "1,0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["residual"]


def test_lemma4_and_hamel_king_fail_when_runs_never_join(capsys,
                                                         monkeypatch):
    # a mutant run rule: an empty row between any two tableau rows, so no
    # letter's run joins the run above it; both statistic readers fold
    # their runs through it, and at (1,0,0) some letter's runs join
    from weylmds import tableaux
    run_stats = tableaux._run_stats

    def never_joined(r, rows):
        return run_stats(r, (runs for row in rows for runs in (row, {})))

    monkeypatch.setattr(tableaux, "_run_stats", never_joined)
    for target in ("lemma4", "hamel-king"):
        code, out, err = run(capsys, "verify", target, "--rank", "3",
                             "--l", "1,0,0")
        assert (code, err) == (1, "") and json.loads(out)["ok"] is False


def test_cs_fails_on_a_bridge_map_without_the_t_sign(capsys, monkeypatch):
    # a mutant bridge map: t -> 1/q instead of -1/q
    from weylmds import chars
    from weylmds.laurent import LaurentPoly
    bridge = chars.t_to_minus_one_over_q

    def t_sign_dropped(poly):
        ti = poly.nvars - 2  # the t slot; q is the last
        flipped = {e: -c if e[ti] % 2 else c for e, c in poly.terms.items()}
        return bridge(LaurentPoly(poly.nvars, flipped))

    monkeypatch.setattr(chars, "t_to_minus_one_over_q", t_sign_dropped)
    code, out, err = run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["bridge_residual"]
    # the residual is the mutant map of the whole product x^rho D(tx; t),
    # less the Euler product: the mutant map is a ring homomorphism too
    rho = LaurentPoly.monomial(4, (1, 2, 0, 0))
    whole = reduce(mul, chars.deformation_factors(2), rho)
    residual = t_sign_dropped(whole) - reduce(mul, chars.euler_factors(2))
    assert report["bridge_residual"] == residual.to_json()


def test_identities_fail_on_a_deformed_denominator_without_a_factor(
        capsys, monkeypatch):
    # a mutant factor list: the binomial of the last positive root is gone;
    # Hamel-King and the bridge both fold the list
    from weylmds import chars
    factors = chars.deformation_factors
    monkeypatch.setattr(chars, "deformation_factors",
                        lambda r: factors(r)[:-1])
    code, out, err = run(capsys, "verify", "hamel-king", "--rank", "2",
                         "--l", "1,1")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["residual"]
    code, out, err = run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["bridge_residual"]


def test_cs_fails_on_an_euler_factor_with_the_wrong_sign(capsys,
                                                         monkeypatch):
    # a mutant factor list: 1 + q^{-1} x^alpha at the first positive root
    from weylmds import chars
    factors = chars.euler_factors

    def sign_flipped(r):
        first, *rest = factors(r)
        return [2 - first, *rest]

    monkeypatch.setattr(chars, "euler_factors", sign_flipped)
    code, out, err = run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["full_residual"]


def test_cs_fails_on_a_reduced_table_that_weighs_degenerate_patterns(
        capsys, monkeypatch):
    # a mutant reduced factor whose degenerate count reads 0: the patterns
    # with the degenerate coincidence weigh t^m (1 + t)^g in Htilde, not zero
    from weylmds import chars
    reduced_factor = chars._reduced_factor
    monkeypatch.setattr(chars, "_reduced_factor",
                        lambda m, g, degenerate: reduced_factor(m, g, 0))
    code, out, err = run(capsys, "verify", "cs", "--rank", "2", "--l", "0,0")
    report = json.loads(out)
    assert (code, err) == (1, "") and report["ok"] is False
    assert report["reduced_table_failures"] == [[1, 1], [2, 3]]
    assert not report["bridge_residual"] and not report["full_residual"]


def test_verify_cs_builds_one_table(capsys, monkeypatch):
    from weylmds import chars, coeffs
    calls = []

    def counted(twist, n):
        calls.append((twist.l, n))
        return h_table(twist, n)

    h_table = coeffs.h_table
    monkeypatch.setattr(coeffs, "h_table", counted)
    monkeypatch.setattr(chars, "h_table", counted)
    code, out, err = run(capsys, "verify", "cs", "--rank", "2", "--l", "1,0")
    assert (code, err) == (0, "") and json.loads(out)["ok"]
    assert calls == [((1, 0), 1)]


def test_zero_degree_is_not_absent(capsys):
    assert run(capsys, "verify", "gauss", "--n", "0")[0] == 2
    assert run(capsys, "verify", "gauss", "--n", "0", "--p", "7")[0] == 2


def test_verify_gauss_fails_on_a_top_sum_with_the_wrong_sign(capsys,
                                                            monkeypatch):
    # a mutant gauss_eval: g_t(p^{v-1}, p^v) = +q^{v-1} where n | t v.  The
    # command reads gauss_eval through the module, so each (t, c, v) of
    # that branch fails: v = 3 alone at n = 3, v = 1..4 for both t at n = 1
    from weylmds import gauss
    right = gauss.gauss_eval

    def flipped(t, c, v, n):
        if v and c == v - 1 and (t * v) % n == 0:
            return -right(t, c, v, n)
        return right(t, c, v, n)

    monkeypatch.setattr(gauss, "gauss_eval", flipped)
    code, out, err = run(capsys, "verify", "gauss", "--n", "3", "--p", "7")
    report = json.loads(out)
    assert (code, err, report["ok"]) == (1, "", False)
    assert [(f["t"], f["c"], f["v"]) for f in report["failures"]] == [
        (1, 2, 3), (2, 2, 3)]
    code, out, err = run(capsys, "verify", "gauss", "--n", "1")
    assert (code, err, len(json.loads(out)["failures"])) == (1, "", 8)


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
                         "--n", "1", "--p", "10000019")
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
    from weylmds.roots import weyl_dimension
    code, out, _ = run(capsys, "patterns", "--rank", "4", "--l", "0,0,0,0",
                       "--count-only")
    assert code == 0 and out == "65536\n"
    assert weyl_dimension((4, 3, 2, 1)) == 65536


@pytest.mark.parametrize("r", [300, 1000])
def test_high_rank_walks_refused_up_front(capsys, r):
    # the count, 2^(r^2) patterns, is read off lambda + rho: no root is
    # built, and it is multiplied out only until it passes 4,300 digits
    l, top = ",".join(["0"] * r), ",".join(map(str, range(r, 0, -1)))
    for argv in (("patterns", "--count-only"), ("hcoeff", "--n", "3"),
                 ("tableaux",), ("verify", "lemma3")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--rank", str(r), "--l", l)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == f"error: top row {top} has more than 10^7 patterns\n"


def test_walking_commands_build_no_root_system(capsys):
    from weylmds.roots import build_root_system
    build_root_system.cache_clear()
    for argv in (("patterns", "--rank", "3", "--l", "1,0,0"),
                 ("tableaux", "--rank", "2", "--l", "1,0"),
                 ("hcoeff", "--rank", "3", "--l", "0,0,0", "--n", "3"),
                 ("hcoeff", "--rank", "2", "--l", "1,0", "--n", "1"),
                 ("euler", "--rank", "2", "--m", "4,2", "--bound", "6"),
                 ("verify", "lemma3", "--rank", "3", "--l", "1,0,0"),
                 ("verify", "lemma4", "--rank", "3", "--l", "1,0,0")):
        assert run(capsys, *argv)[0] == 0, argv
        assert build_root_system.cache_info().currsize == 0, argv


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


def test_refusal_leaves_out_a_count_too_long_to_write(capsys):
    # l_1 = 10^2200 - 1 at rank 2: the count has about 8,800 digits, past
    # the 4,300 that str() writes
    big = 10 ** 2200
    code, out, err = run(capsys, "patterns", "--rank", "2",
                         "--l", f"{big - 1},0", "--count-only")
    assert code == 2 and out == ""
    assert err == f"error: top row {big + 1},{big} has more than 10^7 " \
                  "patterns\n"


@pytest.mark.parametrize("argv", [
    ["patterns", "--rank", "1", "--count-only", "--l"],
    ["euler", "--rank", "1", "--bound", "3", "--m"]])
def test_overlong_entries_name_their_flag(capsys, argv):
    # int() refuses 4,400 digits, where the interpreter caps its string
    # conversions, with a text that names no flag; 4,000 digits are read
    flag = argv[-1]
    assert run(capsys, *argv, "9" * 4400) == (
        2, "", f"error: {flag} has an entry of more than 4000 digits\n")
    assert "digits" not in run(capsys, *argv, "9" * 4000)[2]


def test_numeric_column_at_p_two(capsys):
    from weylmds.gauss import ArithContext
    assert ArithContext(1, 2).root == 1
    code, out, _ = run(capsys, "hcoeff", "--rank", "1", "--l", "0",
                       "--n", "1", "--p", "2")
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
    _emit_list(iter(items), {"x": []})
    assert capsys.readouterr().out == _dump({"x": items}) + "\n"
