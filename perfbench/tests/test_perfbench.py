import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pools  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402


def test_same_seed_same_job_list():
    for workload in pools.WORKLOADS:
        jobs = pools.draw_jobs(workload, 3, 25)
        assert jobs == pools.draw_jobs(workload, 3, 25)
        assert len(jobs) == len(pools.POOLS[workload])
        # one variant of every slot per round
        for slot in pools.POOLS[workload]:
            assert sum(job in slot for job in jobs) == 1
    assert pools.draw_jobs("oracle", 3, 25) != pools.draw_jobs("oracle", 4, 25)


def test_rounds_follow_seconds():
    size = len(pools.POOLS["n1"])
    assert len(pools.draw_jobs("n1", 0, 1)) == size
    assert len(pools.draw_jobs("n1", 0, 3 * pools.ROUND_SECONDS)) == 3 * size


def test_golden_covers_every_drawable_job():
    golden = runner.load_golden()
    wanted = {runner.job_key(pools.TRIVIAL)}
    for workload in pools.WORKLOADS:
        entries = pools.pool_entries(workload)
        assert all(argv in entries for argv in pools.WARMUP[workload])
        wanted |= {runner.job_key(argv) for argv in entries}
    assert wanted == set(golden)
    assert all(rec["rc"] == 0 for rec in golden.values())
    assert not any("--numeric" in key for key in golden)


def test_metric_units_match_benchmark_json():
    import run
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"] + bench["per_layer"]
    assert all(run.unit(m["name"]) == m["unit"] for m in declared)
    assert [m["name"] for m in bench["per_layer"]] == list(
        tracer.layer_metrics([])) + ["cli.out_bytes", "trace_overhead_ratio"]


def test_tail_percentile_rule():
    for n in range(11, 300):
        q = runner.tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= 10
        if q < 99:
            assert n - math.ceil((q + 1) * n / 100) < 10
    assert runner.tail_percentile(20) == 50
    assert runner.tail_percentile(40) == 75
    with pytest.raises(ValueError):
        runner.tail_percentile(10)


def test_harrell_davis_percentile():
    values = [0.4, 0.5, 0.55, 0.6, 1.0, 1.1, 1.2, 1.9, 2.0, 3.5, 4.2, 4.3]
    assert runner.percentile([2.0] * 17, 41) == pytest.approx(2.0)
    # reference values from scipy.stats.mstats.hdquantiles
    for q, want in ((41, 1.028376), (50, 1.326103), (66, 2.187535)):
        assert runner.percentile(values, q) == pytest.approx(want, rel=1e-5)
        assert runner.percentile(values[::-1], q) == pytest.approx(want,
                                                                   rel=1e-5)


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    tr = tracer.Tracer(job=5, clock=lambda: next(ticks))
    tr.enter("chars.verify")      # 0
    tr.enter("coeffs.h_table")    # 1
    tr.enter("gauss.ring")        # 2
    tr.exit()                     # 4
    tr.exit()                     # 6
    tr.enter("coeffs.h_table")    # 7
    tr.exit()                     # 8
    tr.exit()                     # 10
    assert tr.self_s == {"chars.verify": 10 - 5 - 1, "coeffs.h_table": 3 + 1,
                         "gauss.ring": 2}
    assert tr.calls == {"chars.verify": 1, "coeffs.h_table": 2,
                        "gauss.ring": 1}
    # hot layers are totals only; spanned layers keep (name, start, end,
    # parent span, job)
    assert tr.spans == [["chars.verify", 0.0, 10.0, None, 5],
                        ["coeffs.h_table", 1.0, 6.0, 0, 5],
                        ["coeffs.h_table", 7.0, 8.0, 0, 5]]


class FakeRunner(runner.Runner):
    """Runs a stand-in command in place of the CLI."""

    def __init__(self, script, **kwargs):
        super().__init__(**kwargs)
        self.script = script

    def command(self, argv, trace_out=None, job_id=0):
        return [sys.executable, "-c", self.script]


def _golden(stdout, rc=0):
    return {runner.job_key(pools.TRIVIAL):
            {"rc": rc, "sha256": hashlib.sha256(stdout).hexdigest()}}


def test_matching_stdout_passes(tmp_path):
    run = FakeRunner("print(2)", golden=_golden(b"2\n"), work=tmp_path)
    res = run.run(pools.TRIVIAL)
    assert res.ok and res.reason == "" and res.out_bytes == 2


@pytest.mark.parametrize("script, reason", [
    ("print(3)", "stdout differs from the golden record"),
    ("import sys; print(2); sys.exit(1)", "exit code 1, expected 0"),
    ("import time; time.sleep(30)", "timeout"),
])
def test_mutated_job_is_a_failure(tmp_path, script, reason):
    run = FakeRunner(script, golden=_golden(b"2\n"), work=tmp_path,
                     timeout_s=0.5)
    res = run.run(pools.TRIVIAL)
    assert not res.ok and res.reason == reason


def test_unknown_job_is_a_failure(tmp_path):
    run = runner.Runner({}, tmp_path)
    assert run.run(pools.TRIVIAL).reason == "no golden record"


def test_traced_job_matches_golden(tmp_path):
    run = runner.Runner(runner.load_golden(), tmp_path)
    argv = pools.hcoeff("0,0", 3)
    run.golden[runner.job_key(argv)] = {
        "rc": 0, "sha256": run.run(argv).sha256}
    report = tmp_path / "trace.json"
    res = run.run(argv, trace_out=report)
    assert res.ok, res.reason
    metrics = tracer.layer_metrics([json.loads(report.read_text())])
    assert metrics["coeffs.h_table.calls"] == 1
    assert metrics["patterns.enumerate.yielded"] == 16
    assert metrics["coeffs.pattern_G.calls"] == 16


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "weylmds" or name.startswith("weylmds.")]
    from weylmds.gauss import ArithContext, GaussValue
    from weylmds.laurent import LaurentPoly
    owners = mods + [ArithContext, GaussValue, LaurentPoly]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_removed_after_traced_job(capsys):
    from weylmds import cli
    before = _bindings()
    tr = tracer.Tracer()
    with tracer.install(tr), tr.span("cli"):
        assert cli.main(list(pools.stable("0", 3, 7))) == 0
    assert tr.calls["stable.verify"] == 1
    assert tr.calls["gauss.brute"] == 2 * 2 * 2
    assert tr.counts["gauss.brute.terms"] == 8 * 7
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    capsys.readouterr()
