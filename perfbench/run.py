"""The weylmds benchmark: fixed CLI jobs, one fresh process at a time.

    python3 perfbench/run.py [--workload tables|oracle|n1|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is built from `src/` there.
The seed draws the ordered job list of a workload (pools.py); every job's
exit code and stdout are checked against golden.json.  A run is:

1. an untimed warm-up pass, one cheap job per subcommand;
2. with --trace 0, the measured pass: the job list with about eleven
   set-up probes spread over it.  The end-to-end metrics come from it,
   every time converted to the reference machine speed
   (runner.Calibrator);
3. with --trace 1, the job list untraced and then traced (trace_entry.py);
   the per-layer metrics come from the traced pass, and
   trace_overhead_ratio is traced over untraced job time, each converted
   to the reference speed.

Load is one closed loop with one client.  Each line before the last names a
metric with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs the three
workloads in turn and prefixes each metric with its workload.  Exit code 2,
without a result, when the checkout holds no program to measure.
"""

import argparse
import json
import math
import sys
import time

from pools import TRIVIAL, WARMUP, WORKLOADS, draw_jobs
from runner import (HERE, ROOT, Calibrator, JobResult, Runner, load_golden,
                    summarize)
from tracer import layer_metrics

SETUP_PROBES = 11
# Jobs not started this long after the run began fail unrun, and a running
# job is killed then, so that a run always ends within 180 s.
DEADLINE_S = 170.0

UNITS = {"job_s_p50": "s", "job_s_tail": "s", "peak_rss_mb": "MB"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def run_pass(runner, jobs, deadline, trace_dir=None):
    """Run `jobs` in order, calibrating after each one.  Returns (results,
    calibrator, trace reports)."""
    results, reports = [], []
    calibrator = Calibrator()
    for i, argv in enumerate(jobs):
        left = deadline - time.perf_counter()
        if left <= 0:
            results.append(JobResult(tuple(argv), False, "run deadline", -1,
                                     "", 0, 0.0, 0.0, 0.0))
            continue
        trace_out = trace_dir / f"job{i}.json" if trace_dir else None
        res = runner.run(argv, trace_out, i,
                         timeout_s=min(runner.timeout_s, left))
        calibrator.after(res.wall_s)
        results.append(res)
        if trace_out is not None and res.ok:
            with open(trace_out) as fh:
                reports.append(json.load(fh))
    return results, calibrator, reports


def run_workload(runner, workload, seed, seconds, trace, deadline):
    """One workload: returns (metrics, every job result, printed notes)."""
    jobs = draw_jobs(workload, seed, seconds)
    warm, _, _ = run_pass(runner, WARMUP[workload], deadline)
    if not trace:
        # set-up probes spread evenly over the pass
        step = math.ceil(len(jobs) / SETUP_PROBES)
        plan = []
        for i, job in enumerate(jobs):
            if i % step == 0:
                plan.append(TRIVIAL)
            plan.append(job)
        results, calibrator, _ = run_pass(runner, plan, deadline)
        probes = [r for r, argv in zip(results, plan) if argv is TRIVIAL]
        measured = [r for r, argv in zip(results, plan) if argv is not TRIVIAL]
        metrics, info = summarize(measured, calibrator.scale(), probes)
        notes = {"wall_s": f"(raw {info['raw_wall_s']:.4f} s, speed scale "
                           f"{info['scale']:.4f})",
                 "job_s_p50": f"(n={info['jobs']})",
                 "job_s_tail": f"(p{info['tail_pct']} of {info['jobs']} "
                               f"jobs)",
                 "setup_s": f"(raw {info['raw_setup_s']:.4f} s, "
                            f"n={len(probes)})"}
        return metrics, warm + results, notes
    plain, plain_cal, _ = run_pass(runner, jobs, deadline)
    trace_dir = runner.work / "trace"
    trace_dir.mkdir(exist_ok=True)
    traced, traced_cal, reports = run_pass(runner, jobs, deadline, trace_dir)
    metrics = layer_metrics(reports)
    metrics["cli.out_bytes"] = sum(r.out_bytes for r in traced)
    metrics["trace_overhead_ratio"] = (
        sum(r.wall_s for r in traced) * traced_cal.scale()
        / (sum(r.wall_s for r in plain) * plain_cal.scale()))
    return metrics, warm + plain + traced, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylmds" / "cli.py").is_file():
        print(f"error: no weylmds sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runner = Runner(load_golden(), HERE / ".work")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(workloads)
    all_metrics, all_results = {}, []
    for workload in workloads:
        metrics, results, notes = run_workload(
            runner, workload, args.seed, args.seconds, args.trace, deadline)
        all_results += results
        failed = sum(not r.ok for r in results)
        print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {unit(name):<6} "
                  f"{notes.get(name, '')}".rstrip())
        print(f"  {'fail_ratio':<32} {failed / len(results):>14.6g} ratio  "
              f"({failed} of {len(results)} jobs)")
        for r in results:
            if not r.ok:
                print(f"  FAILED {' '.join(r.argv)}: {r.reason}")
        prefix = f"{workload}." if args.workload == "all" else ""
        all_metrics.update({prefix + name: value
                            for name, value in metrics.items()})
    failed = sum(not r.ok for r in all_results)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(all_results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in all_metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
