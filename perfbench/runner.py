"""Run CLI jobs one at a time, account each child with os.wait4, and check
every output against the golden record.

A job is one fresh `python -m weylmds.cli ARGV` process: every CLI user pays
interpreter start-up and gets no cache from an earlier run.  A traced job
runs trace_entry.py instead, which calls the same `weylmds.cli.main`.
"""

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def job_key(argv):
    return " ".join(argv)


def load_golden():
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


@dataclass
class JobResult:
    argv: tuple
    ok: bool
    reason: str      # why the job failed; empty when ok
    rc: int
    sha256: str
    out_bytes: int
    wall_s: float
    cpu_s: float     # user + sys of this child alone
    rss_mb: float    # peak resident set of this child alone


def _wait(pid, timeout_s):
    """Wait for `pid`; kill it after `timeout_s`.  Returns (status, rusage,
    end time, timed out).  The child is reaped only after the timer can no
    longer fire, so the kill never reaches a recycled pid."""
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def expire():
        with lock:
            if not state["done"]:
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout_s, expire)
    timer.start()
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    end = time.perf_counter()
    with lock:
        state["done"] = True
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(pid, 0)
    return status, usage, end, state["killed"]


class Runner:
    """Runs jobs from the checkout holding this file; scratch files go to
    `work`."""

    def __init__(self, golden, work, timeout_s=60.0):
        self.golden = golden
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.timeout_s = timeout_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def command(self, argv, trace_out=None, job_id=0):
        if trace_out is None:
            return [sys.executable, "-m", "weylmds.cli", *argv]
        return [sys.executable, str(HERE / "trace_entry.py"),
                str(trace_out), str(job_id), *argv]

    def run(self, argv, trace_out=None, job_id=0, timeout_s=None):
        """Run one job to completion and check it against the golden record."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, \
                open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.command(argv, trace_out, job_id),
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            status, usage, end, killed = _wait(
                proc.pid, timeout_s or self.timeout_s)
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        data = out_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        want = self.golden.get(job_key(argv))
        if killed:
            reason = "timeout"
        elif want is None:
            reason = "no golden record"
        elif rc != want["rc"]:
            reason = f"exit code {rc}, expected {want['rc']}"
        elif digest != want["sha256"]:
            reason = "stdout differs from the golden record"
        else:
            reason = ""
        return JobResult(tuple(argv), not reason, reason, rc, digest,
                         len(data), end - start,
                         usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0)


class Calibrator:
    """Measures the speed of the machine while a pass runs.

    The machine this benchmark was written on drifts by up to 1.5x over
    minutes, because other tenants share its cores.  After each job the
    benchmark runs a fixed pure-Python loop (dict and tuple work, as in the
    program) in a fresh interpreter that does not load weylmds, for SHARE
    of that job's wall time, so the speed it sees is weighted like the
    jobs.  A fresh interpreter tracks the jobs, which also start one, much
    better than a loop inside the benchmark process.  `scale()` converts a
    time measured during the pass to the reference speed REF_PER_S."""

    REF_PER_S = 7.5   # calibration runs per second, quiet 2-core box
    SHARE = 0.1
    SCRIPT = ("acc = {}\n"
              "for i in range(150000):\n"
              "    key = (i & 63, i % 7)\n"
              "    acc[key] = acc.get(key, 0) + i * i\n")

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0
        self.owed = 0.0

    def after(self, job_wall_s):
        self.owed += self.SHARE * job_wall_s
        while self.owed > 0:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", self.SCRIPT], check=True)
            spent = time.perf_counter() - start
            self.runs += 1
            self.seconds += spent
            self.owed -= spent

    def scale(self):
        if not self.runs:
            return 1.0
        return self.runs / self.seconds / self.REF_PER_S


def tail_percentile(n, beyond=10):
    """Highest whole percentile whose nearest-rank sample has at least
    `beyond` of the `n` samples above it.  With fewer than 2 * beyond
    samples this lies below the median; the sample count is reported
    beside it."""
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{beyond} beyond it")
    return max(q for q in range(1, 100)
               if n - math.ceil(q * n / 100) >= beyond)


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of
    every order statistic, with Beta(q(n+1), (100-q)(n+1)) weights over
    the ranks.  It is much steadier than one order statistic when jobs of
    different sizes sit close to rank qn."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_beta)

    steps = 200   # midpoint rule per rank interval
    weights = [sum(density((i + (k + 0.5) / steps) / n)
                   for k in range(steps)) / (steps * n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def summarize(results, scale, probes):
    """End-to-end metrics of one measured pass, with every time converted
    to the reference machine speed, plus the details printed beside them."""
    walls = [r.wall_s for r in results]
    q = tail_percentile(len(walls))
    setup_s = statistics.median(r.wall_s for r in probes)
    return {
        "wall_s": sum(walls) * scale,
        "job_s_p50": percentile(walls, 50) * scale,
        "job_s_tail": percentile(walls, q) * scale,
        "cpu_s": sum(r.cpu_s for r in results) * scale,
        "peak_rss_mb": max(r.rss_mb for r in results),
        "setup_s": setup_s * scale,
    }, {"tail_pct": q, "jobs": len(walls), "raw_wall_s": sum(walls),
        "raw_setup_s": setup_s, "scale": scale}
