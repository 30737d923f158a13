"""Record the golden output of every pool entry.

    python3 perfbench/record_golden.py

Runs every job each workload can draw, plus the set-up probe, once, and
writes its exit code and stdout sha256 to perfbench/golden.json.  Run it
only at a commit whose outputs are known to be right; the benchmark then
fails any job whose output differs.  Prints each workload's mean round
time, the figure ROUND_SECONDS in pools.py is set from.
"""

import json

from pools import POOLS, TRIVIAL, WORKLOADS
from runner import HERE, Runner, job_key


def main():
    runner = Runner({}, HERE / ".work")
    golden = {}

    def record(argv):
        res = runner.run(argv)
        golden[job_key(argv)] = {"rc": res.rc, "sha256": res.sha256,
                                 "bytes": res.out_bytes}
        return res.wall_s

    record(TRIVIAL)
    for workload in WORKLOADS:
        round_s = 0.0
        for slot in POOLS[workload]:
            round_s += sum(record(argv) for argv in slot) / len(slot)
        print(f"{workload}: {round_s:.1f} s per round", flush=True)
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
