"""Run one CLI job with layer tracing.

    python perfbench/trace_entry.py REPORT_JSON JOB_ID ARGV...

Installs the wrappers of tracer.py, calls `weylmds.cli.main(ARGV)` inside a
`cli` span, removes the wrappers, writes the per-layer totals and spans to
REPORT_JSON and exits with the CLI's exit code.  Stdout is the CLI's own.
"""

import json
import sys

from tracer import Tracer, install


def main(argv):
    report_path, job_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    from weylmds import cli
    tracer = Tracer(job_id)
    with install(tracer), tracer.span("cli"):
        rc = cli.main(cli_argv)
    sys.stdout.flush()
    with open(report_path, "w") as fh:
        json.dump(tracer.report(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
