"""One benchmark process: the modwave CLI entry point in a fresh interpreter.

    python3 perfbench/child.py REPORT CAMPAIGN CONFIG OUT [--trace] [--setup-only]

Runs ``modwave.cli.main([CAMPAIGN, "--config", CONFIG, "--out", OUT])``, as
the ``modwave`` console script does, and writes REPORT as JSON: the CLI exit
code, the monotonic clock when the campaign starts and when results.json has
been written, and the CPU time (this process and its reaped pool workers) at
both.  ``--trace`` installs the span tracer first and adds its summary.
``--setup-only`` stops at the campaign's start, so only set-up is measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(BaseException):
    """Ends a --setup-only run; cli.main catches only Exception."""


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("report", type=Path)
    parser.add_argument("campaign")
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import modwave.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    run_campaign, write_results = cli.run_campaign, cli.write_results

    def timed_run_campaign(*a, **kw):
        marks["start"], marks["cpu_start"] = time.monotonic(), _cpu_s()
        if args.setup_only:
            raise _SetupDone
        return run_campaign(*a, **kw)

    def timed_write_results(*a, **kw):
        path = write_results(*a, **kw)
        marks["end"], marks["cpu_end"] = time.monotonic(), _cpu_s()
        return path

    cli.run_campaign, cli.write_results = timed_run_campaign, timed_write_results
    try:
        code = cli.main([args.campaign, "--config", args.config, "--out", args.out])
    except _SetupDone:
        code = 0
    report = {"code": code, **marks}
    if tracer is not None:
        report["trace"] = tracer.summary()
    args.report.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
