"""Command-line experiment runner: `modwave <campaign> --config <path>`.

Writes a versioned results.json (named checks, fits, extras, the wall and
CPU seconds of the campaign and of each pooled part, and the provenance of
the run: python and numpy versions, the C library, the OPENBLAS_NUM_THREADS
variable and the git sha of the checkout) plus one CSV per recorded time
series.  Exit codes: 0 all checks pass, 1 a check failed, 2 configuration
or runtime error (writing the results included); failures carry a
machine-readable reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from .campaigns import CAMPAIGNS, _libc_version, run_campaign
from .config import ConfigError, ExperimentConfig, load_config, parse_config

__all__ = ["main", "write_results"]

SCHEMA_VERSION = 3

# The checkout this package was imported from, when it runs from source.
CHECKOUT = Path(__file__).resolve().parents[2]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwave",
        description="Verification campaigns for the modified-scattering solver.",
    )
    parser.add_argument("campaign", choices=CAMPAIGNS, help="the campaign to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration file (defaults used if omitted)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for results.json and CSV series")
    return parser


def _git_sha(root: Path) -> str:
    """The commit checked out at root, read from its .git files without
    starting a process; "unavailable" outside a checkout."""
    git = root / ".git"
    try:
        if git.is_file():  # a linked worktree: "gitdir: <its own git dir>"
            git = root / git.read_text().strip().removeprefix("gitdir: ")
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD holds the sha itself
        if (git / "commondir").is_file():  # a worktree's refs live in the main git dir
            git = git / (git / "commondir").read_text().strip()
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unavailable"


def _spelled(value):
    """value with each non-finite float spelled as the CSVs spell it ("inf",
    "-inf", "nan"), since JSON has no token for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _spelled(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(v) for v in value]
    return value


def write_results(result, out_dir: Path, config: ExperimentConfig) -> Path:
    """Serialize a CampaignResult to results.json plus CSV series files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "campaign": result.name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "passed": result.passed,
        "seed": config.seed,
        "params": config.key_values(),
        "checks": result.checks,
        "fits": result.fits,
        "extras": result.extras,
        "timings": result.timings,
        "series_files": {},
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "libc": _libc_version() or "unknown",  # glibc's malloc policy sets the speed
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_sha": _git_sha(CHECKOUT),
        },
    }
    for series_name, (header, rows) in result.series.items():
        csv_path = out_dir / f"{result.name}_{series_name}.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        payload["series_files"][series_name] = csv_path.name
    json_path = out_dir / "results.json"
    json_path.write_text(
        json.dumps(_spelled(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return json_path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config("") if args.config is None else load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(json.dumps({"error": "config", "reason": str(exc)}), file=sys.stderr)
        return 2

    try:
        result = run_campaign(args.campaign, config)
        json_path = write_results(result, args.out, config)
    except ConfigError as exc:  # a valid config that the campaign cannot serve
        print(json.dumps({"error": "config", "reason": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures become a structured exit 2
        print(json.dumps({"error": "runtime", "reason": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2
    for check in result.checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {result.name}:{check['name']} value={check['value']:.6g} "
              f"({check['detail']})")
    print(f"results written to {json_path}")
    if not result.passed:
        failed = [c["name"] for c in result.checks if not c["passed"]]
        print(json.dumps({"error": "checks", "reason": failed}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
