"""Check that a change leaves every campaign result as its parent wrote it.

    python3 benchmarks/same_results.py PARENT CHANGE

PARENT and CHANGE are two modwave checkouts.  Each runs, from its own
sources, the six campaigns on the default config (an empty config file)
and construct, roundtrip and sweep on perfbench's seed-1 and seed-2
configs, which PARENT's ``perfbench/run.py`` writes (``WORKLOADS[...].config``
and ``write_config``, loaded as ``record_bench.py`` loads that file).  Every
run is made twice, with the worker pool (MODWAVE_THREADS unset) and
serially (MODWAVE_THREADS=1), one process at a time and without
OPENBLAS_NUM_THREADS, which each checkout sets itself.

A pair of runs is the same when both exit with the same code and write the
same files; every CSV byte for byte, and results.json once its
``timestamp``, ``timings`` and ``provenance`` are removed.  One line per
pair is printed; the exit code is 0 when every pair is the same and 1 when
any differs.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from record_bench import _perfbench_run

CAMPAIGNS = ("verify-spectral", "verify-dispersive", "verify-forcing", "construct",
             "roundtrip", "sweep")
PERFBENCH_CAMPAIGNS = ("construct", "roundtrip", "sweep")
PERFBENCH_SEEDS = (1, 2)
# the keys of results.json that differ between two runs of the same code
UNSTABLE_KEYS = ("timestamp", "timings", "provenance")


def _configs(parent: Path, work: Path) -> list[tuple[str, str, Path]]:
    """(label, campaign, config path) of every run."""
    default = work / "default.cfg"
    default.write_text("")
    runs = [("default", c, default) for c in CAMPAIGNS]
    perfbench = _perfbench_run(parent, "parent")
    for campaign in PERFBENCH_CAMPAIGNS:
        for seed in PERFBENCH_SEEDS:
            path = work / f"{campaign}-seed{seed}.cfg"
            perfbench.write_config(perfbench.WORKLOADS[campaign].config(seed), path)
            runs.append((f"perfbench seed {seed}", campaign, path))
    return runs


def _run(root: Path, campaign: str, cfg: Path, out: Path, serial: bool) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("MODWAVE_THREADS", None)
    if serial:
        env["MODWAVE_THREADS"] = "1"
    return subprocess.run([sys.executable, "-m", "modwave.cli", campaign, "--config", str(cfg),
                           "--out", str(out)], cwd=root, env=env, capture_output=True).returncode


def _stable(path: Path) -> bytes:
    """The file's bytes, results.json's without its unstable keys."""
    if path.name != "results.json":
        return path.read_bytes()
    payload = json.loads(path.read_text())
    for key in UNSTABLE_KEYS:
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True).encode()


def _differences(outs: list[Path], codes: list[int]) -> list[str]:
    if codes[0] != codes[1]:
        return [f"exit codes {codes[0]} and {codes[1]}"]
    names = [sorted(p.name for p in out.iterdir()) if out.exists() else [] for out in outs]
    if names[0] != names[1]:
        return [f"files {names[0]} and {names[1]}"]
    return [name for name in names[0] if _stable(outs[0] / name) != _stable(outs[1] / name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    roots = [args.parent.resolve(), args.change.resolve()]
    work = Path(tempfile.mkdtemp())
    differing = 0
    try:
        runs = _configs(roots[0], work)
        for n, (label, campaign, cfg) in enumerate(runs):
            for serial in (False, True):
                outs = [work / f"run{n}-{serial:d}-{side}" for side in ("parent", "change")]
                codes = [_run(root, campaign, cfg, out, serial) for root, out in zip(roots, outs)]
                diff = _differences(outs, codes)
                differing += bool(diff)
                mode = "serial" if serial else "pooled"
                status = f"DIFFERS: {', '.join(diff)}" if diff else f"same (exit {codes[0]})"
                print(f"{campaign} on {label}, {mode}: {status}", flush=True)
    finally:
        shutil.rmtree(work)
    print(f"{differing} of {2 * len(runs)} pairs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
