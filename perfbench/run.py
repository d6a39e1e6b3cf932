"""modwave benchmark: three campaigns timed end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test --seed 1

A workload runs one modwave campaign in a closed loop with one client: one
fresh process per campaign (perfbench/child.py), the next started only after
the previous one has ended, while the next is expected to finish within
--seconds (at least one campaign).  The program receives only the config
generated here from --seed, with every key written out.

--trace 0 prints the end-to-end metrics, each a median over the run:
  wall_s       campaign start to results.json written
  cpu_s        user + system CPU of the campaign process and its pool workers
  peak_rss_mb  peak resident memory, the max over the process and its workers
  setup_s      process start to campaign start: interpreter, imports, config
               parsing; when the run has fewer than SETUP_SAMPLES campaigns,
               extra processes that stop at the campaign start fill the count
Every process is reaped with os.wait4, whose rusage covers that process and
the pool workers it reaped, and nothing else the benchmark ran before.

--trace 1 alternates untraced and traced campaigns and prints the per-layer
metrics of the median traced campaign (perfbench/tracer.py), the tracing
overhead and the accounting of its campaign time by layer self times.
``sweep`` is traced serially (MODWAVE_THREADS=1), since spans recorded in
pool workers never reach the parent; its overhead is taken against an
untraced serial run.

A campaign run fails if it exits non-zero, or its results.json is missing,
has no checks, has a failed check or does not echo the generated config.
The last line of stdout is the JSON result.  The exit code is 0 only when
every run passed; 2 when the program is missing or a set-up probe fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0

# Today's modwave config defaults, written out so that no workload relies on them.
BASE_CONFIG = {
    "lam": 1, "delta": 0.2, "alpha": 0.1, "eps0": 0.05, "T": 10.0, "t_max": 1000.0,
    "num_points": 4096, "box_length": 200.0, "time_grid_points": 129,
    "data_kind": "gaussian", "seed": 0, "bandwidth": 1.0,
    "fit_t_min": 10.0, "fit_t_max": 1000.0, "tol": 1e-9, "max_iter": 15,
    "eps0_values": (0.05, 0.025), "T_values": (10.0, 20.0),
}


def _trajectory_mb(nodes: int, points: int) -> float:
    return nodes * points * 16 / 1e6  # complex128


@dataclass(frozen=True)
class Workload:
    campaign: str
    note: str
    working_set: str

    def config(self, seed: int) -> dict:
        cfg = dict(BASE_CONFIG, seed=seed)
        if self.campaign == "roundtrip":
            cfg["eps0"] = random.Random(seed).uniform(0.04, 0.06)
        else:
            cfg["data_kind"] = "random_bandlimited"
        return cfg


_SWEEP_WORKERS = min(8, os.cpu_count() or 1)

WORKLOADS = {
    "construct": Workload(
        "construct",
        "Backward fixed point for both signs of lam on random band-limited data "
        "(N=4096, 129 nodes). Loads fixedpoint, trilinear, spectral and profile; "
        "bypasses evolve and fitting, so the batched core and the factorized "
        "nonlinearity show here and the log-time integrator should not. The "
        "default grid runs past the box's wraparound time (ROADMAP item 3): a "
        "correctness change to the grid is expected to move wall_s here.",
        f"one trajectory 129 x 4096 x 16 B = {_trajectory_mb(129, 4096):.2f} MB",
    ),
    "roundtrip": Workload(
        "roundtrip",
        "Construction followed by the forward Strang solve on gaussian data, eps0 "
        "drawn from the seed in [0.04, 0.06]. About 90% of the run is the Strang "
        "loop in evolve (about 60k steps), so the log-time integrator shows here "
        "and the batched core barely. Limitation: random_bandlimited and bump "
        "data make this campaign raise 'x/t leaves the xi-grid' at t = 10 "
        "(ROADMAP item 2); adding them is a separate benchmark change.",
        f"trajectories 257 x 4096 x 16 B = {_trajectory_mb(257, 4096):.2f} MB and "
        f"193 x 4096 x 16 B = {_trajectory_mb(193, 4096):.2f} MB; "
        "Strang state 4096 x 16 B = 64 KiB",
    ),
    "sweep": Workload(
        "sweep",
        "Eight constructions (eps0 x T x lam, T up to 20) on random band-limited "
        f"data over min(8, nproc) = {_SWEEP_WORKERS} pool workers, MODWAVE_THREADS "
        "unset. Same layers as construct, in parallel: a change adding threads or "
        "memory per construction can gain on construct and cost cpu_s, wall_s or "
        "peak_rss_mb here. Same wraparound caveat as construct.",
        f"one 129 x 4096 x 16 B = {_trajectory_mb(129, 4096):.2f} MB trajectory per "
        f"construction, {_SWEEP_WORKERS} at once = "
        f"{_SWEEP_WORKERS * _trajectory_mb(129, 4096):.2f} MB",
    ),
}

# Layers reported by total self time; the cli layer is cli.write_results alone.
SELF_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Counts that repeat exactly for a seed; later changes may base count claims on them.
DETERMINISTIC_COUNTS = ("fixedpoint.picard_iterates", "evolve.strang_steps",
                        "spectral.transform_calls", "spectral.fields_built")


class BenchError(RuntimeError):
    """The benchmark cannot run: the program is missing or cannot start."""


@dataclass
class Proc:
    """One finished child process: its report and its own rusage."""

    code: int
    spawned: float
    report: dict
    cpu_s: float
    peak_rss_mb: float
    check_values: dict | None = None
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def wall_s(self) -> float:
        return self.report["end"] - self.report["start"]

    @property
    def setup_s(self) -> float:
        return self.report["start"] - self.spawned

    @property
    def cpu_per_wall(self) -> float:
        return (self.report["cpu_end"] - self.report["cpu_start"]) / self.wall_s


def run_child(campaign: str, cfg_path: Path, out: Path, *, trace=False,
              setup_only=False, serial=False) -> Proc:
    report_path = out / "report.json"
    cmd = [sys.executable, str(CHILD), str(report_path), campaign, str(cfg_path), str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env.pop("MODWAVE_THREADS", None)
    if serial:
        env["MODWAVE_THREADS"] = "1"
    with (out / "log.txt").open("w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    return Proc(code=proc.returncode, spawned=spawned, report=report,
                cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024)


def _verify(out: Path, campaign: str, cfg: dict) -> tuple[dict | None, str | None]:
    """Check values of a correct campaign run, or None and what was wrong."""
    try:
        data = json.loads((out / "results.json").read_text())
    except (OSError, ValueError) as exc:
        return None, f"results.json unreadable: {exc}"
    checks = data.get("checks") or []
    if not checks:
        return None, "results.json has no checks"
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed or not data.get("passed"):
        return None, f"failed checks {failed}"
    params = data.get("params", {})
    echoed = (data.get("campaign"), data.get("seed"), params.get("eps0"), params.get("data_kind"))
    if echoed != (campaign, cfg["seed"], cfg["eps0"], cfg["data_kind"]):
        return None, f"results.json does not echo the generated config: {echoed}"
    return {c["name"]: c["value"] for c in checks}, None


def attempt(workload: str, cfg: dict, cfg_path: Path, *, trace=False, serial=False) -> Proc:
    """One campaign run in a fresh process, with its output checked."""
    out = Path(tempfile.mkdtemp(dir=cfg_path.parent))
    campaign = WORKLOADS[workload].campaign
    proc = run_child(campaign, cfg_path, out, trace=trace, serial=serial)
    if proc.code != 0:
        proc.problem = f"exit code {proc.code}"
    elif "end" not in proc.report:
        proc.problem = "no campaign timestamps in the child's report"
    else:
        proc.check_values, proc.problem = _verify(out, campaign, cfg)
    if proc.problem:
        log = (out / "log.txt").read_text().strip().splitlines()[-3:]
        print(f"FAILED {workload} run: {proc.problem}; log tail: {log}", file=sys.stderr)
    shutil.rmtree(out)
    return proc


def setup_probe(workload: str, cfg_path: Path) -> float:
    out = Path(tempfile.mkdtemp(dir=cfg_path.parent))
    proc = run_child(WORKLOADS[workload].campaign, cfg_path, out, setup_only=True)
    shutil.rmtree(out)
    if proc.code != 0 or "start" not in proc.report:
        raise BenchError(f"set-up probe exited {proc.code} before reaching the campaign")
    return proc.setup_s


def closed_loop(step, seconds: float) -> list:
    """Run step() back to back while the next is expected to end within seconds."""
    deadline = time.monotonic() + seconds
    results, durations = [], []
    while True:
        start = time.monotonic()
        results.append(step())
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > deadline:
            return results


def write_config(cfg: dict, path: Path) -> None:
    def fmt(value):
        return ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)

    path.write_text("".join(
        f"{k} = {v if isinstance(v, str) else fmt(v)}\n" for k, v in cfg.items()))


# ------------------------------------------------------------------ metrics


def _tail_note(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    if n < 20:
        return f"n={n}; no percentile above the median has 10 samples beyond it"
    p = int(100 * (n - 10) / n)
    return f"n={n}; p{p} = {statistics.quantiles(values, n=100)[p - 1]:.6g}"


def end_to_end(runs: list[Proc], setups: list[float]) -> dict:
    ok = [r for r in runs if r.ok]
    samples = {
        "wall_s": [r.wall_s for r in ok],
        "cpu_s": [r.cpu_s for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
        "setup_s": setups + [r.setup_s for r in ok],
    }
    for name, values in samples.items():
        print(f"{name} = {statistics.median(values):.6g} {E2E_UNITS[name]} "
              f"(median; {_tail_note(values)}); samples "
              + " ".join(f"{v:.4g}" for v in values))
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics (value, unit) of one traced campaign; *_s are self times."""
    spans = summary["spans"]

    def total(index, *keys):
        return sum(spans[k][index] for k in keys if k in spans)

    def calls(*keys):
        return total(0, *keys)

    def self_s(*keys):
        return total(1, *keys)

    def layer_self(layer):
        return sum(v[1] for k, v in spans.items() if k.split(".")[0] == layer)

    transforms = ("spectral.forward_transform", "spectral.inverse_transform")
    norms = ("spectral.norms", "spectral.xi_derivative")  # xi_derivative runs inside norms
    steps = total(3, "evolve.evolve")
    m = {
        "spectral.transform_calls": (calls(*transforms), "count"),
        "spectral.transform_points": (total(3, *transforms), "points"),
        "spectral.transform_s": (self_s(*transforms), "s"),
        "spectral.propagate_calls": (calls("spectral.free_propagate"), "count"),
        "spectral.propagate_s": (self_s("spectral.free_propagate"), "s"),
        "spectral.norms_calls": (calls("spectral.norms"), "count"),
        "spectral.norms_s": (self_s(*norms), "s"),
        "spectral.fields_built": (summary["fields_built"], "count"),
        "profile.asymptotic_profile_calls": (calls("profile.asymptotic_profile"), "count"),
        "profile.asymptotic_profile_s": (self_s("profile.asymptotic_profile"), "s"),
        "profile.make_final_data_s": (self_s("profile.make_final_data"), "s"),
        "trilinear.forcing_calls": (calls("trilinear.forcing"), "count"),
        "trilinear.forcing_s": (self_s("trilinear.forcing"), "s"),
        "trilinear.cubic_difference_calls": (calls("trilinear.cubic_difference"), "count"),
        "trilinear.cubic_difference_s": (self_s("trilinear.cubic_difference"), "s"),
        "fixedpoint.picard_calls": (calls("fixedpoint.picard_iterate"), "count"),
        "fixedpoint.picard_iterates": (total(3, "fixedpoint.picard_iterate"), "count"),
        "fixedpoint.picard_s": (self_s("fixedpoint.picard_iterate"), "s"),
        "fixedpoint.apply_phi_calls": (calls("fixedpoint.apply_phi"), "count"),
        "fixedpoint.apply_phi_s": (self_s("fixedpoint.apply_phi"), "s"),
        "fixedpoint.xt_norm_calls": (calls("fixedpoint.xt_norm"), "count"),
        "fixedpoint.xt_norm_s": (self_s("fixedpoint.xt_norm"), "s"),
        "fixedpoint.phi_eps_s": (self_s("fixedpoint.phi_eps"), "s"),
        "fixedpoint.contraction_probe_s": (self_s("fixedpoint.contraction_probe"), "s"),
        "evolve.evolve_s": (self_s("evolve.evolve"), "s"),
        "evolve.strang_steps": (steps, "count"),
        "evolve.us_per_step": (1e6 * self_s("evolve.evolve") / steps if steps else 0.0, "us"),
        "evolve.strang_step_calls": (calls("evolve.strang_step"), "count"),
        "evolve.strang_step_s": (self_s("evolve.strang_step"), "s"),
        "evolve.scattering_deviation_s": (self_s("evolve.scattering_deviation"), "s"),
        "evolve.asymptotic_error_s": (self_s("evolve.asymptotic_error"), "s"),
        "fitting.fit_decay_calls": (calls("fitting.fit_decay"), "count"),
        "fitting.fit_decay_s": (self_s("fitting.fit_decay"), "s"),
        "cli.write_results_s": (self_s("cli.write_results"), "s"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m


@dataclass
class Cycle:
    """Trace mode: untraced default run, untraced serial run (sweep), traced run."""

    untraced: Proc
    traced: Proc
    serial: Proc | None = None

    @property
    def procs(self) -> list[Proc]:
        return [p for p in (self.untraced, self.serial, self.traced) if p is not None]


def run_cycle(workload: str, cfg: dict, cfg_path: Path) -> Cycle:
    serial = workload == "sweep"
    cycle = Cycle(untraced=attempt(workload, cfg, cfg_path),
                  traced=attempt(workload, cfg, cfg_path, trace=True, serial=serial))
    if serial:
        cycle.serial = attempt(workload, cfg, cfg_path, serial=True)
    return cycle


def traced_metrics(workload: str, cycles: list[Cycle]) -> dict:
    traced = sorted((c.traced for c in cycles if c.traced.ok), key=lambda p: p.wall_s)
    baseline = [(c.serial or c.untraced) for c in cycles]
    baseline = [p.wall_s for p in baseline if p.ok]
    untraced = [c.untraced for c in cycles if c.untraced.ok]
    if not (traced and baseline and untraced):
        raise BenchError("no passing traced and untraced campaign to compare")
    chosen = traced[len(traced) // 2]
    m = layer_metrics(chosen.report["trace"])
    m["campaigns.cpu_per_wall"] = (statistics.median(p.cpu_per_wall for p in untraced), "s/s")
    accounted = sum(v[1] for v in chosen.report["trace"]["spans"].values())
    traced_s = statistics.median(p.wall_s for p in traced)
    untraced_s = statistics.median(baseline)
    m["trace.campaign_s"] = (chosen.wall_s, "s")
    m["trace.unaccounted_s"] = (chosen.wall_s - accounted, "s")
    m["trace.untraced_campaign_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")

    mode = "serial (MODWAVE_THREADS=1)" if workload == "sweep" else "as in the timed runs"
    print(f"traced campaigns: {len(traced)}, mode {mode}; metrics from the median one")
    parts = " + ".join(f"{layer} {m[f'{layer}.self_s'][0]:.4f}" for layer in SELF_LAYERS)
    print(f"accounting: campaign {chosen.wall_s:.4f} s = {parts} "
          f"+ cli.write_results {m['cli.write_results_s'][0]:.4f} "
          f"+ unaccounted {m['trace.unaccounted_s'][0]:.6f} (self times, disjoint)")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
          f"= {traced_s - untraced_s:.4f} s (medians)")
    for name, (value, unit) in m.items():
        print(f"{name} = {value:.6g} {unit}")
    return m


# --------------------------------------------------------------- provenance


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable (not a git checkout)"
    return out[1] if Path(out[0]).resolve() == ROOT else "unavailable (not a git checkout)"


def _caches() -> str:
    try:
        out = subprocess.run(["lscpu", "--caches=NAME,ALL-SIZE"], capture_output=True,
                             text=True, check=True).stdout.split("\n")[1:]
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return ", ".join(" ".join(line.split()) for line in out if line.strip())


def _version(package: str) -> str:
    try:
        return version(package)
    except PackageNotFoundError:
        return "not installed"


def print_header(workload: str, cfg: dict, args) -> None:
    w = WORKLOADS[workload]
    print(f"modwave benchmark: workload {workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; closed loop, 1 client")
    print(f"provenance: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {_version('numpy')}, scipy {_version('scipy')}, git {_git_sha()}")
    print(f"caches (lscpu, all instances): {_caches()}")
    print(f"working set (computed from array sizes): {w.working_set}")
    print(f"note: {w.note}")
    print("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))


# --------------------------------------------------------------------- main


def run_workload(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    cfg_path = work / "config.txt"
    write_config(cfg, cfg_path)
    print_header(args.workload, cfg, args)

    if args.trace:
        cycles = closed_loop(lambda: run_cycle(args.workload, cfg, cfg_path), args.seconds)
        procs = [p for c in cycles for p in c.procs]
    else:
        procs = closed_loop(lambda: attempt(args.workload, cfg, cfg_path), args.seconds)
        setups = [setup_probe(args.workload, cfg_path)
                  for _ in range(SETUP_SAMPLES - sum(p.ok for p in procs))]
    failed = sum(not p.ok for p in procs)
    print(f"campaign runs: {len(procs)}, failed {failed}, fail_frac {failed / len(procs):.6g}")
    if failed == len(procs):
        print("every campaign run failed; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(args.workload, cycles)
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(procs, setups).items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": len(procs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def self_test(seed: int, work: Path) -> int:
    """Same seed twice: identical check values and deterministic counts per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(E2E_UNITS):
        problems.append("BENCHMARK.json end_to_end names differ from the benchmark's")
    for name, workload in WORKLOADS.items():
        cfg = workload.config(seed)
        cfg_path = work / f"{name}.txt"
        write_config(cfg, cfg_path)
        cycles = [run_cycle(name, cfg, cfg_path) for _ in range(2)]
        procs = [p for c in cycles for p in c.procs]
        if not all(p.ok for p in procs):
            problems.append(f"{name}: a run failed")
            continue
        if any(p.check_values != procs[0].check_values for p in procs):
            problems.append(f"{name}: check values differ between runs of one seed")
        counts = [{k: layer_metrics(c.traced.report["trace"])[k][0]
                   for k in DETERMINISTIC_COUNTS} for c in cycles]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between traced runs: {counts}")
        names = list(traced_metrics(name, cycles))
        if names != [m["name"] for m in spec["per_layer"]]:
            problems.append(f"{name}: BENCHMARK.json per_layer names differ from {names}")
        print(f"{name}: {len(procs)} runs, {len(procs[0].check_values)} checks, counts "
              f"{counts[0]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check determinism and output correctness on every workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")
    if not (ROOT / "src" / "modwave" / "cli.py").is_file():
        print(f"modwave sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return self_test(args.seed, work) if args.self_test else run_workload(args, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
