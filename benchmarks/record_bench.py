"""Write a bench record: end-to-end times, per-layer times and work counts of
one or more modwave checkouts, measured on this machine.

    python3 benchmarks/record_bench.py --out BENCH_<n>.json parent=../parent change=../change

with both checkouts at sibling paths: the path alone can move setup_s, which
read 0.272 s in one directory and 0.303 s in a byte-identical copy elsewhere.

This script is the only layer timer.  To time the layers of one checkout
alone, from its root:

    PYTHONPATH=src python3 benchmarks/record_bench.py --layers --repeats 5

and to print the work counts of one of its campaigns (see below), which
sets MODWAVE_THREADS=1 itself, since it counts in its own process:

    PYTHONPATH=src python3 benchmarks/record_bench.py --counts construct

For each LABEL=PATH checkout it records:

- each of the six campaigns on the default config (an empty config file),
  run --repeats times in a fresh process through that checkout's
  ``perfbench/child.py`` (``perfbench/run.py``'s ``run_child``, with
  MODWAVE_THREADS unset): median, minimum and quartiles of wall_s, cpu_s,
  peak_rss_mb and setup_s, as ``perfbench/run.py`` defines them, and of
  cpu_s split at the campaign's start, from the CPU times that the child
  reports there and once results.json is written: setup_cpu_s, the CPU
  of interpreter start, imports and config parsing, and campaign_cpu_s,
  that of the campaign and its pool workers;
- the Tier-1 suite, run --repeats times: median, minimum and quartiles of
  its wall time;
- per-layer times, one sample per repeat, each from a fresh serial process
  of this script on the checkout's sources that makes one warm-up and
  LAYER_CALLS (5) timed calls per layer, whose median is the sample.  On
  the default grid (N = 4096, 129 nodes, default gaussian data):
  build_drive, the transform pair over one trajectory (Phi_eps), the
  pulled-back cubic over one trajectory with its propagator rows evaluated
  in the call (trilinear._pulled_back_cubic on the rows of _propagator), one
  apply_phi sweep into a new array (on a drive whose first sweep has
  filled its u_app table), xt_norm, xt_distance, one Picard step (a sweep
  into a new array with its size and its step from its input, taken by
  the sweep as it goes), and evolve from T to 2T;
  build_drive once more on the random band-limited seed-1 datum of
  perfbench's sweep workload, which is nonzero on 127 of the 4096 points;
  and evolve on roundtrip's dispersive regime (N = 4096, L = 800, gaussian
  band 0.06, 25 samples from t = 10 to 1000).  Each evolve starts from its
  profile f.  A layer process first sets the checkout's malloc policy,
  campaigns._reuse_freed_memory, as run_campaign and its pool workers do;
- the work counts of one serial (MODWAVE_THREADS=1) in-process
  verify-dispersive, of one verify-forcing, of one construct, of one
  roundtrip and of one sweep, each on the default config in a process of
  its own.
  --counts sets MODWAVE_THREADS=1 before it counts: in pool workers the
  wrapped functions and tracemalloc would see nothing, and every count
  would read 0.
  Every count is taken one way, by wrapping the function by name in each
  modwave module that holds it: calls of apply_phi, xt_norm and xt_distance,
  where the X_T brackets a sweep takes as it goes count as the calls they
  stand for, each None in its against (the image's size) as an xt_norm
  call and each trajectory as an xt_distance call;
  calls of the Picard loop _picard and the iterates it reports; calls of
  build_drive, and of verify-forcing's remainder, remainder_oracle and
  pulled_back_forcing; calls of
  the kernels _fft, _ifft, _propagator, _propagator_head (the phase
  evaluation under every propagator row, and the heads alone that
  build_drive tabulates) and _from_wave (the step back out of the wave,
  which every cubic and every difference of the map takes once, so every
  right-hand side of the forward solve too) and the rows they return;
  calls of evolve and the accepted steps it reports, calls of the
  Dormand-Prince step _dp45, one per step attempt, accepted or rejected,
  and roundtrip's own evolve_steps_<regime> extras beside them.  So the
  rejected attempts are dp45_calls - evolve_steps, and the propagator and
  from_wave rows per attempt follow.  apply_phi is the map's
  only sweep, so its calls count every sweep, and _picard runs both of
  construct's starts, picard_iterate's and the second.
  A function the checkout does not define is left out of its counts.  Beside
  them, peak_traced_mb is the peak of the memory that tracemalloc traces
  over the campaign, in 10^6 bytes: numpy's arrays and the interpreter's
  objects, without the allocator's reserve.

Every checkout is driven through this script's own calls, so each must
take apply_phi(g, drive, out, against): a two-checkout record cannot pair
a checkout whose apply_phi returns an image and its size (sized=, write=)
with one that takes out.
_from_wave counts what _pull_back counted before spectral had the wave
pair, the same calls and rows.  Since a function a checkout does not define
is left out, a record that pairs a checkout without the pair with one that
has it holds from_wave_* on the latter's side only, and no count of the
former's cubics.

The checkouts take turns within each repeat, in alternating order, so drift
of a shared machine falls on both, and each repeat pairs their samples.
With two checkouts the record has a ``pairs`` section: for each campaign
metric, the suite wall time and each layer, the number of repeats, out of
``repeats``, in which the second checkout's sample is lower than the
first's.  A tie counts for neither side.  One record's medians can drift
apart on unchanged code; a count of paired wins is what a claim rests on.

Every run starts without OPENBLAS_NUM_THREADS in its environment, as
run_child starts the campaigns without MODWAVE_THREADS: a value set in the
calling shell would otherwise override what each checkout sets itself, and
hide the difference.  The provenance records the value removed.  Nothing
under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy

CAMPAIGNS = ("verify-spectral", "verify-dispersive", "verify-forcing", "construct",
             "roundtrip", "sweep")
E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
CPU_SPLIT = ("setup_cpu_s", "campaign_cpu_s")
# the campaigns whose work counts are recorded
COUNTED = ("verify-dispersive", "verify-forcing", "construct", "roundtrip", "sweep")
LAYER_CALLS = 5  # timed calls per layer in each layer process


def _summary(samples: list) -> dict:
    """Median, minimum and, from two samples on, the lower and upper quartiles."""
    out = {"median": statistics.median(samples), "min": min(samples)}
    if len(samples) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return {**out, "samples": samples}


def _second_lower(first, second):
    """The repeats in which second's sample is lower than first's, one count
    per sample list of two records nested alike; a tie counts for neither."""
    if isinstance(first, dict):
        return {key: _second_lower(first[key], second[key]) for key in first}
    return sum(b < a for a, b in zip(first, second, strict=True))


def _perfbench_run(root: Path, label: str):
    """The checkout's perfbench/run.py as a module of its own."""
    sys.path.insert(0, str(root / "perfbench"))  # run.py imports its tracer by name
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{label}",
                                                  root / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git_sha(root: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=root, capture_output=True, text=True, check=True).stdout
    return sha + (" (with uncommitted changes)" if dirty.strip() else "")


def _campaign_run(run, campaign: str, cfg_path: Path) -> dict:
    out = Path(tempfile.mkdtemp(dir=cfg_path.parent))
    try:
        proc = run.run_child(campaign, cfg_path, out)
    finally:
        shutil.rmtree(out)
    if proc.code != 0 or "end" not in proc.report:
        raise RuntimeError(f"{campaign} exited {proc.code} without finishing")
    cpu_start = proc.report["cpu_start"]
    return {**{name: getattr(proc, name) for name in E2E}, "setup_cpu_s": cpu_start,
            "campaign_cpu_s": proc.report["cpu_end"] - cpu_start}


def _suite_run(root: Path) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("MODWAVE_THREADS", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = done.stdout.strip().splitlines()[-1]
    if done.returncode != 0:
        raise RuntimeError(f"the suite failed in {root}: {last}")
    return wall, last


def _in_checkout(root: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), MODWAVE_THREADS="1")
    done = subprocess.run([sys.executable, __file__, *args], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


# ------------------------------------------------- in one checkout's process


def layer_times(repeats: int) -> dict:
    """Per-layer times, seconds per call: the default grid's layers, then
    evolve on roundtrip's dispersive regime."""
    from modwave import (ProfileTrajectory, SpectralGrid, apply_phi, asymptotic_profile,
                         build_drive, campaigns, evolve, make_final_data, parse_config,
                         picard_iterate, xt_distance, xt_norm)
    from modwave.spectral import FrequencyField, _fft, _ifft, _propagator
    from modwave.trilinear import _pulled_back_cubic

    campaigns._reuse_freed_memory()  # the malloc policy of run_campaign and its workers
    config = parse_config("")
    params = config.params
    grid, dx = params.grid, params.grid.dx
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    W_sweep = make_final_data("random_bandlimited", params, seed=1, bandwidth=config.bandwidth)
    drive = build_drive(W, params)
    nodes = drive.time_grid.nodes
    g = ProfileTrajectory(grid, drive.time_grid, 2.0 * drive.phi_eps.values)
    fixed, _ = picard_iterate(drive, config.max_iter, config.tol)
    profile_T = FrequencyField(
        grid, asymptotic_profile(W, params.T, params.lam).values + fixed.values[0])
    dispersive = replace(params, t_max=10_000.0, grid=SpectralGrid(4096, 800.0),
                         time_grid_points=193)
    W_dispersive = make_final_data("gaussian", dispersive, seed=0, bandwidth=0.06)
    profile_dispersive = asymptotic_profile(W_dispersive, dispersive.T, dispersive.lam)
    dispersive_times = numpy.geomspace(10.0, 1000.0, 25)

    layers = {
        "build_drive": lambda: build_drive(W, params),
        "build_drive_random_bandlimited_seed1": lambda: build_drive(W_sweep, params),
        "transform_pair": lambda: _ifft(_fft(drive.phi_eps.values, dx), dx),
        "pulled_back_cubic": lambda: _pulled_back_cubic(g.values, _propagator(grid, nodes),
                                                        grid),
        "apply_phi": lambda: apply_phi(g, drive, numpy.empty_like(g.values)),
        "xt_norm": lambda: xt_norm(g, params.alpha),
        "xt_distance": lambda: xt_distance(g, drive.phi_eps, params.alpha),
        "picard_step": lambda: apply_phi(g, drive, numpy.empty_like(g.values), (None, g)),
        "evolve": lambda: evolve(profile_T, params.T, [2.0 * params.T], params),
        "evolve_dispersive": lambda: evolve(profile_dispersive, dispersive.T, dispersive_times,
                                            dispersive),
    }
    out = {}
    for name, call in layers.items():
        call()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        out[name] = _summary(samples)
    return out


def _rows(out) -> int:
    return out.size // out.shape[-1]  # rows along the last axis


# The functions counted by name: the module that defines them, and the name
# and measure of what each call adds to a second count beside the calls.
COUNTED_FUNCTIONS = {
    "apply_phi": ("fixedpoint", None, None),
    "xt_norm": ("fixedpoint", None, None),
    "xt_distance": ("fixedpoint", None, None),
    "_picard": ("fixedpoint", "iterates", lambda out: out[1].iterates),
    "build_drive": ("fixedpoint", None, None),
    "_fft": ("spectral", "rows", _rows),
    "_ifft": ("spectral", "rows", _rows),
    "_propagator": ("spectral", "rows", _rows),
    "_propagator_head": ("spectral", "rows", _rows),
    "_from_wave": ("spectral", "rows", _rows),
    "remainder": ("trilinear", None, None),
    "remainder_oracle": ("trilinear", None, None),
    "pulled_back_forcing": ("trilinear", None, None),
    "evolve": ("evolve", "steps", lambda out: out[-1].step_count if out else 0),
    "_dp45": ("evolve", None, None),
}


def _sweep_brackets(real, args, kwargs) -> dict:
    """The xt_norm and xt_distance calls that the brackets of one apply_phi
    call stand for: a None in against is the image's size."""
    against = inspect.signature(real).bind(*args, **kwargs).arguments.get("against", ())
    # `is None`, since tuple.count(None) would compare trajectories by value
    sizes = sum(traj is None for traj in against)
    return {"xt_norm_calls": sizes, "xt_distance_calls": len(against) - sizes}


# The functions whose calls take X_T brackets besides their own work
BRACKETS = {"apply_phi": _sweep_brackets}


def work_counts(campaign: str) -> dict:
    """Work counts of one serial in-process campaign on the default config."""
    import modwave

    counts = {}
    # every module of the package: modwave.evolve, for one, is the function
    namespaces = [vars(m) for n, m in sys.modules.items() if n.partition(".")[0] == "modwave"]
    for name, (module, what, measure) in COUNTED_FUNCTIONS.items():
        real = getattr(sys.modules[f"modwave.{module}"], name, None)
        if real is None:
            continue  # not defined in this checkout
        key = name.lstrip("_")
        calls, more = f"{key}_calls", what and f"{key}_{what}"
        counts.update({key: 0 for key in (calls, more) if key})

        def counted(*args, _real=real, _calls=calls, _more=more, _measure=measure,
                    _brackets=BRACKETS.get(name), **kwargs):
            out = _real(*args, **kwargs)
            counts[_calls] += 1
            if _more:
                counts[_more] += _measure(out)
            if _brackets:
                for key, n in _brackets(_real, args, kwargs).items():
                    counts[key] += n
            return out

        for ns in namespaces:
            if ns.get(name) is real:
                ns[name] = counted

    config = modwave.parse_config("")
    tracemalloc.start()
    result = modwave.run_campaign(campaign, config)
    counts["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    if not result.passed:
        raise RuntimeError(f"{campaign} failed on the default config")
    # roundtrip's accepted steps per regime, beside the sum over its evolve calls
    counts.update({k: v for k, v in result.extras.items() if k.startswith("evolve_steps_")})
    return counts


# ---------------------------------------------------------------------- main


def record(checkouts: dict, repeats: int) -> dict:
    shas = {label: _git_sha(root) for label, root in checkouts.items()}  # before the runs
    # every run below copies this process's environment
    shell_blas_threads = os.environ.pop("OPENBLAS_NUM_THREADS", None)
    runs = {label: _perfbench_run(root, label) for label, root in checkouts.items()}
    work = Path(tempfile.mkdtemp())
    cfg_path = work / "default.cfg"
    cfg_path.write_text("")  # every key at its default
    e2e = {label: {c: {m: [] for m in E2E + CPU_SPLIT} for c in CAMPAIGNS}
           for label in checkouts}
    suite = {label: [] for label in checkouts}
    suite_result = {}
    layers = {label: {} for label in checkouts}
    try:
        for rep in range(repeats):
            labels = list(checkouts)[::(-1) ** rep]
            for label in labels:
                for campaign in CAMPAIGNS:
                    for metric, value in _campaign_run(runs[label], campaign, cfg_path).items():
                        e2e[label][campaign][metric].append(value)
                wall, suite_result[label] = _suite_run(checkouts[label])
                suite[label].append(wall)
                sample = _in_checkout(checkouts[label], "--layers", "--repeats",
                                      str(LAYER_CALLS))
                for name, times in sample.items():
                    layers[label].setdefault(name, []).append(times["median"])
                print(f"repeat {rep + 1}/{repeats} {label}: suite {wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work)

    commits = {}
    for label, root in checkouts.items():
        commits[label] = {
            "git_sha": shas[label],
            "campaigns_default_config": {
                c: {m: _summary(v) for m, v in e2e[label][c].items()} for c in CAMPAIGNS},
            "tier1_suite": {"wall_s": _summary(suite[label]), "result": suite_result[label]},
            "layers_s": {name: _summary(v) for name, v in layers[label].items()},
            "counts_serial": {c: _in_checkout(root, "--counts", c) for c in COUNTED},
        }
    out = {
        "what": __doc__.split("\n\n")[0].replace("\n", " "),
        "repeats": repeats,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            # the calling shell's value (null: it had none), unset in every run
            "unset_in_runs": {"OPENBLAS_NUM_THREADS": shell_blas_threads},
        },
        "commits": commits,
    }
    if len(checkouts) == 2:
        paired = [{"campaigns_default_config": e2e[label], "tier1_suite_wall_s": suite[label],
                   "layers_s": layers[label]} for label in checkouts]
        first, second = checkouts
        out["pairs"] = {"first": first, "second": second, "second_lower": _second_lower(*paired)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--layers", action="store_true",
                        help="print this checkout's per-layer times as JSON (run with "
                             "PYTHONPATH=src from its root) instead of writing a record")
    parser.add_argument("--counts", choices=COUNTED,
                        help="print this checkout's work counts of one serial campaign as "
                             "JSON (run with PYTHONPATH=src from its root)")
    args = parser.parse_args()
    if args.layers:
        print(json.dumps(layer_times(args.repeats)))
        return 0
    if args.counts:
        os.environ["MODWAVE_THREADS"] = "1"  # the counts are taken in this process
        print(json.dumps(work_counts(args.counts)))
        return 0
    if not args.checkouts or args.out is None or args.repeats < 5:
        parser.error("give --out, at least one LABEL=PATH and --repeats >= 5")
    checkouts = {}
    for item in args.checkouts:
        label, _, path = item.partition("=")
        checkouts[label] = Path(path).resolve()
    args.out.write_text(json.dumps(record(checkouts, args.repeats), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
