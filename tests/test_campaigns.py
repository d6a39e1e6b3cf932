"""Campaign-level checks on small grids: the sweep, construct and roundtrip verdicts."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import modwave
from modwave import (
    ProfileTrajectory,
    build_drive,
    campaigns,
    fixedpoint,
    make_final_data,
    parse_config,
    picard_iterate,
    run_campaign,
    trilinear,
    xt_distance,
    xt_norm,
)
from modwave.cli import main, write_results

SMALL = (
    "num_points = 256\n"
    "box_length = 100\n"
    "time_grid_points = 33\n"
    "bandwidth = 0.4\n"
)


def checks_by_name(result):
    return {c["name"]: c for c in result.checks}


def test_sweep_serial(monkeypatch, tmp_path):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    config = parse_config(SMALL)
    res = run_campaign("sweep", config)
    header, rows = res.series["sweep"]
    # eps0 x T x lam = 2 x 2 x 2 cells, sorted by (eps0, T, lam)
    assert len(rows) == 8
    assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)
    assert all(r[header.index("converged")] == 1 for r in rows)
    names = [c["name"] for c in res.checks]
    assert len(names) == len(set(names))
    checks = checks_by_name(res)
    assert set(checks) == {"all_cells_converged", "max_contraction_ratio"}
    assert all(c["passed"] for c in checks.values())
    assert checks["all_cells_converged"]["value"] == 8

    # the free wave wraps around this small box, so every tail is unbounded
    assert [r[header.index("tail_estimate")] for r in rows] == [float("inf")] * 8
    write_results(res, tmp_path, config)
    with (tmp_path / "sweep_sweep.csv").open() as fh:
        assert [row["tail_estimate"] for row in csv.DictReader(fh)] == ["inf"] * 8


def test_sweep_cell_reports_the_drive_tail():
    # a box that holds the wave up to t_max: a finite tail
    config = parse_config("num_points = 256\nbox_length = 800\ntime_grid_points = 65\n"
                          "bandwidth = 0.05\n")
    params = config.sweep_params()[0]
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    tail = campaigns._sweep_cell(params, config)["tail_estimate"]
    assert 0.0 < tail < float("inf")
    assert tail == build_drive(W, params).tail_estimate


def test_converged_check_uses_configured_max_iter(monkeypatch):
    # serial: a monkeypatch reaches pool workers only under the fork start method
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    real = campaigns.picard_iterate

    def sixteen_iterates(*args, **kwargs):
        g, report = real(*args, **kwargs)
        report.iterates = 16
        return g, report

    monkeypatch.setattr(campaigns, "picard_iterate", sixteen_iterates)
    res = run_campaign("construct", parse_config(SMALL + "max_iter = 20\n"))
    checks = checks_by_name(res)
    for tag in ("defocusing", "focusing"):
        check = checks[f"converged_{tag}"]
        assert check["value"] == 16
        assert check["passed"]
        assert "within 20 iterations" in check["detail"]


def _without_ratios(real):
    def one_iterate(*args, **kwargs):
        g, report = real(*args, **kwargs)
        report.contraction_ratios = []
        return g, report

    return one_iterate


def test_sweep_fails_when_no_cell_measured(monkeypatch):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    monkeypatch.setattr(campaigns, "picard_iterate", _without_ratios(campaigns.picard_iterate))
    res = run_campaign("sweep", parse_config(SMALL))
    header, rows = res.series["sweep"]
    assert all(r[header.index("max_contraction_ratio")] is None for r in rows)
    check = checks_by_name(res)["max_contraction_ratio"]
    assert not check["passed"]
    assert "0 of 8" in check["detail"]


def test_construct_contraction_falls_back_to_probe(monkeypatch):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    monkeypatch.setattr(campaigns, "picard_iterate", _without_ratios(campaigns.picard_iterate))
    checks = checks_by_name(run_campaign("construct", parse_config(SMALL)))
    for tag in ("defocusing", "focusing"):
        ratio = checks[f"contraction_max_ratio_{tag}"]
        assert ratio["value"] == checks[f"contraction_probe_{tag}"]["value"]
        assert "no Picard ratio measured" in ratio["detail"]


def _swept(g, drive):
    """Phi(g) into a new trajectory, through campaigns.apply_phi."""
    out = np.empty_like(g.values)
    campaigns.apply_phi(g, drive, out)
    return ProfileTrajectory(g.grid, g.time_grid, out)


def _construct_sign_resweeping(lam, config):
    """_construct_sign with every image of Phi swept where it is read: the
    probe's two and Phi(g) for the residual, each into a new array, then
    Picard from 2 Phi_eps.
    Sweeps through campaigns.apply_phi, so that a patch there counts them.
    Returns the sign's result and the iterates of that second start."""
    tag = "focusing" if lam == -1 else "defocusing"
    params = replace(config.params, lam=lam)
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    drive = build_drive(W, params)
    cached = drive.phi_eps
    g, report = picard_iterate(drive, config.max_iter, config.tol)
    alt_start = ProfileTrajectory(params.grid, drive.time_grid, 2.0 * cached.values)
    probe = None
    if np.any(cached.values):
        images = [_swept(alt_start, drive), _swept(g, drive)]
        probe = xt_distance(*images, params.alpha) / xt_distance(alt_start, g, params.alpha)
    res = campaigns.CampaignResult("construct")
    if report.contraction_ratios:
        max_ratio, detail = max(report.contraction_ratios), "all Picard contraction ratios <= 0.5"
    elif probe is not None:
        max_ratio, detail = probe, "no Picard ratio measured (one iterate); probe <= 0.5"
    else:
        max_ratio, detail = 0.0, ("zero forcing: the fixed point is g = 0, where the "
                                  "cubic map's Lipschitz constant is 0")
    res.add_check(f"contraction_max_ratio_{tag}", max_ratio, max_ratio <= 0.5, detail)
    res.add_check(f"converged_{tag}", report.iterates,
                  report.converged and report.iterates <= config.max_iter,
                  f"step below {config.tol:g} within {config.max_iter} iterations")
    residual = xt_distance(_swept(g, drive), g, params.alpha)
    res.add_check(f"fixed_point_residual_{tag}", residual, residual <= 2e-9,
                  "||Phi(g) - g||_XT <= 2e-9")
    first = _swept(alt_start, drive)
    g_alt, alt_report = fixedpoint._picard(drive, config.max_iter, config.tol, first,
                                           xt_norm(first, params.alpha),
                                           xt_distance(first, alt_start, params.alpha))
    gap = xt_distance(g, g_alt, params.alpha)
    res.add_check(f"start_independence_{tag}", gap, gap <= 1e-8,
                  "fixed points from two starts agree to 1e-8 in X_T")
    if probe is not None:
        res.add_check(f"contraction_probe_{tag}", probe, probe <= 0.5,
                      "Lipschitz ratio of Phi on a test pair <= 0.5")
    res.extras[f"picard_report_{tag}"] = asdict(report)
    res.extras[f"g_xt_norm_{tag}"] = report.xt_norms[-1]
    return res, alt_report.iterates


@pytest.mark.parametrize("lam, extra, second_stops_at_once", [
    (1, "", False),
    (-1, "", False),
    (1, "max_iter = 1\n", True),
    (1, "tol = 1.0\n", True),  # above ||Phi_eps||_XT, asserted below
    (1, "eps0 = 0\n", True),  # zero data: no probe
], ids=["defocusing", "focusing", "max-iter-1", "tol-above-phi-eps", "zero-data"])
def test_construct_sweeps_each_probe_image_once(monkeypatch, lam, extra, second_stops_at_once):
    config = parse_config(SMALL + extra)
    real, sweeps = fixedpoint.apply_phi, []
    for module in (fixedpoint, campaigns):
        monkeypatch.setattr(module, "apply_phi",
                            lambda *args, **kwargs: sweeps.append(1) or real(*args, **kwargs))
    ref, alt_iterates = _construct_sign_resweeping(lam, config)
    resweeps = len(sweeps)
    sweeps.clear()
    res = campaigns._construct_sign(lam, config)

    assert res.checks == ref.checks
    assert res.extras == ref.extras
    report = res.extras[f"picard_report_{'focusing' if lam == -1 else 'defocusing'}"]
    assert len(sweeps) == (report["iterates"] - 1) + 2 + (alt_iterates - 1)
    assert resweeps - len(sweeps) == (2 if config.params.eps0 else 0)
    assert (alt_iterates == 1) == second_stops_at_once
    if config.tol == 1.0:
        assert report["xt_norms"][0] < config.tol  # ||Phi_eps||_XT


def test_verify_forcing_evaluates_each_kernel_once_per_time(monkeypatch):
    # one pass over the n fit times: the remainder at each and at the two
    # oracle times, the oracle at those two, the forcing at each, at the
    # oracle's identity time and at the half-size scaling datum (the
    # full-size one is the pass's, at the middle fit time), one drive per datum;
    # the sups are read off the fields, without the rest of a norms bundle
    calls = {"remainder": 0, "remainder_oracle": 0, "pulled_back_forcing": 0,
             "build_drive": 0, "norms": 0}
    for name in calls:
        real = getattr(modwave, name)  # campaigns imports no norms bundle at all

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (campaigns, trilinear, fixedpoint):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    config = parse_config("")
    res = campaigns.run_verify_forcing(config)
    assert res.passed
    n = len(campaigns._sample_times(*config.fit_window))
    assert n == 17
    assert calls == {"remainder": 2 + n, "remainder_oracle": 2,
                     "pulled_back_forcing": n + 2, "build_drive": 2, "norms": 0}
    # the middle of the default fit window is t = 100 bit for bit, where the
    # scaling was read before it came from the pass
    scaling = checks_by_name(res)["forcing_cubic_scaling"]
    assert scaling["value"] == 7.999999994470833
    assert "at t = 100 " in scaling["detail"]


def test_construct_sign_holds_four_trajectories_beside_the_propagator_heads():
    # 4-row blocks of 256 points are small against a 257-node trajectory, so
    # the traced peak of one sign counts trajectories: the drive's u_app and
    # Phi_eps, g and one more, beside the drive's half-width propagator heads
    config = parse_config(SMALL.replace("time_grid_points = 33", "time_grid_points = 257"))
    params = config.params
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    assert build_drive(W, params).prop.shape == (257, 256 // 2 + 1)
    trajectory = 257 * 256 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        campaigns._construct_sign(1, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4.3 <= peak / trajectory <= 5.3


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the worker
    initializer, runs that initializer once, maps serially."""

    sizes = []
    initializers = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)
        if initializer is not None:
            initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _canned_cell(params, config):
    return {"eps0": params.eps0, "T": params.T, "lam": params.lam, "converged": 1,
            "iterates": 3, "max_contraction_ratio": 0.1, "g_xt_norm": 1.0,
            "tail_estimate": 0.0}


def _canned_sign(lam, config):
    res = campaigns.CampaignResult("construct")
    res.add_check(f"lam_{lam}", lam, True, "canned")
    res.extras[f"lam_{lam}"] = lam
    return res


def _canned_regime(tag, series, converged=True):
    def part(config):
        res = campaigns.CampaignResult("roundtrip")
        res.extras[f"picard_report_{tag}"] = tag
        if not converged:
            res.add_check(f"construction_converged_{tag}", 15, False, "canned")
            return res
        res.add_check(f"check_{tag}", 1.0, True, "canned")
        res.fits[f"fit_{tag}"] = tag
        res.series.update(series)
        return res

    return part


_CANNED_SERIES = {
    "narrow": {"narrow": (["t", "weighted_deviation", "mass", "energy"],
                          [[10.0, 1, 3, 5], [20.0, 2, 4, 6]])},
    "dispersive": {"dispersive": (["t", "asymptotic_error", "w_weighted"],
                                  [[10.0, 7, 9], [20.0, 8, 10]])},
    "free": {"uapp_decay": (["t", "uapp_sup"], [[10.0, 0.5]])},
}
_TAGS = list(_CANNED_SERIES)


def _patch_regimes(monkeypatch, unconverged=()):
    for tag, series in _CANNED_SERIES.items():
        monkeypatch.setattr(campaigns, f"_roundtrip_{tag}",
                            _canned_regime(tag, series, tag not in unconverged))


def _merged_construct(res):
    # merged in lam order, defocusing first
    assert [c["name"] for c in res.checks] == ["lam_1", "lam_-1"]
    assert list(res.extras) == ["lam_1", "lam_-1"]


def _merged_roundtrip(res):
    assert [c["name"] for c in res.checks] == [f"check_{t}" for t in _TAGS]
    assert list(res.fits) == [f"fit_{t}" for t in _TAGS]
    assert list(res.extras) == [f"picard_report_{t}" for t in _TAGS]
    # each regime's series as it wrote it, in regime order
    assert res.series == {name: series for regime in _CANNED_SERIES.values()
                          for name, series in regime.items()}
    assert list(res.series) == ["narrow", "dispersive", "uapp_decay"]


def _merged_sweep(res):
    assert len(res.series["sweep"][1]) == 8


# Each pooled campaign with its parts canned: how to can them, and what its
# merged result must hold.
_POOLED = {
    "construct": (lambda mp: mp.setattr(campaigns, "_construct_sign", _canned_sign),
                  _merged_construct),
    "roundtrip": (_patch_regimes, _merged_roundtrip),
    "sweep": (lambda mp: mp.setattr(campaigns, "_sweep_cell", _canned_cell), _merged_sweep),
}

# The worker rule on every pooled campaign: (campaign, case id, MODWAVE_THREADS,
# cpu_count, the pool sizes it makes)
_WORKER_CASES = [
    ("sweep", "64", "64", 2, [8]),  # capped at the 8 cells: no idle workers are forked
    ("sweep", "3", "3", 2, [3]),
    ("sweep", "1", "1", 2, []),  # serial, no pool
    ("sweep", "unset", None, 2, [2]),  # unset and 0: one worker per CPU
    ("sweep", "0-many-cpus", "0", 32, [8]),
    ("sweep", "unset-one-cpu", None, 1, []),
    ("construct", "64", "64", 2, [2]),  # capped at the two signs
    ("construct", "1", "1", 2, []),
    ("construct", "unset-one-cpu", None, 1, []),
    ("roundtrip", "64", "64", 2, [3]),  # capped at the three regimes
    ("roundtrip", "1", "1", 2, []),
    ("roundtrip", "unset-one-cpu", None, 1, []),
]


def _worker_cases(campaign):
    cases = [case for case in _WORKER_CASES if case[0] == campaign]
    return pytest.mark.parametrize("threads, cpus, pool", [case[2:] for case in cases],
                                   ids=[case[1] for case in cases])


def _assert_worker_rule(monkeypatch, campaign, threads, cpus, pool):
    if threads is None:
        monkeypatch.delenv("MODWAVE_THREADS", raising=False)
    else:
        monkeypatch.setenv("MODWAVE_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "initializers", [])
    can, assert_merged = _POOLED[campaign]
    can(monkeypatch)
    res = run_campaign(campaign, parse_config(SMALL))
    assert _RecordingPool.sizes == pool
    assert _RecordingPool.initializers == [campaigns._reuse_freed_memory] * len(pool)
    assert_merged(res)


@_worker_cases("sweep")
def test_sweep_worker_count(monkeypatch, threads, cpus, pool):
    _assert_worker_rule(monkeypatch, "sweep", threads, cpus, pool)


@_worker_cases("construct")
def test_construct_worker_count(monkeypatch, threads, cpus, pool):
    _assert_worker_rule(monkeypatch, "construct", threads, cpus, pool)


@_worker_cases("roundtrip")
def test_roundtrip_worker_count_and_merge_order(monkeypatch, threads, cpus, pool):
    _assert_worker_rule(monkeypatch, "roundtrip", threads, cpus, pool)


def _assert_refused(monkeypatch, campaign, threads):
    monkeypatch.setenv("MODWAVE_THREADS", threads)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    _POOLED[campaign][0](monkeypatch)
    with pytest.raises(ValueError, match="MODWAVE_THREADS must be a non-negative integer"):
        run_campaign(campaign, parse_config(SMALL))


@pytest.mark.parametrize("threads", ["-2", "abc", "2.5", ""])
def test_sweep_refuses_invalid_thread_count(monkeypatch, threads):
    _assert_refused(monkeypatch, "sweep", threads)


def test_construct_refuses_invalid_thread_count(monkeypatch):
    _assert_refused(monkeypatch, "construct", "abc")


def test_run_campaign_refuses_an_unknown_name():
    # the CLI's choices refuse it first; a direct caller meets this refusal
    with pytest.raises(ValueError, match="unknown campaign 'constructs'"):
        run_campaign("constructs", parse_config(SMALL))


# A sweep's allocation pattern, run twice in a fresh process: one trajectory
# (129 x 4096 complex), then 20 pairs of 4-row block temporaries, all freed.
# Prints the minor page faults of the second run.
_REFAULT_SCRIPT = """
import resource, sys
import numpy as np
from modwave.campaigns import _reuse_freed_memory
if sys.argv[1] == "policy":
    _reuse_freed_memory()
def pattern():
    trajectory = np.ones((129, 4096), complex)
    for _ in range(20):
        block = np.ones((4, 4096), complex)
        product = block * 2j
        del block, product
    del trajectory
pattern()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pattern()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not campaigns._libc_version(), reason="the policy acts on glibc only")
def test_freed_memory_is_reused_not_faulted_again():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(campaigns.__file__)))
    faults = {}
    for mode in ("policy", "control"):
        done = subprocess.run([sys.executable, "-c", _REFAULT_SCRIPT, mode], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        faults[mode] = int(done.stdout)
    assert faults["policy"] < 50, faults
    assert faults["control"] > 200, faults  # without it, the pattern faults again


@pytest.mark.parametrize("campaign, extra, reason, fragments", [
    ("construct", "eps0 = 20\n", "FloatingPointError: Picard iteration blew up", []),
    ("roundtrip", "data_kind = random_bandlimited\n",
     "ValueError: the chirp e^(i y^2/2t) is unresolved", ["at t = 10.0"]),
], ids=["construct-blowup", "roundtrip-chirp"])
def test_error_in_a_worker_exits_two(monkeypatch, tmp_path, capsys, campaign, extra, reason,
                                     fragments):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + extra)
    reasons = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MODWAVE_THREADS", threads)
        assert main([campaign, "--config", str(cfg), "--out", str(tmp_path / threads)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime"
        reasons[threads] = err["reason"]
    assert reasons["2"] == reasons["1"]
    assert reasons["1"].startswith(reason)
    assert all(fragment in reasons["1"] for fragment in fragments)


@pytest.mark.parametrize("unconverged", [("narrow",), ("narrow", "dispersive"),
                                         ("dispersive",)], ids=["narrow", "both", "dispersive"])
def test_roundtrip_reports_every_regime(monkeypatch, unconverged):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    _patch_regimes(monkeypatch, unconverged)
    res = run_campaign("roundtrip", parse_config(SMALL))
    converged = [t for t in _TAGS if t not in unconverged]
    assert [c["name"] for c in res.checks] == [
        f"construction_converged_{t}" if t in unconverged else f"check_{t}" for t in _TAGS]
    assert [c["name"] for c in res.checks if not c["passed"]] == [
        f"construction_converged_{t}" for t in unconverged]
    assert list(res.fits) == [f"fit_{t}" for t in converged]
    assert list(res.extras) == [f"picard_report_{t}" for t in _TAGS]
    assert list(res.series) == [name for t in converged for name in _CANNED_SERIES[t]]


def test_roundtrip_unconverged_constructions_exit_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    monkeypatch.setattr(campaigns, "picard_iterate",
                        lambda *args: (None, fixedpoint.PicardReport(iterates=15)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    assert main(["roundtrip", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks == {"construction_converged_narrow": False,
                      "construction_converged_dispersive": False,
                      "uapp_decay_slope": True, "ray_free_wave_gap": True,
                      "strang_order": True, "evolve_matches_strang": True}
    assert list(payload["fits"]) == ["uapp_decay"]
    assert list(payload["series_files"]) == ["uapp_decay"]
    assert {"picard_report_narrow", "picard_report_dispersive"} <= set(payload["extras"])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "checks", "reason": ["construction_converged_narrow",
                                                 "construction_converged_dispersive"]}


def _assert_timed(timings, parts):
    # the campaign's wall and CPU seconds, and one entry per part
    assert len(timings["parts"]) == parts
    for entry in [timings, *timings["parts"]]:
        assert all(np.isfinite(entry[k]) and entry[k] >= 0.0 for k in ("wall_s", "cpu_s"))


def _assert_same_on_pool_and_serial(monkeypatch, campaign, names, parts):
    # the pooled parts of a campaign merge into the serial result, bit for
    # bit and in the serial order, all but the timings, which hold one entry
    # per part either way
    results = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MODWAVE_THREADS", threads)
        results[threads] = asdict(run_campaign(campaign, parse_config(SMALL)))
        _assert_timed(results[threads].pop("timings"), parts)
    assert results["2"] == results["1"]
    assert list(results["1"]["series"]) == names


def test_construct_same_on_pool_and_serial(monkeypatch):
    _assert_same_on_pool_and_serial(monkeypatch, "construct", [], 2)


def test_roundtrip_same_on_pool_and_serial(monkeypatch):
    _assert_same_on_pool_and_serial(monkeypatch, "roundtrip",
                                    ["narrow", "dispersive", "uapp_decay"], 3)


def test_sweep_same_on_pool_and_serial(monkeypatch):
    _assert_same_on_pool_and_serial(monkeypatch, "sweep", ["sweep"], 8)


def test_unpooled_campaign_times_itself_alone():
    _assert_timed(run_campaign("verify-spectral", parse_config(SMALL)).timings, 0)
