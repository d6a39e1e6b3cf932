"""Campaign-level checks on small grids: the sweep and the construct verdicts."""

import json
import os

import pytest

from modwave import campaigns, parse_config, run_campaign
from modwave.cli import main

SMALL = (
    "num_points = 256\n"
    "box_length = 100\n"
    "time_grid_points = 33\n"
    "bandwidth = 0.4\n"
)


def checks_by_name(result):
    return {c["name"]: c for c in result.checks}


def test_sweep_serial(monkeypatch):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    res = run_campaign("sweep", parse_config(SMALL))
    header, rows = res.series["sweep"]
    # eps0 x T x lam = 2 x 2 x 2 cells, sorted by (eps0, T, lam)
    assert len(rows) == 8
    assert [r[:3] for r in rows] == sorted(r[:3] for r in rows)
    assert all(r[header.index("converged")] == 1 for r in rows)
    checks = checks_by_name(res)
    assert set(checks) == {"all_cells_converged", "max_contraction_ratio"}
    assert all(c["passed"] for c in checks.values())
    assert checks["all_cells_converged"]["value"] == 8


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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _canned_cell(args):
    params, _ = args
    return {"eps0": params.eps0, "T": params.T, "lam": params.lam, "converged": True,
            "iterates": 3, "max_contraction_ratio": 0.1, "g_xt_norm": 1.0}


@pytest.mark.parametrize("threads, cpus, pool", [
    ("64", 2, [8]),  # capped at the 8 cells: no idle workers are forked
    ("3", 2, [3]),
    ("1", 2, []),  # serial, no pool
    (None, 2, [2]),  # unset and 0: one worker per CPU
    ("0", 32, [8]),
    (None, 1, []),
], ids=["64", "3", "1", "unset", "0-many-cpus", "unset-one-cpu"])
def test_sweep_worker_count(monkeypatch, threads, cpus, pool):
    if threads is None:
        monkeypatch.delenv("MODWAVE_THREADS", raising=False)
    else:
        monkeypatch.setenv("MODWAVE_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(campaigns, "_sweep_cell", _canned_cell)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    res = run_campaign("sweep", parse_config(SMALL))
    assert _RecordingPool.sizes == pool
    assert len(res.series["sweep"][1]) == 8


@pytest.mark.parametrize("threads", ["-2", "abc", "2.5", ""])
def test_sweep_refuses_invalid_thread_count(monkeypatch, threads):
    monkeypatch.setenv("MODWAVE_THREADS", threads)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(campaigns, "_sweep_cell", _canned_cell)
    with pytest.raises(ValueError, match="MODWAVE_THREADS must be a non-negative integer"):
        run_campaign("sweep", parse_config(SMALL))


def _canned_sign(args):
    lam, _ = args
    res = campaigns.CampaignResult("construct")
    res.add_check(f"lam_{lam}", lam, True, "canned")
    res.extras[f"lam_{lam}"] = lam
    return res


@pytest.mark.parametrize("threads, cpus, pool", [
    ("64", 2, [2]),  # capped at the two signs
    ("1", 2, []),
    (None, 1, []),
], ids=["64", "1", "unset-one-cpu"])
def test_construct_worker_count(monkeypatch, threads, cpus, pool):
    if threads is None:
        monkeypatch.delenv("MODWAVE_THREADS", raising=False)
    else:
        monkeypatch.setenv("MODWAVE_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(campaigns, "_construct_sign", _canned_sign)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    res = run_campaign("construct", parse_config(SMALL))
    assert _RecordingPool.sizes == pool
    # merged in lam order, defocusing first
    assert [c["name"] for c in res.checks] == ["lam_1", "lam_-1"]
    assert list(res.extras) == ["lam_1", "lam_-1"]


def test_construct_refuses_invalid_thread_count(monkeypatch):
    monkeypatch.setenv("MODWAVE_THREADS", "abc")
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
    with pytest.raises(ValueError, match="MODWAVE_THREADS must be a non-negative integer"):
        run_campaign("construct", parse_config(SMALL))


def test_construct_same_on_pool_and_serial(monkeypatch):
    results = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MODWAVE_THREADS", threads)
        results[threads] = run_campaign("construct", parse_config(SMALL))
    assert results["2"].checks == results["1"].checks
    assert results["2"].extras == results["1"].extras


def test_construct_blowup_in_a_worker_exits_two(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + "eps0 = 20\n")
    reasons = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MODWAVE_THREADS", threads)
        assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / threads)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime"
        reasons[threads] = err["reason"]
    assert reasons["2"] == reasons["1"]
    assert reasons["1"].startswith("FloatingPointError: Picard iteration blew up")
