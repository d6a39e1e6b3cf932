"""Campaign-level checks on small grids: the sweep and the construct verdicts."""

from modwave import campaigns, parse_config, run_campaign

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
    monkeypatch.setattr(campaigns, "picard_iterate", _without_ratios(campaigns.picard_iterate))
    checks = checks_by_name(run_campaign("construct", parse_config(SMALL)))
    for tag in ("defocusing", "focusing"):
        ratio = checks[f"contraction_max_ratio_{tag}"]
        assert ratio["value"] == checks[f"contraction_probe_{tag}"]["value"]
        assert "no Picard ratio measured" in ratio["detail"]
