"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Each criterion re-asserts the stated tolerance against the recorded check
values, so a weakened campaign threshold cannot silently pass here.  The
criteria find a check by its name, which no campaign may repeat.
"""

import numpy as np
import pytest

from modwave import parse_config, run_campaign


@pytest.fixture(scope="module")
def default_config():
    return parse_config("")


@pytest.fixture(scope="module")
def spectral(default_config):
    return run_campaign("verify-spectral", default_config)


@pytest.fixture(scope="module")
def dispersive(default_config):
    return run_campaign("verify-dispersive", default_config)


@pytest.fixture(scope="module")
def forcing(default_config):
    return run_campaign("verify-forcing", default_config)


@pytest.fixture(scope="module")
def construct(default_config):
    return run_campaign("construct", default_config)


@pytest.fixture(scope="module")
def roundtrip(default_config):
    return run_campaign("roundtrip", default_config)


def check(result, name):
    """The check named name; test_check_names_are_unique makes it the only one."""
    for c in result.checks:
        if c["name"] == name:
            return c
    raise AssertionError(f"campaign {result.name} has no check named {name!r}")


def verdict(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_spectral_identities(spectral):
    rt = check(spectral, "roundtrip_error")["value"]
    pl = check(spectral, "plancherel_error")["value"]
    ga = check(spectral, "free_gaussian_error")["value"]
    gl = check(spectral, "group_law_error")["value"]
    ok = rt <= 1e-12 and pl <= 1e-10 and ga <= 1e-8 and gl <= 1e-12
    verdict(1, "spectral identities", ok,
            f"roundtrip={rt:.2e} plancherel={pl:.2e} gaussian={ga:.2e} group={gl:.2e}")


def test_criterion_02_dispersive_estimate(dispersive):
    sup = check(dispersive, "dispersive_sup")["value"]
    stab = check(dispersive, "dispersive_seed_stability")["value"]
    slope = check(dispersive, "stationary_phase_slope")["value"]
    ok = np.isfinite(sup) and sup <= 1.0 and stab <= 0.10 and slope <= -0.70
    verdict(2, "dispersive estimate", ok,
            f"sup={sup:.4f} seed_stability={stab:.4f} sp_slope={slope:.3f}")


def test_criterion_03_trilinear_remainder(forcing):
    r5 = check(forcing, "oracle_rel_error_t5")["value"]
    r50 = check(forcing, "oracle_rel_error_t50")["value"]
    slope = check(forcing, "remainder_slope")["value"]
    # decay target: -(1 + delta) + 0.15 with delta = 0.2
    ok = r5 <= 1e-3 and r50 <= 1e-3 and slope <= -1.05
    verdict(3, "trilinear remainder vs oracle", ok,
            f"oracle_t5={r5:.2e} oracle_t50={r50:.2e} slope={slope:.3f}")


def test_criterion_04_forcing_identity(forcing):
    fft_res = check(forcing, "forcing_residual_fft")["value"]
    orc_res = check(forcing, "forcing_residual_oracle")["value"]
    ok = fft_res <= 1e-10 and orc_res <= 1e-3
    verdict(4, "forcing identity", ok,
            f"fft_residual={fft_res:.2e} oracle_residual={orc_res:.2e}")


def test_criterion_05_forcing_decay_and_scaling(forcing):
    slope = check(forcing, "forcing_decay_slope")["value"]
    cubic = check(forcing, "forcing_cubic_scaling")["value"]
    phi = check(forcing, "phi_eps_cubic_scaling")["value"]
    ok = (slope <= -1.05
          and abs(cubic / 8.0 - 1.0) <= 0.10
          and abs(phi / 8.0 - 1.0) <= 0.10)
    verdict(5, "forcing decay and cubic scaling", ok,
            f"slope={slope:.3f} forcing_ratio={cubic:.3f} phi_eps_ratio={phi:.3f}")


def test_criterion_06_uapp_decay(roundtrip):
    slope = check(roundtrip, "uapp_decay_slope")["value"]
    gap = check(roundtrip, "ray_free_wave_gap")["value"]
    ok = -0.55 <= slope <= -0.45 and gap <= 1e-12
    verdict(6, "approximate-solution decay", ok, f"slope={slope:.4f} ray_gap={gap:.2e}")


def test_criterion_07_contraction(construct):
    vals = {}
    ok = True
    for tag in ("defocusing", "focusing"):
        ratio = check(construct, f"contraction_max_ratio_{tag}")["value"]
        iters = check(construct, f"converged_{tag}")
        resid = check(construct, f"fixed_point_residual_{tag}")["value"]
        start = check(construct, f"start_independence_{tag}")["value"]
        probe = check(construct, f"contraction_probe_{tag}")["value"]
        ok = (ok and ratio <= 0.5 and iters["passed"] and iters["value"] <= 15
              and resid <= 2e-9 and start <= 1e-8 and probe <= 0.5)
        vals[tag] = (ratio, int(iters["value"]), resid, start, probe)
    verdict(7, "contraction and fixed point", ok,
            " ".join(f"{t}: ratio={v[0]:.2e} iters={v[1]} resid={v[2]:.2e} "
                     f"start={v[3]:.2e} probe={v[4]:.2e}" for t, v in vals.items()))


def test_criterion_08_main_bound(roundtrip):
    ratio = check(roundtrip, "mainbound_ratio")["value"]
    trend = check(roundtrip, "mainbound_trend_slope")["value"]
    ok = ratio <= 3.0 and trend <= 0.1
    verdict(8, "weighted deviation bound", ok,
            f"max/min={ratio:.3f} trend_slope={trend:.3f}")


def test_criterion_09_asymptotic_expansion(roundtrip):
    slope = check(roundtrip, "asymptotic_error_slope")["value"]
    # target: -min(1/2 + alpha, 3/4) + 0.1 with alpha = 0.1
    ok = slope <= -0.5
    verdict(9, "asymptotic expansion error", ok, f"slope={slope:.4f}")


def test_criterion_10_solver_hygiene(roundtrip):
    mass = check(roundtrip, "mass_drift")["value"]
    energy = check(roundtrip, "energy_drift")["value"]
    order = check(roundtrip, "strang_order")["value"]
    gap = check(roundtrip, "evolve_matches_strang")["value"]
    w_ratio = check(roundtrip, "correction_weighted_ratio")["value"]
    ok = (mass <= 1e-8 and energy <= 1e-6
          and 1.9 <= order <= 2.1 and gap <= 1e-9 and w_ratio <= 3.0)
    verdict(10, "solver hygiene", ok,
            f"mass={mass:.2e} energy={energy:.2e} strang_order={order:.3f} "
            f"evolve_strang_gap={gap:.2e} w_ratio={w_ratio:.3f}")


def test_check_names_are_unique(spectral, dispersive, forcing, construct, roundtrip):
    for result in (spectral, dispersive, forcing, construct, roundtrip):
        names = [c["name"] for c in result.checks]
        assert len(names) == len(set(names)), f"{result.name} repeats a check name: {names}"
