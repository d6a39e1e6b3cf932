"""Mutation table: each case breaks one private kernel and names the campaign
checks that must fail on it, so that every check is shown able to fail.

A case patches the kernel on the module that looks it up, runs the
campaign parts that read it in process, and asserts that each named check
fails.  The forward-solver rows run roundtrip's parts on the default
config, the stage-row row its free part, where evolve's step-attempt cap
stops the mutant, and the ray-chirp row its parts on an asymmetric datum.
The construction rows run construct and sweep serially on test_campaigns'
small config (N = 256, L = 100, 33 nodes, band 0.4).  They assert that
some check fails; no check catches these mutants yet, so each is a strict
xfail naming the ROADMAP item whose check is to catch it.
"""

import importlib

import numpy as np
import pytest

from modwave import FrequencyField, campaigns, fixedpoint, parse_config, run_campaign
from modwave.spectral import PhysicalField, _propagator, forward_transform, inverse_transform
from test_campaigns import SMALL

# the package exports the function evolve under the submodule's name
evolve_module = importlib.import_module("modwave.evolve")
trilinear = importlib.import_module("modwave.trilinear")


def _sign_flipped(real):
    return lambda *args: -real(*args)


def _linear(real):
    return lambda u, *args: np.zeros_like(u)


def _halved(real):
    return lambda *args: 0.5 * real(*args)


def _cubic_difference_without_b2(real):
    def mutant(a, b):
        out = np.abs(a + b) ** 2 * b
        out += 2.0 * (a.real * b.real + a.imag * b.imag) * a
        return out
    return mutant


def _left_rectangles(real):
    def mutant(block, lo, half_ds, edge):
        # the block step by left rectangles, in place: the integral from each
        # node to the last, carried in edge[1] from the block above
        integral = edge[1]
        if lo + len(block) == half_ds.size + 1:
            integral[...] = 0.0
            block[-1] = 0.0
            block = block[:-1]
        for k in range(len(block) - 1, -1, -1):
            block[k] *= 2.0 * half_ds[lo + k]
            block[k] += integral
            integral[...] = block[k]
    return mutant


@pytest.mark.parametrize("mutant", [_sign_flipped, _linear],
                         ids=["sign-flipped-solver", "linear-solver"])
def test_forward_solver_mutants_fail_the_roundtrip(monkeypatch, mutant):
    # the forward solve's right-hand side alone: the construction looks up
    # its kernels in fixedpoint and trilinear and stays correct
    monkeypatch.setattr(evolve_module, "_pulled_back_cubic",
                        mutant(evolve_module._pulled_back_cubic))
    config = parse_config("")
    checks = {c["name"]: c for part in (campaigns._roundtrip_dispersive,
                                        campaigns._roundtrip_free)
              for c in part(config).checks}
    for name in ("correction_weighted_ratio", "evolve_matches_strang"):
        assert not checks[name]["passed"], (name, checks[name]["value"])


# the ROADMAP items whose checks are to catch the surviving mutants
ITEM_2 = "2, the fourth-order rule's gap check"
ITEM_4 = "4, the contraction law measured in sweep"
ITEM_10 = "10, the resonant-limit oracle of the map's nonlinear part"


def _survives(item):
    # xfail expects an AssertionError alone: a mutant that never runs fails
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"no check catches it before ROADMAP item {item}")


def _construction_checks():
    config = parse_config(SMALL)
    return {f"{name}:{c['name']}": c for name in ("construct", "sweep")
            for c in run_campaign(name, config).checks}


@pytest.mark.parametrize("module, name, mutant", [
    pytest.param(fixedpoint, "_pull_back", _linear,
                 marks=_survives(ITEM_10), id="map-pull-back-off"),
    pytest.param(fixedpoint, "_pull_back", _halved,
                 marks=_survives(ITEM_10), id="map-pull-back-halved"),
    pytest.param(trilinear, "_cubic_difference", _cubic_difference_without_b2,
                 marks=_survives(ITEM_4), id="cubic-difference-without-b2"),
    pytest.param(fixedpoint, "_integrate_block", _left_rectangles,
                 marks=_survives(ITEM_2), id="left-rectangle-quadrature"),
])
def test_construction_mutants_fail_a_check(monkeypatch, module, name, mutant):
    monkeypatch.setenv("MODWAVE_THREADS", "1")  # in process, where the patch holds
    clean = _construction_checks()
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    checks = _construction_checks()
    if all(checks[k]["value"] == c["value"] for k, c in clean.items()):
        raise RuntimeError(f"{name}'s mutant moved no check value")
    assert [k for k, c in checks.items() if not c["passed"]]


def _end_stages_at_the_start(real):
    # _dp45 whose last two stages take the row at the step's start, U(t),
    # while it still hands on the row at its end
    def mutant(f, t, h, end, k1, rhs, grid):
        ks = [k1]
        for c, row in zip(evolve_module._DP_C, evolve_module._DP_A):
            y = evolve_module._combine(f, h, row, ks)
            ks.append(rhs(y, _propagator(grid, t + c * h if c < 1.0 else t)))
        estimate = evolve_module._combine(np.zeros_like(f), h, evolve_module._DP_E, ks)
        return y, ks[-1], _propagator(grid, end), estimate
    return mutant


def test_stage_rows_at_the_wrong_time_fail_the_roundtrip(monkeypatch):
    # the mutant passes every check of the dispersive part, where it moves
    # the step count; on the free part's Strang cross-check its step control
    # never meets RK_TOL, and evolve's attempt cap stops it
    config = parse_config("")
    clean = campaigns._roundtrip_dispersive(config)
    monkeypatch.setattr(evolve_module, "_dp45", _end_stages_at_the_start(evolve_module._dp45))
    mutated = campaigns._roundtrip_dispersive(config)
    steps = [r.extras["evolve_steps_dispersive"] for r in (clean, mutated)]
    if steps[0] == steps[1]:
        raise RuntimeError(f"the mutant moved no step count: {steps}")
    with pytest.raises(FloatingPointError, match="MAX_STEP_ATTEMPTS"):
        campaigns._roundtrip_free(config)


def _conjugated_chirp(a, t, grid):
    # _on_rays with the conjugate chirp e^(-i y^2/2t), and without its guard
    y = grid.x
    f = inverse_transform(FrequencyField(grid, a)).values
    return forward_transform(PhysicalField(grid, np.exp(-0.5j * y * y / t) * f)).values


def _asymmetric(real):
    # the gaussian moved 40 grid steps up in xi and given the phase e^(3i xi):
    # a whole-step shift is an exact symmetry of both kernels, so it breaks
    # only evenness
    def datum(*args, **kwargs):
        W = real(*args, **kwargs)
        xi = W.grid.frequencies
        return FrequencyField(W.grid, np.roll(W.values, 40) * np.exp(3j * xi))
    return datum


def _ray_checks():
    config = parse_config("")
    return {c["name"]: c for part in (campaigns._roundtrip_dispersive, campaigns._roundtrip_free)
            for c in part(config).checks}


def test_conjugated_ray_chirp_fails_the_roundtrip_on_an_asymmetric_datum(monkeypatch):
    monkeypatch.setenv("MODWAVE_THREADS", "1")
    monkeypatch.setattr(campaigns, "make_final_data", _asymmetric(campaigns.make_final_data))
    W = campaigns.make_final_data("gaussian", parse_config("").params, bandwidth=1.0)
    mirrored = W.values[-np.arange(W.values.size)]  # W(-xi) in native order
    if np.array_equal(np.abs(W.values), np.abs(mirrored)):
        raise RuntimeError("the datum is even in modulus")
    clean = _ray_checks()
    if not all(c["passed"] for c in clean.values()):
        raise RuntimeError(f"the asymmetric datum fails a check unmutated: {clean}")
    for module in (campaigns, evolve_module):
        monkeypatch.setattr(module, "_on_rays", _conjugated_chirp)
    checks = _ray_checks()
    if all(checks[k]["value"] == c["value"] for k, c in clean.items()):
        raise RuntimeError("the conjugated chirp moved no check value")
    gap = checks["ray_free_wave_gap"]
    assert not gap["passed"], gap["value"]
