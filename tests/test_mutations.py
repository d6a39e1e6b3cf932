"""Mutation table: each case breaks one private kernel and names the campaign
checks that must fail on it, so that every check is shown able to fail.

A case patches the kernel on the module that looks it up, runs the
campaign parts that read it in process, and asserts that each named check
fails.  The forward-solver rows run roundtrip's parts on the default
config.  The construction rows run construct and sweep serially on
test_campaigns' small config (N = 256, L = 100, 33 nodes, band 0.4) and
assert that some check fails; no check catches these mutants yet, so each
row is a strict xfail naming the ROADMAP item whose check is to catch it.
"""

import importlib

import numpy as np
import pytest

from modwave import campaigns, fixedpoint, parse_config, run_campaign
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
    def mutant(values, nodes):
        # the integral from each node to the last by left rectangles, in place
        ds = np.diff(nodes)
        values[-1] = 0.0
        for k in range(len(nodes) - 2, -1, -1):
            values[k] *= ds[k]
            values[k] += values[k + 1]
        return values
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
    pytest.param(fixedpoint, "_cumulative_backward", _left_rectangles,
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
