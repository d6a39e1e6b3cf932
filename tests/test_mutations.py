"""Mutation table: each case breaks one private kernel and names the campaign
checks that must fail on it, so that every check is shown able to fail.

A case patches the kernel on the module that looks it up, runs the
campaign parts that read it in process on the default config, and asserts
that each named check fails.
"""

import importlib

import numpy as np
import pytest

from modwave import campaigns, parse_config

# the package exports the function evolve under the submodule's name
evolve_module = importlib.import_module("modwave.evolve")


def _sign_flipped(real):
    return lambda *args: -real(*args)


def _linear(real):
    return lambda u, *args: np.zeros_like(u)


@pytest.mark.parametrize("mutant", [_sign_flipped, _linear],
                         ids=["sign-flipped-solver", "linear-solver"])
def test_forward_solver_mutants_fail_the_roundtrip(monkeypatch, mutant):
    # the forward solve's right-hand side alone: the construction looks up
    # its own _pull_back in fixedpoint and stays correct
    monkeypatch.setattr(evolve_module, "_pull_back", mutant(evolve_module._pull_back))
    config = parse_config("")
    checks = {c["name"]: c for part in (campaigns._roundtrip_dispersive,
                                        campaigns._roundtrip_free)
              for c in part(config).checks}
    for name in ("correction_weighted_ratio", "evolve_matches_strang"):
        assert not checks[name]["passed"], (name, checks[name]["value"])
