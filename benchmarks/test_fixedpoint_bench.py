"""Micro-benchmarks of the backward construction's two sweeps over the time grid.

    PYTHONPATH=src python -m pytest benchmarks/

On the default grid (N = 4096, 129 nodes) with the default gaussian data:
one application of the contraction map, and the forcing integrand it is
driven by.  Five rounds after one warm-up; pytest-benchmark reports the
median and minimum.
"""

from modwave import ProfileTrajectory, SolverParams, TimeGrid, apply_phi, make_final_data, phi_eps
from modwave.fixedpoint import forcing_integrand

PARAMS = SolverParams()
W = make_final_data("gaussian", PARAMS, seed=0, bandwidth=1.0)
TG = TimeGrid.from_params(PARAMS)


def test_forcing_integrand_default(benchmark):
    out = benchmark.pedantic(forcing_integrand, args=(W, PARAMS, TG), rounds=5, warmup_rounds=1)
    assert out.values.shape == (129, 4096)


def test_apply_phi_default(benchmark):
    cached = phi_eps(W, PARAMS, TG)
    g = ProfileTrajectory(PARAMS.grid, TG, 2.0 * cached.values)
    out = benchmark.pedantic(apply_phi, args=(g, W, PARAMS, cached), rounds=5, warmup_rounds=1)
    assert out.values.shape == (129, 4096)
