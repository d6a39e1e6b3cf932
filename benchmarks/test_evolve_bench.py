"""Micro-benchmark of the forward solver on the roundtrip dispersive regime.

    PYTHONPATH=src python -m pytest benchmarks/

Lives outside the test paths, so the test suite does not run it.  Five
rounds after one warm-up; pytest-benchmark reports the median and minimum.
"""

import numpy as np

from modwave import SolverParams, SpectralGrid, approximate_solution, evolve, make_final_data

# the grid, data and sample times of roundtrip's dispersive regime
PARAMS = SolverParams(t_max=10_000.0, grid=SpectralGrid(4096, 800.0), time_grid_points=193)
TIMES = np.geomspace(10.0, 1000.0, 25)


def test_evolve_dispersive(benchmark):
    W = make_final_data("gaussian", PARAMS, seed=0, bandwidth=0.06)
    u0 = approximate_solution(W, PARAMS.T, PARAMS)
    states = benchmark.pedantic(evolve, args=(u0, PARAMS.T, TIMES, PARAMS),
                                rounds=5, warmup_rounds=1)
    benchmark.extra_info["accepted_steps"] = states[-1].step_count
    assert [s.t for s in states] == list(TIMES)
