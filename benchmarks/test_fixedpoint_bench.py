"""Micro-benchmarks of the backward construction's layers on the default grid.

    PYTHONPATH=src python -m pytest benchmarks/

On the default grid (N = 4096, 129 nodes) with the default gaussian data:
build_drive(W, params) (everything the contraction map takes from W alone,
the forcing rows included), one application of the map, the X_T norm and
distance, and the transform pair over one trajectory.  build_drive is also
timed on random band-limited data (seed 1), which is nonzero on 127 of the
4096 points where the gaussian is nonzero on 1733: the profile's log phase
is evaluated on that support alone.  Five rounds after one warm-up;
pytest-benchmark reports the median and minimum.
"""

import numpy as np

from modwave import (
    ProfileTrajectory,
    SolverParams,
    apply_phi,
    build_drive,
    make_final_data,
    xt_distance,
    xt_norm,
)
from modwave.spectral import _fft, _ifft

PARAMS = SolverParams()
W = make_final_data("gaussian", PARAMS, seed=0, bandwidth=1.0)
W_RANDOM = make_final_data("random_bandlimited", PARAMS, seed=1, bandwidth=1.0)
SHAPE = (129, 4096)


def _run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=5, warmup_rounds=1)


def test_build_drive_default(benchmark):
    drive = _run(benchmark, build_drive, W, PARAMS)
    assert drive.prop.shape == drive.u_app.shape == drive.phi_eps.values.shape == SHAPE


def test_build_drive_random_bandlimited(benchmark):
    assert np.count_nonzero(W_RANDOM.values) == 127
    drive = _run(benchmark, build_drive, W_RANDOM, PARAMS)
    assert drive.prop.shape == drive.u_app.shape == drive.phi_eps.values.shape == SHAPE


def test_apply_phi_default(benchmark):
    drive = build_drive(W, PARAMS)
    g = ProfileTrajectory(PARAMS.grid, drive.time_grid, 2.0 * drive.phi_eps.values)
    assert _run(benchmark, apply_phi, g, drive).values.shape == SHAPE


def test_xt_norm_default(benchmark):
    g = build_drive(W, PARAMS).phi_eps
    assert _run(benchmark, xt_norm, g, PARAMS.alpha) > 0.0


def test_xt_distance_default(benchmark):
    g = build_drive(W, PARAMS).phi_eps
    h = ProfileTrajectory(PARAMS.grid, g.time_grid, 2.0 * g.values)
    assert _run(benchmark, xt_distance, g, h, PARAMS.alpha) > 0.0


def test_transform_pair_default(benchmark):
    vals = build_drive(W, PARAMS).u_app
    dx = PARAMS.grid.dx
    out = _run(benchmark, lambda: _ifft(_fft(vals, dx), dx))
    assert np.allclose(out, vals, rtol=0.0, atol=1e-12 * np.max(np.abs(vals)))
