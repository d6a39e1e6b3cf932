"""Micro-benchmarks of the backward construction's layers on the default grid.

    PYTHONPATH=src python -m pytest benchmarks/

On the default grid (N = 4096, 129 nodes) with the default gaussian data:
the drive (everything the contraction map takes from W alone), one
application of the map, the forcing integrand, the X_T norm and distance,
and the transform pair over one trajectory.  Five rounds after one warm-up;
pytest-benchmark reports the median and minimum.
"""

import numpy as np

from modwave import (
    ProfileTrajectory,
    SolverParams,
    TimeGrid,
    apply_phi,
    build_drive,
    make_final_data,
    xt_distance,
    xt_norm,
)
from modwave.fixedpoint import forcing_integrand
from modwave.spectral import _fft, _ifft

PARAMS = SolverParams()
W = make_final_data("gaussian", PARAMS, seed=0, bandwidth=1.0)
TG = TimeGrid.from_params(PARAMS)
SHAPE = (129, 4096)


def _run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=5, warmup_rounds=1)


def test_build_drive_default(benchmark):
    drive = _run(benchmark, build_drive, W, PARAMS, TG)
    assert drive.prop.shape == drive.u_app.shape == drive.phi_eps.values.shape == SHAPE


def test_forcing_integrand_default(benchmark):
    assert _run(benchmark, forcing_integrand, W, PARAMS, TG).values.shape == SHAPE


def test_apply_phi_default(benchmark):
    drive = build_drive(W, PARAMS, TG)
    g = ProfileTrajectory(PARAMS.grid, TG, 2.0 * drive.phi_eps.values)
    assert _run(benchmark, apply_phi, g, drive).values.shape == SHAPE


def test_xt_norm_default(benchmark):
    g = build_drive(W, PARAMS, TG).phi_eps
    assert _run(benchmark, xt_norm, g, PARAMS.alpha) > 0.0


def test_xt_distance_default(benchmark):
    g = build_drive(W, PARAMS, TG).phi_eps
    h = ProfileTrajectory(PARAMS.grid, TG, 2.0 * g.values)
    assert _run(benchmark, xt_distance, g, h, PARAMS.alpha) > 0.0


def test_transform_pair_default(benchmark):
    vals = build_drive(W, PARAMS, TG).u_app
    dx = PARAMS.grid.dx
    out = _run(benchmark, lambda: _ifft(_fft(vals, dx), dx))
    assert np.allclose(out, vals, rtol=0.0, atol=1e-12 * np.max(np.abs(vals)))
