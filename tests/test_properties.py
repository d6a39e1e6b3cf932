"""Property tests of the spectral and cubic kernels on random power-of-two grids.

Each tolerance is a fixed multiple of float64 eps times the scale that the
rounding is relative to; none was tuned against a run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modwave import (
    FrequencyField,
    PhysicalField,
    SpectralGrid,
    forward_transform,
    free_propagate,
    inverse_transform,
)
from modwave.spectral import _ifft, _propagator
from modwave.trilinear import _cubic_difference, _pull_back, _pulled_back_cubic

EPS = np.finfo(np.float64).eps

# derandomized: the suite draws the same examples on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

grids = st.builds(
    SpectralGrid,
    num_points=st.sampled_from([2**k for k in range(3, 11)]),
    box_length=st.floats(min_value=10.0, max_value=1000.0),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
times = st.floats(min_value=-50.0, max_value=50.0)


def _complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@PROPERTY
@given(grid=grids, seed=seeds)
def test_transform_round_trip(grid, seed):
    # FFT rounding grows like log2(N) eps relative to the sup of the input
    f = PhysicalField(grid, _complex(np.random.default_rng(seed), grid.num_points))
    back = inverse_transform(forward_transform(f)).values
    tol = 16 * EPS * np.log2(grid.num_points) * np.max(np.abs(f.values))
    assert np.max(np.abs(back - f.values)) <= tol


@PROPERTY
@given(grid=grids, seed=seeds, s1=times, s2=times)
def test_propagator_group_law(grid, seed, s1, s2):
    # a phase of magnitude p is rounded to about eps * p radians
    F = FrequencyField(grid, _complex(np.random.default_rng(seed), grid.num_points))
    once = free_propagate(F, s1 + s2).values
    twice = free_propagate(free_propagate(F, s1), s2).values
    phase = (abs(s1) + abs(s2)) * 0.5 * grid.xi_max**2
    assert np.max(np.abs(once - twice)) <= 16 * EPS * (1.0 + phase) * np.max(np.abs(F.values))


@PROPERTY
@given(n=st.integers(min_value=1, max_value=512), seed=seeds,
       ratio=st.floats(min_value=1e-6, max_value=10.0))
def test_cubic_difference_matches_direct(n, seed, ratio):
    # both sides round relative to the cube of |a| + |b|
    rng = np.random.default_rng(seed)
    a, b = _complex(rng, n), _complex(rng, n, ratio)
    direct = np.abs(a + b) ** 2 * (a + b) - np.abs(a) ** 2 * a
    scale = np.max((np.abs(a) + np.abs(b)) ** 3)
    assert np.max(np.abs(_cubic_difference(a, b) - direct)) <= 64 * EPS * scale


@PROPERTY
@given(grid=grids, seed=seeds, s=st.lists(times.filter(lambda t: t != 0.0),
                                          min_size=1, max_size=4),
       ratio=st.floats(min_value=1e-6, max_value=10.0))
def test_pulled_back_cubic_difference_is_difference_of_cubes(grid, seed, s, ratio):
    # the propagator phase is shared by both sides, so only the transforms
    # and the cube round: log2(N) eps relative to the sup of the larger cube
    rng = np.random.default_rng(seed)
    shape = (len(s), grid.num_points)
    a, b = _complex(rng, shape), _complex(rng, shape, ratio)
    prop = _propagator(grid, s)
    got = _pull_back(_ifft(a * prop, grid.dx), prop, grid, b)
    full, base = _pulled_back_cubic(a + b, prop, grid), _pulled_back_cubic(a, prop, grid)
    scale = max(np.max(np.abs(full)), np.max(np.abs(base)))
    assert np.max(np.abs(got - (full - base))) <= 64 * EPS * np.log2(grid.num_points) * scale
