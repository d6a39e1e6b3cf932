"""Final data families and the profile phase."""

from dataclasses import replace

import numpy as np
import pytest

from modwave import (
    SolverParams,
    SpectralGrid,
    asymptotic_profile,
    make_final_data,
    norms,
)
from modwave.profile import _profile, _profile_rate

GRID = SpectralGrid(512, 100.0)
PARAMS = SolverParams(grid=GRID)


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        SolverParams(alpha=0.3, delta=0.2, grid=GRID)
    with pytest.raises(ValueError, match="lam"):
        SolverParams(lam=2, grid=GRID)
    with pytest.raises(ValueError, match="t_max"):
        SolverParams(T=10.0, t_max=50.0, grid=GRID)
    with pytest.raises(ValueError, match="eps0"):
        SolverParams(eps0=-0.1, grid=GRID)
    with pytest.raises(ValueError, match="time_grid_points"):
        SolverParams(time_grid_points=2, grid=GRID)


@pytest.mark.parametrize("kind", ["gaussian", "bump", "random_bandlimited"])
def test_final_data_size(kind):
    fd = make_final_data(kind, PARAMS, seed=2)
    b = norms(fd)
    assert b.linf + b.h2 == pytest.approx(PARAMS.eps0, rel=1e-12)


def test_final_data_deterministic():
    a = make_final_data("random_bandlimited", PARAMS, seed=9)
    b = make_final_data("random_bandlimited", PARAMS, seed=9)
    assert np.array_equal(a.values, b.values)
    c = make_final_data("random_bandlimited", PARAMS, seed=10)
    assert not np.array_equal(a.values, c.values)


def _gaussian_w_on_nodes(grid):
    """W's samples with each node's index in units of 2 pi / 400, the
    finest frequency spacing of the grids compared below."""
    W = make_final_data("gaussian", replace(PARAMS, grid=grid), seed=0, bandwidth=1.0)
    k = np.rint(grid.frequencies / grid.dxi).astype(int) * round(400.0 / grid.box_length)
    return k, W.values


@pytest.mark.parametrize("n, box", [(4096, 200.0), (8192, 400.0), (512, 100.0)])
def test_final_data_is_grid_independent(n, box):
    # the H2 norm that scales W to eps0 is exact for the trigonometric
    # interpolant, so W agrees on the nodes that two grids share
    k_ref, w_ref = _gaussian_w_on_nodes(SpectralGrid(4096, 200.0))
    k, w = _gaussian_w_on_nodes(SpectralGrid(n, box))
    shared, i_ref, i = np.intersect1d(k_ref, k, return_indices=True)
    assert shared.size == min(n, 4096)
    assert np.max(np.abs(w[i] - w_ref[i_ref])) <= 1e-14 * np.max(np.abs(w_ref))


def test_final_data_zero_size():
    fd = make_final_data("gaussian", SolverParams(eps0=0.0, grid=GRID))
    assert not np.any(fd.values)


def test_final_data_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        make_final_data("plane_wave", PARAMS)


def test_final_data_band_must_fit():
    tiny = SolverParams(grid=SpectralGrid(64, 1000.0))
    with pytest.raises(ValueError, match="band"):
        make_final_data("gaussian", tiny, bandwidth=5.0)


def test_bump_compact_support():
    fd = make_final_data("bump", PARAMS, bandwidth=0.5)
    xi = GRID.frequencies
    assert np.all(fd.values[np.abs(xi) >= 1.0] == 0.0)


def test_profile_modulus_preserved():
    fd = make_final_data("gaussian", PARAMS)
    for t in (2.0, 50.0, 900.0):
        v = asymptotic_profile(fd, t, lam=1)
        assert np.max(np.abs(np.abs(v.values) - np.abs(fd.values))) <= 1e-14


def test_profile_phase_at_unit_time():
    fd = make_final_data("gaussian", PARAMS)
    v = asymptotic_profile(fd, 1.0, lam=1)
    assert np.max(np.abs(v.values - fd.values)) == 0.0


def test_profile_derivative_matches_difference_quotient():
    fd = make_final_data("gaussian", PARAMS)
    t, h, lam = 40.0, 1e-4, 1
    v = asymptotic_profile(fd, t, lam)
    dv = _profile_rate(v.values, t, lam)
    fd_quot = (asymptotic_profile(fd, t + h, lam).values
               - asymptotic_profile(fd, t - h, lam).values) / (2.0 * h)
    scale = np.max(np.abs(dv))
    # rounding in the quotient (|v| * eps / h ~ 5e-14) dominates the h^2 term
    assert np.max(np.abs(dv - fd_quot)) <= 1e-4 * scale


def test_profile_derivative_ode():
    # i dv/dt = (lam/(2 pi t)) |v|^2 v, i.e. dv/dt = -(i lam/(2 pi t)) |v|^2 v
    fd = make_final_data("bump", PARAMS)
    t, lam = 13.0, 1
    v = asymptotic_profile(fd, t, lam)
    dv = _profile_rate(v.values, t, lam)
    exact = -1j * lam / (2.0 * np.pi * t) * np.abs(v.values) ** 2 * v.values
    assert np.array_equal(dv, exact)


def test_profile_rejects_nonpositive_time():
    fd = make_final_data("gaussian", PARAMS)
    with pytest.raises(ValueError, match="positive"):
        asymptotic_profile(fd, 0.0, 1)


def test_profile_h2_grows_like_log_squared():
    # two xi-derivatives of the log phase each pull down a factor log t,
    # so for data of order one the H2 norm grows like (log t)^2
    params = SolverParams(eps0=10.0, grid=SpectralGrid(1024, 100.0))
    fd = make_final_data("gaussian", params)
    ts = np.geomspace(1e2, 1e6, 9)
    h2 = np.array([norms(asymptotic_profile(fd, t, 1)).h2 for t in ts])
    p = np.polyfit(np.log(np.log(ts)), np.log(h2), 1)[0]
    assert 1.5 <= p <= 2.5


@pytest.mark.parametrize("lam", [1, -1])
@pytest.mark.parametrize("zeros", ["some", "none", "all"])
def test_profile_on_support_matches_dense_phase(zeros, lam):
    # the phase is evaluated where W is nonzero; v must equal the formula
    # evaluated at every node, its exact zeros included
    rng = np.random.default_rng(4)
    n = GRID.num_points
    w = {"some": make_final_data("random_bandlimited", PARAMS, seed=1).values,
         "none": rng.standard_normal(n) + 1j * rng.standard_normal(n),
         "all": np.zeros(n, dtype=complex)}[zeros]
    assert (0 < np.count_nonzero(w) < n) == (zeros == "some")
    for t in (10.0, 0.5, np.geomspace(2.0, 1e5, 17)):
        log_t = np.log(np.asarray(t, dtype=float))[..., None]
        dense = w * np.exp(-1j * lam * np.abs(w) ** 2 * log_t / (2.0 * np.pi))
        got = _profile(w, t, lam)
        assert got.shape == dense.shape
        assert np.array_equal(got, dense)
