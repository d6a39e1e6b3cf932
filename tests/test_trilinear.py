"""Trilinear split, the independent quadrature oracle, and forcing identity."""

import importlib

import numpy as np
import pytest

from modwave import (
    FrequencyField,
    SolverParams,
    SpectralGrid,
    asymptotic_profile,
    forcing_identity_residual,
    make_final_data,
    pulled_back_forcing,
    remainder,
    remainder_oracle,
)
from modwave.spectral import (
    PhysicalField,
    _ifft,
    _propagator,
    forward_transform,
    free_propagate,
    inverse_transform,
    norms,
)
from modwave.trilinear import (
    ORACLE_MAX_POINTS,
    _cubic_difference,
    _oracle_raw,
    _pull_back,
    _pulled_back_cubic,
)

trilinear = importlib.import_module("modwave.trilinear")

COARSE_GRID = SpectralGrid(64, 60.0)
COARSE_PARAMS = SolverParams(grid=COARSE_GRID)


def sample_field(grid, seed=0, width=1.0):
    rng = np.random.default_rng(seed)
    xi = grid.frequencies
    amp = rng.uniform(0.3, 0.6)
    return FrequencyField(grid, amp * np.exp(-((xi / width) ** 2)) * (1.0 + 0.3j * xi))


def leading_term(f, s):
    """The resonant term (i/(2 pi s))|f|^2 f in closed form."""
    return (1j / (2.0 * np.pi * s)) * np.abs(f.values) ** 2 * f.values


def test_leading_term_closed_form():
    # the remainder subtracts exactly the closed-form leading term
    f = sample_field(COARSE_GRID, seed=2)
    s = 7.0
    full = 1j * _pulled_back_cubic(f.values, _propagator(COARSE_GRID, s), COARSE_GRID)
    assert np.array_equal(remainder(f, s).values, full - leading_term(f, s))


def test_remainder_rejects_nonpositive_time():
    with pytest.raises(ValueError, match="positive"):
        remainder(sample_field(COARSE_GRID), 0.0)
    # and so do its oracle and the forcing it is compared with
    with pytest.raises(ValueError, match="positive"):
        remainder_oracle(sample_field(COARSE_GRID), 0.0)
    with pytest.raises(ValueError, match="positive"):
        pulled_back_forcing(sample_field(COARSE_GRID), 0.0, COARSE_PARAMS)


def test_remainder_smaller_than_leading_at_late_time():
    f = sample_field(COARSE_GRID, seed=3, width=0.4)
    s = 40.0
    lead = FrequencyField(COARSE_GRID, leading_term(f, s))
    assert norms(remainder(f, s)).l2 < 0.5 * norms(lead).l2


def test_oracle_calibration_is_inverse_two_pi():
    # the complex constant that best matches the oracle's raw double integral
    # to the subtraction route, fitted by least squares on a fixed asymmetric
    # input: an independent check on the derived ORACLE_CONSTANT = 1/(2 pi)
    grid = SpectralGrid(ORACLE_MAX_POINTS, 32.0)
    xi = grid.frequencies
    fhat = FrequencyField(grid, 0.4 * np.exp(-3.0 * (xi - 0.3) ** 2) * (1.0 + 0.2j * xi))
    s = 7.0
    target = remainder(fhat, s).values
    raw = _oracle_raw(fhat, s)
    cal = complex(np.vdot(raw, target) / np.vdot(raw, raw))
    assert abs(2.0 * np.pi * cal - 1.0) <= 1e-6


def test_oracle_matches_fft_remainder():
    f = sample_field(COARSE_GRID, seed=4, width=0.25)
    for s in (5.0, 20.0):
        fft_rem = remainder(f, s)
        orc = remainder_oracle(f, s)
        scale = np.max(np.abs(fft_rem.values))
        assert np.max(np.abs(orc.values - fft_rem.values)) <= 1e-3 * scale


def test_oracle_vanishes_at_huge_time():
    # the kernel e^{-i eta sigma / s} - 1 goes to 0 pointwise as s -> inf
    f = sample_field(COARSE_GRID, seed=5, width=0.25)
    ref = np.max(np.abs(remainder_oracle(f, 5.0).values))
    far = np.max(np.abs(remainder_oracle(f, 1e6).values))
    assert far <= 1e-4 * ref


def test_oracle_refuses_large_grid():
    big = SpectralGrid(2 * ORACLE_MAX_POINTS, 60.0)
    f = sample_field(big)
    with pytest.raises(ValueError, match="oracle"):
        remainder_oracle(f, 5.0)


def test_oracle_zero_input():
    f = FrequencyField(COARSE_GRID, np.zeros(COARSE_GRID.num_points, complex))
    out = remainder_oracle(f, 5.0)
    assert not np.any(out.values)


def identity_residual(fd, t, params, kernel=remainder):
    """The forcing identity's residual at t, with the remainder from kernel."""
    v = asymptotic_profile(fd, t, params.lam)
    return forcing_identity_residual(pulled_back_forcing(fd, t, params), kernel(v, t), params.lam)


@pytest.mark.parametrize("lam", [1, -1])
def test_forcing_identity_fft_route(lam):
    params = SolverParams(lam=lam, grid=COARSE_GRID)
    fd = make_final_data("gaussian", params, bandwidth=0.2)
    for t in (3.0, 12.0, 45.0):
        assert identity_residual(fd, t, params) <= 1e-10


def test_forcing_identity_detects_wrong_drive(monkeypatch):
    # both sides of the fft route share the cubic kernel, so make sure the
    # identity still fails when the drive term i*dv/dt is off by 1e-4
    fd = make_final_data("gaussian", COARSE_PARAMS, bandwidth=0.2)
    rate = trilinear._profile_rate
    monkeypatch.setattr(trilinear, "_profile_rate", lambda *args: 1.0001 * rate(*args))
    for t in (3.0, 12.0, 45.0):
        assert identity_residual(fd, t, COARSE_PARAMS) > 1e-6


def test_forcing_identity_oracle_route():
    fd = make_final_data("gaussian", COARSE_PARAMS, bandwidth=0.2)
    assert identity_residual(fd, 5.0, COARSE_PARAMS, kernel=remainder_oracle) <= 1e-3


def test_forcing_identity_on_a_zero_remainder_is_the_forcing_sup():
    forcing = sample_field(COARSE_GRID, seed=6)
    zero = FrequencyField(COARSE_GRID, np.zeros(COARSE_GRID.num_points, complex))
    assert forcing_identity_residual(forcing, zero, 1) == np.max(np.abs(forcing.values))


def test_forcing_cubic_homogeneity():
    # the forcing is exactly cubic in the data size
    params = SolverParams(grid=COARSE_GRID)
    half = SolverParams(eps0=params.eps0 / 2.0, grid=COARSE_GRID)
    t = 10.0

    def forcing_sup(p):
        # the forcing field is U(t) applied to the pulled-back forcing
        W = make_final_data("gaussian", p, bandwidth=0.2)
        return np.max(np.abs(inverse_transform(free_propagate(pulled_back_forcing(W, t, p), t)).values))

    r_full, r_half = forcing_sup(params), forcing_sup(half)
    # |W| enters the log phase too, so homogeneity is only approximate; the
    # cubic power dominates at these sizes
    assert r_full / r_half == pytest.approx(8.0, rel=0.05)


def test_cubic_difference_no_cancellation():
    # a complex a whose phase turns against b's, so that every product of
    # real and imaginary parts counts
    x = COARSE_GRID.x
    a = np.exp(-(x**2) + 0.7j * x)
    # with |b| ~ 1e-12 |a| the expansion keeps full relative accuracy; the
    # leading term is 2|a|^2 b + a^2 conj(b)
    b = 1e-12 * np.exp(-(x**2)) * (1.0 + 1j)
    lead = 2.0 * np.abs(a) ** 2 * b + a**2 * np.conj(b)
    assert np.max(np.abs(_cubic_difference(a, b) - lead)) <= 1e-10 * np.max(np.abs(lead))
    # with |b| ~ 1e-3 |a| the terms quadratic and cubic in b count too:
    # against the direct difference in extended precision, whose
    # cancellation costs far less than the 1e-12 bound
    b = 1e-3 * np.exp(-(x**2)) * (1.0 + 1j)
    aa, bb = a.astype(np.clongdouble), b.astype(np.clongdouble)
    ref = np.abs(aa + bb) ** 2 * (aa + bb) - np.abs(aa) ** 2 * aa
    err = np.max(np.abs(_cubic_difference(a, b) - ref))
    assert err <= 1e-12 * np.max(np.abs(ref))


# ---- the pulled-back cubic kernel against a per-row field-function route

# Both routes perform the same float64 operations on every element; only the
# rounding of vectorized exp and of the FFTs may differ in the last bits.
KERNEL_RTOL = 64 * np.finfo(np.float64).eps


def _pulled_back_cubic_field_route(a, s, b=None):
    """U(-s)[|A+B|^2 (A+B) - |A|^2 A] (B = 0 without b) for one row, one
    validated field function per step."""
    grid = COARSE_GRID
    u = inverse_transform(free_propagate(FrequencyField(grid, a), s))
    if b is None:
        cube = PhysicalField(grid, np.abs(u.values) ** 2 * u.values)
    else:
        w = inverse_transform(free_propagate(FrequencyField(grid, b), s))
        cube = PhysicalField(grid, _cubic_difference(u.values, w.values))
    return free_propagate(forward_transform(cube), -s).values


@pytest.mark.parametrize("with_b", [False, True])
@pytest.mark.parametrize("s", [7.0, -7.0, [2.0, 5.5, 13.0], [-13.0, -0.5, 4.0]])
def test_pulled_back_cubic_kernel_matches_field_route(s, with_b):
    s_arr = np.asarray(s)
    rows = s_arr.size
    shape = s_arr.shape + (COARSE_GRID.num_points,)
    rng = np.random.default_rng(rows + 10 * with_b)
    xi = COARSE_GRID.frequencies
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(-xi**2)
    b = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) if with_b else None
    prop = _propagator(COARSE_GRID, s)
    if b is None:
        got = _pulled_back_cubic(a, prop, COARSE_GRID)
    else:
        got = _pull_back(_ifft(a * prop, COARSE_GRID.dx), prop, COARSE_GRID, b)
    a_rows, s_rows = a.reshape(rows, -1), s_arr.reshape(rows)
    b_rows = [None] * rows if b is None else b.reshape(rows, -1)
    ref = np.array([_pulled_back_cubic_field_route(a_k, s_k, b_k)
                    for a_k, s_k, b_k in zip(a_rows, s_rows, b_rows)]).reshape(shape)
    assert np.max(np.abs(got - ref)) <= KERNEL_RTOL * np.max(np.abs(ref))
