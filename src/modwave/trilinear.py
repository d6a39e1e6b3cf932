"""Pulled-back cubic nonlinearity, its resonant/remainder split, and forcing.

One array kernel computes U(-s)[|U(s)f|^2 U(s)f] for the backward
construction, the forcing and the forward solve.  Every kernel here takes
the propagator rows U(s) from its caller, evaluates none, and steps into
and out of the wave by spectral's ``_to_wave`` / ``_from_wave``: the map's
difference ``_pull_back`` starts from the rows U(s)f that the
construction's first sweep tabulates and every later sweep reads.  The
interaction-picture cubic term splits into a pointwise resonant piece
(i/(2*pi*s))|fhat|^2 fhat plus a remainder that decays integrably in time.
The remainder is defined operationally by subtraction (the FFT route is
exact on the grid); an O(N^3) oscillatory double-integral quadrature
provides an independent oracle on coarse grids.
The forcing error of the approximate solution equals, up to the coupling
sign, exactly that remainder evaluated on the explicit profile.
"""

from __future__ import annotations

import numpy as np

from .profile import SolverParams, _profile, _profile_rate
from .spectral import (
    FrequencyField,
    SpectralGrid,
    _from_wave,
    _propagator,
    _to_wave,
    inverse_transform,
)

__all__ = [
    "remainder",
    "remainder_oracle",
    "pulled_back_forcing",
    "forcing_identity_residual",
]

ORACLE_MAX_POINTS = 64

# Overall constant of the oracle's double integral under the transform
# normalization in use; tests/test_trilinear.py measures it independently
# (test_oracle_calibration_is_inverse_two_pi).
ORACLE_CONSTANT = 1.0 / (2.0 * np.pi)


def _pulled_back_cubic(a: np.ndarray, prop: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """U(-s)[|A|^2 A] with A = U(s)a, on frequency rows, from the propagator
    rows prop = e^{-i s xi^2/2} of one s or one per row (coupling sign
    applied by callers)."""
    u = _to_wave(a, prop, grid)
    return _from_wave(np.abs(u) ** 2 * u, prop, grid)


def _pull_back(u: np.ndarray, prop: np.ndarray, grid: SpectralGrid, b: np.ndarray) -> np.ndarray:
    """U(-s)[|u+B|^2 (u+B) - |u|^2 u] with B = U(s)b, from x-space rows
    u = U(s)a and their propagator rows prop = e^{-i s xi^2/2}, by the
    cancellation-free two-term identity of _cubic_difference."""
    return _from_wave(_cubic_difference(u, _to_wave(b, prop, grid)), prop, grid)


def remainder(fhat: FrequencyField, s: float) -> FrequencyField:
    """The pulled-back cubic i * U(-s)[|U(s)f|^2 U(s)f] less its resonant
    leading term (i/(2*pi*s))|fhat|^2 fhat.

    The 1/(2*pi) is forced by the transform normalization in use: the
    stationary-phase limit of the frequency-side cubic convolution carries
    one factor (2*pi)^{-2} from the two products and one 2*pi/s from the
    phase pairing.
    """
    if s <= 0:
        raise ValueError(f"pullback time must be positive, got {s}")
    f = fhat.values
    full = 1j * _pulled_back_cubic(f, _propagator(fhat.grid, s), fhat.grid)
    return FrequencyField(fhat.grid, full - (1j / (2.0 * np.pi * s)) * np.abs(f) ** 2 * f)


def _oracle_raw(fhat: FrequencyField, s: float) -> np.ndarray:
    """Uncalibrated quadrature of the remainder's oscillatory double integral.

    The (eta', sigma') variables live on the spatial grid; the triple
    correlation of f = inverse transform of fhat supplies the kernel, and
    the quadrature is the trapezoid rule on the periodic box (exact for
    band-limited integrands).
    """
    grid = fhat.grid
    n = grid.num_points
    f = inverse_transform(fhat).values
    dx = grid.dx
    x = grid.x
    xi = grid.frequencies

    idx = np.arange(n)
    # shifted[m, j] = f(x_j - eta'_m) with periodic wraparound
    shifted = f[(idx[None, :] - idx[:, None]) % n]

    # kernel[m, l] = exp(-i eta'_m sigma'_l / s) - 1
    kernel = np.exp(-1j * np.outer(x, x) / s) - 1.0

    # For each eta'_m: correlate over x against all sigma' shifts, then
    # transform x -> xi and attach the e^{i xi (eta' + sigma')} prefactor:
    # G[m, l, k] = e^{i xi_k (eta'_m + sigma'_l)} *
    #              int e^{-i x xi_k} f(x - eta'_m) conj(f(x)) f(x - sigma'_l) dx.
    out = np.zeros(n, dtype=np.complex128)
    fconj = np.conj(f)
    for m in range(n):
        prod = shifted[m][None, :] * fconj[None, :] * shifted  # (l, x)
        corr = np.fft.fft(prod, axis=1) * dx
        # reinstate the e^{i xi (eta' + sigma')} phase removed by the shift
        phase = np.exp(1j * np.outer(x[m] + x, xi))  # (l, k)
        out += kernel[m] @ (corr * phase)
    return (1j / s) * dx * dx * out


def remainder_oracle(fhat: FrequencyField, s: float) -> FrequencyField:
    """Independent dense-quadrature evaluation of the trilinear remainder.

    Cost is O(N^3); refuses grids above ORACLE_MAX_POINTS.
    """
    if s <= 0:
        raise ValueError(f"oracle time must be positive, got {s}")
    if fhat.grid.num_points > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_POINTS}-point grids, "
            f"got {fhat.grid.num_points}"
        )
    if not np.any(fhat.values):
        return FrequencyField(fhat.grid, np.zeros_like(fhat.values))
    return FrequencyField(fhat.grid, ORACLE_CONSTANT * _oracle_raw(fhat, s))


def _pulled_back_forcing(w: np.ndarray, t, lam: int, prop: np.ndarray, grid: SpectralGrid):
    """Kernel of pulled_back_forcing on the values w of W, for a scalar t or
    one row per entry of a vector t, with the propagator rows prop of U(t):
    the forcing rows of the approximate solution.
    The drive term i*dv/dt needs no transform, since U(-t) undoes the free
    flow it is carried by, and is added on the support of W alone, where v
    is nonzero."""
    v = _profile(w, t, lam)
    forcing = _pulled_back_cubic(v, prop, grid)
    forcing *= -lam
    support = np.flatnonzero(w)
    forcing[..., support] += 1j * _profile_rate(v[..., support], t, lam)
    return forcing


def pulled_back_forcing(W: FrequencyField, t: float, params: SolverParams) -> FrequencyField:
    """Frequency-side interaction-picture forcing: hat of U(-t) applied to it.

    Uses the analytic profile time derivative, never numerical
    differencing, so the remainder identity holds to machine precision.
    """
    if t <= 0:
        raise ValueError(f"forcing time must be positive, got {t}")
    grid = params.grid
    return FrequencyField(grid, _pulled_back_forcing(W.values, t, params.lam,
                                                     _propagator(grid, t), grid))


def forcing_identity_residual(
    forcing: FrequencyField, remainder: FrequencyField, lam: int
) -> float:
    """Relative sup-norm residual of the forcing/remainder identity.

    The pulled-back forcing of the profile must equal i*lam times the
    remainder of its pulled-back cubic, from either route: the subtraction
    remainder (algebraically exact on the grid) or the coarse-grid oracle.
    """
    rhs = 1j * lam * remainder.values
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        return float(np.max(np.abs(forcing.values)))
    return float(np.max(np.abs(forcing.values - rhs)) / scale)


def _cubic_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a+b|^2 (a+b) - |a|^2 a = |a+b|^2 b + (2 Re(conj(a) b) + |b|^2) a,
    pointwise, any shape.

    Both terms are linear to cubic in b, so there is no catastrophic
    cancellation when |b| << |a|.
    """
    out = np.abs(a + b) ** 2 * b
    out += (2.0 * (a.real * b.real + a.imag * b.imag) + np.abs(b) ** 2) * a
    return out
