"""Final data and the explicit long-time profile.

The profile v(t, xi) = W(xi) * exp(-i*lam*|W(xi)|^2 * log(t)/(2*pi))
carries the logarithmic phase correction; the approximate solution is its
free evolution.  Final data W are generated from three reproducible families
and rescaled so that ||W||_inf + ||W||_H2 matches the requested size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import FrequencyField, SpectralGrid, norms

__all__ = [
    "SolverParams",
    "make_final_data",
    "asymptotic_profile",
]

FINAL_DATA_KINDS = ("gaussian", "bump", "random_bandlimited")


@dataclass(frozen=True)
class SolverParams:
    """Model and truncation parameters for one construction run."""

    lam: int = 1
    delta: float = 0.2
    alpha: float = 0.1
    eps0: float = 0.05
    T: float = 10.0
    t_max: float = 1000.0
    grid: SpectralGrid = SpectralGrid(4096, 200.0)
    time_grid_points: int = 129

    def __post_init__(self):
        if self.lam not in (1, -1):
            raise ValueError(f"lam must be +1 or -1, got {self.lam}")
        if not (0.0 < self.alpha < self.delta < 0.25):
            raise ValueError(
                f"parameters must satisfy 0 < alpha < delta < 1/4, "
                f"got alpha={self.alpha}, delta={self.delta}"
            )
        if self.eps0 < 0:
            raise ValueError(f"eps0 must be nonnegative, got {self.eps0}")
        if self.T < 2.0:
            raise ValueError(f"T must be at least 2, got {self.T}")
        if self.t_max < 10.0 * self.T:
            raise ValueError(f"t_max must be at least 10*T, got t_max={self.t_max}, T={self.T}")
        if self.time_grid_points < 3:
            raise ValueError(f"time_grid_points must be at least 3, got {self.time_grid_points}")


def _band_radius(kind: str, bandwidth: float) -> float:
    # Effective support radius: where the unit shape has decayed below ~1e-14.
    if kind == "gaussian":
        return bandwidth * np.sqrt(np.log(1e14))
    return 2.0 * bandwidth  # bump families are compactly supported


def _unit_shape(kind: str, xi: np.ndarray, bandwidth: float, seed: int) -> np.ndarray:
    if kind == "gaussian":
        return np.exp(-((xi / bandwidth) ** 2)) + 0.0j
    radius = 2.0 * bandwidth
    u = xi / radius
    inside = np.abs(u) < 1.0
    envelope = np.zeros_like(xi)
    envelope[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    if kind == "bump":
        return envelope + 0.0j
    if kind == "random_bandlimited":
        rng = np.random.default_rng(seed)
        vals = np.zeros_like(xi, dtype=np.complex128)
        for m in range(1, 7):
            a, b, c, d = rng.standard_normal(4)
            vals += (a + 1j * b) * np.cos(np.pi * m * u) + (c + 1j * d) * np.sin(np.pi * m * u)
        return envelope * vals
    raise ValueError(f"unknown final-data kind {kind!r}")


def _check_band(kind: str, bandwidth: float, grid: SpectralGrid) -> None:
    """Raise ValueError unless the bandwidth is positive and the data band
    fits inside 80% of the grid's frequency range."""
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if _band_radius(kind, bandwidth) > 0.8 * grid.xi_max:
        raise ValueError(
            f"final-data band (radius ~{_band_radius(kind, bandwidth):.3g}) does not fit "
            f"inside 80% of the xi-grid (xi_max={grid.xi_max:.3g})"
        )


def _size_measure(W: FrequencyField) -> float:
    b = norms(W)
    return b.linf + b.h2


def make_final_data(
    kind: str, params: SolverParams, seed: int = 0, bandwidth: float = 1.0
) -> FrequencyField:
    """Build the final datum W of the requested family, scaled to size params.eps0.

    The size is ||W||_inf + ||W||_H2; scaling is linear so one rescale is
    exact and the construction is idempotent under re-measurement.  The
    same seed always yields bit-identical data.
    """
    if kind not in FINAL_DATA_KINDS:
        raise ValueError(f"unknown final-data kind {kind!r}, expected one of {FINAL_DATA_KINDS}")
    grid = params.grid
    _check_band(kind, bandwidth, grid)
    if params.eps0 == 0.0:
        return FrequencyField(grid, np.zeros(grid.num_points, dtype=np.complex128))
    unit = FrequencyField(grid, _unit_shape(kind, grid.frequencies, bandwidth, seed))
    scale = params.eps0 / _size_measure(unit)
    return FrequencyField(grid, scale * unit.values)


def _profile(w: np.ndarray, t, lam: int) -> np.ndarray:
    """W e^{-i lam |W|^2 log t/(2 pi)} for a scalar t, one row per entry of a vector t.

    The log phase is evaluated on the support of W alone, where W is
    nonzero; elsewhere v is exactly 0.
    """
    log_t = np.log(np.asarray(t, dtype=float))[..., None]
    support = np.flatnonzero(w)
    ws = w[support]
    out = np.zeros(log_t.shape[:-1] + w.shape, dtype=np.complex128)
    out[..., support] = ws * np.exp(-1j * lam * np.abs(ws) ** 2 * log_t / (2.0 * np.pi))
    return out


def _profile_rate(v: np.ndarray, t, lam: int) -> np.ndarray:
    """-(i lam/(2 pi t)) |v|^2 v, the exact time derivative of _profile."""
    coeff = -1j * lam / (2.0 * np.pi * np.asarray(t, dtype=float)[..., None])
    return coeff * np.abs(v) ** 2 * v


def asymptotic_profile(W: FrequencyField, t: float, lam: int) -> FrequencyField:
    """v(t, xi) = W(xi) * exp(-i*lam*|W(xi)|^2 * log(t)/(2*pi)).

    |v| = |W| for all t.  The 1/(2*pi) in the logarithmic phase matches
    the resonant constant of the cubic term under the transform
    normalization in use, so that i*dv/dt exactly cancels the resonant
    part of the pulled-back nonlinearity.
    """
    if t <= 0:
        raise ValueError(f"profile time must be positive, got {t}")
    return FrequencyField(W.grid, _profile(W.values, t, lam))

