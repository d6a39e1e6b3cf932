"""Spectral core: periodic-box grids, transforms, propagator, norms.

The spatial box [-L/2, L/2) with N points (N a power of two) is paired
with the frequency grid xi_k = k * 2*pi/L, -N/2 <= k < N/2.  Every array in
modwave - the grid nodes, field values, trajectory rows and tabulated
phases - is stored in native FFT order: x = 0 and xi = 0 first, the
nonnegative nodes ascending, then the negative ones ascending.  Only this
module knows that layout.  Transforms carry the continuum normalization

    Fhat(xi) = int e^{-i x xi} F(x) dx,
    F(x)     = (2*pi)^{-1} int e^{i x xi} Fhat(xi) dxi,

so that on the grid Plancherel reads
``||F||_{L2_x} = (2*pi)^{-1/2} ||Fhat||_{L2_xi}`` exactly.

Each operation has one array kernel (underscored) acting along the last
axis, so a block of time nodes is processed like one field.  The xi
stencil, the one kernel that needs neighbours in increasing xi, reads them
in place: across xi = 0 the row wraps, and the two ends of the xi range sit
in the middle of the row.  The public field functions validate and wrap
these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "SpectralGrid",
    "PhysicalField",
    "FrequencyField",
    "NormBundle",
    "forward_transform",
    "inverse_transform",
    "free_propagate",
    "norms",
    "physical_l2",
    "physical_linf",
]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic spatial grid with its matched frequency grid, both in FFT order."""

    num_points: int
    box_length: float

    def __post_init__(self):
        if not _is_power_of_two(self.num_points):
            raise ValueError(f"num_points must be a power of two, got {self.num_points}")
        if not (self.box_length > 0 and np.isfinite(self.box_length)):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.num_points

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def x(self) -> np.ndarray:
        """Spatial nodes spanning [-box_length/2, box_length/2), in FFT order."""
        return np.fft.ifftshift((np.arange(self.num_points) - self.num_points // 2) * self.dx)

    @property
    def frequencies(self) -> np.ndarray:
        """Frequency nodes, symmetric about 0, in FFT order."""
        return np.fft.ifftshift((np.arange(self.num_points) - self.num_points // 2) * self.dxi)

    @property
    def xi_max(self) -> float:
        return np.pi * self.num_points / self.box_length


def _validate_values(grid: SpectralGrid, values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (grid.num_points,):
        raise ValueError(
            f"values length {vals.shape} does not match grid with {grid.num_points} points"
        )
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise ValueError("field values must be finite")
    return vals


@dataclass(frozen=True)
class PhysicalField:
    """Complex samples of a function of x on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_values(self.grid, self.values))


@dataclass(frozen=True)
class FrequencyField:
    """Complex samples of a function of xi on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_values(self.grid, self.values))


@dataclass(frozen=True)
class NormBundle:
    """The frequency-side norms used throughout: sup, L2, L2 of d/dxi, H2."""

    linf: float
    l2: float
    dxi_l2: float
    h2: float


# ------------------------------------------------------------------ kernels


def _fft(values: np.ndarray, dx: float) -> np.ndarray:
    """x -> xi with the continuum normalization, along the last axis."""
    return np.fft.fft(values) * dx


def _ifft(values: np.ndarray, dx: float) -> np.ndarray:
    """xi -> x, the exact inverse of _fft."""
    return np.fft.ifft(values) / dx


def _propagator(xi: np.ndarray, t) -> np.ndarray:
    """e^{-i t xi^2/2}: shape xi.shape for a scalar t, one row per entry of a vector t."""
    return np.exp(-0.5j * np.asarray(t, dtype=float)[..., None] * xi * xi)


_FD4_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD4_NEXT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _fd4(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along the last axis: centered, also
    across xi = 0 where the row wraps, and one-sided at the ends of the xi
    range, -xi_max and xi_max - dxi, which sit in the middle of the row."""
    mid, at = vals.shape[-1] // 2, partial(np.take, vals, axis=-1, mode="wrap")
    d = np.empty_like(vals)
    d[..., 2:-2] = (
        -vals[..., 4:] + 8.0 * vals[..., 3:-1] - 8.0 * vals[..., 1:-3] + vals[..., :-4]
    ) / (12.0 * h)
    wrap = np.array([-2, -1, 0, 1])  # the columns whose neighbours wrap
    d[..., wrap] = (
        -at(wrap + 2) + 8.0 * at(wrap + 1) - 8.0 * at(wrap - 1) + at(wrap - 2)
    ) / (12.0 * h)
    # the tail through a reversed view, so that the matmul rounds exactly as
    # on a row stored in increasing xi order
    head, tail = at(mid + np.arange(5)), at(mid - 5 + np.arange(5))[..., ::-1]
    d[..., mid] = (head @ _FD4_EDGE) / h
    d[..., mid + 1] = (head @ _FD4_NEXT) / h
    d[..., mid - 1] = -(tail @ _FD4_EDGE) / h
    d[..., mid - 2] = -(tail @ _FD4_NEXT) / h
    return d


def _l2(vals: np.ndarray, dxi: float) -> np.ndarray:
    return np.sqrt(dxi * np.sum(np.abs(vals) ** 2, axis=-1))


def _xt_weights(t, vals: np.ndarray, alpha: float, dxi: float) -> np.ndarray:
    """t^alpha * (sup + L2 + (1+log t)^{-1} * derivative-L2), one per row of vals."""
    linf = np.max(np.abs(vals), axis=-1)
    bracket = linf + _l2(vals, dxi) + _l2(_fd4(vals, dxi), dxi) / (1.0 + np.log(t))
    return t**alpha * bracket


# ------------------------------------------------------------ field functions


def forward_transform(f: PhysicalField) -> FrequencyField:
    """Continuum-normalized transform of the periodic extension of f.

    x = 0 and xi = 0 sit at index 0, so there is no box-offset phase.
    """
    return FrequencyField(f.grid, _fft(f.values, f.grid.dx))


def inverse_transform(F: FrequencyField) -> PhysicalField:
    """Inverse of forward_transform; round trip is exact to machine precision."""
    return PhysicalField(F.grid, _ifft(F.values, F.grid.dx))


def free_propagate(F: FrequencyField, t: float) -> FrequencyField:
    """Free Schrodinger flow in frequency space: multiply by e^{-i t xi^2/2}."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    return FrequencyField(F.grid, F.values * _propagator(F.grid.frequencies, t))


def norms(F: FrequencyField) -> NormBundle:
    """Sup, L2, derivative-L2 and H2 norms of a frequency field."""
    dxi = F.grid.dxi
    d1 = _fd4(F.values, dxi)
    linf = float(np.max(np.abs(F.values)))
    l2, d1_l2, d2_l2 = (float(_l2(v, dxi)) for v in (F.values, d1, _fd4(d1, dxi)))
    h2 = float(np.sqrt(l2 * l2 + d1_l2 * d1_l2 + d2_l2 * d2_l2))
    return NormBundle(linf=linf, l2=l2, dxi_l2=d1_l2, h2=h2)


def physical_l2(f: PhysicalField) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def physical_linf(f: PhysicalField) -> float:
    return float(np.max(np.abs(f.values)))
