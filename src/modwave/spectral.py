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
from functools import cached_property, partial

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

    def _nodes(self, spacing: float) -> np.ndarray:
        nodes = np.fft.ifftshift((np.arange(self.num_points) - self.num_points // 2) * spacing)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def x(self) -> np.ndarray:
        """Spatial nodes spanning [-box_length/2, box_length/2), in FFT order;
        built once per grid, read-only."""
        return self._nodes(self.dx)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Frequency nodes, symmetric about 0, in FFT order; built once per
        grid, read-only."""
        return self._nodes(self.dxi)

    @property
    def xi_max(self) -> float:
        return np.pi * self.num_points / self.box_length

    def __getstate__(self):
        # the node arrays are rebuilt, read-only, on first use after unpickling
        return {"num_points": self.num_points, "box_length": self.box_length}


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
    out = np.fft.fft(values)
    out *= dx
    return out


def _ifft(values: np.ndarray, dx: float) -> np.ndarray:
    """xi -> x, the exact inverse of _fft."""
    out = np.fft.ifft(values)
    out /= dx
    return out


def _propagator(xi: np.ndarray, t) -> np.ndarray:
    """e^{-i t xi^2/2}: shape xi.shape for a scalar t, one row per entry of a vector t."""
    return np.exp(-0.5j * np.asarray(t, dtype=float)[..., None] * xi * xi)


_FD4_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_FD4_NEXT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
# The one-sided outputs sit at mid + _EDGE_AT, mid = N/2 being -xi_max.  Each
# reads the five columns mid + _EDGE_FROM inward from its end of the xi range
# with the weights _EDGE_W; the two at the upper end are negated.
_EDGE_AT = np.array([0, 1, -1, -2])
_EDGE_FROM = np.array([[0, 1, 2, 3, 4]] * 2 + [[-1, -2, -3, -4, -5]] * 2)
_EDGE_W = np.array([_FD4_EDGE, _FD4_NEXT, _FD4_EDGE, _FD4_NEXT])
_WRAP = np.array([-2, -1, 0, 1])  # the columns whose neighbours wrap


def _fd4(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along the last axis: centered, also
    across xi = 0 where the row wraps, and one-sided at the ends of the xi
    range, -xi_max and xi_max - dxi, which sit in the middle of the row.

    The centered stencil is (-v[k+2] + 8 v[k+1] - 8 v[k-1] + v[k-2]) / 12h,
    evaluated left to right in place, its first sum as 8 v[k+1] - v[k+2],
    which IEEE arithmetic rounds identically; each one-sided stencil is
    summed term by term from its end inward, which, unlike a matmul, rounds
    the same whatever the operands' memory layout.
    """
    mid, at = vals.shape[-1] // 2, partial(np.take, vals, axis=-1, mode="wrap")
    d = np.empty_like(vals)
    inner = d[..., 2:-2]
    np.multiply(vals[..., 3:-1], 8.0, out=inner)
    inner -= vals[..., 4:]
    inner -= 8.0 * vals[..., 1:-3]
    inner += vals[..., :-4]
    inner /= 12.0 * h
    d[..., _WRAP] = (
        -at(_WRAP + 2) + 8.0 * at(_WRAP + 1) - 8.0 * at(_WRAP - 1) + at(_WRAP - 2)
    ) / (12.0 * h)
    cols = at(mid + _EDGE_FROM)
    edge = _EDGE_W[:, 0] * cols[..., 0]
    for k in range(1, 5):
        edge += _EDGE_W[:, k] * cols[..., k]
    np.negative(edge[..., 2:], out=edge[..., 2:])
    edge /= h
    d[..., mid + _EDGE_AT] = edge
    return d


def _l2(mod: np.ndarray, dxi: float) -> np.ndarray:
    """L2 norm along the last axis of a field whose modulus is mod, which
    it squares in place."""
    mod *= mod
    return np.sqrt(dxi * np.sum(mod, axis=-1))


def _xt_weights(t, vals: np.ndarray, alpha: float, dxi: float) -> np.ndarray:
    """t^alpha * (sup + L2 + (1+log t)^{-1} * derivative-L2), one per row of vals."""
    mod = np.abs(vals)
    linf = np.max(mod, axis=-1)
    bracket = linf + _l2(mod, dxi) + _l2(np.abs(_fd4(vals, dxi)), dxi) / (1.0 + np.log(t))
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
    mod = np.abs(F.values)
    linf = float(np.max(mod))
    l2, d1_l2, d2_l2 = (float(_l2(m, dxi)) for m in (mod, np.abs(d1), np.abs(_fd4(d1, dxi))))
    h2 = float(np.sqrt(l2 * l2 + d1_l2 * d1_l2 + d2_l2 * d2_l2))
    return NormBundle(linf=linf, l2=l2, dxi_l2=d1_l2, h2=h2)


def physical_l2(f: PhysicalField) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def physical_linf(f: PhysicalField) -> float:
    return float(np.max(np.abs(f.values)))
