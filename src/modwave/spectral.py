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

Since xi_{N-k} = -xi_k exactly in this layout, each propagator row
e^{-i t xi^2/2} is computed on its head, the nonnegative half 0..N/2, and
mirrored into the rest.  A table of rows may hold the heads alone; its
readers mirror them into full rows, bit for bit the computed ones.
Every step from frequency rows into the free wave U(s)a in x-space, and
back by U(-s), goes through the one pair ``_to_wave`` / ``_from_wave``;
``_on_rays`` reads the wave on the rays x = s*xi through U(s) = M D F M.

Each operation has one array kernel (underscored) acting along the last
axis, so a block of time nodes is processed like one field.  The public
field functions validate and wrap these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    out *= 1.0 / dx
    return out


def _to_wave(a: np.ndarray, prop: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The x-space rows U(s)a = F^{-1}[prop a] of frequency rows a, from the
    propagator rows prop = e^{-i s xi^2/2} of one s or one per row."""
    return _ifft(a * prop, grid.dx)


def _from_wave(c: np.ndarray, prop: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The frequency rows U(-s)c = conj(prop) F[c] of x-space rows c."""
    out = _fft(c, grid.dx)
    # in place, in the order of np.conj(prop) * out: the SIMD complex product
    # is not bitwise commutative
    return np.multiply(np.conj(prop), out, out=out)


def _on_rays(a: np.ndarray, t: float, grid: SpectralGrid) -> np.ndarray:
    """G = F[M_t F^{-1} a] of the frequency row a, with M_t(y) = e^{i y^2/(2t)}.

    The free flow factors as U(t) = M_t D_t F M_t, so the free wave of the
    profile a is u(t, t*xi) = (2*pi*i*t)^{-1/2} e^{i t xi^2/2} G(xi) on the
    rays x = t*xi_k, however far they reach beyond the box.  Raises
    ValueError where the chirp is unresolved but the profile carries mass.
    """
    y = grid.x
    f = _ifft(a, grid.dx)
    # the chirp's local frequency |y|/t must stay inside the xi-grid
    unresolved = np.abs(y) > t * grid.xi_max
    mass = np.sum(np.abs(f) ** 2)
    if mass > 0 and np.sum(np.abs(f[unresolved]) ** 2) / mass > 1e-10:
        raise ValueError(
            f"the chirp e^(i y^2/2t) is unresolved where the profile carries mass at t = {t}; "
            "box too small for this horizon"
        )
    return _fft(np.exp(0.5j * y * y / t) * f, grid.dx)


def _head_width(grid: SpectralGrid) -> int:
    """Columns in the head of a propagator row: 0..N/2."""
    return grid.num_points // 2 + 1


def _propagator_head(grid: SpectralGrid, t) -> np.ndarray:
    """The head of the propagator row e^{-i t xi^2/2}: its columns 0..N/2,
    which hold every distinct value of the row, one head for a scalar t, one
    per entry of a vector t."""
    xi = grid.frequencies[: _head_width(grid)]
    ph = -0.5 * np.asarray(t, dtype=float)[..., None] * xi * xi
    head = np.empty(ph.shape, dtype=np.complex128)
    # cos and sin of the real phase: the bits of exp(-0.5j * t * xi * xi), at
    # less cost than the complex exp
    np.cos(ph, out=head.real)
    np.sin(ph, out=head.imag)
    return head


def _mirrored(head: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The full N-point rows of propagator heads: columns N/2+1..N-1 copy
    columns N/2-1..1, which hold the same bits."""
    half = grid.num_points // 2
    out = np.empty(head.shape[:-1] + (grid.num_points,), dtype=np.complex128)
    out[..., : half + 1] = head
    out[..., half + 1 :] = head[..., half - 1 : 0 : -1]
    return out


def _propagator(grid: SpectralGrid, t) -> np.ndarray:
    """e^{-i t xi^2/2} on the grid's frequencies: one N-point row for a scalar
    t, one row per entry of a vector t."""
    return _mirrored(_propagator_head(grid, t), grid)


def _l2(mod: np.ndarray, dxi: float) -> np.ndarray:
    """L2 norm along the last axis of a field whose modulus is mod, which
    it squares in place."""
    mod *= mod
    return np.sqrt(dxi * np.sum(mod, axis=-1))


def _dxi_l2(vals: np.ndarray, grid: SpectralGrid, order: int) -> np.ndarray:
    """L2 norm of the order-th xi derivative, one per row of vals, through
    Plancherel: ||d_xi^k hhat||_L2 = sqrt(2 pi) ||x^k h||_L2, exact for the
    trigonometric interpolant."""
    h = _ifft(vals, grid.dx)
    h *= grid.x**order
    return np.sqrt(2.0 * np.pi) * _l2(np.abs(h), grid.dx)


def _sup_l2(vals: np.ndarray, dxi: float) -> np.ndarray:
    """sup + L2 of each row of vals, from one modulus."""
    mod = np.abs(vals)
    # the sup is read before _l2 squares mod in place
    return np.max(mod, axis=-1) + _l2(mod, dxi)


def _xt_weights(t, vals: np.ndarray, alpha: float, grid: SpectralGrid) -> np.ndarray:
    """t^alpha * (sup + L2 + (1+log t)^{-1} * derivative-L2), one per row of vals."""
    return t**alpha * (_sup_l2(vals, grid.dxi) + _dxi_l2(vals, grid, 1) / (1.0 + np.log(t)))


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
    return FrequencyField(F.grid, F.values * _propagator(F.grid, t))


def norms(F: FrequencyField) -> NormBundle:
    """Sup, L2, derivative-L2 and H2 norms of a frequency field."""
    mod = np.abs(F.values)
    linf = float(np.max(mod))
    l2 = float(_l2(mod, F.grid.dxi))
    d1_l2, d2_l2 = (float(_dxi_l2(F.values, F.grid, k)) for k in (1, 2))
    h2 = float(np.sqrt(l2 * l2 + d1_l2 * d1_l2 + d2_l2 * d2_l2))
    return NormBundle(linf=linf, l2=l2, dxi_l2=d1_l2, h2=h2)
