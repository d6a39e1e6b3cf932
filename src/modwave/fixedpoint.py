"""Backward Duhamel integration and the contraction map for the correction.

The correction profile g is the fixed point of
Phi(g)(t) = i*lam * int_t^inf U(-s)(|u|^2 u - |u_app|^2 u_app) ds + Phi_eps(t),
with u = u_app + U(.)g, solved by Picard iteration from g = 0 on a
log-spaced time grid truncated at t_max.  The neglected tail is estimated
from a power-law fit and reported, never silently added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profile import FinalData, SolverParams, _profile
from .spectral import FrequencyField, SpectralGrid, _l2, _xt_weights
from .trilinear import _pulled_back_cubic, _pulled_back_forcing

__all__ = [
    "TimeGrid",
    "ProfileTrajectory",
    "PicardReport",
    "backward_integral",
    "forcing_integrand",
    "phi_eps",
    "apply_phi",
    "picard_iterate",
    "contraction_probe",
    "xt_norm",
]

BLOWUP_LIMIT = 1e6

# Trajectories are processed BLOCK_ROWS time nodes at a time, which bounds
# each temporary to 16 x 4096 x 16 B = 1 MiB on the default grid.
BLOCK_ROWS = 16


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, logarithmically spaced nodes from T to t_max."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("time grid needs at least 3 nodes")
        if nodes[0] < 2.0:
            raise ValueError(f"time grid must start at t >= 2, got {nodes[0]}")
        ratios = nodes[1:] / nodes[:-1]
        if np.any(ratios <= 1.0):
            raise ValueError("time grid nodes must be strictly increasing")
        if np.max(ratios) - np.min(ratios) > 1e-12 * np.min(ratios):
            raise ValueError("time grid must be logarithmically spaced (constant ratio)")

    @classmethod
    def from_params(cls, params: SolverParams) -> "TimeGrid":
        return cls(np.geomspace(params.T, params.t_max, params.time_grid_points))

    @property
    def count(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class ProfileTrajectory:
    """A frequency field per time node; the carrier of g(t) and integrands."""

    grid: SpectralGrid
    time_grid: TimeGrid
    values: np.ndarray  # shape (count, num_points)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.time_grid.count, self.grid.num_points):
            raise ValueError(
                f"trajectory shape {vals.shape} does not match "
                f"{self.time_grid.count} nodes x {self.grid.num_points} points"
            )

    @classmethod
    def zeros(cls, grid: SpectralGrid, time_grid: TimeGrid) -> "ProfileTrajectory":
        return cls(grid, time_grid, np.zeros((time_grid.count, grid.num_points), complex))

    def field(self, k: int) -> FrequencyField:
        return FrequencyField(self.grid, self.values[k])

    def __sub__(self, other: "ProfileTrajectory") -> "ProfileTrajectory":
        self._check_compatible(other)
        return ProfileTrajectory(self.grid, self.time_grid, self.values - other.values)

    def _check_compatible(self, other: "ProfileTrajectory") -> None:
        if self.grid != other.grid or not np.array_equal(
            self.time_grid.nodes, other.time_grid.nodes
        ):
            raise ValueError("trajectories live on different grids")


@dataclass
class PicardReport:
    """Iteration record: sizes, step distances, ratios, and the truncation tail."""

    iterates: int = 0
    xt_norms: list = field(default_factory=list)
    step_distances: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    tail_estimate: float = 0.0

    def to_dict(self) -> dict:
        return {
            "iterates": self.iterates,
            "xt_norms": self.xt_norms,
            "step_distances": self.step_distances,
            "contraction_ratios": self.contraction_ratios,
            "converged": self.converged,
            "tail_estimate": self.tail_estimate,
        }


def _blocks(count: int):
    return (slice(lo, min(lo + BLOCK_ROWS, count)) for lo in range(0, count, BLOCK_ROWS))


def xt_norm(g: ProfileTrajectory, alpha: float) -> float:
    """Max over nodes of the time-weighted norm bracket."""
    nodes, dxi = g.time_grid.nodes, g.grid.dxi
    weights = [_xt_weights(nodes[rows], g.values[rows], alpha, dxi)
               for rows in _blocks(g.time_grid.count)]
    return float(np.max(np.concatenate(weights)))


def estimate_tail(integrand: ProfileTrajectory) -> float:
    """Power-law extrapolation of the neglected integral beyond t_max.

    Fits ||integrand(s)|| ~ A s^m over the last decade of nodes and
    integrates the fit from t_max to infinity.  Returns inf when the norm
    is not decreasing over that decade (no valid tail bound) or when the
    fitted decay is not integrable.
    """
    nodes, dxi, vals = integrand.time_grid.nodes, integrand.grid.dxi, integrand.values
    y = np.concatenate([
        np.max(np.abs(vals[rows]), axis=-1) + _l2(vals[rows], dxi)
        for rows in _blocks(integrand.time_grid.count)
    ])
    if not np.any(y):
        return 0.0
    window = nodes >= nodes[-1] / 10.0
    yw, tw = y[window], nodes[window]
    if yw[-1] >= yw[0] or np.any(yw <= 0):
        return float("inf")
    m, logA = np.polyfit(np.log(tw), np.log(yw), 1)
    if m >= -1.0:
        return float("inf")
    t_max = nodes[-1]
    return float(np.exp(logA) * t_max ** (m + 1.0) / (-(m + 1.0)))


def _cumulative_backward(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Trapezoid integral from each node to the last, in one backward sweep."""
    out = np.zeros_like(values)
    for k in range(len(nodes) - 2, -1, -1):
        ds = nodes[k + 1] - nodes[k]
        out[k] = out[k + 1] + 0.5 * ds * (values[k] + values[k + 1])
    return out


def backward_integral(integrand: ProfileTrajectory, k: int) -> FrequencyField:
    """int_{t_k}^{t_max} integrand(s) ds by trapezoid quadrature.

    The tail beyond t_max (estimate_tail) is reported in
    ``meta["tail_estimate"]``, never added to the value.
    """
    acc = _cumulative_backward(integrand.values, integrand.time_grid.nodes)
    return FrequencyField(integrand.grid, acc[k], {"tail_estimate": estimate_tail(integrand)})


def _require_on(traj: ProfileTrajectory, grid: SpectralGrid, tg: TimeGrid, what: str) -> None:
    if traj.grid != grid or not np.array_equal(traj.time_grid.nodes, tg.nodes):
        raise ValueError(f"{what} lives on a different grid")


def forcing_integrand(W: FinalData, params: SolverParams, tg: TimeGrid) -> ProfileTrajectory:
    """The pulled-back forcing at every node: the integrand of Phi_eps."""
    w = np.fft.ifftshift(W.W.values)
    vals = np.empty((tg.count, params.grid.num_points), complex)
    for rows in _blocks(tg.count):
        pulled = _pulled_back_forcing(w, tg.nodes[rows], params.lam, params.grid)
        vals[rows] = np.fft.fftshift(pulled, axes=-1)
    return ProfileTrajectory(params.grid, tg, vals)


def phi_eps(
    W: FinalData,
    params: SolverParams,
    tg: TimeGrid,
    integrand: ProfileTrajectory | None = None,
) -> ProfileTrajectory:
    """The g-independent forcing part: -i * int_t^inf of the pulled-back forcing.

    ``integrand`` is forcing_integrand(W, params, tg), computed when not given.
    """
    if integrand is None:
        integrand = forcing_integrand(W, params, tg)
    _require_on(integrand, params.grid, tg, "forcing integrand")
    acc = _cumulative_backward(integrand.values, tg.nodes)
    return ProfileTrajectory(params.grid, tg, -1j * acc)


def apply_phi(
    g: ProfileTrajectory,
    W: FinalData,
    params: SolverParams,
    phi_eps_cached: ProfileTrajectory,
) -> ProfileTrajectory:
    """One application of the full map Phi = Phi_nl + Phi_eps."""
    tg, lam = g.time_grid, params.lam
    w = np.fft.ifftshift(W.W.values)
    integrand = np.empty_like(g.values)
    for rows in _blocks(tg.count):
        s = tg.nodes[rows]
        corr = np.fft.ifftshift(g.values[rows], axes=-1)
        pulled = _pulled_back_cubic(_profile(w, s, lam), s, params.grid, corr)
        integrand[rows] = np.fft.fftshift(pulled, axes=-1)
    acc = _cumulative_backward(integrand, tg.nodes)
    acc *= 1j * lam
    acc += phi_eps_cached.values
    return ProfileTrajectory(params.grid, tg, acc)


def picard_iterate(
    W: FinalData,
    params: SolverParams,
    max_iter: int = 15,
    tol: float = 1e-9,
    g0: ProfileTrajectory | None = None,
    integrand: ProfileTrajectory | None = None,
) -> tuple[ProfileTrajectory, PicardReport]:
    """Iterate g_{n+1} = Phi(g_n) from g_0 (default 0) until the step shrinks below tol.

    ``integrand`` is forcing_integrand(W, params, tg) on the params' time
    grid, computed when not given.  Returns a non-converged report (no
    exception) when max_iter is hit; raises only on numerical blow-up.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    tg = TimeGrid.from_params(params)
    if integrand is None:
        integrand = forcing_integrand(W, params, tg)
    cached = phi_eps(W, params, tg, integrand)

    report = PicardReport(tail_estimate=estimate_tail(integrand))

    if g0 is None:
        g = ProfileTrajectory.zeros(params.grid, tg)
    else:
        _require_on(g0, params.grid, tg, "starting guess")
        g = g0
    for _ in range(max_iter):
        g_next = apply_phi(g, W, params, cached)
        size = xt_norm(g_next, params.alpha)
        if not np.isfinite(size) or size > BLOWUP_LIMIT:
            raise FloatingPointError(f"Picard iteration blew up: ||g||_XT = {size:.3g}")
        dist = xt_norm(g_next - g, params.alpha)
        report.iterates += 1
        report.xt_norms.append(size)
        report.step_distances.append(dist)
        if len(report.step_distances) >= 2 and report.step_distances[-2] > 0:
            report.contraction_ratios.append(dist / report.step_distances[-2])
        g = g_next
        if dist <= tol:
            report.converged = True
            break
    return g, report


def contraction_probe(
    g1: ProfileTrajectory,
    g2: ProfileTrajectory,
    W: FinalData,
    params: SolverParams,
) -> float:
    """Empirical Lipschitz ratio ||Phi(g1) - Phi(g2)|| / ||g1 - g2|| in X_T.

    The forcing part cancels in the difference, so a zero cache is passed.
    """
    if np.array_equal(g1.values, g2.values):
        raise ValueError("contraction probe requires distinct trajectories")
    zero = ProfileTrajectory.zeros(params.grid, g1.time_grid)
    p1 = apply_phi(g1, W, params, zero)
    p2 = apply_phi(g2, W, params, zero)
    return xt_norm(p1 - p2, params.alpha) / xt_norm(g1 - g2, params.alpha)
