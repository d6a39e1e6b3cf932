"""Backward Duhamel integration and the contraction map for the correction.

The correction profile g is the fixed point of
Phi(g)(t) = i*lam * int_t^inf U(-s)(|u|^2 u - |u_app|^2 u_app) ds + Phi_eps(t),
with u = u_app + U(.)g, solved by Picard iteration from g = 0 on a
log-spaced time grid truncated at t_max.  Everything Phi takes from W alone
(the propagator phases, the approximate solution and Phi_eps) is tabulated
once per construction by build_drive(W, params), the one way into the map;
apply_phi, the one sweep of the map, and picard_iterate take only the Drive.
Of each propagator row build_drive evaluates and keeps the head
(spectral._propagator_head), so its table is half a trajectory; it and
apply_phi mirror a block's heads into full rows for the kernels.
The neglected tail is estimated from a power-law fit and reported, never
silently added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profile import SolverParams
from .spectral import (FrequencyField, SpectralGrid, _head_width, _l2, _mirrored,
                       _propagator_head, _xt_weights)
from .trilinear import _pull_back, _pulled_back_forcing

__all__ = [
    "TimeGrid",
    "ProfileTrajectory",
    "PicardReport",
    "Drive",
    "build_drive",
    "apply_phi",
    "picard_iterate",
    "xt_norm",
    "xt_distance",
]

BLOWUP_LIMIT = 1e6

# Trajectories are processed BLOCK_ROWS time nodes at a time, which bounds
# each temporary to 4 x 4096 x 16 B = 256 KiB on the default grid, so that a
# block's dozen temporaries stay in a 4 MiB L2 cache; 16 rows (1 MiB each)
# ran slower.  No result depends on the block size.
BLOCK_ROWS = 4


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


@dataclass
class PicardReport:
    """Iteration record: sizes, step distances, ratios, and the truncation tail."""

    iterates: int = 0
    xt_norms: list = field(default_factory=list)
    step_distances: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    tail_estimate: float = 0.0


def _blocks(count: int):
    return (slice(lo, min(lo + BLOCK_ROWS, count)) for lo in range(0, count, BLOCK_ROWS))


def _xt_max(traj: ProfileTrajectory, alpha: float, block) -> float:
    nodes = traj.time_grid.nodes
    weights = [_xt_weights(nodes[rows], block(rows), alpha, traj.grid)
               for rows in _blocks(traj.time_grid.count)]
    return float(np.max(np.concatenate(weights)))


def xt_norm(g: ProfileTrajectory, alpha: float) -> float:
    """Max over nodes of the time-weighted norm bracket."""
    return _xt_max(g, alpha, lambda rows: g.values[rows])


def xt_distance(a: ProfileTrajectory, b: ProfileTrajectory, alpha: float) -> float:
    """||a - b||_XT, subtracting block by block: a - b is never held whole."""
    _require_on(b, a.grid, a.time_grid, "the second trajectory")
    return _xt_max(a, alpha, lambda rows: a.values[rows] - b.values[rows])


def estimate_tail(integrand: ProfileTrajectory) -> float:
    """Power-law extrapolation of the neglected integral beyond t_max.

    Fits ||integrand(s)|| ~ A s^m over the last decade of nodes and
    integrates the fit from t_max to infinity.  Returns inf when the norm
    is not decreasing over that decade (no valid tail bound) or when the
    fitted decay is not integrable.
    """
    nodes, dxi, vals = integrand.time_grid.nodes, integrand.grid.dxi, integrand.values
    mods = (np.abs(vals[rows]) for rows in _blocks(integrand.time_grid.count))
    # the sup is read before _l2 squares mod in place
    y = np.concatenate([np.max(mod, axis=-1) + _l2(mod, dxi) for mod in mods])
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
    """Trapezoid integral from each node to the last, in place: an ascending
    pass of interval trapezoids, then a descending sum; returns values."""
    half_ds = 0.5 * np.diff(nodes)
    for k in range(len(nodes) - 1):
        values[k] += values[k + 1]
        values[k] *= half_ds[k]
    values[-1] = 0.0
    for k in range(len(nodes) - 2, -1, -1):
        values[k] += values[k + 1]
    return values


def _require_on(traj: ProfileTrajectory, grid: SpectralGrid, tg: TimeGrid, what: str) -> None:
    if traj.grid != grid:
        raise ValueError(f"{what} lives on another grid")
    if not np.array_equal(traj.time_grid.nodes, tg.nodes):
        raise ValueError(f"{what} lives on another time grid")


@dataclass(frozen=True)
class Drive:
    """What the map Phi takes from the final data alone, tabulated once per
    (W, params) by build_drive and read by every sweep."""

    params: SolverParams
    time_grid: TimeGrid
    # the heads of the propagator rows U(s_k), count x (N/2+1), which
    # build_drive evaluates: each sweep mirrors a block's heads into full
    # rows (spectral._mirrored)
    prop: np.ndarray
    u_app: np.ndarray  # x-space rows U(s_k) v(s_k), count x N
    phi_eps: ProfileTrajectory
    tail_estimate: float


def build_drive(W: FrequencyField, params: SolverParams) -> Drive:
    """Tabulate U(s_k) (the heads of its rows), the approximate solution and
    Phi_eps on the params' time grid: the one way into the backward map.

    The pulled-back forcing rows come from the same tables, block by block;
    the tail is estimated from them before they are integrated, in place,
    into Phi_eps = -i * int_t^{t_max} of the forcing.
    """
    tg, grid = TimeGrid.from_params(params), params.grid
    u_app, vals = (np.empty((tg.count, grid.num_points), complex) for _ in range(2))
    prop = np.empty((tg.count, _head_width(grid)), complex)
    for rows in _blocks(tg.count):
        s = tg.nodes[rows]
        prop[rows] = _propagator_head(grid, s)
        u_app[rows], vals[rows] = _pulled_back_forcing(
            W.values, s, params.lam, _mirrored(prop[rows], grid), grid)
    # the forcing rows, until they are integrated in place into Phi_eps
    phi_eps = ProfileTrajectory(grid, tg, vals)
    tail = estimate_tail(phi_eps)
    _cumulative_backward(vals, tg.nodes)
    np.multiply(-1j, vals, out=vals)
    return Drive(params, tg, prop, u_app, phi_eps, tail)


def apply_phi(g: ProfileTrajectory, drive: Drive) -> ProfileTrajectory:
    """One application of the map Phi: the nonlinear part
    i*lam * int_t^{t_max} U(-s)(|u|^2 u - |u_app|^2 u_app) ds at g, then Phi_eps,
    in one new trajectory-sized array."""
    tg, grid = drive.time_grid, drive.params.grid
    _require_on(g, grid, tg, "g")
    out = np.empty_like(g.values)
    for rows in _blocks(tg.count):
        prop = _mirrored(drive.prop[rows], grid)
        out[rows] = _pull_back(drive.u_app[rows], prop, grid, g.values[rows])
    _cumulative_backward(out, tg.nodes)
    out *= 1j * drive.params.lam
    out += drive.phi_eps.values
    return ProfileTrajectory(grid, tg, out)


def picard_iterate(
    drive: Drive, max_iter: int = 15, tol: float = 1e-9
) -> tuple[ProfileTrajectory, PicardReport]:
    """Iterate g_{n+1} = Phi(g_n) from g_0 = 0 until the step shrinks below tol.

    Phi is the map of ``drive``, which build_drive tabulated from W.  The
    first iterate is Phi(0) = Phi_eps, taken from the drive without a sweep.
    Returns a non-converged report (no exception) when max_iter is hit;
    raises only on numerical blow-up.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    # the nonlinear part vanishes at 0, so Phi(0) is Phi_eps itself, which
    # nothing writes to
    return _picard(drive, max_iter, tol, drive.phi_eps, None)


def _picard(drive: Drive, max_iter: int, tol: float, first: ProfileTrajectory,
            first_step: float | None) -> tuple[ProfileTrajectory, PicardReport]:
    """picard_iterate continued from its first iterate, first = Phi(start),
    and that iterate's X_T step from the start, first_step; None for a start
    at 0, where the step is the iterate's own size.  The start itself is not
    needed, so no caller holds it through the loop.  max_iter and tol as
    picard_iterate validates them."""
    alpha = drive.params.alpha
    report = PicardReport(tail_estimate=drive.tail_estimate)
    # each iterate is held only as g_next, then g, and dropped once the next
    # one's step is taken
    g, g_next = None, first
    del first
    for n in range(max_iter):
        if n:
            g_next = apply_phi(g, drive)
        size = xt_norm(g_next, alpha)
        if not np.isfinite(size) or size > BLOWUP_LIMIT:
            raise FloatingPointError(f"Picard iteration blew up: ||g||_XT = {size:.3g}")
        if n:
            dist = xt_distance(g_next, g, alpha)
        else:
            dist = size if first_step is None else first_step
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
