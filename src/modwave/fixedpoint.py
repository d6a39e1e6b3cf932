"""Backward Duhamel integration and the contraction map for the correction.

The correction profile g is the fixed point of
Phi(g)(t) = i*lam * int_t^inf U(-s)(|u|^2 u - |u_app|^2 u_app) ds + Phi_eps(t),
with u = u_app + U(.)g, solved by Picard iteration from g = 0 on a
log-spaced time grid truncated at t_max.  What Phi takes from W alone is
tabulated once per construction by build_drive(W, params), the one way into
the map: W's values, the propagator phases, Phi_eps and its tail.
apply_phi, the one sweep of the map, and picard_iterate take only the Drive.
Of each propagator row build_drive evaluates and keeps the head
(spectral._propagator_head), so its table is half a trajectory; it and
apply_phi mirror a block's heads into full rows for the kernels.
The x-space rows of the approximate solution, which only sweeps read, are
not kept by build_drive: the first sweep on a drive fills them as it goes
and, once its last block is done, sets them on the drive as u_app for every
later sweep, so a construction that stops at Phi_eps never holds them.
Both sweep their blocks of nodes from the last node down, so that each block
of the backward trapezoid integral is finished at once (_integrate_block).
apply_phi writes the image into the array it is handed, or nowhere, and
returns the X_T distances its caller asks for, taken while each finished
block is at hand; so each Picard step is one pass, and from its second sweep
on the iteration overwrites the iterate it holds.
The neglected tail is estimated from a power-law fit and reported, never
silently added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profile import SolverParams, _profile
from .spectral import (FrequencyField, SpectralGrid, _head_width, _mirrored,
                       _propagator_head, _sup_l2, _to_wave, _xt_weights)
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
# each temporary to 4 x 4096 x 16 B = 256 KiB on the default grid: a block's
# dozen temporaries come to 3 MiB, against 2 MiB of L2 cache per core on the
# 2-vCPU Xeon it was measured on; 16 rows (1 MiB each) ran slower.  No
# result depends on the block size.
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


def _blocks(count: int, down: bool = False):
    """The blocks of BLOCK_ROWS nodes as slices, from the first node up, or
    from the last node down."""
    starts = range(0, count, BLOCK_ROWS)
    return (slice(lo, min(lo + BLOCK_ROWS, count)) for lo in (starts[::-1] if down else starts))


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


def estimate_tail(nodes: np.ndarray, sizes: np.ndarray) -> float:
    """Power-law extrapolation of the neglected integral beyond t_max, from
    the sizes sup + L2 (spectral._sup_l2) of the integrand at the nodes.

    Fits size(s) ~ A s^m over the last decade of nodes and integrates the
    fit from t_max to infinity.  Returns inf when the size is not decreasing
    over that decade (no valid tail bound) or when the fitted decay is not
    integrable.
    """
    if not np.any(sizes):
        return 0.0
    window = nodes >= nodes[-1] / 10.0
    yw, tw = sizes[window], nodes[window]
    if yw[-1] >= yw[0] or np.any(yw <= 0):
        return float("inf")
    m, logA = np.polyfit(np.log(tw), np.log(yw), 1)
    if m >= -1.0:
        return float("inf")
    t_max = nodes[-1]
    return float(np.exp(logA) * t_max ** (m + 1.0) / (-(m + 1.0)))


def _integrate_block(block: np.ndarray, lo: int, half_ds: np.ndarray, edge: list) -> None:
    """One block of the backward trapezoid integral from each node to the
    last, in place: block holds the integrand at nodes lo, lo + 1, ... and
    becomes the integral from each.  edge holds two rows, the integrand and
    the integral at the node just above the block (unread for the block of
    the last node, where the integral is 0), and is left holding those at
    node lo.  Swept from the last block down, every element gets the sums
    and products, in their order, of an ascending pass of interval
    trapezoids (f_k + f_{k+1}) * ds_k/2, each row scaled one scalar at a
    time, then a descending sum."""
    raw, carry = edge
    if lo + len(block) == half_ds.size + 1:  # the block of the last node
        raw[...] = block[-1]
        carry[...] = 0.0
        block[-1] = 0.0
        block = block[:-1]
        if not len(block):
            return
    hi = lo + len(block)
    # the interval from node hi - 1 to hi, then the integral from hi - 1: the
    # sum f_hi + f_{hi-1} has the bits of f_{hi-1} + f_hi
    raw += block[-1]
    raw *= half_ds[hi - 1]
    raw += carry
    carry[...] = block[0]
    for k in range(len(block) - 1):
        block[k] += block[k + 1]
        block[k] *= half_ds[lo + k]
    block[-1] = raw
    for k in range(len(block) - 2, -1, -1):
        block[k] += block[k + 1]
    raw[...] = block[0]
    edge.reverse()


def _require_on(traj: ProfileTrajectory, grid: SpectralGrid, tg: TimeGrid, what: str) -> None:
    if traj.grid != grid:
        raise ValueError(f"{what} lives on another grid")
    if not np.array_equal(traj.time_grid.nodes, tg.nodes):
        raise ValueError(f"{what} lives on another time grid")


@dataclass
class Drive:
    """What the map Phi takes from the final data alone, tabulated once per
    (W, params) by build_drive and read by every sweep, and the table of
    approximate-solution rows that the first sweep fills."""

    params: SolverParams
    time_grid: TimeGrid
    w: np.ndarray  # the values of W
    # the heads of the propagator rows U(s_k), count x (N/2+1), which
    # build_drive evaluates: each sweep mirrors a block's heads into full
    # rows (spectral._mirrored)
    prop: np.ndarray
    phi_eps: ProfileTrajectory
    tail_estimate: float
    # the x-space rows U(s_k) v(s_k), count x N, which only sweeps read:
    # None until the first apply_phi on the drive has filled them, the one
    # field set after build_drive
    u_app: np.ndarray | None = None


def build_drive(W: FrequencyField, params: SolverParams) -> Drive:
    """Tabulate U(s_k) (the heads of its rows) and Phi_eps on the params'
    time grid, beside W's values: the one way into the backward map.

    The pulled-back forcing rows come from the same tables, block by block
    from the last node down; each block's tail sizes are taken before it is
    integrated, in place, into Phi_eps = -i * int_t^{t_max} of the forcing.
    The rows U(s_k)v(s_k) that the forcing is computed from are not kept:
    the drive's u_app stays None until a sweep fills it.
    """
    tg, grid = TimeGrid.from_params(params), params.grid
    vals = np.empty((tg.count, grid.num_points), complex)
    prop = np.empty((tg.count, _head_width(grid)), complex)
    sizes = np.empty(tg.count)
    half_ds, edge = 0.5 * np.diff(tg.nodes), list(np.empty((2, grid.num_points), complex))
    for rows in _blocks(tg.count, down=True):
        s = tg.nodes[rows]
        prop[rows] = _propagator_head(grid, s)
        block = _pulled_back_forcing(W.values, s, params.lam, _mirrored(prop[rows], grid), grid)
        sizes[rows] = _sup_l2(block, grid.dxi)
        _integrate_block(block, rows.start, half_ds, edge)
        vals[rows] = np.multiply(-1j, block, out=block)
        del block  # freed before the next block's temporaries
    phi_eps = ProfileTrajectory(grid, tg, vals)
    return Drive(params, tg, W.values, prop, phi_eps, estimate_tail(tg.nodes, sizes))


def apply_phi(g: ProfileTrajectory, drive: Drive, out: np.ndarray | None = None,
              against: tuple = ()) -> list[float]:
    """One application of the map Phi: the nonlinear part
    i*lam * int_t^{t_max} U(-s)(|u|^2 u - |u_app|^2 u_app) ds at g, then Phi_eps.

    The blocks of nodes are swept from the last node down, each finished at
    once.  While a block is at hand, the sweep takes the X_T weights (at the
    drive's alpha) of image - S for each trajectory S in against, None
    standing for 0 (the image's own size); only then does it write the
    block into out: a complex128 array of g's shape, new or g.values itself
    (g may be in against), never the drive's Phi_eps; or nowhere when out is
    None.  Returns the list of ||image - S||_XT.

    The first sweep on a drive computes each block's rows U(s)v from the
    drive's W and propagator heads, fills a table with them, and sets it as
    drive.u_app once every block is done; later sweeps read that table.
    """
    tg, grid = drive.time_grid, drive.params.grid
    _require_on(g, grid, tg, "g")
    for traj in against:
        if traj is not None:
            _require_on(traj, grid, tg, "a trajectory measured against")
    if out is not None:
        if out.shape != g.values.shape or out.dtype != np.complex128:
            raise ValueError(f"out must be a complex128 array of shape {g.values.shape}, "
                             f"got {out.dtype} {out.shape}")
        if np.may_share_memory(out, drive.phi_eps.values):
            raise ValueError("a sweep never writes over the drive's Phi_eps")
        if out is not g.values and np.may_share_memory(out, g.values):
            raise ValueError("out must be g.values itself or share no memory with it")
    nodes, alpha, scale = tg.nodes, drive.params.alpha, 1j * drive.params.lam
    half_ds, edge = 0.5 * np.diff(nodes), list(np.empty((2, grid.num_points), complex))
    # running maxima, which np.maximum keeps NaN in: no weights are held
    maxima = [-np.inf] * len(against)
    filling = drive.u_app is None
    u_app = np.empty((tg.count, grid.num_points), complex) if filling else drive.u_app
    for rows in _blocks(tg.count, down=True):
        prop = _mirrored(drive.prop[rows], grid)
        if filling:
            u_app[rows] = _to_wave(_profile(drive.w, nodes[rows], drive.params.lam), prop, grid)
        block = _pull_back(u_app[rows], prop, grid, g.values[rows])
        _integrate_block(block, rows.start, half_ds, edge)
        block *= scale
        block += drive.phi_eps.values[rows]
        for i, traj in enumerate(against):
            weights = _xt_weights(nodes[rows], block if traj is None else block - traj.values[rows],
                                  alpha, grid)
            maxima[i] = np.maximum(maxima[i], np.max(weights))
        if out is not None:
            out[rows] = block
        del block, prop  # freed before the next block's temporaries
    if filling:  # set whole: a sweep that fails leaves the drive as it was
        drive.u_app = u_app
    return [float(m) for m in maxima]


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
    # the nonlinear part vanishes at 0, so Phi(0) is Phi_eps itself, and its
    # step from 0 is its own size
    size = xt_norm(drive.phi_eps, drive.params.alpha)
    return _picard(drive, max_iter, tol, drive.phi_eps, size, size)


def _picard(drive: Drive, max_iter: int, tol: float, first: ProfileTrajectory,
            first_size: float, first_step: float) -> tuple[ProfileTrajectory, PicardReport]:
    """picard_iterate continued from its first iterate, first = Phi(start),
    with that iterate's X_T size and its step from the start.  The start
    itself is not needed, so no caller holds it through the loop.  Each
    later iterate's size and step come from the sweep that makes it, which
    writes over the iterate held unless that is the drive's Phi_eps: a
    first iterate the caller hands over may be overwritten.  max_iter and
    tol as picard_iterate validates them."""
    report = PicardReport(tail_estimate=drive.tail_estimate)
    g, size, dist = first, first_size, first_step
    for n in range(max_iter):
        if n:
            out = (np.empty_like(g.values) if np.may_share_memory(g.values, drive.phi_eps.values)
                   else g.values)
            size, dist = apply_phi(g, drive, out, (None, g))
            g = ProfileTrajectory(g.grid, g.time_grid, out)
        if not np.isfinite(size) or size > BLOWUP_LIMIT:
            raise FloatingPointError(f"Picard iteration blew up: ||g||_XT = {size:.3g}")
        report.iterates += 1
        report.xt_norms.append(size)
        report.step_distances.append(dist)
        if len(report.step_distances) >= 2 and report.step_distances[-2] > 0:
            report.contraction_ratios.append(dist / report.step_distances[-2])
        if dist <= tol:
            report.converged = True
            break
    return g, report
