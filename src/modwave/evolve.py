"""Forward solver and long-time scattering diagnostics.

``evolve`` takes and returns the interaction-picture profile f = U(-t)u, in
Fourier space and native FFT order, and integrates its equation

    df/dt = -i lam e^{i t xi^2/2} F[|u|^2 u],    u = F^{-1}[e^{-i t xi^2/2} f],

which leaves the free flow exact in the phase (Lawson's integrating factor).
The right-hand side is small and slowly varying once the solution disperses,
so the Dormand-Prince 5(4) embedded pair (Dormand & Prince, J. Comput. Appl.
Math. 6 (1980) 19-26) covers a sample interval in a few steps, at 6
right-hand sides per step attempt: the last stage's slope is the next
attempt's first (first same as last).  The right-hand side is the
pulled-back cubic kernel that the backward construction also uses, at the
row U(s) that the step hands it, one per stage time.  A sample adds u, one
inverse transform; mass and kinetic energy come from f by Plancherel.
Strang splitting (``_strang``), which alternates the exact pointwise cubic
phase rotation with the exact free flight, is kept as an independent
second-order cross-check.  Diagnostics compare the evolved profile against
the explicit logarithmically-corrected asymptotic profile and measure the
pointwise expansion error and dispersive-estimate constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profile import SolverParams, asymptotic_profile
from .spectral import (
    FrequencyField,
    PhysicalField,
    SpectralGrid,
    _ifft,
    _dxi_l2,
    _propagator,
    _xt_weights,
    forward_transform,
    free_propagate,
    inverse_transform,
    physical_linf,
)
from .trilinear import _pulled_back_cubic

__all__ = [
    "EvolutionState",
    "evolve",
    "scattering_deviation",
    "asymptotic_error",
    "dispersive_ratio",
]

RK_TOL = 1e-12
# more than 10x the most any clean run takes on one sample interval (151, on
# an amplitude-1 gaussian over [0, 0.5] at RK_TOL / 100)
MAX_STEP_ATTEMPTS = 2000
MASS_DRIFT_ABORT = 1e-6


@dataclass(frozen=True)
class EvolutionState:
    """The profile f = U(-t)u and the solution u at t, with diagnostics."""

    t: float
    profile: FrequencyField
    u: PhysicalField
    mass: float
    energy: float
    step_count: int = 0


def _mass(values: np.ndarray, weight: float) -> float:
    return float(weight * np.sum(np.abs(values) ** 2))


def _energy(f: np.ndarray, u: np.ndarray, grid: SpectralGrid, lam: int) -> float:
    """(1/2)||u_x||^2 + (lam/2)||u||_4^4, the first term from |u_hat| = |f|."""
    kinetic = _mass(grid.frequencies * f, grid.dxi / (2.0 * np.pi))
    return 0.5 * (kinetic + lam * float(grid.dx * np.sum(np.abs(u) ** 4)))


def _kick(values: np.ndarray, dt: float, lam: int) -> np.ndarray:
    return values * np.exp(-1j * lam * np.abs(values) ** 2 * dt)


def _strang(vals: np.ndarray, dt: float, n: int, grid: SpectralGrid, lam: int) -> np.ndarray:
    """n fused Strang steps on x-space values vals sampled on grid:
    half kick, (n-1) x (drift + full kick), drift, half kick."""
    drift = _propagator(grid, dt)
    vals = _kick(vals, 0.5 * dt, lam)
    for _ in range(n - 1):
        vals = _kick(np.fft.ifft(drift * np.fft.fft(vals)), dt, lam)
    vals = np.fft.ifft(drift * np.fft.fft(vals))
    return _kick(vals, 0.5 * dt, lam)


# The Dormand-Prince 5(4) tableau: the nodes and rows of A of stages 2-7.
# The last row of A holds the 5th-order weights, so stage 7 is the slope at
# the new value (first same as last).  E is the 5th- minus the 4th-order
# weights, over all 7 stages.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combine(f, h, weights, ks):
    """f + h sum_i weights_i ks_i over the nonzero weights."""
    out = f.copy()
    for w, k in zip(weights, ks):
        if w:
            out += (h * w) * k
    return out


def _dp45(f, t, h, end, k1, rhs, grid):
    """One Dormand-Prince 5(4) step of size h from (t, f), whose slope k1 is
    given, to end (t + h, or the sample time it lands on).

    Each stage calls rhs(y, p) at the row p = U(s) of its time s; one call
    evaluates the five distinct rows, and the last two stages share end's.
    Returns the 5th-order value, its slope and row at end, and h sum E_i k_i.
    """
    rows = _propagator(grid, [t + c * h for c in _DP_C[:4]] + [end])
    ks = [k1]
    for row, p in zip(_DP_A, (*rows, rows[-1])):
        y = _combine(f, h, row, ks)
        ks.append(rhs(y, p))
    return y, ks[-1], rows[-1], _combine(np.zeros_like(f), h, _DP_E, ks)


def evolve(
    f0: FrequencyField, t0: float, sample_times, params: SolverParams
) -> list[EvolutionState]:
    """Advance the profile f0 at t0 through the sample times, checking conservation.

    Integrates the profile f = U(-t)u by the Dormand-Prince 5(4) pair: a
    step is accepted when its embedded estimate max|h sum E_i k_i| / max|y5|
    is at most RK_TOL, keeping the 5th-order value y5.  The slope at an
    accepted y5 starts the next attempt; a rejected attempt reuses its own.
    An attempt whose value or estimate overflows or goes invalid is rejected
    like an inaccurate one.  Steps end on every sample time; step_count counts
    accepted steps.  Aborts on a non-finite f0 or first slope, on relative mass
    drift above MASS_DRIFT_ABORT, on a step too small to move t (t + step is
    t), and on a sample interval that MAX_STEP_ATTEMPTS attempts do not cover.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0:
        return []
    if np.any(np.diff(sample_times) <= 0) or sample_times[0] < t0:
        raise ValueError("sample times must be increasing and start at or after t0")
    grid = f0.grid
    lam, dx = params.lam, grid.dx
    weight = grid.dxi / (2.0 * np.pi)  # mass = weight * sum |f|^2 (Plancherel)

    def rhs(f, p):
        return -1j * lam * _pulled_back_cubic(f, p, grid)

    # at the current time t: the profile, its row e^{-i t xi^2/2} and its slope
    t, f, p = t0, f0.values, _propagator(grid, t0)
    k1 = rhs(f, p)
    mass0 = _mass(f, weight)
    if not (np.isfinite(mass0) and np.all(np.isfinite(k1))):
        raise FloatingPointError(f"non-finite values in f0 or its slope at t0 = {t0}")
    states, h, steps = [], np.inf, 0
    for target in sample_times:
        start, attempts = t, 0
        while t < target:
            if attempts == MAX_STEP_ATTEMPTS:
                raise FloatingPointError(
                    f"MAX_STEP_ATTEMPTS = {MAX_STEP_ATTEMPTS} step attempts on the sample "
                    f"interval [{start}, {target}] reached only t = {t}")
            attempts += 1
            last = h >= target - t
            step = target - t if last else h
            end = target if last else t + step
            if end == t:
                raise FloatingPointError(
                    f"the step {step:g} can no longer move t = {t}: the step control "
                    f"shrank it below the spacing of floats there")
            with np.errstate(over="ignore", invalid="ignore"):
                y5, k7, p_end, estimate = _dp45(f, t, step, end, k1, rhs, grid)
                scale, size = np.max(np.abs(y5)), np.max(np.abs(estimate))
                err = float(size / scale) if scale else 0.0
                if not np.isfinite(scale + size):
                    err = np.inf
            if err <= RK_TOL:
                f, t, k1, p = y5, end, k7, p_end
                steps += 1
            h = step * (4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (RK_TOL / err) ** 0.2)))
        mass = _mass(f, weight)
        if mass0 > 0 and abs(mass - mass0) / mass0 > MASS_DRIFT_ABORT:
            raise FloatingPointError(
                f"mass drift {abs(mass - mass0) / mass0:.3g} exceeds "
                f"{MASS_DRIFT_ABORT} at t = {t}"
            )
        u = _ifft(p * f, dx)
        states.append(EvolutionState(
            t=t, profile=FrequencyField(grid, f), u=PhysicalField(grid, u), mass=mass,
            energy=_energy(f, u, grid, lam), step_count=steps))
    return states


def scattering_deviation(state: EvolutionState, W: FrequencyField, params: SolverParams) -> float:
    """X_T weight t^alpha (sup + L2 + (1+log t)^{-1} d/dxi-L2) of the difference
    between the evolved profile and the explicit one."""
    t = state.t
    if t < params.T:
        raise ValueError(f"deviation defined for t >= T = {params.T}, got t = {t}")
    f, v = state.profile, asymptotic_profile(W, t, params.lam)
    return float(_xt_weights(t, f.values - v.values, params.alpha, f.grid))


def _on_rays(fhat: FrequencyField, t: float) -> np.ndarray:
    """G = F[M_t F^{-1} fhat] with the chirp M_t(y) = e^{i y^2/(2t)}.

    The free flow factors as U(t) = M_t D_t F M_t, so the free wave of the
    profile fhat is u(t, t*xi) = (2*pi*i*t)^{-1/2} e^{i t xi^2/2} G(xi) on the
    rays x = t*xi_k, however far they reach beyond the box.  Raises
    ValueError where the chirp is unresolved but the profile carries mass.
    """
    grid = fhat.grid
    y = grid.x
    f = inverse_transform(fhat).values
    # the chirp's local frequency |y|/t must stay inside the xi-grid
    unresolved = np.abs(y) > t * grid.xi_max
    mass = np.sum(np.abs(f) ** 2)
    if mass > 0 and np.sum(np.abs(f[unresolved]) ** 2) / mass > 1e-10:
        raise ValueError(
            f"the chirp e^(i y^2/2t) is unresolved where the profile carries mass at t = {t}; "
            "box too small for this horizon"
        )
    return forward_transform(PhysicalField(grid, np.exp(0.5j * y * y / t) * f)).values


def asymptotic_error(state: EvolutionState, W: FrequencyField, params: SolverParams) -> float:
    """Sup-norm distance to the explicit self-similar leading term, on the rays x = t*xi_k:
    the leading term replaces G = F[M_t f] of the evolved profile f (see _on_rays) by
    the profile v(t).
    """
    t = state.t
    if t < params.T:
        raise ValueError(f"expansion defined for t >= T = {params.T}, got t = {t}")
    G = _on_rays(state.profile, t)
    v = asymptotic_profile(W, t, params.lam)
    return float(np.max(np.abs(G - v.values))) / np.sqrt(2.0 * np.pi * t)


def dispersive_ratio(hhat: FrequencyField, times) -> list[float]:
    """Measured constant in the two-term dispersive sup-norm bound, one per t
    in times.

    Returns ||U(t)h||_inf divided by t^{-1/2}||hhat||_inf + t^{-3/4}||d hhat||_L2;
    the two norms of hhat are computed once for all times.
    """
    if min(times) < 1.0:
        raise ValueError(f"dispersive ratio measured for t >= 1, got {min(times)}")
    linf = float(np.max(np.abs(hhat.values)))
    dxi_l2 = float(_dxi_l2(hhat.values, hhat.grid, 1))
    denoms = [t**-0.5 * linf + t**-0.75 * dxi_l2 for t in times]
    return [physical_linf(inverse_transform(free_propagate(hhat, t))) / d if d != 0.0 else 0.0
            for t, d in zip(times, denoms)]
