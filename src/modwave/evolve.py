"""Forward split-step solver and long-time scattering diagnostics.

Strang splitting alternates the exact pointwise cubic phase rotation with
the exact free flight, so both substeps preserve the L2 mass to rounding.
Diagnostics compare the evolving interaction-picture profile against the
explicit logarithmically-corrected asymptotic profile and measure the
pointwise expansion error and dispersive-estimate constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import FinalData, SolverParams, asymptotic_profile
from .spectral import (
    FrequencyField,
    NormBundle,
    PhysicalField,
    _propagator,
    forward_transform,
    free_propagate,
    inverse_transform,
    norms,
    physical_linf,
)

__all__ = [
    "EvolutionState",
    "state_from_field",
    "strang_step",
    "evolve",
    "extract_profile",
    "scattering_deviation",
    "asymptotic_error",
    "dispersive_ratio",
]

DT_CAP = 0.1
MASS_DRIFT_ABORT = 1e-6


@dataclass(frozen=True)
class EvolutionState:
    """Solution snapshot with conserved-quantity diagnostics."""

    t: float
    u: PhysicalField
    mass: float
    energy: float
    step_count: int = 0


def _mass(u: PhysicalField) -> float:
    return float(u.grid.dx * np.sum(np.abs(u.values) ** 2))


def _energy(u: PhysicalField, lam: int) -> float:
    xi = u.grid.frequencies
    uhat = forward_transform(u)
    ux = inverse_transform(FrequencyField(u.grid, 1j * xi * uhat.values))
    dens = 0.5 * np.abs(ux.values) ** 2 + 0.5 * lam * np.abs(u.values) ** 4
    return float(u.grid.dx * np.sum(dens))


def state_from_field(u: PhysicalField, t: float, lam: int) -> EvolutionState:
    return EvolutionState(t=t, u=u, mass=_mass(u), energy=_energy(u, lam), step_count=0)


def _kick(values: np.ndarray, dt: float, lam: int) -> np.ndarray:
    return values * np.exp(-1j * lam * np.abs(values) ** 2 * dt)


def _strang(vals: np.ndarray, dt: float, n: int, xi: np.ndarray, lam: int) -> np.ndarray:
    """n fused Strang steps on a native-order state (xi in native order too):
    half kick, (n-1) x (drift + full kick), drift, half kick."""
    drift = _propagator(xi, dt)
    vals = _kick(vals, 0.5 * dt, lam)
    for _ in range(n - 1):
        vals = _kick(np.fft.ifft(drift * np.fft.fft(vals)), dt, lam)
    vals = np.fft.ifft(drift * np.fft.fft(vals))
    return _kick(vals, 0.5 * dt, lam)


def strang_step(state: EvolutionState, dt: float, lam: int) -> EvolutionState:
    """Half cubic kick, full free flight, half cubic kick."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    grid = state.u.grid
    vals = _strang(np.fft.ifftshift(state.u.values), dt, 1, grid.native_frequencies, lam)
    u = PhysicalField(grid, np.fft.fftshift(vals))
    return EvolutionState(
        t=state.t + dt,
        u=u,
        mass=_mass(u),
        energy=_energy(u, lam),
        step_count=state.step_count + 1,
    )


def evolve(
    u0: PhysicalField, t0: float, sample_times, params: SolverParams
) -> list[EvolutionState]:
    """Advance u0 from t0 through the sample times, checking conservation.

    Each sample interval is covered by equal steps below the dt cap.
    Aborts on NaN or relative mass drift above MASS_DRIFT_ABORT.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0:
        return []
    if np.any(np.diff(sample_times) <= 0) or sample_times[0] < t0:
        raise ValueError("sample times must be increasing and start at or after t0")
    grid = u0.grid
    lam = params.lam
    dt_cap = min(DT_CAP, 0.5 * grid.dx**2)
    mass0 = _mass(u0)

    states = []
    vals = np.fft.ifftshift(u0.values)  # native order between samples
    t = t0
    steps = 0
    for target in sample_times:
        span = target - t
        if span > 0:
            n = max(1, math.ceil(span / dt_cap))
            dt = span / n
            vals = _strang(vals, dt, n, grid.native_frequencies, lam)
            t = target
            steps += n
        u = PhysicalField(grid, np.fft.fftshift(vals))
        mass = _mass(u)
        if not np.isfinite(mass):
            raise FloatingPointError(f"evolution produced non-finite values at t = {t}")
        if mass0 > 0 and abs(mass - mass0) / mass0 > MASS_DRIFT_ABORT:
            raise FloatingPointError(
                f"mass drift {abs(mass - mass0) / mass0:.3g} exceeds "
                f"{MASS_DRIFT_ABORT} at t = {t}"
            )
        states.append(
            EvolutionState(t=t, u=u, mass=mass, energy=_energy(u, lam), step_count=steps)
        )
    return states


def extract_profile(state: EvolutionState) -> FrequencyField:
    """Interaction-picture profile: remove the free flow from the solution."""
    return free_propagate(forward_transform(state.u), -state.t)


def scattering_deviation(state: EvolutionState, W: FinalData, params: SolverParams) -> NormBundle:
    """Norms of the difference between the evolved profile and the explicit one."""
    if state.t < params.T:
        raise ValueError(f"deviation defined for t >= T = {params.T}, got t = {state.t}")
    fhat = extract_profile(state)
    v = asymptotic_profile(W, state.t, params.lam)
    return norms(FrequencyField(fhat.grid, fhat.values - v.values))


def asymptotic_error(state: EvolutionState, W: FinalData, params: SolverParams) -> float:
    """Sup-norm distance to the explicit self-similar leading term, on the rays x = t*xi_k.

    The free flow factors as U(t) = M_t D_t F M_t with the chirp
    M_t(y) = e^{i y^2/(2t)}, so u(t, t*xi) = (2*pi*i*t)^{-1/2} e^{i t xi^2/2} G(xi)
    with G = F[M_t U(-t)u]: the leading term replaces G by the profile v(t).
    """
    t = state.t
    if t < params.T:
        raise ValueError(f"expansion defined for t >= T = {params.T}, got t = {t}")
    grid = state.u.grid
    y = grid.x
    f = inverse_transform(extract_profile(state)).values
    # the chirp's local frequency |y|/t must stay inside the xi-grid
    unresolved = np.abs(y) > t * grid.xi_max
    mass_outside = grid.dx * np.sum(np.abs(f[unresolved]) ** 2)
    if state.mass > 0 and mass_outside / state.mass > 1e-10:
        raise ValueError(
            f"the chirp e^(i y^2/2t) is unresolved where the profile carries mass at t = {t}; "
            "box too small for this horizon"
        )
    G = forward_transform(PhysicalField(grid, np.exp(0.5j * y * y / t) * f))
    v = asymptotic_profile(W, t, params.lam)
    return float(np.max(np.abs(G.values - v.values))) / np.sqrt(2.0 * np.pi * t)


def dispersive_ratio(hhat: FrequencyField, t: float) -> float:
    """Measured constant in the two-term dispersive sup-norm bound.

    Returns ||U(t)h||_inf divided by t^{-1/2}||hhat||_inf + t^{-3/4}||d hhat||_L2.
    """
    if t < 1.0:
        raise ValueError(f"dispersive ratio measured for t >= 1, got {t}")
    b = norms(hhat)
    denom = t**-0.5 * b.linf + t**-0.75 * b.dxi_l2
    if denom == 0.0:
        return 0.0
    u = inverse_transform(free_propagate(hhat, t))
    return physical_linf(u) / denom
