"""Verification campaigns: each produces named checks, fits, and series.

Six runnable campaigns cover the full verification surface: spectral
identities, the dispersive estimate, the trilinear remainder and forcing
identities, the backward fixed point, the forward/backward roundtrip, and
a parameter sweep of the contraction region.  Every check is a named
pass/fail record so a results file is self-describing.  construct,
roundtrip and sweep map one function of (cell, config) over their cells.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .evolve import (
    _strang,
    asymptotic_error,
    evolve,
    scattering_deviation,
    dispersive_ratio,
)
from .fitting import fit_decay
from .fixedpoint import (
    ProfileTrajectory,
    _blocks,
    _picard,
    apply_phi,
    build_drive,
    picard_iterate,
    xt_distance,
    xt_norm,
)
from .profile import (
    SolverParams,
    _profile,
    _unit_shape,
    asymptotic_profile,
    make_final_data,
)
from .spectral import (
    FrequencyField,
    PhysicalField,
    SpectralGrid,
    _l2,
    _on_rays,
    _propagator,
    _to_wave,
    forward_transform,
    free_propagate,
    inverse_transform,
)
from .trilinear import (
    forcing_identity_residual,
    pulled_back_forcing,
    remainder,
    remainder_oracle,
)

__all__ = ["CampaignResult", "CAMPAIGNS", "run_campaign"]

# Few-ulp threshold standing in for "exact" identities at double precision;
# the propagator phase reaches ~2e3 radians on the default grid, so the
# representable relative accuracy is a few hundred ulps.
EXACT_TOL = 1e-12


@dataclass
class CampaignResult:
    """Named checks plus supporting fits and time series for one campaign,
    and its timings: wall_s and cpu_s of the campaign, and under "parts"
    those of each pooled part, in part order."""

    name: str
    checks: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, value: float, passed: bool, detail: str) -> None:
        self.checks.append(
            {"name": name, "value": float(value), "passed": bool(passed), "detail": detail}
        )


def _sample_times(lo: float, hi: float, n: int = 17) -> np.ndarray:
    return np.geomspace(lo, hi, n)


def _refuse_zero_data(name: str, config: ExperimentConfig) -> None:
    """Refuse eps0 = 0 in a campaign that fits the decay of its data or
    divides by their size."""
    if config.params.eps0 == 0.0:
        raise ConfigError(f"eps0 = 0: {name} fits and divides by the size of the final data, "
                          "which zero data does not have (construct and sweep serve it)")


def _requested_workers() -> int:
    """MODWAVE_THREADS as a worker count, 0 (the default) for one per CPU."""
    raw = os.environ.get("MODWAVE_THREADS", "0")
    try:
        requested = int(raw)
    except ValueError:
        requested = -1
    if requested < 0:
        raise ValueError(f"MODWAVE_THREADS must be a non-negative integer, got {raw!r}")
    return requested


def _libc_version() -> str | None:
    """The GNU C library's version string, such as "glibc 2.36"; None under
    any other C library."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


def _reuse_freed_memory() -> None:
    """On glibc, keep freed memory in this process for its next allocation.

    glibc's malloc serves any request above its mmap threshold (128 KiB at
    start) by a fresh mapping and hands the heap top back to the kernel above
    its trim threshold, so the 4-row block temporaries of every sweep and X_T
    bracket (256 KiB each on the default grid) are faulted in anew on each
    call.  Raising both thresholds, the mmap one to 32 MiB (glibc's maximum)
    and the trim one to 1 GiB, keeps freed blocks and trajectories on the
    heap for reuse.  No-op elsewhere.
    """
    if _libc_version():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _timed(fn, *args) -> tuple:
    """fn(*args) and its wall and CPU seconds, taken in the process that runs it."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}


def _pool_map(fn, cells: list, config: ExperimentConfig) -> tuple[list, list]:
    """[fn(c, config) for c in cells] and the timings of each, on
    min(len(cells), MODWAVE_THREADS or one per CPU) worker processes, each
    under _reuse_freed_memory; serially in this process when that is one
    worker."""
    workers = min(len(cells), _requested_workers() or os.cpu_count() or 1)
    timed = functools.partial(_timed, fn)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_reuse_freed_memory) as pool:
            pairs = list(pool.map(timed, cells, itertools.repeat(config)))
    else:
        pairs = [timed(c, config) for c in cells]
    return [out for out, _ in pairs], [timing for _, timing in pairs]


def _merged(name: str, parts: list, timings: list) -> CampaignResult:
    """One result with each part's checks appended and its fits, series and
    extras updated, in part order, and the parts' timings."""
    res = CampaignResult(name, timings={"parts": timings})
    for part in parts:
        res.checks += part.checks
        res.fits.update(part.fits)
        res.series.update(part.series)
        res.extras.update(part.extras)
    return res


# ---------------------------------------------------------------- spectral


def run_verify_spectral(config: ExperimentConfig) -> CampaignResult:
    """Transform round trip, Plancherel, free Gaussian, propagator group law."""
    res = CampaignResult("verify-spectral")
    grid = config.params.grid
    rng = np.random.default_rng(config.seed)
    vals = rng.standard_normal(grid.num_points) + 1j * rng.standard_normal(grid.num_points)
    f = PhysicalField(grid, vals)
    F = forward_transform(f)
    scale = float(np.max(np.abs(f.values)))

    back = inverse_transform(F)
    rt_err = float(np.max(np.abs(back.values - f.values))) / scale
    res.add_check("roundtrip_error", rt_err, rt_err <= 1e-12, "relative sup <= 1e-12")

    lhs = float(_l2(np.abs(f.values), grid.dx))
    rhs = float(_l2(np.abs(F.values), grid.dxi)) / np.sqrt(2.0 * np.pi)
    pl_err = abs(lhs - rhs) / lhs
    res.add_check("plancherel_error", pl_err, pl_err <= 1e-10, "relative error <= 1e-10")

    ggrid = SpectralGrid(1024, 80.0)
    x = ggrid.x
    u0 = PhysicalField(ggrid, np.exp(-0.5 * x * x) + 0.0j)
    g_err = 0.0
    for t in (0.5, 2.0):
        numeric = inverse_transform(free_propagate(forward_transform(u0), t))
        z = 1.0 + 1j * t
        exact = np.exp(-0.5 * x * x / z) / np.sqrt(z)
        g_err = max(g_err, float(np.max(np.abs(numeric.values - exact))))
    res.add_check("free_gaussian_error", g_err, g_err <= 1e-8, "sup error <= 1e-8")

    once = free_propagate(F, 1.0)
    twice = free_propagate(free_propagate(F, 0.7), 0.3)
    grp_err = float(np.max(np.abs(once.values - twice.values)) / np.max(np.abs(F.values)))
    res.add_check(
        "group_law_error", grp_err, grp_err <= EXACT_TOL, "relative sup at machine precision"
    )
    return res


# -------------------------------------------------------------- dispersive


_DISPERSIVE_GRID = SpectralGrid(4096, 4096.0)
_DISPERSIVE_TIMES = (1.0, 10.0, 100.0, 1000.0)
_DISPERSIVE_PROFILES = 100


def _dispersive_sup(seed: int) -> float:
    grid = _DISPERSIVE_GRID
    xi = grid.frequencies
    sup = 0.0
    for k in range(_DISPERSIVE_PROFILES):
        shape = _unit_shape("random_bandlimited", xi, 0.5, seed + k)
        sup = max(sup, *dispersive_ratio(FrequencyField(grid, shape), _DISPERSIVE_TIMES))
    return sup


def run_verify_dispersive(config: ExperimentConfig) -> CampaignResult:
    """Uniform dispersive constant over random band-limited data, plus the
    stationary-phase error rate of the free evolution."""
    res = CampaignResult("verify-dispersive")
    sup_a = _dispersive_sup(config.seed)
    sup_b = _dispersive_sup(config.seed + 10_000)
    res.add_check("dispersive_sup", max(sup_a, sup_b), max(sup_a, sup_b) <= 1.0,
                  "measured constant uniformly <= 1.0")
    stability = abs(sup_a - sup_b) / sup_a
    res.add_check("dispersive_seed_stability", stability, stability <= 0.10,
                  "sup agrees across seeds within 10%")
    res.extras["dispersive_sup_seed_a"] = sup_a
    res.extras["dispersive_sup_seed_b"] = sup_b

    grid = _DISPERSIVE_GRID
    xi = grid.frequencies
    hhat = FrequencyField(grid, np.exp(-32.0 * xi * xi) + 0.0j)
    times = _sample_times(*config.fit_window)
    errs = []
    x = grid.x
    # the free wave at the sample times, from a block of propagator rows at a
    # time, which bounds the temporaries as the construction's sweeps do
    for rows in _blocks(len(times)):
        waves = _to_wave(hhat.values, _propagator(grid, times[rows]), grid)
        for t, u in zip(times[rows], waves):
            ray = x / t
            leading = (
                np.exp(-0.25j * np.pi) / np.sqrt(2.0 * np.pi * t)
                * np.exp(0.5j * x * x / t) * np.exp(-32.0 * ray * ray)
            )
            errs.append(float(np.max(np.abs(u - leading))))
    fit = fit_decay(times, errs)
    res.fits["stationary_phase_error"] = asdict(fit)
    res.add_check("stationary_phase_slope", fit.slope, fit.slope <= -0.70,
                  "fitted decay slope <= -0.70")
    res.series["stationary_phase_error"] = (
        ["t", "sup_error"], [[float(t), e] for t, e in zip(times, errs)]
    )
    return res


# ----------------------------------------------------------------- forcing


def _coarse_setup(config: ExperimentConfig) -> tuple[SolverParams, FrequencyField]:
    cparams = replace(config.params, grid=SpectralGrid(64, 60.0))
    # bandwidth 0.2 keeps the freely spread wave inside the box up to t = 50
    # while the datum still fits the 64-point frequency band
    return cparams, make_final_data("gaussian", cparams, seed=config.seed, bandwidth=0.2)


def run_verify_forcing(config: ExperimentConfig) -> CampaignResult:
    """Trilinear remainder vs oracle, forcing identity, forcing decay and scaling."""
    _refuse_zero_data("verify-forcing", config)
    res = CampaignResult("verify-forcing")
    base = config.params
    # decay fits need the wave to stay inside the box over the whole fit
    # window (box >= 2 * t * band radius), hence a wide box + narrow band
    params = replace(base, grid=SpectralGrid(4096, 800.0))
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=0.06)
    cparams, Wc = _coarse_setup(config)

    # remainder oracle agreement on the coarse grid
    oracle = {}
    for t in (5.0, 50.0):
        v = asymptotic_profile(Wc, t, cparams.lam)
        fft_rem = remainder(v, t).values
        oracle[t] = remainder_oracle(v, t)
        rel = float(np.max(np.abs(fft_rem - oracle[t].values)) / np.max(np.abs(fft_rem)))
        res.add_check(f"oracle_rel_error_t{int(t)}", rel, rel <= 1e-3,
                      "remainder routes agree to relative 1e-3")

    # one pass over the fit times: remainder and forcing decay, forcing identity
    times = _sample_times(*config.fit_window)
    r_sup, eps_sup, fft_residuals = [], [], []
    for s in times:
        rem = remainder(asymptotic_profile(W, s, params.lam), s)
        forcing = pulled_back_forcing(W, s, params)
        r_sup.append(float(np.max(np.abs(rem.values))))
        eps_sup.append(float(np.max(np.abs(forcing.values))))
        fft_residuals.append(forcing_identity_residual(forcing, rem, params.lam))
    fit_r = fit_decay(times, r_sup)
    bound = -(1.0 + params.delta) + 0.15
    res.fits["remainder_decay"] = asdict(fit_r)
    res.add_check("remainder_slope", fit_r.slope, fit_r.slope <= bound,
                  f"fitted slope <= {bound:.2f}")

    # forcing identity, both routes
    fft_res = max(fft_residuals)
    res.add_check("forcing_residual_fft", fft_res, fft_res <= 1e-10,
                  "relative identity residual <= 1e-10")
    orc_res = forcing_identity_residual(pulled_back_forcing(Wc, 5.0, cparams), oracle[5.0],
                                        cparams.lam)
    res.add_check("forcing_residual_oracle", orc_res, orc_res <= 1e-3,
                  "oracle-route residual <= 1e-3")

    # forcing decay with the (1+log t)^6 correction divided out
    fit_e = fit_decay(times, eps_sup, log_correction_power=6)
    res.fits["forcing_decay"] = asdict(fit_e)
    res.add_check("forcing_decay_slope", fit_e.slope, fit_e.slope <= bound,
                  f"log-corrected slope <= {bound:.2f}")
    res.series["forcing_decay"] = (
        ["t", "remainder_sup", "forcing_sup"],
        [[float(t), r, e] for t, r, e in zip(times, r_sup, eps_sup)],
    )

    # cubic eps0 scaling of the forcing, at the middle fit time, whose
    # full-size forcing the pass above evaluated, and of Phi_eps
    half = replace(params, eps0=0.5 * params.eps0)
    W_half = make_final_data(config.data_kind, half, seed=config.seed, bandwidth=0.06)
    mid = len(times) // 2
    forcing_half = pulled_back_forcing(W_half, times[mid], half)
    ratio = eps_sup[mid] / float(np.max(np.abs(forcing_half.values)))
    res.add_check("forcing_cubic_scaling", ratio, abs(ratio / 8.0 - 1.0) <= 0.10,
                  f"halving eps0 divides the forcing at t = {times[mid]:g} by 8 +- 10%")

    phi_full = xt_norm(build_drive(W, params).phi_eps, params.alpha)
    phi_half = xt_norm(build_drive(W_half, half).phi_eps, half.alpha)
    phi_ratio = phi_full / phi_half
    res.add_check("phi_eps_cubic_scaling", phi_ratio, abs(phi_ratio / 8.0 - 1.0) <= 0.10,
                  "halving eps0 divides ||Phi_eps||_XT by 8 +- 10%")
    return res


# --------------------------------------------------------------- construct


def _construct_sign(lam: int, config: ExperimentConfig) -> CampaignResult:
    """The fixed-point checks of one coupling sign, in a result of their own."""
    tag = "focusing" if lam == -1 else "defocusing"
    params = replace(config.params, lam=lam)
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    # everything Phi takes from W alone: built once for every sweep below
    drive = build_drive(W, params)
    alpha = params.alpha
    g, report = picard_iterate(drive, config.max_iter, config.tol)
    # the second start A = 2 Phi_eps, in a buffer of its own, which the sweep
    # of Phi(A) then overwrites: the probe's denominator is taken first, and
    # Phi(A)'s size and step from A as the sweep goes.  Phi(g) is written
    # nowhere: its sweep takes the residual and the probe's numerator against
    # Phi(A).  The second Picard run continues over Phi(A), so a sign holds at
    # most four trajectories beside the drive's propagator heads: the drive's
    # Phi_eps and its u_app table, which the sign's first sweep fills (that of
    # Picard, or of Phi(A) when Picard stops at Phi_eps), g, and the buffer
    # that holds A, then Phi(A), then the second run's iterate.
    alt = ProfileTrajectory(params.grid, drive.time_grid, 2.0 * drive.phi_eps.values)
    probe_den = xt_distance(alt, g, alpha) if report.xt_norms[0] else None  # 0: no forcing
    alt_size, alt_step = apply_phi(alt, drive, alt.values, (None, alt))  # alt is Phi(A) now
    residual, probe_num = apply_phi(g, drive, None, (g, alt))
    probe = None if probe_den is None else probe_num / probe_den
    res = CampaignResult("construct")
    if report.contraction_ratios:
        max_ratio, detail = max(report.contraction_ratios), "all Picard contraction ratios <= 0.5"
    elif probe is not None:
        # Picard stopped after one iterate and measured no ratio: use the probe's
        max_ratio, detail = probe, "no Picard ratio measured (one iterate); probe <= 0.5"
    else:
        max_ratio, detail = 0.0, ("zero forcing: the fixed point is g = 0, where the "
                                  "cubic map's Lipschitz constant is 0")
    res.add_check(f"contraction_max_ratio_{tag}", max_ratio, max_ratio <= 0.5, detail)
    res.add_check(f"converged_{tag}", report.iterates,
                  report.converged and report.iterates <= config.max_iter,
                  f"step below {config.tol:g} within {config.max_iter} iterations")
    res.add_check(f"fixed_point_residual_{tag}", residual, residual <= 2e-9,
                  "||Phi(g) - g||_XT <= 2e-9")

    g_alt, _ = _picard(drive, config.max_iter, config.tol, alt, alt_size, alt_step)
    gap = xt_distance(g, g_alt, alpha)
    res.add_check(f"start_independence_{tag}", gap, gap <= 1e-8,
                  "fixed points from two starts agree to 1e-8 in X_T")

    if probe is not None:
        res.add_check(f"contraction_probe_{tag}", probe, probe <= 0.5,
                      "Lipschitz ratio of Phi on a test pair <= 0.5")
    res.extras[f"picard_report_{tag}"] = asdict(report)
    res.extras[f"g_xt_norm_{tag}"] = report.xt_norms[-1]
    return res


def run_construct(config: ExperimentConfig) -> CampaignResult:
    """Backward fixed point at both coupling signs: contraction, convergence,
    residual, and independence of the starting guess.  The two signs share
    nothing but the config, so they run in the worker pool."""
    return _merged("construct", *_pool_map(_construct_sign, [1, -1], config))


# --------------------------------------------------------------- roundtrip


def _strang_cross_check() -> tuple[float, float]:
    """Strang's measured time order on a fixed small problem, and the sup gap
    between evolve and the Strang reference there.  Strang splitting is
    symmetric, so its error is even in dt, and the reference is the
    Richardson value (4 S(1/512) - S(1/256)) / 3, whose error is O(dt^4)."""
    grid = SpectralGrid(256, 60.0)
    u0 = PhysicalField(grid, np.exp(-grid.x**2) + 0.0j)
    horizon = 1.0

    def final_state(dt):
        return _strang(u0.values, dt, round(horizon / dt), grid, 1)

    ref = (4.0 * final_state(1.0 / 512.0) - final_state(1.0 / 256.0)) / 3.0
    dts = (0.025, 0.05, 0.1)
    errs = [float(np.max(np.abs(final_state(dt) - ref))) for dt in dts]
    u1 = evolve(forward_transform(u0), 0.0, [horizon], SolverParams(lam=1, grid=grid))[0].u
    return fit_decay(dts, errs).slope, float(np.max(np.abs(u1.values - ref)))


def _construct_and_evolve(res, tag, config, params, bandwidth, times):
    """Backward construction followed by the forward run.

    Records under tag the Picard report, the accepted evolve steps, and the
    nonlinear share max|u - U(t)(v + g)(T)| / max|u| at the last sample.
    """
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=bandwidth)
    g, report = picard_iterate(build_drive(W, params), config.max_iter, config.tol)
    res.extras[f"picard_report_{tag}"] = asdict(report)
    if not report.converged:
        res.add_check(f"construction_converged_{tag}", report.iterates, False,
                      "backward construction must converge before the forward run")
        return W, None
    fhat_T = FrequencyField(
        params.grid, asymptotic_profile(W, params.T, params.lam).values + g.values[0]
    )
    states = evolve(fhat_T, params.T, times, params)
    last = states[-1]
    free = _to_wave(fhat_T.values, _propagator(params.grid, last.t), params.grid)
    res.extras[f"evolve_steps_{tag}"] = last.step_count
    res.extras[f"nonlinear_share_{tag}"] = float(
        np.max(np.abs(last.u.values - free)) / np.max(np.abs(last.u.values))
    )
    return W, states


def _roundtrip_narrow(config: ExperimentConfig) -> CampaignResult:
    """A very narrow band on a wide box: the weighted main bound, and mass and
    energy conservation.  The remainder stays in its slowly decaying regime
    across the whole window, so the weighted deviation saturates its bound
    (the flatness check is meaningful), and the box covers the rays x/t for
    the full horizon."""
    res = CampaignResult("roundtrip")
    times = _sample_times(*config.fit_window, n=25)
    params = replace(config.params, t_max=100_000.0, grid=SpectralGrid(4096, 9600.0),
                     time_grid_points=257)
    W, states = _construct_and_evolve(res, "narrow", config, params, 0.008, times)
    if states is None:
        return res

    weighted, masses, energies = [], [], []
    for state in states:
        weighted.append(scattering_deviation(state, W, params))
        masses.append(state.mass)
        energies.append(state.energy)

    ratio = max(weighted) / min(weighted)
    res.add_check("mainbound_ratio", ratio, ratio <= 3.0,
                  "weighted deviation max/min <= 3 across the run")
    fit_main = fit_decay(times, weighted)
    res.fits["mainbound_trend"] = asdict(fit_main)
    res.add_check("mainbound_trend_slope", fit_main.slope, fit_main.slope <= 0.1,
                  "weighted deviation trend slope <= 0.1")

    mass0 = masses[0]
    mass_drift = max(abs(m - mass0) / mass0 for m in masses)
    res.add_check("mass_drift", mass_drift, mass_drift <= 1e-8, "relative drift <= 1e-8")
    e0 = energies[0]
    energy_drift = max(abs(e - e0) / abs(e0) for e in energies)
    res.add_check("energy_drift", energy_drift, energy_drift <= 1e-6,
                  "relative drift <= 1e-6")
    res.series["narrow"] = (
        ["t", "weighted_deviation", "mass", "energy"],
        [[float(t), w, m, e] for t, w, m, e in zip(times, weighted, masses, energies)],
    )
    return res


def _roundtrip_dispersive(config: ExperimentConfig) -> CampaignResult:
    """A moderately narrow band, which reaches the dispersive regime inside the
    window: the pointwise expansion and the decay of the correction."""
    res = CampaignResult("roundtrip")
    times = _sample_times(*config.fit_window, n=25)
    params = replace(config.params, t_max=10_000.0, grid=SpectralGrid(4096, 800.0),
                     time_grid_points=193)
    W, states = _construct_and_evolve(res, "dispersive", config, params, 0.06, times)
    if states is None:
        return res

    errs, w_weighted = [], []
    # the approximate solution at every sample time from one block of rows
    u_apps = _to_wave(_profile(W.values, times, params.lam), _propagator(params.grid, times),
                      params.grid)
    for state, u_app in zip(states, u_apps):
        errs.append(asymptotic_error(state, W, params))
        w_sup = float(np.max(np.abs(state.u.values - u_app)))
        w_weighted.append(state.t ** (0.5 + params.alpha) * w_sup)

    fit_err = fit_decay(times, errs)
    res.fits["asymptotic_error"] = asdict(fit_err)
    err_bound = -min(0.5 + params.alpha, 0.75) + 0.1
    res.add_check("asymptotic_error_slope", fit_err.slope, fit_err.slope <= err_bound,
                  f"fitted slope <= {err_bound:.2f}")

    w_ratio = max(w_weighted) / min(w_weighted)
    res.add_check("correction_weighted_ratio", w_ratio, w_ratio <= 3.0,
                  "t^(1/2+alpha) ||w||_inf max/min <= 3")
    res.series["dispersive"] = (
        ["t", "asymptotic_error", "w_weighted"],
        [[float(t), e, w] for t, e, w in zip(times, errs, w_weighted)],
    )
    return res


def _roundtrip_free(config: ExperimentConfig) -> CampaignResult:
    """An order-one band: the free-flow sup decay of the approximate solution,
    then the Strang cross-check of the forward solver.  The decay is analytic
    in time, so no evolution is run: the sup is read on the rays x = t*xi_k
    through the chirp factorization (spectral._on_rays), max |u_app(t, t xi)| =
    |G(xi)| / sqrt(2 pi t), which needs only a grid that holds the profile.
    At one time whose rays pass through grid points, the ray reading is
    checked point by point against the free wave on the box."""
    res = CampaignResult("roundtrip")
    params = replace(config.params, grid=SpectralGrid(4096, 200.0))
    grid, n = params.grid, params.grid.num_points
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=1.0)
    times = _sample_times(*config.fit_window)
    uapp_sup = [
        float(np.max(np.abs(_on_rays(asymptotic_profile(W, t, params.lam).values, t, grid))))
        / np.sqrt(2.0 * np.pi * t) for t in times
    ]
    fit_uapp = fit_decay(times, uapp_sup)
    res.fits["uapp_decay"] = asdict(fit_uapp)
    res.add_check("uapp_decay_slope", fit_uapp.slope,
                  -0.55 <= fit_uapp.slope <= -0.45, "slope in [-0.55, -0.45]")

    # at t_c = 8 L^2/(2 pi N) the ray x = t_c xi_k is the grid point x_{8k}
    # for |k| < N/16, where |G(xi_k)| / sqrt(2 pi t_c) is |u_app| on the box
    t_c = 8.0 * grid.box_length**2 / (2.0 * np.pi * n)
    v = asymptotic_profile(W, t_c, params.lam)
    G = _on_rays(v.values, t_c, grid)
    u = _to_wave(v.values, _propagator(grid, t_c), grid)
    on_rays = np.argsort(grid.frequencies)[n // 2 - n // 16:n // 2 + n // 16]
    on_box = np.argsort(grid.x)[::8]
    ray_gap = float(np.max(np.abs(np.abs(G[on_rays]) - np.sqrt(2.0 * np.pi * t_c)
                                  * np.abs(u[on_box]))) / np.max(np.abs(G)))
    res.add_check("ray_free_wave_gap", ray_gap, ray_gap <= 1e-12,
                  f"max ||G| - sqrt(2 pi t) |u_app|| / max|G| on the rays x = t xi_k "
                  f"through grid points, at t = {t_c:.3f}, <= 1e-12")

    order, gap = _strang_cross_check()
    res.add_check("strang_order", order, 1.9 <= order <= 2.1, "time order 2.0 +- 0.1")
    res.add_check("evolve_matches_strang", gap, gap <= 1e-9,
                  "sup |evolve - Strang's Richardson value from dt = 1/256, 1/512| <= 1e-9 "
                  "on an amplitude-1 Gaussian")
    res.series["uapp_decay"] = (
        ["t", "uapp_sup"], [[float(t), s] for t, s in zip(times, uapp_sup)]
    )
    return res


def _roundtrip_part(part, config: ExperimentConfig) -> CampaignResult:
    return part(config)


def run_roundtrip(config: ExperimentConfig) -> CampaignResult:
    """Construct the solution backward, evolve it forward, verify the
    weighted main bound, the pointwise expansion, and solver hygiene.

    Three regimes are needed because one grid cannot cover them all: a very
    narrow band for the main bound (_roundtrip_narrow), a moderately narrow
    one for the dispersive expansion (_roundtrip_dispersive) and an order-one
    band for the free decay (_roundtrip_free).  They share nothing but the
    config, so they run in the worker pool and merge in that order, each
    with its own series.  A construction that does not converge fails its
    ``construction_converged_<tag>`` check and skips its own regime's others.
    """
    _refuse_zero_data("roundtrip", config)
    regimes = [_roundtrip_narrow, _roundtrip_dispersive, _roundtrip_free]
    return _merged("roundtrip", *_pool_map(_roundtrip_part, regimes, config))


# ------------------------------------------------------------------- sweep


def _sweep_cell(params: SolverParams, config: ExperimentConfig) -> dict:
    """One cell's row of the sweep's CSV, by column name."""
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    _, report = picard_iterate(build_drive(W, params), config.max_iter, config.tol)
    # a run that stops after one iterate measures no contraction ratio
    ratios = report.contraction_ratios
    return {
        "eps0": params.eps0, "T": params.T, "lam": params.lam,
        "converged": int(report.converged),
        "iterates": report.iterates,
        "max_contraction_ratio": max(ratios) if ratios else None,
        "g_xt_norm": report.xt_norms[-1],
        "tail_estimate": report.tail_estimate,
    }


def run_sweep(config: ExperimentConfig) -> CampaignResult:
    """Contraction region over (eps0, T, lam) cells, run in a worker pool."""
    rows, timings = _pool_map(_sweep_cell, config.sweep_params(), config)
    res = CampaignResult("sweep", timings={"parts": timings})
    rows.sort(key=lambda r: (r["eps0"], r["T"], r["lam"]))

    converged = sum(r["converged"] for r in rows)
    res.add_check("all_cells_converged", converged, converged == len(rows),
                  "every sweep cell converged")
    measured = [r["max_contraction_ratio"] for r in rows
                if r["max_contraction_ratio"] is not None]
    worst = max(measured, default=float("nan"))
    res.add_check("max_contraction_ratio", worst, bool(measured) and worst <= 0.5,
                  f"contraction ratio <= 0.5 on every measured cell ({len(measured)} of "
                  f"{len(rows)}; a cell that stops after one iterate measures none)")
    res.series["sweep"] = (list(rows[0]), [list(r.values()) for r in rows])
    return res


CAMPAIGNS = {
    "verify-spectral": run_verify_spectral,
    "verify-dispersive": run_verify_dispersive,
    "verify-forcing": run_verify_forcing,
    "construct": run_construct,
    "roundtrip": run_roundtrip,
    "sweep": run_sweep,
}


def run_campaign(name: str, config: ExperimentConfig) -> CampaignResult:
    """The named campaign's result, its timings those of this process (the
    CPU seconds of pool workers are their parts')."""
    _reuse_freed_memory()
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}, expected one of {sorted(CAMPAIGNS)}")
    res, elapsed = _timed(CAMPAIGNS[name], config)
    res.timings = {"parts": [], **res.timings, **elapsed}
    return res
