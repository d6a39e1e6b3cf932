"""Forward solvers: conservation, order, and scattering diagnostics."""

import importlib

import numpy as np
import pytest

from modwave import (
    FrequencyField,
    PhysicalField,
    SolverParams,
    SpectralGrid,
    asymptotic_error,
    asymptotic_profile,
    dispersive_ratio,
    evolve,
    make_final_data,
    pulled_back_forcing,
    scattering_deviation,
)
from modwave.evolve import _strang
from modwave.spectral import (
    _dxi_l2,
    _fft,
    _ifft,
    _on_rays,
    _propagator,
    _to_wave,
    forward_transform,
    free_propagate,
    inverse_transform,
)
from modwave.trilinear import _pulled_back_cubic

# the package exports the function evolve under the submodule's name
evolve_module = importlib.import_module("modwave.evolve")

GRID = SpectralGrid(256, 60.0)
PARAMS = SolverParams(grid=GRID)


def gaussian():
    """The amplitude-1 Gaussian e^{-x^2} on GRID."""
    return PhysicalField(GRID, np.exp(-(GRID.x**2)) + 0.0j)


def gaussian_profile():
    """The profile of the Gaussian at t = 0, its transform."""
    return forward_transform(gaussian())


def _approximate_solution(W, t, params):
    """The approximate solution U(t)v(t), the free wave of the explicit profile."""
    return inverse_transform(free_propagate(asymptotic_profile(W, t, params.lam), t))


def _state(f, t, params):
    """The state of the profile f at t as evolve reports it: sampled at t0 = t,
    no step."""
    return evolve(f, t, [t], params)[0]


def test_strang_step_conserves_mass():
    # both Strang substeps are unitary: 50 steps keep the mass to rounding
    u0 = gaussian()
    vals = _strang(u0.values, 0.02, 50, GRID, 1)
    m0 = _state(forward_transform(u0), 0.0, PARAMS).mass
    assert abs(evolve_module._mass(vals, GRID.dx) - m0) <= 1e-12 * m0


def test_strang_converges_to_evolve_at_second_order():
    # evolve's time error is far below Strang's, so Strang's distance to it
    # drops ~4x per dt halving; a wrong nonlinearity or coupling sign in
    # either breaks this
    u0 = gaussian()
    dts = [0.1, 0.05, 0.025]
    for lam in (1, -1):
        params = SolverParams(lam=lam, grid=GRID)
        target = evolve(forward_transform(u0), 0.0, [1.0], params)[0].u.values
        errs = [np.max(np.abs(_strang(u0.values, dt, round(1.0 / dt), GRID, lam) - target))
                for dt in dts]
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.9 <= order <= 2.1, lam


def test_evolve_conserves_mass_through_rejected_steps(monkeypatch):
    # the first attempt covers the whole first interval from t0 = 0 and is
    # too long for amplitude-1 data, so the step control has to reject
    f0 = gaussian_profile()
    rhs_calls, prop_rows = [], []
    cubic, propagator = evolve_module._pulled_back_cubic, evolve_module._propagator
    monkeypatch.setattr(evolve_module, "_pulled_back_cubic",
                        lambda *args: rhs_calls.append(1) or cubic(*args))
    monkeypatch.setattr(evolve_module, "_propagator",
                        lambda grid, t: prop_rows.append(np.size(t)) or propagator(grid, t))
    times = [0.5, 1.0, 2.0]
    states = evolve(f0, 0.0, times, PARAMS)
    # one right-hand side at t0, then 6 per attempt, accepted or not: an
    # attempt's first slope is the last slope of the accepted attempt
    # before it, or that of the rejected attempt it repeats
    assert (len(rhs_calls) - 1) % 6 == 0
    attempts = (len(rhs_calls) - 1) // 6
    assert attempts > states[-1].step_count
    # one propagator row at t0, then one per new stage time, 5 per attempt;
    # the last is where the next attempt starts, or the sample it lands on
    assert sum(prop_rows) == 1 + 5 * attempts
    m0 = _state(f0, 0.0, PARAMS).mass
    assert max(abs(s.mass - m0) for s in states) <= 1e-10 * m0


def test_evolve_samples_the_wave_its_right_hand_side_cubed(monkeypatch):
    # a sampled u is, bit for bit, the wave U(t)f that the accepted step's
    # last right-hand side cubed at the sample time
    waves, cubic = [], evolve_module._pulled_back_cubic

    def spy(a, prop, grid):
        waves.append(_to_wave(a, prop, grid))
        return cubic(a, prop, grid)

    monkeypatch.setattr(evolve_module, "_pulled_back_cubic", spy)
    states = evolve(gaussian_profile(), 0.0, [0.5, 1.0, 2.0], PARAMS)
    for state in states:
        assert any(np.array_equal(state.u.values, wave) for wave in waves)


def test_evolve_meets_its_tolerance(monkeypatch):
    # at t = 2 the solution at RK_TOL is within 5e-12 of the one at RK_TOL/100
    f0 = gaussian_profile()
    times = [0.5, 1.0, 2.0]
    loose = evolve(f0, 0.0, times, PARAMS)[-1].u.values
    monkeypatch.setattr(evolve_module, "RK_TOL", evolve_module.RK_TOL / 100.0)
    tight = evolve(f0, 0.0, times, PARAMS)[-1].u.values
    assert np.max(np.abs(loose - tight)) <= 5e-12


def test_dormand_prince_step_orders():
    # one step of h from t = 0: the 5th-order value's local error, against 32
    # steps of h/32, falls as h^6 and the embedded estimate as h^5
    f0 = _fft(np.exp(-(GRID.x**2) / 4.0) + 0.0j, GRID.dx)

    def rhs(f, p):
        return -1j * _pulled_back_cubic(f, p, GRID)

    def one_step(f, t, h, k):
        y5, k7, _, estimate = evolve_module._dp45(f, t, h, t + h, k, rhs, GRID)
        return y5, k7, estimate

    k0 = rhs(f0, _propagator(GRID, 0.0))
    hs = 0.08 * 2.0 ** (-np.arange(5) / 2.0)
    errs, estimates = [], []
    for h in hs:
        y5, _, estimate = one_step(f0, 0.0, h, k0)
        ref, t, k = f0, 0.0, k0
        for _ in range(32):
            ref, k, _ = one_step(ref, t, h / 32, k)
            t += h / 32
        errs.append(np.max(np.abs(y5 - ref)))
        estimates.append(np.max(np.abs(estimate)))
    assert abs(np.polyfit(np.log(hs), np.log(errs), 1)[0] - 6.0) <= 0.3
    assert abs(np.polyfit(np.log(hs), np.log(estimates), 1)[0] - 5.0) <= 0.3


@pytest.mark.parametrize("times", [[1.0], [0.0]])
def test_evolve_raises_on_non_finite_values(times):
    # both fail at the start, before the first step ([0.0] takes none)
    f0 = gaussian_profile()
    f0.values[GRID.num_points // 2] = np.nan  # fields validate only on construction
    with pytest.raises(FloatingPointError, match="non-finite"):
        evolve(f0, 0.0, times, PARAMS)


@pytest.mark.filterwarnings("error")
def test_evolve_rejects_an_overflowing_attempt():
    # the first attempt spans all of [0, 1] and its stages overflow on
    # amplitude-4 data; it is rejected like an inaccurate attempt, silently,
    # and the run lands where one with a sample at 0.5 lands
    f0 = forward_transform(PhysicalField(GRID, 4.0 * np.exp(-(GRID.x**2)) + 0.0j))
    state = evolve(f0, 0.0, [1.0], PARAMS)[0]
    ref = evolve(f0, 0.0, [0.5, 1.0], PARAMS)[-1].profile.values
    assert np.max(np.abs(state.profile.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    m0 = _state(f0, 0.0, PARAMS).mass
    assert abs(state.mass - m0) <= 1e-12 * m0


def _rejecting(monkeypatch, excess):
    # _dp45 whose estimate is excess * max|y5|, so every attempt is rejected;
    # returns the list of the steps attempted
    real, steps = evolve_module._dp45, []

    def unmet(f, t, h, *args):
        y5, k7, p_end, _ = real(f, t, h, *args)
        steps.append(h)
        return y5, k7, p_end, np.full_like(y5, excess * np.max(np.abs(y5)))

    monkeypatch.setattr(evolve_module, "_dp45", unmet)
    return steps


def test_evolve_caps_the_step_attempts_of_a_sample_interval(monkeypatch):
    # an estimate just above RK_TOL: each attempt is rejected and the step
    # shrinks by about 0.9, so it stays far above zero, and without the cap
    # t would never reach the sample
    steps = _rejecting(monkeypatch, 1.01 * evolve_module.RK_TOL)
    with pytest.raises(FloatingPointError, match=r"MAX_STEP_ATTEMPTS = \d+ step attempts on "
                       r"the sample interval \[0\.0, 1\.0\] reached only t = 0\.0"):
        evolve(gaussian_profile(), 0.0, [1.0], PARAMS)
    assert len(steps) == evolve_module.MAX_STEP_ATTEMPTS
    assert steps[-1] > 0.0


def test_evolve_aborts_on_mass_drift(monkeypatch):
    # a right-hand side with the growth term 1e-4 lam f added gains mass at
    # once; the first sample, at t = 10.5, already drifts by 1e-4
    params = SolverParams(grid=SpectralGrid(256, 100.0))
    W = make_final_data("gaussian", params, bandwidth=0.4)
    cubic = evolve_module._pulled_back_cubic
    monkeypatch.setattr(evolve_module, "_pulled_back_cubic",
                        lambda a, prop, grid: cubic(a, prop, grid) + 1e-4j * a)
    with pytest.raises(FloatingPointError,
                       match=r"^mass drift 0\.0001 exceeds 1e-06 at t = 10\.5$"):
        evolve(W, 10.0, [10.5, 11.0, 20.0], params)


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_evolve_stops_at_a_step_that_cannot_move_t(monkeypatch, t0):
    # an estimate far above RK_TOL shrinks the step by 0.2 per attempt, below
    # the spacing of floats at t0 long before the attempt cap
    steps = _rejecting(monkeypatch, 1.0)
    with pytest.raises(FloatingPointError,
                       match=rf"the step \S+ can no longer move t = {t0}"):
        evolve(gaussian_profile(), t0, [t0 + 1.0], PARAMS)
    assert t0 + 0.2 * steps[-1] == t0
    assert len(steps) < evolve_module.MAX_STEP_ATTEMPTS


def test_linear_limit_matches_free_propagator():
    # with zero-amplitude nonlinearity (tiny data), splitting reduces to
    # the exact free flow up to the cubic phase, so compare directly at
    # amplitude where the cubic correction is below tolerance
    x = GRID.x
    u0 = PhysicalField(GRID, 1e-7 * np.exp(-(x**2)) + 0.0j)
    states = evolve(forward_transform(u0), 0.0, [1.0], PARAMS)
    exact = inverse_transform(free_propagate(forward_transform(u0), 1.0))
    assert np.max(np.abs(states[0].u.values - exact.values)) <= 1e-18


def test_evolve_samples_and_conserves():
    f0 = gaussian_profile()
    states = evolve(f0, 0.0, [0.5, 1.0, 2.0], PARAMS)
    assert [s.t for s in states] == [0.5, 1.0, 2.0]
    m0 = _state(f0, 0.0, PARAMS).mass
    for s in states:
        assert abs(s.mass - m0) <= 1e-10 * m0
    # splitting conserves mass exactly but energy only to O(dt^2)
    e0 = _state(f0, 0.0, PARAMS).energy
    assert abs(states[-1].energy - e0) <= 1e-3 * abs(e0)


def test_evolve_rejects_bad_sample_times():
    f0 = gaussian_profile()
    with pytest.raises(ValueError, match="increasing"):
        evolve(f0, 0.0, [2.0, 1.0], PARAMS)
    with pytest.raises(ValueError, match="increasing"):
        evolve(f0, 5.0, [1.0], PARAMS)
    assert evolve(f0, 0.0, [], PARAMS) == []  # no sample, no state


def test_state_solution_is_the_free_wave_of_its_profile():
    # a sample at t0 returns the starting profile itself; at every sample,
    # removing the free flow from u gives the profile back
    f0 = free_propagate(gaussian_profile(), -3.0)
    states = evolve(f0, 3.0, [3.0, 4.0], PARAMS)
    assert np.array_equal(states[0].profile.values, f0.values)
    for state in states:
        back = free_propagate(forward_transform(state.u), -state.t).values
        scale = np.max(np.abs(state.profile.values))
        assert np.max(np.abs(back - state.profile.values)) <= 1e-12 * scale


@pytest.mark.parametrize("lam", [1, -1])
def test_mass_and_energy_from_the_profile_match_x_space(lam):
    # Plancherel: the profile's mass and kinetic energy are those of u, which
    # is read here through its x-space derivative
    params = SolverParams(lam=lam, grid=GRID)
    for state in evolve(gaussian_profile(), 0.0, [0.0, 1.0], params):
        u, dx = state.u.values, GRID.dx
        ux = _ifft(1j * GRID.frequencies * _fft(u, dx), dx)
        mass = dx * np.sum(np.abs(u) ** 2)
        energy = dx * np.sum(0.5 * np.abs(ux) ** 2 + 0.5 * lam * np.abs(u) ** 4)
        assert abs(state.mass - mass) <= 1e-14 * mass
        assert abs(state.energy - energy) <= 1e-14 * abs(energy)


def test_scattering_deviation_zero_for_exact_profile():
    params = SolverParams(grid=GRID)
    fd = make_final_data("gaussian", params, bandwidth=0.3)
    t = 20.0
    state = _state(asymptotic_profile(fd, t, params.lam), t, params)
    assert scattering_deviation(state, fd, params) <= 1e-14


def test_scattering_deviation_rejects_early_time():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.3)
    state = _state(asymptotic_profile(fd, 20.0, PARAMS.lam), 5.0, PARAMS)
    with pytest.raises(ValueError, match="t >= T"):
        scattering_deviation(state, fd, PARAMS)
    with pytest.raises(ValueError, match="t >= T"):
        asymptotic_error(state, fd, PARAMS)


def test_asymptotic_error_decays_for_explicit_solution():
    # the approximate solution matches its own leading term up to the
    # stationary-phase correction, which decays faster than t^{-1/2}
    params = SolverParams(grid=SpectralGrid(4096, 800.0))
    fd = make_final_data("gaussian", params, bandwidth=0.3)
    errs = []
    for t in (50.0, 200.0):
        state = _state(asymptotic_profile(fd, t, params.lam), t, params)
        errs.append(asymptotic_error(state, fd, params))
    amp = np.max(np.abs(_approximate_solution(fd, 50.0, params).values))
    assert errs[0] <= 0.3 * amp
    assert errs[1] < errs[0]


def test_asymptotic_error_matches_closed_form():
    # for gaussian W = a e^{-xi^2/b^2}, G = F[M_t F^{-1} W] is
    # (a b / (2 sqrt(pi))) sqrt(pi/c) e^{-xi^2/(4c)} with c = b^2/4 - i/(2t)
    # (principal root); the free wave of W has profile W, so its expansion
    # error is max|G - v(t)| / sqrt(2 pi t) with v the explicit profile
    params = SolverParams(grid=SpectralGrid(4096, 800.0))
    b = 0.3
    W = make_final_data("gaussian", params, bandwidth=b)
    a, xi = W.values[0].real, params.grid.frequencies
    for t in (10.0, 50.0, 200.0):
        c = b * b / 4.0 - 0.5j / t
        G = a * b / (2.0 * np.sqrt(np.pi)) * np.sqrt(np.pi / c) * np.exp(-xi * xi / (4.0 * c))
        rays = _on_rays(W.values, t, params.grid)
        assert np.max(np.abs(rays - G)) <= 1e-12 * np.max(np.abs(G))
        # the kernels give the field route's bits
        y = params.grid.x
        chirped = np.exp(0.5j * y * y / t) * inverse_transform(W).values
        assert np.array_equal(rays, forward_transform(PhysicalField(params.grid, chirped)).values)
        state = _state(W, t, params)
        v = asymptotic_profile(W, t, params.lam).values
        ref = np.max(np.abs(G - v)) / np.sqrt(2.0 * np.pi * t)
        assert abs(asymptotic_error(state, W, params) - ref) <= 1e-12 * ref


def test_ray_samples_match_the_wave_while_the_box_holds_it():
    # |u_app(t, t xi_k)| = |G(xi_k)| / sqrt(2 pi t): where the box holds the
    # free wave (t * band radius < L/2), the sup on the rays is the sup on x
    params = SolverParams(grid=SpectralGrid(4096, 800.0))
    fd = make_final_data("gaussian", params, bandwidth=0.3)
    for t in (10.0, 50.0, 200.0):
        on_x = np.max(np.abs(_approximate_solution(fd, t, params).values))
        G = _on_rays(asymptotic_profile(fd, t, params.lam).values, t, params.grid)
        assert abs(np.max(np.abs(G)) / np.sqrt(2.0 * np.pi * t) - on_x) <= 1e-12 * on_x


def test_asymptotic_error_coverage_abort():
    # a profile whose mass sits at y = 300, on rays x/t beyond the xi-grid
    # (|y| > t xi_max = 20 at t = 100), must abort, not be zeroed
    params = SolverParams(grid=SpectralGrid(64, 1000.0))
    fd = make_final_data("gaussian", params, bandwidth=0.02)
    x = params.grid.x
    h = PhysicalField(params.grid, np.exp(-(((x - 300.0) / 10.0) ** 2)) + 0.0j)
    state = _state(forward_transform(h), 100.0, params)
    with pytest.raises(ValueError, match="box too small"):
        asymptotic_error(state, fd, params)


def test_dispersive_ratio_bounded_for_gaussian():
    grid = SpectralGrid(4096, 400.0)
    xi = grid.frequencies
    hhat = FrequencyField(grid, np.exp(-(xi**2)))
    ratios = dispersive_ratio(hhat, (1.0, 10.0, 100.0))
    assert len(ratios) == 3
    assert all(0.0 < r <= 1.0 for r in ratios)
    # one call over the times gives each time's ratio bit for bit, and the
    # per-time field route's
    assert ratios == [dispersive_ratio(hhat, [t])[0] for t in (1.0, 10.0, 100.0)]
    d1 = _dxi_l2(hhat.values, grid, 1)
    assert ratios == [
        float(np.max(np.abs(inverse_transform(free_propagate(hhat, t)).values)))
        / (t**-0.5 * np.max(np.abs(hhat.values)) + t**-0.75 * d1)
        for t in (1.0, 10.0, 100.0)]


def test_dispersive_ratio_zero_field():
    hhat = FrequencyField(GRID, np.zeros(GRID.num_points, complex))
    assert dispersive_ratio(hhat, (5.0, 50.0)) == [0.0, 0.0]


def test_dispersive_ratio_rejects_small_time():
    hhat = FrequencyField(GRID, np.zeros(GRID.num_points, complex))
    with pytest.raises(ValueError, match="t >= 1"):
        dispersive_ratio(hhat, (2.0, 0.5))


def test_approximate_solution_satisfies_forced_equation():
    # i du/dt + (1/2) u_xx - lam |u|^2 u should equal the forcing field,
    # with du/dt from central differences at dt = 1e-3
    params = SolverParams(grid=SpectralGrid(512, 100.0))
    fd = make_final_data("gaussian", params, bandwidth=0.3)
    t, dt = 15.0, 1e-3
    u = _approximate_solution(fd, t, params)
    up = _approximate_solution(fd, t + dt, params)
    um = _approximate_solution(fd, t - dt, params)
    ut = (up.values - um.values) / (2.0 * dt)
    xi = params.grid.frequencies
    uhat = forward_transform(u)
    uxx = inverse_transform(FrequencyField(params.grid, -(xi**2) * uhat.values))
    lhs = 1j * ut + 0.5 * uxx.values - params.lam * np.abs(u.values) ** 2 * u.values
    rhs = inverse_transform(free_propagate(pulled_back_forcing(fd, t, params), t)).values
    scale = np.max(np.abs(u.values))
    assert np.max(np.abs(lhs - rhs)) <= 1e-5 * scale
