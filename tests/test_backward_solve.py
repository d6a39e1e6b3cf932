"""The backward solve: the construction checked against the equation it
discretizes.

The fixed point g of Phi on [T, t_max], with g(t_max) = 0, is in continuous
time the correction f - v of the profile f of the NLS solution whose profile
at t_max is v(t_max).  So evolving f back from f(t_max) = v(t_max) to T gives
g_ode(T) = f(T) - v(T) at RK_TOL, from no quadrature rule, no Picard loop and
no X_T norm: the reference shares only the kernel with the construction.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from modwave import (FrequencyField, asymptotic_profile, build_drive, make_final_data,
                     parse_config, picard_iterate)
from modwave.spectral import _propagator
from modwave.trilinear import _pulled_back_cubic
from test_campaigns import SMALL

# the package exports the function evolve under the submodule's name
evolve_module = importlib.import_module("modwave.evolve")

# the gap of the trapezoid rule at 129 nodes, fixed before running
BACKWARD_SOLVE_BOUND = 2e-3

ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the x-space kernel's free wave wraps around the box; ROADMAP item 1, the "
           "chirp-factorized pulled-back cubic, is to pass it")


def _solve(f0, t0, t1, params):
    """The profile at t1 from the profile f0 at t0, t1 above or below t0, by
    evolve's Dormand-Prince steps (evolve._dp45), its right-hand side, its
    RK_TOL acceptance and its step rule, each step of the sign of t1 - t0.
    Returns the profile and the accepted steps."""
    grid, lam = params.grid, params.lam

    def rhs(f, p):
        return -1j * lam * _pulled_back_cubic(f, p, grid)

    t, f, h, steps = t0, f0, np.inf, 0
    k1 = rhs(f, _propagator(grid, t0))
    for _ in range(evolve_module.MAX_STEP_ATTEMPTS):
        if t == t1:
            return f, steps
        last = h >= abs(t1 - t)
        step = t1 - t if last else np.copysign(h, t1 - t)
        end = t1 if last else t + step
        y5, k7, _, estimate = evolve_module._dp45(f, t, step, end, k1, rhs, grid)
        err = float(np.max(np.abs(estimate)) / np.max(np.abs(y5)))
        if err <= evolve_module.RK_TOL:
            f, t, k1 = y5, end, k7
            steps += 1
        factor = min(4.0, max(0.2, 0.9 * (evolve_module.RK_TOL / err) ** 0.2)) if err else 4.0
        h = abs(step) * factor
    raise FloatingPointError(f"{evolve_module.MAX_STEP_ATTEMPTS} step attempts reached t = {t}")


@pytest.fixture(scope="module")
def construction():
    """SMALL's params at 129 nodes, W, and the construction's g."""
    config = parse_config(SMALL)
    params = replace(config.params, time_grid_points=129)
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    g, report = picard_iterate(build_drive(W, params), config.max_iter, config.tol)
    assert report.converged
    return params, W, g


def test_solve_forward_is_evolve_bit_for_bit(construction):
    # the stepper follows evolve wherever evolve's step changes
    params, W, g = construction
    T = params.T
    f_T = asymptotic_profile(W, T, params.lam).values + g.values[0]
    f, steps = _solve(f_T, T, 2.0 * T, params)
    state = evolve_module.evolve(FrequencyField(params.grid, f_T), T, [2.0 * T], params)[0]
    assert steps == state.step_count
    assert np.array_equal(f, state.profile.values)


def test_evolve_then_solve_back_returns_the_profile(construction):
    params, W, g = construction
    f_T = asymptotic_profile(W, params.T, params.lam).values + g.values[0]
    state = evolve_module.evolve(FrequencyField(params.grid, f_T), params.T, [params.t_max],
                                 params)[0]
    back, _ = _solve(state.profile.values, params.t_max, params.T, params)
    assert np.max(np.abs(back - f_T)) <= 1e-9 * np.max(np.abs(f_T))


@ITEM_1
def test_construction_solves_its_equation(construction):
    # sup|g(T) - g_ode(T)| / sup|g_ode(T)|: 7.2e-2 on the x-space kernel
    params, W, g = construction
    f, _ = _solve(asymptotic_profile(W, params.t_max, params.lam).values, params.t_max,
                  params.T, params)
    g_ode = f - asymptotic_profile(W, params.T, params.lam).values
    gap = np.max(np.abs(g.values[0] - g_ode)) / np.max(np.abs(g_ode))
    assert gap <= BACKWARD_SOLVE_BOUND
