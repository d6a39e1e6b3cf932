"""Time grid, backward quadrature, norm growth, and the Picard iteration."""

import numpy as np
import pytest

from modwave import (
    FrequencyField,
    PicardReport,
    ProfileTrajectory,
    SolverParams,
    SpectralGrid,
    TimeGrid,
    apply_phi,
    backward_integral,
    contraction_probe,
    make_final_data,
    phi_eps,
    picard_iterate,
    xt_norm,
)
from modwave import asymptotic_profile, cubic_difference, profile_time_derivative
from modwave.fixedpoint import BLOCK_ROWS, _cumulative_backward, estimate_tail, forcing_integrand
from modwave.spectral import (
    PhysicalField,
    forward_transform,
    free_propagate,
    inverse_transform,
    norms,
    xt_weight,
)

GRID = SpectralGrid(256, 100.0)
PARAMS = SolverParams(grid=GRID, time_grid_points=65)


def test_time_grid_validation():
    with pytest.raises(ValueError, match="t >= 2"):
        TimeGrid(np.geomspace(1.0, 100.0, 16))
    with pytest.raises(ValueError, match="increasing"):
        TimeGrid(np.array([10.0, 10.0, 20.0]))
    with pytest.raises(ValueError, match="logarithmically"):
        TimeGrid(np.linspace(10.0, 100.0, 16))


def test_time_grid_from_params():
    tg = TimeGrid.from_params(PARAMS)
    assert tg.count == PARAMS.time_grid_points
    assert tg.nodes[0] == pytest.approx(PARAMS.T)
    assert tg.nodes[-1] == pytest.approx(PARAMS.t_max)


def synthetic_power_law(exponent, tg=None):
    tg = tg or TimeGrid.from_params(PARAMS)
    xi = GRID.frequencies
    shape = np.exp(-(xi**2))
    vals = np.array([t**exponent * shape for t in tg.nodes], dtype=complex)
    return ProfileTrajectory(GRID, tg, vals)


def test_backward_integral_power_law():
    # int_t^tmax s^-1.1 ds has the closed form (t^-0.1 - tmax^-0.1)/0.1
    tg = TimeGrid(np.geomspace(10.0, 1000.0, 257))
    traj = synthetic_power_law(-1.1, tg)
    k = 0
    got = backward_integral(traj, k)
    t, t_max = tg.nodes[k], tg.nodes[-1]
    exact = (t**-0.1 - t_max**-0.1) / 0.1
    xi = GRID.frequencies
    expected = exact * np.exp(-(xi**2))
    assert np.max(np.abs(got.values - expected)) <= 5e-3 * exact


def test_backward_integral_convergence_order():
    # trapezoid error drops ~4x when the node count doubles
    def err(n):
        tg = TimeGrid(np.geomspace(10.0, 1000.0, n))
        traj = synthetic_power_law(-1.1, tg)
        t, t_max = tg.nodes[0], tg.nodes[-1]
        exact = (t**-0.1 - t_max**-0.1) / 0.1
        got = backward_integral(traj, 0).values[GRID.num_points // 2]
        return abs(got - exact)

    ratio = err(65) / err(129)
    assert 3.0 <= ratio <= 5.0


def test_backward_integral_tail_reported_not_added():
    tg = TimeGrid(np.geomspace(10.0, 1000.0, 129))
    traj = synthetic_power_law(-2.0, tg)
    out = backward_integral(traj, 0)
    tail = out.meta["tail_estimate"]
    # integrand peak is t^-2 * shape with bracket norm (linf + l2) > linf;
    # analytic tail of the linf part alone is tmax^-1
    assert 1e-3 <= tail <= 3e-3
    t, t_max = tg.nodes[0], tg.nodes[-1]
    exact = t**-1.0 - t_max**-1.0
    got = out.values[GRID.num_points // 2]
    # adding the 2.1e-3 tail would overshoot this bracket by ~2e-2 * exact
    assert abs(got - exact) <= 1e-3 * exact


def test_estimate_tail_rejects_growth():
    # a growing integrand admits no tail bound: reported unbounded, not raised
    traj = synthetic_power_law(0.5)
    assert estimate_tail(traj) == float("inf")
    assert backward_integral(traj, 0).meta["tail_estimate"] == float("inf")


def test_estimate_tail_non_integrable_is_inf():
    traj = synthetic_power_law(-0.5)
    assert estimate_tail(traj) == float("inf")


def test_xt_norm_synthetic():
    # constant-in-time profile: the weight t^alpha grows but the
    # (1+log t)^-1 factor only shrinks the derivative part, so evaluate
    # the bracket directly and compare against the max over nodes
    tg = TimeGrid.from_params(PARAMS)
    traj = synthetic_power_law(0.0, tg)
    alpha = PARAMS.alpha
    expected = max(
        xt_weight(t, traj.field(k), alpha) for k, t in enumerate(tg.nodes)
    )
    assert xt_norm(traj, alpha) == expected


def test_trajectory_shape_mismatch():
    tg = TimeGrid.from_params(PARAMS)
    with pytest.raises(ValueError, match="shape"):
        ProfileTrajectory(GRID, tg, np.zeros((3, GRID.num_points), complex))


def test_phi_eps_vanishes_at_final_time():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    traj = phi_eps(fd, PARAMS, TimeGrid.from_params(PARAMS))
    assert not np.any(traj.values[-1])
    assert np.any(traj.values[0])


def test_picard_converges_and_reports():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g, report = picard_iterate(fd, PARAMS, max_iter=15, tol=1e-9)
    assert report.converged
    assert report.iterates <= 15
    assert report.step_distances[-1] <= 1e-9
    assert all(r < 1.0 for r in report.contraction_ratios)
    # on this small box the late-time integrand stops decaying (the free
    # wave wraps around), so the honest tail report is unbounded
    assert report.tail_estimate >= 0.0


def test_picard_fixed_point_residual():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g, report = picard_iterate(fd, PARAMS, tol=1e-10)
    cached = phi_eps(fd, PARAMS, g.time_grid)
    resid = xt_norm(apply_phi(g, fd, PARAMS, cached) - g, PARAMS.alpha)
    assert resid <= 1e-9


def test_picard_zero_data_zero_solution():
    zero_params = SolverParams(eps0=0.0, grid=GRID, time_grid_points=65)
    fd = make_final_data("gaussian", zero_params)
    g, report = picard_iterate(fd, zero_params)
    assert report.converged
    assert not np.any(g.values)
    assert report.tail_estimate == 0.0


def test_picard_non_convergence_reported_not_raised():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g, report = picard_iterate(fd, PARAMS, max_iter=1, tol=1e-30)
    assert not report.converged
    assert report.iterates == 1


def test_picard_rejects_bad_tolerance():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    with pytest.raises(ValueError, match="tolerance"):
        picard_iterate(fd, PARAMS, tol=0.0)


def test_picard_start_independence():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g_a, _ = picard_iterate(fd, PARAMS, tol=1e-12)
    tg = TimeGrid.from_params(PARAMS)
    warm = phi_eps(fd, PARAMS, tg)
    g0 = ProfileTrajectory(GRID, tg, 2.0 * warm.values)
    g_b, _ = picard_iterate(fd, PARAMS, tol=1e-12, g0=g0)
    assert xt_norm(g_a - g_b, PARAMS.alpha) <= 1e-8


def test_phi_eps_shrinks_with_later_start():
    # pushing T out by 4x shrinks the weighted forcing integral; allow a
    # generous constant over the predicted T^{(alpha - delta)/2} trend
    grid = SpectralGrid(2048, 1600.0)
    sizes = {}
    for T in (10.0, 40.0):
        params = SolverParams(T=T, t_max=100.0 * T, grid=grid, time_grid_points=65)
        fd = make_final_data("gaussian", params, bandwidth=0.03)
        traj = phi_eps(fd, params, TimeGrid.from_params(params))
        sizes[T] = xt_norm(traj, params.alpha)
    bound = 4.0 ** ((PARAMS.alpha - PARAMS.delta) / 2.0) * 1.25
    assert sizes[40.0] / sizes[10.0] <= bound


def test_contraction_probe_small():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    tg = TimeGrid.from_params(PARAMS)
    warm = phi_eps(fd, PARAMS, tg)
    g1 = ProfileTrajectory(GRID, tg, warm.values)
    g2 = ProfileTrajectory(GRID, tg, 0.5 * warm.values)
    ratio = contraction_probe(g1, g2, fd, PARAMS)
    assert 0.0 < ratio <= 0.5


def test_contraction_probe_rejects_equal():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    tg = TimeGrid.from_params(PARAMS)
    g = ProfileTrajectory.zeros(GRID, tg)
    with pytest.raises(ValueError, match="distinct"):
        contraction_probe(g, g, fd, PARAMS)


def test_report_to_dict_round_trips():
    r = PicardReport(iterates=3, xt_norms=[1.0], step_distances=[0.1],
                     contraction_ratios=[0.01], converged=True, tail_estimate=0.0)
    d = r.to_dict()
    assert d["iterates"] == 3 and d["converged"] is True


# ---- node-blocked kernels against the per-node field-wrapper routes

# The blocked routes perform the same float64 operations on every element as
# the per-node routes; only the rounding of vectorized exp/log/pow and of
# row-wise reductions may differ in the last bits, which the backward
# trapezoid sum accumulates over at most a few dozen nodes.
BLOCKED_RTOL = 64 * np.finfo(np.float64).eps


def _forcing_integrand_per_node(W, params, tg):
    vals = np.empty((tg.count, params.grid.num_points), complex)
    for k, s in enumerate(tg.nodes):
        v = asymptotic_profile(W, s, params.lam)
        vt = profile_time_derivative(v, s, params.lam)
        u_app = inverse_transform(free_propagate(v, s)).values
        drive = inverse_transform(free_propagate(vt, s)).values
        eps = PhysicalField(params.grid, 1j * drive - params.lam * np.abs(u_app) ** 2 * u_app)
        vals[k] = free_propagate(forward_transform(eps), -s).values
    return vals


def _apply_phi_per_node(g, W, params, phi_eps_cached):
    integrand = np.empty_like(g.values)
    for k, s in enumerate(g.time_grid.nodes):
        v = asymptotic_profile(W, s, params.lam)
        u_app = inverse_transform(free_propagate(v, s))
        w = inverse_transform(free_propagate(g.field(k), s))
        n_diff = cubic_difference(u_app, w)
        integrand[k] = free_propagate(forward_transform(n_diff), -s).values
    acc = _cumulative_backward(integrand, g.time_grid.nodes)
    return 1j * params.lam * acc + phi_eps_cached.values


def _xt_norm_per_node(g, alpha):
    out = []
    for k, t in enumerate(g.time_grid.nodes):
        b = norms(g.field(k))
        out.append(t**alpha * (b.linf + b.l2 + b.dxi_l2 / (1.0 + np.log(t))))
    return max(out)


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [1, -1])
def test_blocked_routes_match_per_node(lam):
    nodes = 2 * BLOCK_ROWS + 5  # a partial last block
    assert nodes % BLOCK_ROWS
    grid = SpectralGrid(64, 40.0)
    params = SolverParams(lam=lam, grid=grid, time_grid_points=nodes)
    W = make_final_data("random_bandlimited", params, seed=3, bandwidth=0.5)
    tg = TimeGrid.from_params(params)
    rng = np.random.default_rng(17)
    shape = (nodes, grid.num_points)
    g = ProfileTrajectory(grid, tg, 1e-3 * (rng.standard_normal(shape)
                                            + 1j * rng.standard_normal(shape)))

    integrand = forcing_integrand(W, params, tg)
    assert _rel_err(integrand.values, _forcing_integrand_per_node(W, params, tg)) <= BLOCKED_RTOL
    cached = phi_eps(W, params, tg, integrand)
    ref = _apply_phi_per_node(g, W, params, cached)
    assert _rel_err(apply_phi(g, W, params, cached).values, ref) <= BLOCKED_RTOL
    ref_norm = _xt_norm_per_node(g, params.alpha)
    assert abs(xt_norm(g, params.alpha) - ref_norm) <= BLOCKED_RTOL * ref_norm


def test_phi_eps_rejects_integrand_on_other_grid():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    tg = TimeGrid.from_params(PARAMS)
    other = ProfileTrajectory.zeros(GRID, TimeGrid(np.geomspace(10.0, 1000.0, 33)))
    with pytest.raises(ValueError, match="different grid"):
        phi_eps(fd, PARAMS, tg, other)
