"""Time grid, backward quadrature, norm growth, and the Picard iteration."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from modwave import (
    PicardReport,
    ProfileTrajectory,
    SolverParams,
    SpectralGrid,
    TimeGrid,
    apply_phi,
    build_drive,
    make_final_data,
    parse_config,
    picard_iterate,
    xt_distance,
    xt_norm,
)
from modwave import fixedpoint
from modwave.fixedpoint import BLOCK_ROWS, _blocks, _integrate_block, _picard, estimate_tail
from modwave.profile import _profile, _profile_rate
from modwave.trilinear import _pull_back, _pulled_back_cubic
from modwave.spectral import _ifft, _propagator, _sup_l2, _xt_weights

GRID = SpectralGrid(256, 100.0)
PARAMS = SolverParams(grid=GRID, time_grid_points=65)


def zero_trajectory(grid, tg):
    return ProfileTrajectory(grid, tg, np.zeros((tg.count, grid.num_points), complex))


def _backward_integral(values, nodes):
    """The production block step, swept over values from the last node down
    as apply_phi and build_drive sweep it, in place."""
    half_ds, edge = 0.5 * np.diff(nodes), list(np.empty((2, values.shape[-1]), complex))
    for rows in _blocks(len(nodes), down=True):
        _integrate_block(values[rows], rows.start, half_ds, edge)
    return values


def _image(g, drive):
    """Phi(g), swept into a new array."""
    out = np.empty_like(g.values)
    apply_phi(g, drive, out)
    return ProfileTrajectory(g.grid, g.time_grid, out)


def _tail(integrand):
    return estimate_tail(integrand.time_grid.nodes,
                         _sup_l2(integrand.values, integrand.grid.dxi))


def test_time_grid_validation():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        TimeGrid(np.array([10.0, 20.0]))
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
    got = _backward_integral(traj.values.copy(), tg.nodes)[k]
    t, t_max = tg.nodes[k], tg.nodes[-1]
    exact = (t**-0.1 - t_max**-0.1) / 0.1
    xi = GRID.frequencies
    expected = exact * np.exp(-(xi**2))
    assert np.max(np.abs(got - expected)) <= 5e-3 * exact


def test_backward_integral_convergence_order():
    # trapezoid error drops ~4x when the node count doubles
    def err(n):
        tg = TimeGrid(np.geomspace(10.0, 1000.0, n))
        traj = synthetic_power_law(-1.1, tg)
        t, t_max = tg.nodes[0], tg.nodes[-1]
        exact = (t**-0.1 - t_max**-0.1) / 0.1
        got = _backward_integral(traj.values.copy(), tg.nodes)[0, 0]  # xi = 0
        return abs(got - exact)

    ratio = err(65) / err(129)
    assert 3.0 <= ratio <= 5.0


def test_backward_integral_tail_reported_not_added():
    tg = TimeGrid(np.geomspace(10.0, 1000.0, 129))
    traj = synthetic_power_law(-2.0, tg)
    tail = _tail(traj)
    # integrand peak is t^-2 * shape with bracket norm (linf + l2) > linf;
    # analytic tail of the linf part alone is tmax^-1
    assert 1e-3 <= tail <= 3e-3
    t, t_max = tg.nodes[0], tg.nodes[-1]
    exact = t**-1.0 - t_max**-1.0
    got = _backward_integral(traj.values.copy(), tg.nodes)[0, 0]  # xi = 0
    # adding the 2.1e-3 tail would overshoot this bracket by ~2e-2 * exact
    assert abs(got - exact) <= 1e-3 * exact


def test_estimate_tail_rejects_growth():
    # a growing integrand admits no tail bound: reported unbounded, not raised
    traj = synthetic_power_law(0.5)
    assert _tail(traj) == float("inf")


def test_estimate_tail_non_integrable_is_inf():
    traj = synthetic_power_law(-0.5)
    assert _tail(traj) == float("inf")


def test_xt_norm_synthetic():
    # constant-in-time profile: the weight t^alpha grows but the
    # (1+log t)^-1 factor only shrinks the derivative part, so evaluate
    # the bracket directly and compare against the max over nodes
    tg = TimeGrid.from_params(PARAMS)
    traj = synthetic_power_law(0.0, tg)
    alpha = PARAMS.alpha
    expected = max(
        float(_xt_weights(t, traj.values[k], alpha, GRID)) for k, t in enumerate(tg.nodes)
    )
    assert xt_norm(traj, alpha) == expected


def test_trajectory_shape_mismatch():
    tg = TimeGrid.from_params(PARAMS)
    with pytest.raises(ValueError, match="shape"):
        ProfileTrajectory(GRID, tg, np.zeros((3, GRID.num_points), complex))


def test_phi_eps_vanishes_at_final_time():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    traj = build_drive(fd, PARAMS).phi_eps
    assert not np.any(traj.values[-1])
    assert np.any(traj.values[0])


def test_picard_converges_and_reports():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g, report = picard_iterate(build_drive(fd, PARAMS), max_iter=15, tol=1e-9)
    assert report.converged
    assert report.iterates <= 15
    assert report.step_distances[-1] <= 1e-9
    assert all(r < 1.0 for r in report.contraction_ratios)
    # on this small box the late-time integrand stops decaying (the free
    # wave wraps around), so the honest tail report is unbounded
    assert report.tail_estimate == float("inf")


def test_picard_reports_finite_tail_of_the_forcing():
    # a box wide enough to hold the wave up to t_max: the forcing integrand
    # decays integrably, and the drive's tail is the recomputed forcing's,
    # exactly, and to rounding that of its sizes max|f| + ||f||_L2 per row
    params = SolverParams(grid=SpectralGrid(256, 800.0), time_grid_points=65)
    fd = make_final_data("gaussian", params, bandwidth=0.05)
    drive = build_drive(fd, params)
    _, report = picard_iterate(drive)
    assert 0.0 < report.tail_estimate < float("inf")
    tg = drive.time_grid
    forcing = _forcing_recomputed(fd.values, params, tg.nodes)
    assert report.tail_estimate == _tail(ProfileTrajectory(params.grid, tg, forcing))
    mod = np.abs(forcing)
    sizes = np.max(mod, axis=-1) + np.sqrt(params.grid.dxi * np.sum(mod**2, axis=-1))
    assert report.tail_estimate == pytest.approx(estimate_tail(tg.nodes, sizes), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the x-space forcing stops decaying near t = 30, where the free wave "
                          "wraps around the default box; ROADMAP item 1, the chirp-factorized "
                          "pulled-back cubic, is to pass it")
def test_default_drive_reports_a_finite_tail():
    config = parse_config("")
    W = make_final_data(config.data_kind, config.params, seed=config.seed,
                        bandwidth=config.bandwidth)
    assert build_drive(W, config.params).tail_estimate < float("inf")


def test_picard_fixed_point_residual():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    drive = build_drive(fd, PARAMS)
    g, report = picard_iterate(drive, tol=1e-10)
    resid = xt_distance(_image(g, drive), g, PARAMS.alpha)
    assert resid <= 1e-9


def test_picard_zero_data_zero_solution():
    zero_params = SolverParams(eps0=0.0, grid=GRID, time_grid_points=65)
    fd = make_final_data("gaussian", zero_params)
    g, report = picard_iterate(build_drive(fd, zero_params))
    assert report.converged
    assert not np.any(g.values)
    assert report.tail_estimate == 0.0


def test_picard_non_convergence_reported_not_raised():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    g, report = picard_iterate(build_drive(fd, PARAMS), max_iter=1, tol=1e-30)
    assert not report.converged
    assert report.iterates == 1


def test_picard_rejects_bad_tolerance():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    with pytest.raises(ValueError, match="tolerance"):
        picard_iterate(build_drive(fd, PARAMS), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        picard_iterate(build_drive(fd, PARAMS), max_iter=0)


@pytest.mark.parametrize("lam, eps0", [(1, 0.05), (-1, 0.05), (1, 0.0)],
                         ids=["defocusing", "focusing", "zero-data"])
def test_picard_from_zero_starts_at_phi_eps(monkeypatch, lam, eps0):
    # Phi(0) = Phi_eps: the start from 0 skips one sweep and changes nothing
    params = SolverParams(lam=lam, eps0=eps0, grid=GRID, time_grid_points=65)
    drive = build_drive(make_final_data("gaussian", params, bandwidth=0.4), params)
    zero = zero_trajectory(GRID, drive.time_grid)
    first = np.empty_like(zero.values)
    size, step = apply_phi(zero, drive, first, (None, zero))
    g_swept, swept = _picard(drive, 15, 1e-9, ProfileTrajectory(GRID, drive.time_grid, first),
                             size, step)
    real, sweeps = fixedpoint.apply_phi, []

    def counted(*args, **kwargs):
        sweeps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "apply_phi", counted)
    g, report = picard_iterate(drive)
    assert np.array_equal(g.values, g_swept.values)
    assert asdict(report) == asdict(swept)
    assert len(sweeps) == report.iterates - 1


def test_picard_start_independence():
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    drive = build_drive(fd, PARAMS)
    g_a, _ = picard_iterate(drive, tol=1e-12)
    g0 = ProfileTrajectory(GRID, drive.time_grid, 2.0 * drive.phi_eps.values)
    size, step = apply_phi(g0, drive, g0.values, (None, g0))  # g0 holds Phi(g0) now
    g_b, _ = _picard(drive, 15, 1e-12, g0, size, step)
    assert xt_distance(g_a, g_b, PARAMS.alpha) <= 1e-8


def test_phi_eps_shrinks_with_later_start():
    # pushing T out by 4x shrinks the weighted forcing integral; allow a
    # generous constant over the predicted T^{(alpha - delta)/2} trend
    grid = SpectralGrid(2048, 1600.0)
    sizes = {}
    for T in (10.0, 40.0):
        params = SolverParams(T=T, t_max=100.0 * T, grid=grid, time_grid_points=65)
        fd = make_final_data("gaussian", params, bandwidth=0.03)
        traj = build_drive(fd, params).phi_eps
        sizes[T] = xt_norm(traj, params.alpha)
    bound = 4.0 ** ((PARAMS.alpha - PARAMS.delta) / 2.0) * 1.25
    assert sizes[40.0] / sizes[10.0] <= bound


def test_report_serializes_with_asdict():
    # the picard_report_* extras of results.json carry exactly these keys
    r = PicardReport(iterates=3, xt_norms=[1.0], step_distances=[0.1],
                     contraction_ratios=[0.01], converged=True, tail_estimate=0.0)
    d = asdict(r)
    assert list(d) == ["iterates", "xt_norms", "step_distances", "contraction_ratios",
                       "converged", "tail_estimate"]
    assert d["iterates"] == 3 and d["converged"] is True


# ---- the one reference of the map: Phi over the whole trajectory at once, with
# fresh propagator rows U(s), the profile of W's values and the textbook
# out-of-place trapezoid; bit for bit apply_phi and build_drive

def _cumulative_backward_out_of_place(values, nodes):
    out = np.zeros_like(values)
    for k in range(len(nodes) - 2, -1, -1):
        ds = nodes[k + 1] - nodes[k]
        out[k] = out[k + 1] + 0.5 * ds * (values[k] + values[k + 1])
    return out


def _u_app_recomputed(w, params, nodes):
    """The x-space rows U(s)v(s) of the approximate solution."""
    return _ifft(_profile(w, nodes, params.lam) * _propagator(params.grid, nodes), params.grid.dx)


def _forcing_recomputed(w, params, nodes):
    """The pulled-back forcing i dv/ds - lam U(-s)[|U(s)v|^2 U(s)v] at every node."""
    v = _profile(w, nodes, params.lam)
    return 1j * _profile_rate(v, nodes, params.lam) - params.lam * _pulled_back_cubic(
        v, _propagator(params.grid, nodes), params.grid)


def _phi_eps_recomputed(w, params, nodes):
    return -1j * _cumulative_backward_out_of_place(_forcing_recomputed(w, params, nodes), nodes)


def _apply_phi_recomputed(g, w, params):
    """Phi(g) for the drive of W's values w."""
    nodes, grid = g.time_grid.nodes, params.grid
    integrand = _pull_back(_u_app_recomputed(w, params, nodes), _propagator(grid, nodes), grid,
                           g.values)
    acc = _cumulative_backward_out_of_place(integrand, nodes)
    acc *= 1j * params.lam
    acc += _phi_eps_recomputed(w, params, nodes)
    return ProfileTrajectory(grid, g.time_grid, acc)


def _sweep_case(lam):
    nodes = 2 * BLOCK_ROWS + 5  # a partial last block
    grid = SpectralGrid(64, 40.0)
    params = SolverParams(lam=lam, grid=grid, time_grid_points=nodes)
    drive = build_drive(make_final_data("random_bandlimited", params, seed=3, bandwidth=0.5),
                        params)
    rng = np.random.default_rng(7)
    shape = (nodes, grid.num_points)
    g, h = (ProfileTrajectory(grid, drive.time_grid, 1e-3 * (rng.standard_normal(shape)
                                                             + 1j * rng.standard_normal(shape)))
            for _ in range(2))
    return drive, g, h


@pytest.mark.parametrize("lam", [1, -1])
def test_drive_sweeps_are_bit_identical_to_recomputing(lam):
    drive, g, _ = _sweep_case(lam)
    params, nodes = drive.params, drive.time_grid.nodes
    assert np.array_equal(drive.phi_eps.values, _phi_eps_recomputed(drive.w, params, nodes))
    assert np.array_equal(_image(g, drive).values,
                          _apply_phi_recomputed(g, drive.w, params).values)


def test_drive_stopping_at_phi_eps_never_holds_the_u_app_table():
    # 4-row blocks of 256 points are small against a 257-node trajectory, so
    # the traced peak counts trajectories: Phi_eps and the half-width
    # propagator heads, and no table of U(s)v rows
    config = parse_config("num_points = 256\nbox_length = 100\ntime_grid_points = 257\n"
                          "bandwidth = 0.4\ntol = 1.0\n")
    params = config.params
    W = make_final_data(config.data_kind, params, seed=config.seed, bandwidth=config.bandwidth)
    trajectory = 257 * 256 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        drive = build_drive(W, params)
        _, report = picard_iterate(drive, config.max_iter, config.tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterates == 1 and report.converged  # tol is above ||Phi_eps||_XT
    assert drive.u_app is None
    assert 1.5 <= peak / trajectory <= 2.0


@pytest.mark.parametrize("lam", [1, -1], ids=["defocusing", "focusing"])
def test_first_sweep_fills_the_u_app_table_and_later_sweeps_read_it(monkeypatch, lam):
    drive, g, _ = _sweep_case(lam)
    params, nodes = drive.params, drive.time_grid.nodes
    assert drive.u_app is None
    # the table is set on the drive whole, after the last block: a first
    # sweep that fails on its third block leaves none
    assert drive.time_grid.count > 2 * BLOCK_ROWS
    real, blocks = fixedpoint._pull_back, []

    def failing(*args):
        blocks.append(1)
        if len(blocks) == 3:
            raise FloatingPointError("the third block")
        return real(*args)

    monkeypatch.setattr(fixedpoint, "_pull_back", failing)
    with pytest.raises(FloatingPointError, match="the third block"):
        apply_phi(g, drive, np.empty_like(g.values))
    assert drive.u_app is None
    monkeypatch.setattr(fixedpoint, "_pull_back", real)
    first = _image(g, drive)
    table = drive.u_app
    assert np.array_equal(table, _u_app_recomputed(drive.w, params, nodes))
    assert np.array_equal(first.values, _apply_phi_recomputed(g, drive.w, params).values)
    second = _image(g, drive)
    assert drive.u_app is table
    assert np.array_equal(second.values, first.values)


def test_block_size_changes_no_bit(monkeypatch):
    # a box that holds the wave to t_max, so the tail compared is finite, and
    # 65 nodes, which none of the block sizes 3, 4 and 16 divides
    params = SolverParams(grid=SpectralGrid(256, 800.0), time_grid_points=65)
    W = make_final_data("gaussian", params, bandwidth=0.05)
    tg = TimeGrid.from_params(params)
    rng = np.random.default_rng(13)
    shape = (tg.count, params.grid.num_points)
    g, h = (ProfileTrajectory(params.grid, tg, 1e-3 * (rng.standard_normal(shape)
                                                       + 1j * rng.standard_normal(shape)))
            for _ in range(2))
    runs = []
    for rows in (1, 3, 4, 16, tg.count):
        monkeypatch.setattr(fixedpoint, "BLOCK_ROWS", rows)
        drive = build_drive(W, params)
        image = np.empty_like(g.values)
        brackets = apply_phi(g, drive, image, (None, g, h))
        runs.append([drive.prop, drive.u_app, drive.phi_eps.values, drive.tail_estimate,
                     image, brackets, xt_norm(g, params.alpha), xt_distance(g, h, params.alpha)])
    assert 0.0 < runs[0][3] < float("inf")
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))


def test_xt_distance_is_xt_norm_of_the_difference():
    tg = TimeGrid(np.geomspace(10.0, 1000.0, 2 * BLOCK_ROWS + 5))
    rng = np.random.default_rng(11)
    shape = (tg.count, GRID.num_points)
    a, b = (ProfileTrajectory(GRID, tg, rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape)) for _ in range(2))
    diff = ProfileTrajectory(GRID, tg, a.values - b.values)
    assert xt_distance(a, b, PARAMS.alpha) == xt_norm(diff, PARAMS.alpha)
    other = zero_trajectory(GRID, TimeGrid(np.geomspace(10.0, 1000.0, 33)))
    with pytest.raises(ValueError, match="another time grid"):
        xt_distance(a, other, PARAMS.alpha)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 16])
def test_block_step_is_the_whole_trajectory_integral_bit_for_bit(monkeypatch, rows):
    # 13 nodes: a partial last block for every block size but 1
    monkeypatch.setattr(fixedpoint, "BLOCK_ROWS", rows)
    tg = TimeGrid(np.geomspace(10.0, 1000.0, 2 * BLOCK_ROWS + 5))
    traj = synthetic_power_law(-1.1, tg)
    ref = _cumulative_backward_out_of_place(traj.values, tg.nodes)
    vals = traj.values.copy()
    assert _backward_integral(vals, tg.nodes) is vals
    assert np.array_equal(vals, ref)


# ---- the Picard loop against every iterate in a new array, bracketed after
# the map that made it

def _picard_whole_passes(drive, max_iter, tol):
    """picard_iterate with every iterate in a new array, its size and step
    bracketed after the sweep that made it."""
    alpha = drive.params.alpha
    report = PicardReport(tail_estimate=drive.tail_estimate)
    g, g_next = None, drive.phi_eps
    for n in range(max_iter):
        if n:
            g_next = _apply_phi_recomputed(g, drive.w, drive.params)
        size = xt_norm(g_next, alpha)
        dist = xt_distance(g_next, g, alpha) if n else size
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


@pytest.mark.parametrize("where", ["new", "over", None], ids=["new", "over", "nowhere"])
@pytest.mark.parametrize("lam", [1, -1], ids=["defocusing", "focusing"])
def test_sweep_is_the_map_and_its_brackets_bit_for_bit(lam, where):
    drive, g, h = _sweep_case(lam)
    alpha = drive.params.alpha
    ref = _apply_phi_recomputed(g, drive.w, drive.params)
    # h - Phi(g) against the sweep's Phi(g) - h: the brackets see no sign
    ref_brackets = [xt_norm(ref, alpha), xt_distance(ref, g, alpha), xt_distance(h, ref, alpha)]
    g_values, phi_eps = g.values.copy(), drive.phi_eps.values.copy()
    out = {"new": np.empty_like(g_values), "over": g.values, None: None}[where]
    assert apply_phi(g, drive, out, (None, g, h)) == ref_brackets
    if out is not None:
        assert np.array_equal(out, ref.values)
    assert np.array_equal(g.values, g_values) == (where != "over")
    assert np.array_equal(drive.phi_eps.values, phi_eps)
    out = np.empty_like(g_values)
    assert apply_phi(ProfileTrajectory(g.grid, g.time_grid, g_values), drive, out) == []
    assert np.array_equal(out, ref.values)


def test_sweep_refuses_phi_eps_and_what_it_cannot_write_or_measure():
    drive, g, _ = _sweep_case(1)
    with pytest.raises(ValueError, match="never writes over the drive's Phi_eps"):
        apply_phi(drive.phi_eps, drive, drive.phi_eps.values)
    with pytest.raises(ValueError, match="never writes over the drive's Phi_eps"):
        apply_phi(g, drive, drive.phi_eps.values)
    with pytest.raises(ValueError, match="^out must be a complex128 array of shape"):
        apply_phi(g, drive, np.empty_like(g.values[1:]))
    with pytest.raises(ValueError, match="^out must be a complex128 array of shape"):
        apply_phi(g, drive, np.empty(g.values.shape))
    with pytest.raises(ValueError, match="^out must be g.values itself or share no memory"):
        apply_phi(g, drive, g.values[::-1])
    other = zero_trajectory(g.grid, TimeGrid(np.geomspace(10.0, 1000.0, 33)))
    with pytest.raises(ValueError, match="^a trajectory measured against lives on another "
                                         "time grid$"):
        apply_phi(g, drive, None, (None, other))


@pytest.mark.parametrize("lam", [1, -1], ids=["defocusing", "focusing"])
def test_picard_in_place_is_the_whole_pass_loop(monkeypatch, lam):
    # eps0 = 0.5: four iterates, so two sweeps run in place
    params = SolverParams(lam=lam, eps0=0.5, grid=GRID, time_grid_points=65)
    drive = build_drive(make_final_data("gaussian", params, bandwidth=0.4), params)
    phi_eps = drive.phi_eps.values.copy()
    ref, ref_report = _picard_whole_passes(drive, 15, 1e-9)
    real, writes = fixedpoint.apply_phi, []

    def recorded(g, drive, out=None, against=()):
        writes.append("own" if out is g.values else
                      "shared" if np.may_share_memory(out, g.values) else "fresh")
        return real(g, drive, out, against)

    monkeypatch.setattr(fixedpoint, "apply_phi", recorded)
    g, report = picard_iterate(drive)
    assert report.iterates == 4
    # a new array for Phi(Phi_eps), then every sweep over the iterate it holds
    assert writes == ["fresh"] + ["own"] * (report.iterates - 2)
    assert np.array_equal(g.values, ref.values)
    assert asdict(report) == asdict(ref_report)
    assert np.array_equal(drive.phi_eps.values, phi_eps)


# ---- a drive serves only trajectories on its own grid and time grid

OTHER_TG_PARAMS = SolverParams(grid=GRID, time_grid_points=33)
OTHER_GRID_PARAMS = SolverParams(grid=SpectralGrid(128, 100.0), time_grid_points=65)


@pytest.mark.parametrize("other, where", [
    (OTHER_GRID_PARAMS, "grid"),
    (OTHER_TG_PARAMS, "time grid"),
], ids=["grid", "time-grid"])
def test_drive_rejects_trajectories_living_elsewhere(other, where):
    fd = make_final_data("gaussian", PARAMS, bandwidth=0.4)
    drive = build_drive(fd, PARAMS)
    other_tg = TimeGrid.from_params(other)
    g = ProfileTrajectory(other.grid, other_tg, np.ones((other_tg.count, other.grid.num_points)))
    with pytest.raises(ValueError, match=f"^g lives on another {where}$"):
        apply_phi(g, drive)
