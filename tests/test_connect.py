import numpy as np
import pytest

from lorlab import (RIEMANNIAN, ConjugatePointError, ConvergenceError,
                    MetricField, MetricFamily, PreconditionError,
                    connecting_geodesics_batch, defining_r, geodesic_accel,
                    linearize_r, magnetic_connectors_batch,
                    magnetic_michel_batch, magnetic_scatter_batch,
                    michel_check, michel_check_batch, reconstruct_exits,
                    scatter_batch, sigma_detect, thmmag_verify_batch)
from lorlab import connect, geometry, scenarios, stationary
from lorlab.scenarios import disk_pairs


def test_connector_energy_examples(product_disk):
    x = np.array([0.0, -0.5, 0.0])
    timelike, lightlike, spacelike = connecting_geodesics_batch(
        product_disk.metric, np.tile(x, (3, 1)),
        np.array([[2.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.5, 0.5, 0.0]]))
    assert timelike.energy == pytest.approx(-1.5, abs=1e-9)
    assert timelike.causal.tag == "timelike"
    assert lightlike.energy == pytest.approx(0.0, abs=1e-9)
    assert spacelike.energy == pytest.approx(0.375, abs=1e-9)
    assert spacelike.causal.tag == "spacelike"


def test_defining_r_closed_form_grid(product_disk, rng):
    x = np.array([0.0, -0.4, 0.1])
    ys = []
    for _ in range(6):
        dx = rng.uniform(-0.8, 0.8, 2)
        dt = rng.uniform(0.1, 1.5)
        ys.append([dt, x[1] + dx[0] * 0.5, x[2] + dx[1] * 0.5])
    ys = np.array(ys)
    r = defining_r(product_disk.metric, np.tile(x, (6, 1)), ys)
    rho2 = ((ys[:, 1:] - x[1:]) ** 2).sum(axis=1)
    assert r.shape == (6,)
    assert np.abs(r - 0.5 * (rho2 - ys[:, 0] ** 2)).max() <= 1e-9


def test_energy_constant_along_connector(product_disk):
    from lorlab import inner
    (c,) = connecting_geodesics_batch(product_disk.metric,
                                      np.array([[0.0, -0.5, 0.0]]),
                                      np.array([[2.0, 0.5, 0.0]]))
    path = c.path
    for idx in (0, len(path.sigma) // 2, -1):
        e = 0.5 * float(inner(product_disk.metric, path.x[idx],
                              path.v[idx], path.v[idx]))
        assert e == pytest.approx(c.energy, abs=1e-8)


def test_sigma_detect(product_disk):
    on = sigma_detect(product_disk.metric, np.array([[0.0, -0.5, 0.0]] * 2),
                      np.array([[1.0, 0.5, 0.0], [2.0, 0.5, 0.0]]))
    assert on.dtype == bool
    assert on.tolist() == [True, False]


def test_michel_residual_small(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=2)
    pos, cov = michel_check(product_disk.metric, product_disk.entry_surface,
                            product_disk.exit_surface, x, y)
    assert pos < 1e-5
    assert cov < 1e-5


def test_linearize_matches_transform(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=4)
    (rep,) = linearize_r(scenarios.stretch_family(), [x], [y], fd_step=1e-4)
    assert rep.kappa == 0.5
    assert rep.rel_error < 1e-3
    # closed form: r(tau) = ((1 + tau) rho^2 - dt^2) / 2, derivative rho^2/2
    rho2 = float(((y[1:] - x[1:]) ** 2).sum())
    assert rep.fd_value == pytest.approx(0.5 * rho2, rel=1e-6)


def test_linearize_conformal_family_vanishes(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=4)
    (rep,) = linearize_r(scenarios.conformal_family(product_disk.metric),
                         [x], [y], fd_step=1e-4)
    assert abs(rep.fd_value) < 1e-6
    assert abs(rep.kappa * rep.lrt_value) < 1e-6


def test_elliptic_factor_covariance(product_disk):
    """Multiplying the defining function by a constant kappa multiplies
    its linearization by kappa."""
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=6)
    fam = scenarios.stretch_family()
    (base,) = linearize_r(fam, [x], [y], fd_step=1e-4)
    kappa = 2.5

    def r_tau(tau):
        return defining_r(fam.eval(tau), [x], [y])[0]

    fd_scaled = kappa * (r_tau(1e-4) - r_tau(-1e-4)) / 2e-4
    assert fd_scaled == pytest.approx(kappa * base.fd_value, rel=1e-6)


def test_fd_order_of_linearization(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=41)
    rho2 = float(((y[1:] - x[1:]) ** 2).sum())

    def eval_tau(tau):
        from lorlab import MetricField
        from lorlab.geometry import LORENTZIAN
        d = np.array([-1.0, np.exp(tau), np.exp(tau)])

        def func(p):
            return np.broadcast_to(np.diag(d), np.shape(p)[:-1] + (3, 3))

        return MetricField(
            dim=3, signature=LORENTZIAN, func=func,
            jetfunc=lambda p: (func(p),
                               np.zeros(np.shape(p)[:-1] + (3, 3, 3))))

    fam = MetricFamily(eval=eval_tau)
    errs = [abs(rep.fd_value - 0.5 * rho2) for h in (4e-3, 2e-3)
            for rep in linearize_r(fam, [x], [y], fd_step=h)]
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_differenced_family_derivative_is_the_closed_form(product_disk):
    """Without derivative_at_0, linearize_r differences the family
    exp(tau) |dx|^2 at the g_{+-fd_step} it solves; with fd_step 1e-4
    that is diag(0, 1, 1) to fd_step^2 / 6, and so is the transform."""
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=41)

    def eval_tau(tau):
        return scenarios.constant_metric(3, [-1.0, np.exp(tau), np.exp(tau)],
                                         geometry.LORENTZIAN)

    exact = scenarios.stretch_family().derivative_at_0
    (fd,) = linearize_r(MetricFamily(eval=eval_tau), [x], [y])
    (closed,) = linearize_r(MetricFamily(eval=eval_tau, derivative_at_0=exact),
                            [x], [y])
    assert fd.fd_value == closed.fd_value
    assert abs(fd.lrt_value - closed.lrt_value) <= 1e-8 * abs(closed.lrt_value)


def _round_sphere():
    """Unit sphere in (polar, azimuth) coordinates."""
    def func(x):
        x = np.asarray(x, float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return g

    return MetricField(dim=2, signature=RIEMANNIAN, func=func)


def test_conjugate_point_error_names_the_pair(monkeypatch):
    """Pair 1 ends near the antipode of its start, where the shooting
    Jacobian is close to singular (condition about 160); pair 0 is short
    (condition about 1.2)."""
    xs = np.array([[np.pi / 2, 0.0], [np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.3, 1.0],
                   [np.pi / 2 + 0.02, np.pi - 0.02]])
    monkeypatch.setattr(connect, "COND_LIMIT", 50.0)
    with pytest.raises(ConjugatePointError, match=r"^pair\(s\) \[1\]: "):
        connecting_geodesics_batch(_round_sphere(), xs, ys)


def test_convergence_error_names_the_pair(perturbed_product, monkeypatch):
    """Pair 0 starts from its solved velocity, pair 1 from the straight
    line, which one Newton iteration does not bring to the tolerance."""
    g = perturbed_product.metric
    xs = np.array([[0.0, -0.6, 0.2], [0.0, 0.5, -0.5]])
    ys = np.array([[1.0, 0.7, 0.1], [1.2, -0.3, 0.6]])
    solved = connecting_geodesics_batch(g, xs[:1], ys[:1],
                                        tol=1e-12)[0].path.v[0]
    seeds = np.array([solved, ys[1] - xs[1]])
    monkeypatch.setattr(connect, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"^pair\(s\) \[1\]: "):
        connecting_geodesics_batch(g, xs, ys, seeds=seeds, tol=1e-12)


def test_diverged_iterate_names_the_pair(monkeypatch):
    """Pair 1 ends a thousandth south of the antipode of its start; its
    first Newton step overshoots so far that the march of the next
    iterate turns non-finite, on the coarse grid and on the requested
    grid alike."""
    xs = np.array([[np.pi / 2, 0.0], [np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.3, 1.0], [np.pi / 2 + 0.001, np.pi]])
    monkeypatch.setattr(connect, "COND_LIMIT", 1e12)
    with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=r"^pair\(s\) \[1\]: Newton iterate "
                                    r"diverged"):
        connecting_geodesics_batch(_round_sphere(), xs, ys)


def test_connector_paths_are_the_march_of_the_returned_velocities(
        perturbed_product, stationary_rot):
    """Connectors equal, bit for bit, a fresh march of the velocities the
    solver returned."""
    g = perturbed_product.metric
    xs, ys = disk_pairs(4, 3)
    conns = connecting_geodesics_batch(g, xs, ys, tol=1e-12)
    vs = np.array([c.path.v[0] for c in conns])
    sigma, px, pv = geometry.integrate_flow_fixed(geodesic_accel(g), xs, vs,
                                                  1.0, 1.0 / 400)
    for b, c in enumerate(conns):
        assert np.array_equal(c.path.sigma, sigma)
        assert np.array_equal(c.path.x, px[:, b])
        assert np.array_equal(c.path.v, pv[:, b])

    mag = stationary_rot.magnetic
    th = np.array([0.0, 1.0, 2.5])
    xs = np.stack([np.cos(th), np.sin(th)], axis=1)
    ys = np.stack([np.cos(th + 2.0), np.sin(th + 2.0)], axis=1)
    conns = magnetic_connectors_batch(mag, xs, ys, tol=1e-12)
    ws = np.array([c.initial_w for c in conns])
    accel = stationary.magnetic_accel(mag, speed_from_velocity=True)
    tau, zx, zv = geometry.integrate_flow_fixed(accel, xs, ws, 1.0,
                                                1.0 / 400)
    for b, c in enumerate(conns):
        assert np.array_equal(c.path.sigma, c.length * tau)
        assert np.array_equal(c.path.x, zx[:, b])
        assert np.array_equal(c.path.v, zv[:, b] / c.length)


def test_coincident_endpoints_name_the_pair(product_disk):
    xs = np.array([[0.0, -0.5, 0.0], [0.0, 0.3, 0.2], [0.0, 0.1, 0.4]])
    ys = np.array([[1.2, 0.5, 0.1], [0.0, 0.3, 0.2], [0.8, -0.4, 0.3]])
    with pytest.raises(PreconditionError,
                       match=r"^pair\(s\) \[1\]: coincident endpoints$"):
        connecting_geodesics_batch(product_disk.metric, xs, ys)


def test_non_finite_pairs_are_named_before_any_march(marches,
                                                     product_disk):
    """A NaN endpoint or an infinite seed is a ValueError naming its pair,
    not a diverged Newton iterate."""
    xs = np.array([[0.0, -0.5, 0.0], [0.0, 0.3, 0.2], [0.0, 0.1, 0.4]])
    ys = np.array([[1.2, 0.5, 0.1], [0.0, np.nan, 0.2], [0.8, -0.4, 0.3]])
    accel = geodesic_accel(product_disk.metric)
    with pytest.raises(ValueError,
                       match=r"^pair\(s\) \[1\]: non-finite xs, ys or seeds$"):
        connect.solve_two_point(accel, xs, ys)
    ys[1, 1] = 0.6
    seeds = ys - xs
    seeds[[0, 2], 0] = np.inf
    with pytest.raises(ValueError, match=r"^pair\(s\) \[0, 2\]: non-finite"):
        connect.solve_two_point(accel, xs, ys, seeds=seeds)
    assert marches == []


def test_mismatched_shapes_are_named_before_any_march(marches,
                                                      product_disk):
    xs = np.array([[0.0, -0.5, 0.0], [0.0, 0.3, 0.2], [0.0, 0.1, 0.4]])
    ys = np.array([[1.2, 0.5, 0.1], [0.0, 0.6, 0.2], [0.8, -0.4, 0.3]])
    accel = geodesic_accel(product_disk.metric)
    with pytest.raises(ValueError, match=r"^ys \(2, 3\) unlike xs \(3, 3\)$"):
        connect.solve_two_point(accel, xs, ys[:2])
    with pytest.raises(ValueError,
                       match=r"^seeds \(3, 2\) unlike xs \(3, 3\)$"):
        connect.solve_two_point(accel, xs, ys, seeds=(ys - xs)[:, :2])
    assert marches == []


def test_converges_on_the_last_allowed_iterate(perturbed_product,
                                               monkeypatch):
    """On 150 steps, one grid alone, the 16 pairs of the CLI connect grid
    reach 1e-12 on exactly their fourth Newton iterate: MAX_ITER = 4
    returns the solve of MAX_ITER = 50, and MAX_ITER = 3 names the pairs
    still unfinished."""
    xs, ys = disk_pairs(16, 1)
    accel = geodesic_accel(perturbed_product.metric)

    def solve(max_iter):
        monkeypatch.setattr(connect, "MAX_ITER", max_iter)
        return connect.solve_two_point(accel, xs, ys, n_steps=150, tol=1e-12)

    assert np.array_equal(solve(4), solve(50))
    with pytest.raises(ConvergenceError,
                       match=r"^pair\(s\) \[\d+(, \d+)*\]: two-point "
                             r"shooting residual .* after 3 iterations$"):
        solve(3)


def test_coarse_failure_falls_back_to_the_requested_grid(marches):
    """The pair ends near the antipode of its start.  On the coarse grid
    of 50 steps a Newton iterate diverges; the solver then starts again
    on the requested grid from the seed, builds its own Jacobian at its
    first iterate, and converges there."""
    xs = np.array([[np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.00025, np.pi - 0.0005]])
    accel = geodesic_accel(_round_sphere())
    march = []
    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError, match="diverged"):
            connect._newton(accel, xs, ys, ys - xs, 50, 1e-8)
        marches.clear()
        connect.solve_two_point(accel, xs, ys, march=march)
    fine = [m for m in marches if m is not None and m[1] == 400]
    assert fine[:2] == [(1, 400), (2, 400)]
    assert marches.index(fine[0]) > 0          # after the coarse phase
    assert len(march[0]) == 401
    assert np.abs(march[1][-1] - ys).max() <= 1e-10


@pytest.fixture
def marches(monkeypatch):
    """(rows, steps) of the fixed-interval marches, in order; each solver
    return appends None."""
    log = []
    march = geometry.integrate_flow_fixed
    solve = connect.solve_two_point

    def counted_march(accel, x0, v0, sigma_max, step):
        log.append((len(x0), round(sigma_max / step)))
        return march(accel, x0, v0, sigma_max, step)

    def counted_solve(*args, **kw):
        out = solve(*args, **kw)
        log.append(None)
        return out

    for mod in (geometry, connect, stationary):
        if hasattr(mod, "integrate_flow_fixed"):
            monkeypatch.setattr(mod, "integrate_flow_fixed", counted_march)
        if hasattr(mod, "solve_two_point"):
            monkeypatch.setattr(mod, "solve_two_point", counted_solve)
    return log


def test_no_march_after_the_solver(marches, product_disk, stationary_rot):
    """Straight lines solve product_disk exactly: one march on each grid.
    The connectors take their paths from the solver's last march, which
    is on the requested grid."""
    connecting_geodesics_batch(product_disk.metric,
                               np.array([[0.0, -0.5, 0.0]]),
                               np.array([[1.2, 0.5, 0.1]]))
    assert marches == [(1, 50), (1, 400), None]
    marches.clear()
    magnetic_connectors_batch(stationary_rot.magnetic,
                              np.array([[1.0, 0.0], [0.0, 1.0]]),
                              np.array([[-0.6, 0.8], [-0.8, -0.6]]))
    assert marches[-2:] == [(2, 400), None]
    assert marches.count(None) == 1


def test_no_coarse_grid_below_25_steps(marches, product_disk):
    for n_steps in (200, 199):
        connecting_geodesics_batch(product_disk.metric,
                                   np.array([[0.0, -0.5, 0.0]]),
                                   np.array([[1.2, 0.5, 0.1]]),
                                   n_steps=n_steps)
    assert marches == [(1, 25), (1, 200), None, (1, 199), None]


def test_broyden_updates_replace_jacobian_builds(marches, perturbed_product):
    """The 16 pairs of the CLI connect grid on perturbed_product reach
    1e-12 with two forward-difference Jacobians, both built on the
    coarse grid of 50 steps: one at the seeds, and one at the coarse
    solution, which the requested grid of 400 takes in place of the
    Broyden-updated one.  It then needs two residual marches over all
    16 pairs and no Jacobian of its own.  With the Broyden-updated
    Jacobian the requested grid took a third march, of the one pair
    still unfinished; one grid alone took one Jacobian and five
    residual marches on 400 steps, and chord iterations with that
    Jacobian took seven."""
    xs, ys = disk_pairs(16, 1)
    conns = connecting_geodesics_batch(perturbed_product.metric, xs, ys,
                                       tol=1e-12)
    assert marches.count((16 * 3, 50)) == 2
    assert marches.count((16 * 3, 400)) == 0
    assert [m for m in marches if m and m[1] == 400] == [(16, 400)] * 2
    for c in conns:
        assert np.abs(c.path.x[-1] - c.y).max() <= 1e-12


def test_newton_marches_only_unfinished_pairs(marches, perturbed_product):
    """A residual march covers the pairs not yet within tolerance, and
    the connectors, whose rows come from different marches, are bit for
    bit one march of their solved velocities: rows are independent.
    The solve marches 20,750 row-steps in 1,100 march steps.  Handing
    the requested grid the Broyden-updated coarse Jacobian took 18,750
    row-steps but 1,450 march steps: the 48-row switch build on 50
    steps costs 2,000 more row-steps than the one-pair march on 400 it
    saves.  A step of 48 rows costs less than twice a step of one, so
    the 350 fewer march steps win.  With every residual march over all
    16 rows the solve marched 24,800 row-steps."""
    g = perturbed_product.metric
    xs, ys = disk_pairs(16, 1)
    conns = connecting_geodesics_batch(g, xs, ys, tol=1e-12)
    log = marches[:-1]
    assert sum(rows * steps for rows, steps in log) == 20750
    assert sum(steps for _, steps in log) == 1100
    assert min(rows for rows, _ in log) < 16
    vs = np.array([c.path.v[0] for c in conns])
    _, px, pv = geometry.integrate_flow_fixed(geodesic_accel(g), xs, vs,
                                              1.0, 1.0 / 400)
    for b, c in enumerate(conns):
        assert np.array_equal(c.path.x, px[:, b])
        assert np.array_equal(c.path.v, pv[:, b])


def test_stencil_solve_takes_two_marches_on_the_requested_grid(
        marches, stationary_rot):
    """The 9-row stencil of criterion 03's first stationary_rot pair, on
    200 steps: the fresh coarse Jacobian finishes every row in two
    residual marches on the requested grid, all 9 rows each (the
    Broyden-updated one took three), with no Jacobian built there."""
    sc = stationary_rot
    (x, y), = scenarios.null_pairs(sc, 20, seed=7)[:1]
    michel_check_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                       [x], [y], n_steps=200)
    assert [m for m in marches if m and m[1] == 200] == [(9, 200)] * 2
    assert marches.count((27, 25)) == 2


def test_failed_switch_build_falls_back_to_the_seeds(marches, monkeypatch,
                                                     perturbed_product):
    """When the Jacobian built at the coarse solution raises, the coarse
    phase counts as failed: the requested grid solves alone from the
    seeds, building its own Jacobian, and returns the velocities of that
    grid's solve."""
    xs, ys = disk_pairs(16, 1)
    accel = geodesic_accel(perturbed_product.metric)
    jacobian, calls = connect._jacobian, []

    def second_call_raises(*args):
        calls.append(args[-1])
        if len(calls) == 2:
            raise ConjugatePointError("pair(s) [0]: conjugate")
        return jacobian(*args)

    monkeypatch.setattr(connect, "_jacobian", second_call_raises)
    v = connect.solve_two_point(accel, xs, ys, tol=1e-12)
    assert calls[:3] == [50, 50, 400]
    coarse = [(16, 50), (48, 50), (16, 50), (16, 50), (15, 50)]
    assert marches[:6] == coarse + [(16, 400)]
    assert marches[6] == (48, 400)
    assert {steps for _, steps in marches[6:-1]} == {400}
    monkeypatch.setattr(connect, "_jacobian", jacobian)
    alone, _, _ = connect._newton(accel, xs, ys, ys - xs, 400, 1e-12)
    assert np.array_equal(v, alone)


def test_diverged_subset_march_names_the_pair(marches, monkeypatch):
    """Pair 0 starts from its solved velocity and is done at once, so the
    iterate that diverges marches pair 1 alone, as row 0; the error names
    it by its pair index."""
    xs = np.array([[np.pi / 2, 0.0], [np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.3, 1.0], [np.pi / 2 + 0.001, np.pi]])
    accel = geodesic_accel(_round_sphere())
    solved = connect.solve_two_point(accel, xs[:1], ys[:1])
    seeds = np.vstack([solved, ys[1:] - xs[1:]])
    monkeypatch.setattr(connect, "COND_LIMIT", 1e12)
    marches.clear()
    with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=r"^pair\(s\) \[1\]: Newton iterate "
                                    r"diverged"):
        connect._newton(accel, xs, ys, seeds, 400, 1e-10)
    assert marches == [(2, 400), (4, 400), (1, 400)]


def test_empty_connecting_geodesics_batch(stationary_rot):
    assert connecting_geodesics_batch(stationary_rot.metric, np.empty((0, 3)),
                                      np.empty((0, 3))) == []


@pytest.mark.parametrize("call", [
    lambda sc: connecting_geodesics_batch(sc.metric, [], []),
    lambda sc: magnetic_connectors_batch(sc.magnetic, [], [])],
    ids=["connecting_geodesics_batch", "magnetic_connectors_batch"])
def test_an_empty_list_is_not_a_pair(stationary_rot, monkeypatch, call):
    """np.atleast_2d([]) is one point of width zero: solve_two_point
    names its shape before any march."""
    def no_march(*args):
        raise AssertionError("marched")

    monkeypatch.setattr(connect, "integrate_flow_fixed", no_march)
    with pytest.raises(ValueError, match=r"^points of shape \(1, 0\) have "
                                         r"width 0$"):
        call(stationary_rot)


def test_empty_magnetic_connectors_batch(stationary_rot):
    assert magnetic_connectors_batch(stationary_rot.magnetic,
                                     np.empty((0, 2)), np.empty((0, 2))) == []


@pytest.mark.parametrize("call", [
    lambda sc, e3, e2: michel_check_batch(sc.metric, sc.entry_surface,
                                          sc.exit_surface, e3, e3),
    lambda sc, e3, e2: magnetic_michel_batch(sc.magnetic,
                                             sc.spatial_boundary, e2, e2),
    lambda sc, e3, e2: thmmag_verify_batch(sc.stationary, sc.entry_surface,
                                           sc.spatial_boundary, e3, e3),
    lambda sc, e3, e2: linearize_r(MetricFamily(eval=lambda tau: sc.metric),
                                   e3, e3),
    lambda sc, e3, e2: reconstruct_exits(sc.stationary, sc.spatial_boundary,
                                         np.empty(0), e2, e2)],
    ids=["michel_check_batch", "magnetic_michel_batch",
         "thmmag_verify_batch", "linearize_r", "reconstruct_exits"])
def test_empty_identity_batches(stationary_rot, call):
    assert call(stationary_rot, np.empty((0, 3)), np.empty((0, 2))) == []


def _two_of_one(sc, kind):
    """Two rows of a bundled batch of sc, and the second array of that
    batch cut to one row: scattering entries, null pairs, or magnetic
    pairs (x, u_proj) or (x, y)."""
    if kind == "entries":
        xs, bs = map(np.array, zip(*scenarios.scattering_entries(sc, 2, 3)))
    elif kind == "null":
        xs, bs = map(np.array, zip(*scenarios.null_pairs(sc, 2, seed=7)))
    else:
        recs = scenarios.magnetic_pairs(sc, 2, seed=3)
        xs, bs = (np.array([getattr(r, k) for r in recs]) for k in ("x", kind))
    return xs, bs[:1]


@pytest.mark.parametrize("call, kind, message", [
    (lambda sc, a, b: scatter_batch(sc.metric, sc.entry_surface,
                                    sc.exit_surface, a, b),
     "entries", r"directions \(1, 3\) unlike xs \(2, 3\)"),
    (lambda sc, a, b: magnetic_scatter_batch(sc.magnetic,
                                             sc.spatial_boundary, a, b),
     "u_proj", r"directions \(1, 2\) unlike xs \(2, 2\)"),
    (lambda sc, a, b: thmmag_verify_batch(sc.stationary, sc.entry_surface,
                                          sc.spatial_boundary, a, b),
     "entries", r"v_projs \(1, 3\) unlike xs \(2, 3\)"),
    (lambda sc, a, b: michel_check_batch(sc.metric, sc.entry_surface,
                                         sc.exit_surface, a, b),
     "null", r"ys \(1, 3\) unlike xs \(2, 3\)"),
    (lambda sc, a, b: magnetic_michel_batch(sc.magnetic,
                                            sc.spatial_boundary, a, b),
     "y", r"ys \(1, 2\) unlike xs \(2, 2\)"),
    (lambda sc, a, b: reconstruct_exits(sc.stationary, sc.spatial_boundary,
                                        [0.0], a, np.vstack([b, b])),
     "u_proj", r"ts of length 1 for 2 entries")],
    ids=["scatter_batch", "magnetic_scatter_batch", "thmmag_verify_batch",
         "michel_check_batch", "magnetic_michel_batch", "reconstruct_exits"])
def test_mismatched_batches_are_named_before_any_march(
        stationary_rot, monkeypatch, call, kind, message):
    """Each batch entry point checks its rows once, before any stencil or
    march, and names the shapes its caller gave: before, scatter_batch
    broadcast one direction over two entries, and the graph checks named
    the shapes of their merged stencils."""
    a, b = _two_of_one(stationary_rot, kind)

    def no_march(*args):
        raise AssertionError("marched")

    monkeypatch.setattr(geometry, "integrate_flow_to_surface", no_march)
    monkeypatch.setattr(connect, "integrate_flow_fixed", no_march)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(stationary_rot, a, b)


@pytest.fixture
def solves(monkeypatch):
    """Pairs per solve_two_point call, in order."""
    log = []
    solve = connect.solve_two_point

    def counted(accel, xs, ys, *args, **kw):
        log.append(len(xs))
        return solve(accel, xs, ys, *args, **kw)

    for mod in (connect, stationary):
        monkeypatch.setattr(mod, "solve_two_point", counted)
    return log


def test_one_solve_per_graph_check(solves, product_disk, stationary_rot):
    """Each pair and its chart stencil are one batch: 1 + 8 pairs on the
    two-dimensional cylinder charts, 1 + 4 on the boundary circle, and
    a batch of pairs is one solve of all their stencils."""
    pairs = scenarios.null_pairs(product_disk, 2, seed=2)
    michel_check(product_disk.metric, product_disk.entry_surface,
                 product_disk.exit_surface, *pairs[0])
    assert solves == [9]
    solves.clear()
    michel_check_batch(product_disk.metric, product_disk.entry_surface,
                       product_disk.exit_surface, *zip(*pairs))
    assert solves == [18]
    solves.clear()
    stationary.magnetic_michel(stationary_rot.magnetic,
                               stationary_rot.spatial_boundary,
                               np.array([1.0, 0.0]), np.array([-0.6, 0.8]),
                               n_steps=200)
    assert solves == [5]


def test_chart_stencil_merges_the_single_pair_stencils(product_disk):
    """On P pairs, solve sees the P single-pair stencils one after the
    other, and each pair gets its single-pair rows, chart frames and
    quotients bit for bit.  The frames are the cylinder's tangents
    (d_t, d_theta) to the step's truncation and rounding."""
    sc = product_disk
    pairs = scenarios.null_pairs(sc, 3, seed=5)
    seen = []

    def solve(xs, ys):
        seen.append((xs, ys))
        return list(zip(xs, ys))

    def value(row):
        x, y = row
        return float(np.sum(x * x) - np.sum(y * y))

    def stencil(xs, ys):
        return connect._chart_stencil(sc.entry_surface, sc.exit_surface,
                                      np.array(xs), np.array(ys), 1e-5,
                                      solve, value)

    singles = [stencil([x], [y]) for x, y in pairs]
    merged = stencil(*zip(*pairs))
    assert len(seen) == 4 and len(seen[-1][0]) == 3 * 9
    for k in (0, 1):
        assert np.array_equal(seen[-1][k],
                              np.concatenate([rows[k] for rows in seen[:3]]))
    for p, single in enumerate(singles):
        assert np.array_equal(merged[0][p], single[0][0])
        for m, s in zip(merged[1:], single[1:]):
            assert np.array_equal(m[p], s[0])
    for pts, frames in zip(map(np.array, zip(*pairs)), merged[1:3]):
        tangents = np.zeros((3, 3, 2))
        tangents[:, 0, 0] = 1.0
        tangents[:, 1:, 1] = pts[:, 2:0:-1] * [-1.0, 1.0]
        assert np.abs(frames - tangents).max() <= 1e-9


def test_michel_residuals_on_product_disk(product_disk):
    """Six product_disk pairs on the coarse grid of 200 steps: the frames
    come from the stencil's own +-FD_STEP points, so no second chart
    step adds its rounding to the residuals."""
    pairs = scenarios.null_pairs(product_disk, 6, seed=7)
    res = michel_check_batch(product_disk.metric, product_disk.entry_surface,
                             product_disk.exit_surface, *zip(*pairs),
                             n_steps=200)
    assert np.max(res) < 1e-10


def test_michel_check_batch_is_its_pairs_bit_for_bit(stationary_rot):
    """Four of criterion 03's stationary_rot pairs: the batch gives the
    residuals of one michel_check per pair exactly."""
    sc = stationary_rot
    pairs = scenarios.null_pairs(sc, 4, seed=7)
    batch = michel_check_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                               *zip(*pairs), n_steps=200)
    assert batch == [michel_check(sc.metric, sc.entry_surface,
                                  sc.exit_surface, x, y, n_steps=200)
                     for x, y in pairs]


def test_michel_check_requires_a_lightlike_pair(product_disk):
    """Pair 1 has time gap 0.5 across a chord of length 2: r = (4 -
    0.25) / 2."""
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=2)
    with pytest.raises(PreconditionError,
                       match=r"^pair\(s\) \[1\]: not on the lightlike set "
                             r"\(r = \[1\.875"):
        michel_check_batch(product_disk.metric, product_disk.entry_surface,
                           product_disk.exit_surface,
                           [x, [0.0, 1.0, 0.0]], [y, [0.5, -1.0, 0.0]])


def test_linearize_r_solves_each_family_member_once(solves, product_disk):
    """Four pairs: one solve under g_0 and one under each of g_{+-fd_step},
    each of all four pairs, and every report is the pair's batch of one
    bit for bit."""
    pairs = scenarios.null_pairs(product_disk, 4, seed=13)
    xs, ys = np.array(pairs).swapaxes(0, 1)
    fam = scenarios.stretch_family()
    reports = linearize_r(fam, xs, ys, fd_step=1e-4)
    assert solves == [4, 4, 4]
    for x, y, rep in zip(xs, ys, reports):
        assert linearize_r(fam, [x], [y], fd_step=1e-4) == [rep]


def test_linearize_r_requires_lightlike_pairs(product_disk):
    """Pair 1 has time gap 0.5 across a chord of length 2."""
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=4)
    xs = np.array([x, [0.0, 1.0, 0.0]])
    ys = np.array([y, [0.5, -1.0, 0.0]])
    with pytest.raises(PreconditionError,
                       match=r"^pair\(s\) \[1\]: not on the lightlike set"):
        linearize_r(scenarios.stretch_family(), xs, ys)
