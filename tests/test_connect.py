import numpy as np
import pytest

from lorlab import (RIEMANNIAN, ConjugatePointError, ConvergenceError,
                    MetricField, MetricFamily, connecting_geodesic,
                    connecting_geodesics_batch, defining_r, geodesic_accel,
                    linearize_r, magnetic_connectors_batch, michel_check,
                    sigma_detect)
from lorlab import connect, geometry, scenarios, stationary
from lorlab.scenarios import disk_pairs


def test_connector_energy_examples(product_disk):
    g = product_disk.metric
    x = np.array([0.0, -0.5, 0.0])
    timelike = connecting_geodesic(g, x, np.array([2.0, 0.5, 0.0]))
    assert timelike.energy == pytest.approx(-1.5, abs=1e-9)
    assert timelike.causal.tag == "timelike"

    lightlike = connecting_geodesic(g, x, np.array([1.0, 0.5, 0.0]))
    assert lightlike.energy == pytest.approx(0.0, abs=1e-9)

    spacelike = connecting_geodesic(g, x, np.array([0.5, 0.5, 0.0]))
    assert spacelike.energy == pytest.approx(0.375, abs=1e-9)
    assert spacelike.causal.tag == "spacelike"


def test_defining_r_closed_form_grid(product_disk, rng):
    for _ in range(6):
        dx = rng.uniform(-0.8, 0.8, 2)
        dt = rng.uniform(0.1, 1.5)
        x = np.array([0.0, -0.4, 0.1])
        y = np.array([dt, x[1] + dx[0] * 0.5, x[2] + dx[1] * 0.5])
        r = defining_r(product_disk.metric, x, y)
        rho2 = float(((y[1:] - x[1:]) ** 2).sum())
        assert r == pytest.approx(0.5 * (rho2 - dt ** 2), abs=1e-9)


def test_energy_constant_along_connector(product_disk):
    from lorlab import inner
    c = connecting_geodesic(product_disk.metric, np.array([0.0, -0.5, 0.0]),
                            np.array([2.0, 0.5, 0.0]))
    path = c.path
    for idx in (0, len(path.sigma) // 2, -1):
        e = 0.5 * float(inner(product_disk.metric, path.x[idx],
                              path.v[idx], path.v[idx]))
        assert e == pytest.approx(c.energy, abs=1e-8)


def test_sigma_detect(product_disk):
    x = np.array([0.0, -0.5, 0.0])
    assert sigma_detect(product_disk.metric, x, np.array([1.0, 0.5, 0.0]))
    assert not sigma_detect(product_disk.metric, x,
                            np.array([2.0, 0.5, 0.0]))


def test_batch_matches_scalar(product_disk):
    xs = np.array([[0.0, -0.5, 0.0], [0.0, -0.3, 0.2]])
    ys = np.array([[1.2, 0.5, 0.1], [0.8, 0.4, -0.3]])
    batch = connecting_geodesics_batch(product_disk.metric, xs, ys)
    for x, y, c in zip(xs, ys, batch):
        single = connecting_geodesic(product_disk.metric, x, y)
        assert c.energy == pytest.approx(single.energy, abs=1e-10)


def test_michel_residual_small(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=2)
    pos, cov = michel_check(product_disk.metric, product_disk.entry_surface,
                            product_disk.exit_surface, x, y)
    assert pos < 1e-5
    assert cov < 1e-5


def test_linearize_matches_transform(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=4)
    rep = linearize_r(scenarios.stretch_family(), x, y, fd_step=1e-4)
    assert rep.kappa == 0.5
    assert rep.rel_error < 1e-3
    # closed form: r(tau) = ((1 + tau) rho^2 - dt^2) / 2, derivative rho^2/2
    rho2 = float(((y[1:] - x[1:]) ** 2).sum())
    assert rep.fd_value == pytest.approx(0.5 * rho2, rel=1e-6)


def test_linearize_conformal_family_vanishes(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=4)
    rep = linearize_r(scenarios.conformal_family(product_disk.metric), x, y,
                      fd_step=1e-4)
    assert abs(rep.fd_value) < 1e-6
    assert abs(rep.kappa * rep.lrt_value) < 1e-6


def test_elliptic_factor_covariance(product_disk):
    """Multiplying the defining function by a constant kappa multiplies
    its linearization by kappa."""
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=6)
    fam = scenarios.stretch_family()
    base = linearize_r(fam, x, y, fd_step=1e-4)
    taus = np.array([-1e-4, 1e-4])
    kappa = 2.5

    def r_tau(tau):
        from lorlab import defining_r
        return defining_r(fam.eval(tau), x, y)

    fd_scaled = kappa * (r_tau(1e-4) - r_tau(-1e-4)) / 2e-4
    assert fd_scaled == pytest.approx(kappa * base.fd_value, rel=1e-6)


def test_fd_order_of_linearization(product_disk):
    (x, y), = scenarios.null_pairs(product_disk, 1, seed=41)
    rho2 = float(((y[1:] - x[1:]) ** 2).sum())

    def eval_tau(tau):
        from lorlab import MetricField
        from lorlab.geometry import LORENTZIAN
        d = np.array([-1.0, np.exp(tau), np.exp(tau)])
        return MetricField(
            dim=3, signature=LORENTZIAN,
            func=lambda p: np.broadcast_to(np.diag(d),
                                           np.shape(p)[:-1] + (3, 3)),
            dfunc=lambda p: np.zeros(np.shape(p)[:-1] + (3, 3, 3)))

    fam = MetricFamily(eval=eval_tau)
    errs = [abs(linearize_r(fam, x, y, fd_step=h).fd_value - 0.5 * rho2)
            for h in (4e-3, 2e-3)]
    assert np.log2(errs[0] / errs[1]) > 1.8


def _round_sphere():
    """Unit sphere in (polar, azimuth) coordinates."""
    def func(x):
        x = np.asarray(x, float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(x[..., 0]) ** 2
        return g

    return MetricField(dim=2, signature=RIEMANNIAN, func=func)


def test_conjugate_point_error_names_the_pair():
    """Pair 1 ends near the antipode of its start, where the shooting
    Jacobian is close to singular (condition about 160); pair 0 is short
    (condition about 1.2)."""
    xs = np.array([[np.pi / 2, 0.0], [np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.3, 1.0],
                   [np.pi / 2 + 0.02, np.pi - 0.02]])
    with pytest.raises(ConjugatePointError, match=r"^pair\(s\) \[1\]: "):
        connecting_geodesics_batch(_round_sphere(), xs, ys, cond_limit=50.0)


def test_convergence_error_names_the_pair(perturbed_product):
    """Pair 0 starts from its solved velocity, pair 1 from the straight
    line, which one Newton iteration does not bring to the tolerance."""
    g = perturbed_product.metric
    xs = np.array([[0.0, -0.6, 0.2], [0.0, 0.5, -0.5]])
    ys = np.array([[1.0, 0.7, 0.1], [1.2, -0.3, 0.6]])
    solved = connecting_geodesic(g, xs[0], ys[0], tol=1e-12).path.v[0]
    seeds = np.array([solved, ys[1] - xs[1]])
    with pytest.raises(ConvergenceError, match=r"^pair\(s\) \[1\]: "):
        connecting_geodesics_batch(g, xs, ys, seeds=seeds, tol=1e-12,
                                   max_iter=1)


def test_diverged_iterate_names_the_pair():
    """Pair 1 ends a thousandth away from the antipode of its start; its
    first Newton step overshoots so far that the march of the next
    iterate turns non-finite."""
    xs = np.array([[np.pi / 2, 0.0], [np.pi / 2, 0.0]])
    ys = np.array([[np.pi / 2 + 0.3, 1.0],
                   [np.pi / 2 + 0.001, np.pi - 0.001]])
    with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=r"^pair\(s\) \[1\]: Newton iterate "
                                    r"diverged"):
        connecting_geodesics_batch(_round_sphere(), xs, ys, cond_limit=1e12)


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


@pytest.fixture
def marches(monkeypatch):
    """Batch sizes of the fixed-interval marches, in order; each solver
    return appends None."""
    log = []
    march = geometry.integrate_flow_fixed
    solve = connect.solve_two_point

    def counted_march(accel, x0, v0, *args):
        log.append(len(x0))
        return march(accel, x0, v0, *args)

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
    """Straight lines solve product_disk exactly: one march in all.  The
    connectors take their paths from the solver's last march."""
    connecting_geodesics_batch(product_disk.metric,
                               np.array([[0.0, -0.5, 0.0]]),
                               np.array([[1.2, 0.5, 0.1]]))
    assert marches == [1, None]
    marches.clear()
    magnetic_connectors_batch(stationary_rot.magnetic,
                              np.array([[1.0, 0.0], [0.0, 1.0]]),
                              np.array([[-0.6, 0.8], [-0.8, -0.6]]))
    assert marches[-1] is None and marches.count(None) == 1


def test_broyden_updates_replace_jacobian_builds(marches, perturbed_product):
    """The 16 pairs of the CLI connect grid on perturbed_product reach
    1e-12 with one forward-difference Jacobian and at most five residual
    marches; chord iterations with that Jacobian took seven."""
    xs, ys = disk_pairs(16, 1)
    conns = connecting_geodesics_batch(perturbed_product.metric, xs, ys,
                                       tol=1e-12)
    assert marches.count(16 * 3) == 1
    assert marches.count(16) <= 5
    assert marches[-1] is None
    for c in conns:
        assert np.abs(c.path.x[-1] - c.y).max() <= 1e-12
