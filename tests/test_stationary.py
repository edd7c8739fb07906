import numpy as np
import pytest
from scipy.integrate import simpson

from lorlab import (MagneticSystem, StationaryMetric, action_A,
                    boundary_normal_coords, conformal_normalize,
                    connecting_geodesic, curve_flux, from_raw, lift_magnetic,
                    lift_residual, linearization_equivalence,
                    magnetic_connector, magnetic_integrate,
                    magnetic_michel, magnetic_scatter, project_and_verify,
                    reconstruct_exit, reconstruct_exits,
                    reduced_time_component, scatter, thmmag_verify)
from lorlab import scenarios
from lorlab.fields import CovectorField, ScalarField
from lorlab.gauge import scattering_invariance
from lorlab.geometry import MetricField, RIEMANNIAN, geodesic_accel, inner


def flat_h():
    return MetricField(dim=2, signature=RIEMANNIAN,
                       func=lambda p: np.broadcast_to(
                           np.eye(2), np.shape(p)[:-1] + (2, 2)),
                       dfunc=lambda p: np.zeros(np.shape(p)[:-1] + (2, 2, 2)))


def test_assembled_blocks(rng):
    om = CovectorField(dim=2,
                       func=lambda p: np.broadcast_to(np.array([0.3, 0.0]),
                                                      np.shape(p)))
    m = StationaryMetric(lam=ScalarField.constant(1.0), omega=om,
                         base=flat_h())
    x = np.array([0.1, 0.2, -0.3])
    gm = m.assembled.matrix(x)
    w = np.array([0.3, 0.0])
    expected = np.zeros((3, 3))
    expected[0, 0] = -1.0
    expected[0, 1:] = expected[1:, 0] = -w
    expected[1:, 1:] = np.eye(2) - np.outer(w, w)
    assert np.abs(gm - expected).max() < 1e-14


def test_from_raw_round_trip(stationary_rot, rng):
    m = stationary_rot.stationary
    rebuilt = from_raw(m.assembled)
    pts = rng.uniform(-0.7, 0.7, (100, 2))
    assert np.abs(rebuilt.lam(pts) - m.lam(pts)).max() < 1e-12
    assert np.abs(rebuilt.omega(pts) - m.omega(pts)).max() < 1e-12
    assert np.abs(rebuilt.base.matrix(pts) - m.base.matrix(pts)).max() < 1e-12


def test_from_raw_unit_lapse_formulas(rng):
    """For lambda = 1 the recovered one-form is minus the raw shift and
    the recovered base is the raw spatial block plus its square."""
    omt = np.array([0.25, -0.1])

    def func(x):
        g = np.zeros(np.shape(x)[:-1] + (3, 3))
        g[..., 0, 0] = -1.0
        g[..., 0, 1:] = g[..., 1:, 0] = omt
        g[..., 1:, 1:] = np.eye(2)
        return g

    from lorlab.geometry import LORENTZIAN
    rebuilt = from_raw(MetricField(dim=3, signature=LORENTZIAN, func=func))
    pts = rng.uniform(-0.5, 0.5, (10, 2))
    assert np.abs(rebuilt.omega(pts) - (-omt)).max() < 1e-12
    assert np.abs(rebuilt.base.matrix(pts)
                  - (np.eye(2) + np.outer(omt, omt))).max() < 1e-12


def test_lorentz_force_rotation_form(stationary_rot):
    """For omega = (B/2)(x dy - y dx) the force is the velocity rotated a
    quarter turn and scaled by B."""
    mag = stationary_rot.magnetic
    B = stationary_rot.params["B"]
    u = np.array([0.3, 0.7])
    force = mag.lorentz_force(np.array([0.2, -0.1]), u)
    assert np.allclose(force, B * np.array([-u[1], u[0]]), atol=1e-12)
    h = mag.base.matrix(np.zeros(2))
    assert abs(force @ h @ u) < 1e-12


def test_closed_form_has_no_force():
    phi = lambda p: np.asarray(p, float)[..., 0] ** 2
    om = CovectorField(dim=2, func=lambda p: np.stack(
        [2.0 * np.asarray(p, float)[..., 0],
         np.zeros(np.shape(p)[:-1])], axis=-1))
    mag = MagneticSystem(base=flat_h(), omega=om)
    assert np.abs(mag.lorentz_force(np.array([0.3, 0.1]),
                                    np.array([0.4, -0.6]))).max() < 1e-10


def test_magnetic_arc_against_circle_geometry(stationary_rot):
    """Constant field B = 0.2 on the flat disk: trajectories are circles
    of radius 5.  Radial entry at (1, 0) exits where the radius-5 circle
    about (1, -5) meets the unit circle again, at arc length 5 times the
    swept angle."""
    rec = magnetic_scatter(stationary_rot.magnetic,
                           stationary_rot.spatial_boundary,
                           np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert np.allclose(rec.y, [-12.0 / 13.0, -5.0 / 13.0], atol=1e-8)
    assert rec.length == pytest.approx(5.0 * np.arccos(12.0 / 13.0),
                                       abs=1e-8)
    assert rec.path.speed_drift(stationary_rot.magnetic.base) < 1e-9


def test_magnetic_speed_drift_long_run(stationary_rot):
    path = magnetic_integrate(stationary_rot.magnetic,
                              np.array([-0.9, 0.0]),
                              np.array([np.sqrt(1 - 0.25), 0.5]), stop=3.0,
                              step=1e-3)
    assert path.speed_drift(stationary_rot.magnetic.base) < 1e-9


def test_action_field_free_diameter(product_disk):
    a = action_A(product_disk.magnetic, np.array([-1.0, 0.0]),
                 np.array([1.0, 0.0]))
    assert a == pytest.approx(2.0, abs=1e-8)


def test_action_reversal_asymmetry(stationary_rot):
    """Traversing a connector backwards flips the sign of the flux, so
    the two directions of the action differ by twice the flux; with a
    field present the action is genuinely direction-dependent."""
    from lorlab import GeodesicPath
    x = np.array([1.0, 0.0])
    y = np.array([-12.0 / 13.0, -5.0 / 13.0])
    conn = magnetic_connector(stationary_rot.magnetic, x, y)
    p = conn.path
    reverse = GeodesicPath(sigma=p.sigma, x=p.x[::-1], v=-p.v[::-1],
                           speed_squared=p.speed_squared)
    flux_rev = curve_flux(stationary_rot.magnetic.omega, reverse)
    assert flux_rev == pytest.approx(-conn.flux, abs=1e-10)
    action_rev = conn.length - flux_rev
    assert action_rev - conn.action == pytest.approx(2.0 * conn.flux,
                                                     abs=1e-10)
    assert abs(action_rev - conn.action) > 1e-3


def test_magnetic_michel_residuals(stationary_rot):
    (x, u), = scenarios.magnetic_entries(stationary_rot, 1, seed=3)
    rec = magnetic_scatter(stationary_rot.magnetic,
                           stationary_rot.spatial_boundary, x, u,
                           keep_path=False)
    res = magnetic_michel(stationary_rot.magnetic,
                          stationary_rot.spatial_boundary, x, rec.y)
    assert max(res) < 1e-5


def test_projection_of_lightlike_geodesics(stationary_rot):
    (x, v), = scenarios.scattering_entries(stationary_rot, 1, seed=6)
    rec = scatter(stationary_rot.metric, stationary_rot.entry_surface,
                  stationary_rot.exit_surface, x, v)
    chk = project_and_verify(stationary_rot.stationary, rec.path)
    assert chk.ode_residual < 1e-6
    assert chk.k_drift < 1e-7
    assert chk.speed_identity_residual < 1e-8


def test_lift_of_magnetic_geodesic(stationary_rot):
    (x, u), = scenarios.magnetic_entries(stationary_rot, 1, seed=7)
    rec = magnetic_scatter(stationary_rot.magnetic,
                           stationary_rot.spatial_boundary, x, u)
    lifted = lift_magnetic(stationary_rot.stationary, rec.path, t0=0.3)
    assert abs(lifted.speed_squared) < 1e-10
    assert lift_residual(stationary_rot.stationary, lifted) < 1e-8
    # exit time = t0 + length - flux = t0 + action
    assert lifted.x[-1, 0] == pytest.approx(0.3 + rec.action, abs=1e-8)


def test_reduced_time_component(stationary_rot):
    m = stationary_rot.stationary
    xsp = np.array([0.4, -0.2])
    v = np.array([0.7, 0.5, -0.3])
    expected = v[0] + float(m.omega(xsp) @ v[1:])
    assert reduced_time_component(m, xsp, v) == pytest.approx(expected,
                                                              abs=1e-14)


def test_thmmag_product_metric(product_disk):
    (x, v), = scenarios.scattering_entries(product_disk, 1, seed=9)
    rep = thmmag_verify(product_disk.stationary, product_disk.entry_surface,
                        product_disk.spatial_boundary, x, v)
    for res in (rep.endpoint_residual, rep.exit_residual,
                rep.length_residual, rep.action_residual,
                rep.exit_time_component_residual):
        assert res < 1e-8
    # without a one-form the action, the length, and the time lapse agree
    assert rep.magnetic_record.action == pytest.approx(
        rep.magnetic_record.length, abs=1e-12)
    assert rep.record.y[0] - rep.record.x[0] == pytest.approx(
        rep.magnetic_record.length, abs=1e-6)


def test_reconstruct_exit_round_trip(stationary_rot):
    (x, v), = scenarios.scattering_entries(stationary_rot, 1, seed=10)
    k = reduced_time_component(stationary_rot.stationary, x[1:], v)
    vn = v / k
    rec = scatter(stationary_rot.metric, stationary_rot.entry_surface,
                  stationary_rot.exit_surface, x, vn, keep_path=False)
    y_rec, w_rec = reconstruct_exit(stationary_rot.stationary,
                                    stationary_rot.spatial_boundary,
                                    float(x[0]), x[1:], vn[1:])
    assert np.allclose(y_rec, rec.y, atol=1e-5)
    assert np.allclose(w_rec, rec.w_proj, atol=1e-5)


def test_reconstruct_exits_is_the_per_entry_reconstruction(stationary_rot):
    """One batched magnetic scatter gives each entry's single
    reconstruction bit for bit."""
    sc = stationary_rot
    xs, us = map(np.array, zip(*scenarios.magnetic_entries(sc, 2, seed=5)))
    ts = [0.1, -0.2]
    batch = reconstruct_exits(sc.stationary, sc.spatial_boundary, ts, xs, us)
    for t, x, u, (y, w) in zip(ts, xs, us, batch):
        y1, w1 = reconstruct_exit(sc.stationary, sc.spatial_boundary, t, x, u)
        assert np.array_equal(y, y1) and np.array_equal(w, w1)


def test_energy_identity_along_projected_connector(stationary_rot):
    """r equals half of L^2 - (dt + flux)^2 with the h-length and the
    flux taken along the spatial projection of the connector."""
    xsp = np.array([1.0, 0.0])
    ysp = np.array([-12.0 / 13.0, -5.0 / 13.0])
    for dt in (0.2, 1.5, 2.4):
        conn = connecting_geodesic(stationary_rot.metric,
                                   np.array([0.0, *xsp]),
                                   np.array([dt, *ysp]), tol=1e-12)
        p = conn.path
        zdot = p.v[:, 1:]
        length = simpson(np.sqrt(np.einsum("mi,mi->m", zdot, zdot)),
                         x=p.sigma)
        flux = simpson(np.einsum("mi,mi->m",
                                 stationary_rot.magnetic.omega(p.x[:, 1:]),
                                 zdot), x=p.sigma)
        rhs = 0.5 * (length ** 2 - (dt + flux) ** 2)
        assert conn.energy == pytest.approx(rhs, rel=1e-6)


def test_sign_of_r_near_lightlike_locus(stationary_rot):
    """Near the lightlike set the sign of r agrees with the sign of
    A - (s - t): earlier exit times give spacelike separation."""
    xsp = np.array([1.0, 0.0])
    ysp = np.array([-12.0 / 13.0, -5.0 / 13.0])
    conn = magnetic_connector(stationary_rot.magnetic, xsp, ysp)
    dt_null = conn.action
    for eps in (-0.05, 0.05):
        dt = dt_null + eps
        c = connecting_geodesic(stationary_rot.metric, np.array([0.0, *xsp]),
                                np.array([dt, *ysp]), tol=1e-12)
        assert np.sign(c.energy) == np.sign(conn.action - dt)


def test_conformal_normalize_preserves_scattering(product_disk):
    lam = ScalarField(func=lambda p: 1.0 + 0.5 * np.exp(
        -np.einsum("...i,...i->...", np.asarray(p, float),
                   np.asarray(p, float))), positive=True)
    m = StationaryMetric(lam=lam, omega=CovectorField.zero(2), base=flat_h())
    normalized = conformal_normalize(m)
    assert np.abs(normalized.lam(np.zeros((4, 2))) - 1.0).max() < 1e-14
    entries = scenarios.scattering_entries(product_disk, 5, seed=14)
    dev = scattering_invariance(m.assembled, normalized.assembled,
                                product_disk.entry_surface,
                                product_disk.exit_surface, entries)
    assert dev < 1e-6


def test_boundary_normal_coords_quadratic():
    """omega = x_n dx_n gives phi = x_n^2 / 2 and a fully gauged form."""
    om = CovectorField(dim=2, func=lambda p: np.stack(
        [np.zeros(np.shape(p)[:-1]), np.asarray(p, float)[..., 1]], axis=-1))
    phi, gauged = boundary_normal_coords(om)
    pts = np.array([[0.3, 0.5], [1.0, 0.2], [-0.4, 0.0]])
    assert np.abs(phi(pts) - 0.5 * pts[:, 1] ** 2).max() < 1e-12
    assert np.abs(gauged(pts)).max() < 1e-8


def test_curve_flux_constant_form(product_disk):
    om = CovectorField(dim=2,
                       func=lambda p: np.broadcast_to(np.array([0.5, 0.0]),
                                                      np.shape(p)))
    path = magnetic_integrate(product_disk.magnetic, np.array([-1.0, 0.0]),
                              np.array([1.0, 0.0]), stop=2.0, step=1e-3)
    assert curve_flux(om, path) == pytest.approx(1.0, abs=1e-10)


def test_perturbed_product_base_partials(perturbed_product, rng):
    """Analytic partials of the base metric h = c(x) I on a batch of four
    points against central differences."""
    from lorlab.fields import _central_diff
    h = perturbed_product.magnetic.base
    pts = rng.uniform(-0.7, 0.7, (4, 2))
    dh = h.partials(pts)
    assert dh.shape == (4, 2, 2, 2)
    assert np.abs(dh - _central_diff(h.func, pts, (2, 2))).max() < 1e-9


def test_linearized_transforms_differ_by_2l(stationary_rot):
    """The Lorentzian transform is 2 l times the magnetic one, l the
    length of the base connector.

    The lifted connector is parametrized on [0, 1], so it has base speed
    l and its transform is l times the integral of f over the arc-length
    lift gamma = (t, x).  On that lift dt + omega(x') = |x'|_h = 1, so the
    variation f of -(dt + omega)^2 + h gives f(gamma', gamma') =
    dh(x', x') - 2 dom(x'), twice the integrand of the magnetic transform
    of (dh / 2, -dom).  Hence lor = 2 l mag.  (Criterion 09 states 2 l^2
    and keeps failing until the paper's convention is settled.)"""
    sr = stationary_rot
    (x, u), = scenarios.magnetic_entries(sr, 1, seed=31)
    y = magnetic_scatter(sr.magnetic, sr.spatial_boundary, x, u,
                         keep_path=False).y
    dh, dom = scenarios.equivalence_fields()
    eq = linearization_equivalence(sr.stationary, dh, dom, x, y,
                                   n_steps=200)
    target = 2.0 * eq.length * eq.magnetic_value
    assert abs(eq.lorentzian_value - target) / abs(target) <= 1e-10


def test_stationary_accel_closed_form(stationary_rot):
    """On -(dt + omega)^2 + |dx|^2 with d omega = B dx^dy, a lightlike
    geodesic with v = (t', u) carries the conserved charge
    k = t' + omega(u), its spatial part obeys x'' = k B (-u_y, u_x), and
    the t equation d/ds (t' + omega(x')) = 0 gives
    t'' = -(d_i omega_j u^i u^j + omega . x''_spatial)."""
    B = stationary_rot.params["B"]
    om = stationary_rot.stationary.omega
    rng = np.random.default_rng(41)
    x = rng.uniform(-0.6, 0.6, (6, 3))
    u = rng.uniform(-1.0, 1.0, (6, 2))
    w = om(x[:, 1:])
    k = np.linalg.norm(u, axis=1)              # future-pointing: k = |u|
    v = np.column_stack([k - np.einsum("bi,bi->b", w, u), u])
    assert np.abs(inner(stationary_rot.metric, x, v, v)).max() <= 1e-14
    a = geodesic_accel(stationary_rot.metric)(x, v)
    spatial = (k * B)[:, None] * np.column_stack([-u[:, 1], u[:, 0]])
    time = -(np.einsum("bij,bi,bj->b", om.jacobian(x[:, 1:]), u, u)
             + np.einsum("bi,bi->b", w, spatial))
    assert np.abs(a[:, 1:] - spatial).max() <= 1e-13
    assert np.abs(a[:, 0] - time).max() <= 1e-13


@pytest.mark.parametrize("check", [True, False])
def test_stationary_accel_evaluates_each_field_once(stationary_rot, check):
    """One acceleration call on the assembled metric evaluates lam, omega
    and h, and each of their derivatives, exactly once, with and without
    the metric check."""
    m0 = stationary_rot.stationary
    calls = {}

    def counted(name, f):
        calls[name] = 0

        def wrapped(p):
            calls[name] += 1
            return f(p)
        return wrapped

    m = StationaryMetric(
        lam=ScalarField(func=counted("lam", m0.lam.func),
                        grad=counted("dlam", m0.lam.grad),
                        positive=m0.lam.positive),
        omega=CovectorField(dim=2, func=counted("omega", m0.omega.func),
                            jac=counted("domega", m0.omega.jac)),
        base=MetricField(dim=2, signature=RIEMANNIAN,
                         func=counted("h", m0.base.func),
                         dfunc=counted("dh", m0.base.dfunc)))
    rng = np.random.default_rng(43)
    x = rng.uniform(-0.5, 0.5, (4, 3))
    v = rng.uniform(-1.0, 1.0, (4, 3))
    a = geodesic_accel(m.assembled)(x, v, check=check)
    assert np.array_equal(a, geodesic_accel(stationary_rot.metric)(x, v))
    assert calls == dict.fromkeys(calls, 1)
