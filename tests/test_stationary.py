import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from lorlab import (MagneticSystem, PreconditionError, StationaryMetric,
                    boundary_normal_coords, conformal_normalize,
                    connecting_geodesics_batch, curve_flux, defining_r,
                    from_raw, lift_magnetic, lift_residual,
                    linearization_equivalence, magnetic_connector,
                    magnetic_connectors_batch, magnetic_integrate,
                    magnetic_michel, magnetic_michel_batch, magnetic_scatter,
                    project_and_verify, reconstruct_exits,
                    reduced_time_component, scatter, thmmag_verify,
                    thmmag_verify_batch)
from lorlab import acceptance, geometry, scenarios, stationary
from lorlab.fields import CovectorField, ScalarField, _central_jet
from lorlab.gauge import scattering_invariance
from lorlab.geometry import (MetricField, RIEMANNIAN, geodesic_accel, inner,
                             metric_solve)
from lorlab.stationary import magnetic_accel


def flat_h():
    def func(p):
        return np.broadcast_to(np.eye(2), np.shape(p)[:-1] + (2, 2))

    return MetricField(dim=2, signature=RIEMANNIAN, func=func,
                       jetfunc=lambda p: (func(p), np.zeros(
                           np.shape(p)[:-1] + (2, 2, 2))))


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
                              np.array([np.sqrt(1 - 0.25), 0.5]), stop=3.0)
    assert path.speed_drift(stationary_rot.magnetic.base) < 1e-9


def test_action_field_free_diameter(product_disk):
    a = magnetic_connector(product_disk.magnetic, np.array([-1.0, 0.0]),
                           np.array([1.0, 0.0])).action
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
                           stationary_rot.spatial_boundary, x, u)
    res = magnetic_michel(stationary_rot.magnetic,
                          stationary_rot.spatial_boundary, x, rec.y)
    assert max(res) < 1e-5


def test_magnetic_michel_batch_is_its_pairs_bit_for_bit(stationary_rot):
    """Four of criterion 08's stationary_rot pairs: the batch gives the
    residuals of one magnetic_michel per pair exactly."""
    sc = stationary_rot
    recs = scenarios.magnetic_pairs(sc, 4, seed=29)
    xs, ys = [r.x for r in recs], [r.y for r in recs]
    batch = magnetic_michel_batch(sc.magnetic, sc.spatial_boundary, xs, ys,
                                  n_steps=200)
    assert batch == [magnetic_michel(sc.magnetic, sc.spatial_boundary, x, y,
                                     n_steps=200) for x, y in zip(xs, ys)]


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


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_lifted_time_is_closed_form_on_circles(stationary_rot, k):
    """On stationary_rot a unit-speed magnetic geodesic is a circle of
    radius 1/B with its centre left of the motion, so the lifted time is
    t0 + sigma - flux(sigma) at every sample.  Adding d(k x_0 x_1) to
    omega keeps the circle and subtracts k x_0 x_1 - k x_0(0) x_1(0):
    its symmetric Jacobian exercises the x'^T (d omega) x' term of t''."""
    B = stationary_rot.params["B"]
    R = 1.0 / B
    m = stationary_rot.stationary
    om = m.omega
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    gauged = dataclasses.replace(m, omega=CovectorField(
        dim=2, func=lambda p: om(p) + k * np.asarray(p)[..., ::-1],
        jac=lambda p: om.jacobian(p) + k * swap))
    (x, u), = scenarios.magnetic_entries(stationary_rot, 1, seed=7)
    path = magnetic_scatter(stationary_rot.magnetic,
                            stationary_rot.spatial_boundary, x, u).path
    x0, v0 = path.x[0], path.v[0]
    c = x0 + R * np.array([-v0[1], v0[0]])
    phi0 = np.arctan2(x0[1] - c[1], x0[0] - c[0])
    phi = phi0 + path.sigma / R
    flux = 0.5 * B * (R * R * (phi - phi0)
                      + R * (c[0] * (np.sin(phi) - np.sin(phi0))
                             - c[1] * (np.cos(phi) - np.cos(phi0))))
    want = (0.3 + path.sigma - flux
            - k * (path.x[:, 0] * path.x[:, 1] - x0[0] * x0[1]))
    lifted = lift_magnetic(gauged, path, t0=0.3)
    assert len(path.sigma) > 1000
    assert np.abs(lifted.x[:, 0] - want).max() < 1e-10


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


def _bit_equal(a, b):
    """Dataclasses field by field, arrays and numbers exactly."""
    if dataclasses.is_dataclass(a):
        return all(_bit_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return np.array_equal(a, b)


def test_thmmag_verify_batch_is_its_entries_bit_for_bit(monkeypatch,
                                                        stationary_rot):
    """Four of criterion 07's entries: one scatter_batch, one
    magnetic_scatter_batch and one magnetic_connectors_batch of all
    four, and every report, records and paths included, is the entry's
    thmmag_verify exactly."""
    sc = stationary_rot
    xs, vs = map(np.array, zip(*scenarios.scattering_entries(sc, 4, seed=23)))
    calls = []

    def logged(name, f):
        def call(*args, **kw):
            out = f(*args, **kw)
            calls.append((name, len(out)))
            return out
        return call

    for name in ("scatter_batch", "magnetic_scatter_batch",
                 "magnetic_connectors_batch"):
        monkeypatch.setattr(stationary, name,
                            logged(name, getattr(stationary, name)))
    batch = thmmag_verify_batch(sc.stationary, sc.entry_surface,
                                sc.spatial_boundary, xs, vs)
    assert calls == [("scatter_batch", 4), ("magnetic_scatter_batch", 4),
                     ("magnetic_connectors_batch", 4)]
    for x, v, rep in zip(xs, vs, batch):
        assert _bit_equal(rep, thmmag_verify(sc.stationary, sc.entry_surface,
                                             sc.spatial_boundary, x, v))


def test_thmmag_verify_batch_names_entries_without_positive_time_component(
        stationary_rot):
    sc = stationary_rot
    (x0, v0), (x1, v1) = scenarios.scattering_entries(sc, 2, seed=23)
    with pytest.raises(PreconditionError, match=r"^entries \[1\]: reduced "
                       r"time component not positive$"):
        thmmag_verify_batch(sc.stationary, sc.entry_surface,
                            sc.spatial_boundary, [x0, x1], [v0, -v1])


def test_reconstruct_exit_round_trip(stationary_rot):
    (x, v), = scenarios.scattering_entries(stationary_rot, 1, seed=10)
    k = reduced_time_component(stationary_rot.stationary, x[1:], v)
    vn = v / k
    rec = scatter(stationary_rot.metric, stationary_rot.entry_surface,
                  stationary_rot.exit_surface, x, vn)
    ((y_rec, w_rec),) = reconstruct_exits(stationary_rot.stationary,
                                          stationary_rot.spatial_boundary,
                                          [float(x[0])], [x[1:]], [vn[1:]])
    assert np.allclose(y_rec, rec.y, atol=1e-5)
    assert np.allclose(w_rec, rec.w_proj, atol=1e-5)


def test_reconstruct_exits_is_the_per_entry_reconstruction(stationary_rot):
    """One batched magnetic scatter and one batched action solve give each
    entry's batch-of-one reconstruction bit for bit."""
    sc = stationary_rot
    xs, us = map(np.array, zip(*scenarios.magnetic_entries(sc, 2, seed=5)))
    ts = [0.1, -0.2]
    batch = reconstruct_exits(sc.stationary, sc.spatial_boundary, ts, xs, us)
    for t, x, u, (y, w) in zip(ts, xs, us, batch):
        ((y1, w1),) = reconstruct_exits(sc.stationary, sc.spatial_boundary,
                                        [t], [x], [u])
        assert np.array_equal(y, y1) and np.array_equal(w, w1)


def test_reconstruct_exits_solves_the_actions_once(stationary_rot,
                                                   monkeypatch):
    """Three entries: the three actions come from one
    magnetic_connectors_batch solve."""
    sc = stationary_rot
    xs, us = map(np.array, zip(*scenarios.magnetic_entries(sc, 3, seed=5)))
    solves = []
    solve = stationary.solve_two_point

    def counted_solve(*args, **kw):
        solves.append(len(args[1]))
        return solve(*args, **kw)

    monkeypatch.setattr(stationary, "solve_two_point", counted_solve)
    reconstruct_exits(sc.stationary, sc.spatial_boundary, [0.0] * 3, xs, us)
    assert solves == [3]


def test_energy_identity_along_projected_connector(stationary_rot):
    """r equals half of L^2 - (dt + flux)^2 with the h-length and the
    flux taken along the spatial projection of the connector."""
    xsp = np.array([1.0, 0.0])
    ysp = np.array([-12.0 / 13.0, -5.0 / 13.0])
    dts = (0.2, 1.5, 2.4)
    conns = connecting_geodesics_batch(
        stationary_rot.metric, [[0.0, *xsp]] * 3,
        [[dt, *ysp] for dt in dts], tol=1e-12)
    for dt, conn in zip(dts, conns):
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
    dts = conn.action + np.array([-0.05, 0.05])
    r = defining_r(stationary_rot.metric, [[0.0, *xsp]] * 2,
                   [[dt, *ysp] for dt in dts])
    assert np.array_equal(np.sign(r), np.sign(conn.action - dts))


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
                              np.array([1.0, 0.0]), stop=2.0)
    assert curve_flux(om, path) == pytest.approx(1.0, abs=1e-10)


def test_perturbed_product_base_partials(perturbed_product, rng):
    """Analytic partials of the base metric h = c(x) I on a batch of four
    points against central differences."""
    from lorlab.fields import _central_diff
    h = perturbed_product.magnetic.base
    pts = rng.uniform(-0.7, 0.7, (4, 2))
    dh = h.jet(pts)[1]
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
    y = magnetic_scatter(sr.magnetic, sr.spatial_boundary, x, u).y
    dh, dom = scenarios.equivalence_fields()
    (conn,) = magnetic_connectors_batch(sr.magnetic, [x], [y], n_steps=200)
    eq = linearization_equivalence(sr.stationary, dh, dom, conn)
    target = 2.0 * eq.length * eq.magnetic_value
    assert abs(eq.lorentzian_value - target) / abs(target) <= 1e-10


def test_equivalence_records_solve_each_connector_once(stationary_rot,
                                                       monkeypatch):
    """Two pairs and two perturbations: one connector solve of both pairs
    serves all four records, which match linearization_equivalence over
    each pair's batch-of-one connector to the solver tolerance."""
    sr = stationary_rot
    pairs = [(r.x, r.y) for r in scenarios.magnetic_pairs(sr, 2, seed=31)]
    dh, dom = scenarios.equivalence_fields()
    perturbations = [(dh, dom), (dh, CovectorField.zero(2))]
    solves = []
    solve = stationary.solve_two_point

    def counted_solve(*args, **kw):
        solves.append(len(args[1]))
        return solve(*args, **kw)

    monkeypatch.setattr(stationary, "solve_two_point", counted_solve)
    recs = acceptance.equivalence_records(sr.stationary, perturbations,
                                          pairs, n_steps=200)
    assert solves == [2]
    assert len(recs) == 4
    for rec, ((x, y), (dh_k, dom_k)) in zip(
            recs, [(p, q) for q in perturbations for p in pairs]):
        (conn,) = magnetic_connectors_batch(sr.magnetic, [x], [y],
                                            n_steps=200)
        eq = linearization_equivalence(sr.stationary, dh_k, dom_k, conn)
        assert np.array_equal(rec["x"], x) and np.array_equal(rec["y"], y)
        assert rec["lorentzian"] == pytest.approx(eq.lorentzian_value,
                                                  rel=1e-8)
        assert rec["magnetic"] == pytest.approx(eq.magnetic_value, rel=1e-8)


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
    and each of their derivatives exactly once, and h with its partials
    in one jet call and never through its func, with and without the
    metric check."""
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
                         jetfunc=counted("h jet", m0.base.jetfunc)))
    rng = np.random.default_rng(43)
    x = rng.uniform(-0.5, 0.5, (4, 3))
    v = rng.uniform(-1.0, 1.0, (4, 3))
    a = geodesic_accel(m.assembled)(x, v, check=check)
    assert np.array_equal(a, geodesic_accel(stationary_rot.metric)(x, v))
    assert calls.pop("h") == 0
    assert calls == dict.fromkeys(calls, 1)


def test_assembled_jet_with_varying_fields(perturbed_product, rng):
    """The product-rule partials of lam (diag(0, h) - a a^T), a = (1,
    omega), with lam, omega and h all non-constant, against central
    differences of the assembled matrix, on a batch of 8 points and on
    the same points as a (2, 4) grid."""
    m = StationaryMetric(
        lam=ScalarField(
            func=lambda p: 1.0 + 0.2 * np.sin(p[..., 0]) * np.cos(p[..., 1]),
            grad=lambda p: 0.2 * np.stack(
                [np.cos(p[..., 0]) * np.cos(p[..., 1]),
                 -np.sin(p[..., 0]) * np.sin(p[..., 1])], axis=-1)),
        omega=CovectorField(
            dim=2,
            func=lambda p: np.stack([0.3 * p[..., 1] ** 2,
                                     0.1 * np.sin(p[..., 0])], axis=-1),
            jac=lambda p: np.stack(
                [np.stack([0.0 * p[..., 0], 0.1 * np.cos(p[..., 0])], -1),
                 np.stack([0.6 * p[..., 1], 0.0 * p[..., 0]], -1)], -2)),
        base=perturbed_product.stationary.base)
    g = m.assembled
    x = rng.uniform(-0.6, 0.6, (8, 3))
    for pts in (x, x.reshape(2, 4, 3)):
        gm, dg = g.jet(pts)
        assert gm.shape == pts.shape[:-1] + (3, 3)
        assert dg.shape == pts.shape[:-1] + (3, 3, 3)
        fd_g, fd_dg = _central_jet(g.func, pts, (3, 3))
        assert np.array_equal(gm, fd_g)
        assert np.abs(dg - fd_dg).max() <= 1e-8


def test_magnetic_accel_closed_form(stationary_rot, monkeypatch):
    """On the flat disk with d omega = B dx^dy the acceleration is the
    velocity turned a quarter and scaled by B, and by |u| more with the
    speed factor; each call solves h once."""
    solves = []

    def counted(gm, rhs):
        solves.append(len(rhs))
        return metric_solve(gm, rhs)

    for mod in (stationary, geometry):
        monkeypatch.setattr(mod, "metric_solve", counted)
    B = stationary_rot.params["B"]
    rng = np.random.default_rng(47)
    x = rng.uniform(-0.6, 0.6, (6, 2))
    u = rng.uniform(-1.0, 1.0, (6, 2))
    turned = B * np.column_stack([-u[:, 1], u[:, 0]])
    a = magnetic_accel(stationary_rot.magnetic)(x, u)
    assert np.abs(a - turned).max() <= 1e-13
    a = magnetic_accel(stationary_rot.magnetic, speed_from_velocity=True)(x, u)
    assert np.abs(a - np.linalg.norm(u, axis=1)[:, None] * turned).max() \
        <= 1e-13
    assert solves == [6, 6]
