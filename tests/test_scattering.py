import dataclasses

import numpy as np
import pytest

from lorlab import (LORENTZIAN, TIME_COMPONENT, UNIT_INDUCED,
                    ChartDomainError, EscapeError, MetricField, NoLiftError,
                    NotPositiveDefiniteError, PreconditionError,
                    SignatureError, SingularMetricError, TangencyError,
                    connecting_geodesics_batch, inner, magnetic_scatter,
                    magnetic_scatter_batch, normalize, scatter, scatter_batch)
from lorlab import geometry, scenarios
from lorlab.fields import ScalarField
from lorlab.gauge import scale_metric


def test_slab_straight_line_exit(slab):
    x = np.array([0.0, 0.2, -0.1])
    v_proj = np.array([0.0, 0.6, 0.0])
    rec = scatter(slab.metric, slab.entry_surface, slab.exit_surface, x,
                  v_proj)
    # lightlike completion has v_t = |v_spatial| = 0.6, so the exit point
    # is x + v / v_t evaluated at t = 1
    assert np.allclose(rec.y, [1.0, 1.2, -0.1], atol=1e-9)
    assert rec.travel == pytest.approx(1.0 / 0.6, abs=1e-8)
    assert abs(inner(slab.metric, rec.y, rec.w_proj + (rec.w_proj * 0),
                     rec.w_proj)) >= 0.0   # projection well-defined


def test_disk_chord_closed_form(product_disk):
    """Straight lightlike chords of the product cylinder: entry at angle
    zero with tangential fraction b exits where the line meets the unit
    circle again."""
    th = 0.0
    b = 0.4
    a = np.sqrt(1.0 - b * b)
    x = np.array([0.3, np.cos(th), np.sin(th)])
    tang = np.array([-np.sin(th), np.cos(th)])
    nu_out = np.array([np.cos(th), np.sin(th)])
    v_proj = np.array([1.0, b * tang[0], b * tang[1]])
    rec = scatter(product_disk.metric, product_disk.entry_surface,
                  product_disk.exit_surface, x, v_proj)
    d = b * tang - a * nu_out
    # line p(s) = x_sp + s d, |p| = 1 again at s = 2a (chord length)
    y_sp = x[1:] + 2.0 * a * d
    assert np.allclose(rec.y[1:], y_sp, atol=1e-8)
    assert rec.y[0] == pytest.approx(x[0] + 2.0 * a, abs=1e-8)
    assert rec.travel == pytest.approx(2.0 * a, abs=1e-8)


def test_scatter_homogeneity(product_disk):
    x = np.array([0.0, 1.0, 0.0])
    v_proj = np.array([1.0, 0.0, 0.3])
    base = scatter(product_disk.metric, product_disk.entry_surface,
                   product_disk.exit_surface, x, v_proj)
    for a in (0.5, 2.0, 10.0):
        rec = scatter(product_disk.metric, product_disk.entry_surface,
                      product_disk.exit_surface, x, a * v_proj)
        assert np.allclose(rec.y, base.y, atol=1e-8)
        assert np.allclose(rec.w_proj, a * base.w_proj, rtol=1e-8,
                           atol=1e-10)


def test_scatter_straight_line_to_cylinder(product_disk):
    """The entry (0, -1, 0) with projection (1, 0, 0) completes to the
    lightlike (1, 1, 0), a straight chord along the diameter."""
    rec = scatter(product_disk.metric, product_disk.entry_surface,
                  product_disk.exit_surface, np.array([0.0, -1.0, 0.0]),
                  np.array([1.0, 0.0, 0.0]))
    assert np.allclose(rec.path.v[0], [1.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(rec.y, [2.0, 1.0, 0.0], atol=1e-9)
    assert np.allclose(rec.path.v[-1], [1.0, 1.0, 0.0], atol=1e-9)
    assert rec.travel == pytest.approx(2.0, abs=1e-9)


def test_scatter_travel_homogeneity(product_disk):
    """Scaling the projected entry by a scales its completion (1, 0.8,
    0.6) by a: the exit stays and the travel scales by 1/a."""
    x = np.array([0.0, -1.0, 0.0])
    v_proj = np.array([1.0, 0.0, 0.6])
    base = scatter(product_disk.metric, product_disk.entry_surface,
                   product_disk.exit_surface, x, v_proj)
    assert np.allclose(base.path.v[0], [1.0, 0.8, 0.6], atol=1e-12)
    for a in (0.5, 2.0, 10.0):
        scaled = scatter(product_disk.metric, product_disk.entry_surface,
                         product_disk.exit_surface, x, a * v_proj)
        assert np.allclose(scaled.y, base.y, rtol=1e-8, atol=1e-8)
        assert scaled.travel * a == pytest.approx(base.travel, rel=1e-8)


def test_scatter_grazing_entry_raises(product_disk):
    x = np.array([0.0, 1.0, 0.0])
    v_proj = np.array([1.0, 0.0, 1.0])      # |b| = 1: grazing entry
    with pytest.raises((TangencyError, NoLiftError)):
        scatter(product_disk.metric, product_disk.entry_surface,
                product_disk.exit_surface, x, v_proj)


def test_normalize_modes(product_disk):
    x = np.array([0.0, 1.0, 0.0])
    v_proj = np.array([1.0, 0.0, 0.3])
    rec = scatter(product_disk.metric, product_disk.entry_surface,
                  product_disk.exit_surface, x, v_proj)
    rt = normalize(rec, TIME_COMPONENT, product_disk.metric)
    assert rt.w_proj[0] == pytest.approx(1.0, abs=1e-12)
    ru = normalize(rec, UNIT_INDUCED, product_disk.metric)
    again = normalize(ru, UNIT_INDUCED, product_disk.metric)
    assert np.allclose(ru.w_proj, again.w_proj, atol=1e-12)


def test_scatter_batch_matches_scalar(product_disk, stationary_rot,
                                     perturbed_product):
    entries = scenarios.scattering_entries(product_disk, 6, seed=3)
    xs = np.array([x for x, _ in entries])
    vs = np.array([v for _, v in entries])
    recs = scatter_batch(product_disk.metric, product_disk.entry_surface,
                         product_disk.exit_surface, xs, vs, keep_paths=True)
    for (x, v), rb in zip(entries, recs):
        rs = scatter(product_disk.metric, product_disk.entry_surface,
                     product_disk.exit_surface, x, v)
        _assert_same_path(rb.path, rs.path)
        assert np.array_equal(rb.y, rs.y)
        assert np.array_equal(rb.w_proj, rs.w_proj)
        assert rb.travel == rs.travel

    # stationary_rot's curved rays take steps of up to MARCH_GROW samples,
    # so each path is sampled inside long knot intervals
    entries = scenarios.scattering_entries(stationary_rot, 5, seed=3)
    xs, vs = (np.array(a) for a in zip(*entries))
    sc = stationary_rot
    recs = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface, xs,
                         vs, keep_paths=True)
    for b, rb in enumerate(recs):
        (rs,) = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                              xs[b:b + 1], vs[b:b + 1], keep_paths=True)
        _assert_same_path(rb.path, rs.path)

    # four entries on perturbed_product: its base partials must broadcast
    # over any batch size, not only one or two points
    for sc, n in ((stationary_rot, 3), (perturbed_product, 4)):
        entries = scenarios.magnetic_entries(sc, n, seed=3)
        xs = np.array([x for x, _ in entries])
        us = np.array([u for _, u in entries])
        recs = magnetic_scatter_batch(sc.magnetic, sc.spatial_boundary, xs,
                                      us, keep_paths=True)
        for (x, u), rb in zip(entries, recs):
            rs = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u)
            _assert_same_path(rb.path, rs.path)
            assert np.array_equal(rb.y, rs.y)
            assert np.array_equal(rb.w_proj, rs.w_proj)
            assert rb.length == rs.length
            assert rb.action == rs.action
            assert rb.path.speed_squared == pytest.approx(1.0, abs=1e-8)


def _assert_same_path(a, b):
    """The samples of two paths agree bit for bit."""
    for name in ("sigma", "x", "v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_hot_loop_skips_numpys_linalg_wrappers(monkeypatch, stationary_rot):
    """The marches solve and check the metric through the gufuncs of
    np.linalg.solve and np.linalg.det, never through the wrappers.  (The
    connectors' Newton step keeps np.linalg.solve for its Jacobian.)"""
    sc = stationary_rot
    entries = scenarios.scattering_entries(sc, 2, seed=3)
    xs, vs = (np.array(a) for a in zip(*entries))
    mxs, mus = (np.array(a) for a in zip(*scenarios.magnetic_entries(
        sc, 2, seed=3)))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg wrapper called in the march")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface, xs, vs)
    geometry.integrate_flow_fixed(geometry.geodesic_accel(sc.metric), xs, vs,
                                  0.1, 1e-2)
    magnetic_scatter_batch(sc.magnetic, sc.spatial_boundary, mxs, mus)


def test_entries_are_admissible(stationary_rot):
    entries = scenarios.scattering_entries(stationary_rot, 10, seed=5)
    for x, v in entries:
        assert abs(float(stationary_rot.entry_surface.value(x))) < 1e-9
        rec = scatter(stationary_rot.metric, stationary_rot.entry_surface,
                      stationary_rot.exit_surface, x, v)
        assert rec.path.speed_drift(stationary_rot.metric) < 1e-8


def _entry_failure(kind, pd, sr):
    """(single call, batch call, entry of ray 0, entry of ray 1, error):
    ray 0 passes every check, ray 1 fails the named entry check."""
    if kind.startswith("magnetic"):
        # a normal, not tangential, u' completes to a non-unit velocity
        bad = {"magnetic-speed": ([1.0, 0.0], [0.5, 0.0]),
               "magnetic-off-boundary": ([0.9, 0.0], [0.0, 0.0])}[kind]
        return (lambda x, u: magnetic_scatter(sr.magnetic,
                                              sr.spatial_boundary, x, u),
                lambda xs, us: magnetic_scatter_batch(
                    sr.magnetic, sr.spatial_boundary, xs, us),
                ([-1.0, 0.0], [0.0, 0.5]), bad, PreconditionError)
    metric = {
        # (v', v')_g = -1e-14: the completion is within 1e-8 of tangent
        "tangency": scenarios.constant_metric(3, [-1.0, 1.0, 1e-4],
                                              LORENTZIAN),
        # two negative eigenvalues on x1 > 0.4, where ray 1 enters
        "signature": _slab_metric(np.diag([-1.0, 1.0, -1.0])),
    }.get(kind, pd.metric)
    bad = {"non-finite": ([0.0, 1.0, 0.0], [1.0, np.nan, 0.0]),
           "off-boundary": ([0.0, 0.9, 0.0], [1.0, 0.0, 0.3]),
           "no-lift": ([0.0, 1.0, 0.0], [1.0, 0.0, 1.5]),
           "tangency": ([0.0, 1.0, 0.0],
                        [1.0, 0.0, 100.0 * np.sqrt(1.0 - 1e-14)]),
           "signature": ([0.0, 1.0, 0.0], [1.0, 0.0, 0.3])}[kind]
    error = {"non-finite": ValueError, "off-boundary": PreconditionError,
             "no-lift": NoLiftError, "tangency": TangencyError,
             "signature": SignatureError}[kind]
    return (lambda x, v: scatter(metric, pd.entry_surface, pd.exit_surface,
                                 x, v),
            lambda xs, vs: scatter_batch(metric, pd.entry_surface,
                                         pd.exit_surface, xs, vs),
            ([0.0, -1.0, 0.0], [1.0, 0.0, 0.0]), bad, error)


@pytest.mark.parametrize("kind", ["non-finite", "off-boundary", "no-lift",
                                  "tangency", "signature",
                                  "magnetic-off-boundary", "magnetic-speed"])
def test_batch_entry_off_boundary_raises(product_disk, stationary_rot, kind):
    """Every entry check runs once on the batch; ray 1 then raises the
    error of its single call, named ray 1."""
    single, batch, good, bad, error = _entry_failure(kind, product_disk,
                                                     stationary_rot)
    with pytest.raises(error) as one:
        single(*map(np.array, bad))
    with pytest.raises(error) as both:
        batch(*map(np.array, zip(good, bad)))
    assert type(both.value) is type(one.value)
    msg = str(one.value)
    assert msg.startswith("ray 0: ")
    assert str(both.value) == "ray 1: " + msg[len("ray 0: "):]


def test_batch_nan_entry_raises_before_march(product_disk, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("marched non-finite entry data")

    monkeypatch.setattr(geometry, "integrate_flow_to_surface", no_march)
    xs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    vs = np.array([[1.0, 0.0, 0.3], [1.0, np.nan, 0.0]])
    with pytest.raises(ValueError, match="ray 1: non-finite"):
        scatter_batch(product_disk.metric, product_disk.entry_surface,
                      product_disk.exit_surface, xs, vs)


def test_batch_errors_name_the_ray(product_disk, stationary_rot):
    pd, sr = product_disk, stationary_rot
    # chords of length 2 sqrt(1 - b^2): b = 0.9 exits within the budget,
    # the radial entry b = 0 does not
    xs = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    vs = np.array([[1.0, 0.0, 0.9], [1.0, 0.0, 0.0]])
    with pytest.raises(EscapeError, match=r"ray\(s\) \[1\]"):
        scatter_batch(pd.metric, pd.entry_surface, pd.exit_surface, xs, vs,
                      max_sigma=1.0)
    with pytest.raises(NoLiftError, match="ray 1"):
        magnetic_scatter_batch(sr.magnetic, sr.spatial_boundary,
                               np.array([[1.0, 0.0], [0.0, 1.0]]),
                               np.array([[0.0, 0.5], [1.0, 0.0]]))


def _slab_metric(bad_value=None, domain=None):
    """Minkowski metric on the slab, with the matrix bad_value on x1 > 0.4."""
    flat = np.diag([-1.0, 1.0, 1.0])

    def func(x):
        x = np.asarray(x, float)
        g = np.broadcast_to(flat, x.shape[:-1] + (3, 3)).copy()
        if bad_value is not None:
            g[x[..., 1] > 0.4] = bad_value
        return g

    return MetricField(dim=3, signature=LORENTZIAN, func=func,
                       jetfunc=lambda x: (func(x), np.zeros(
                           np.shape(x)[:-1] + (3, 3, 3))),
                       domain=domain)


@pytest.mark.parametrize("metric, error, message", [
    (_slab_metric(np.diag([-1.0, 0.0, 1.0])), SingularMetricError,
     "singular metric|determinant"),
    (_slab_metric(np.array([[-1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0]])),
     SingularMetricError, "not symmetric"),
    (_slab_metric(domain=lambda x: np.asarray(x)[..., 1] < 0.4),
     ChartDomainError, "outside chart domain"),
], ids=["vanishing-determinant", "asymmetric", "chart-exit"])
def test_metric_failures_inside_the_march_name_the_ray(slab, metric, error,
                                                       message):
    """Ray 1 runs into x1 > 0.4, where the determinant vanishes, the
    matrix is not symmetric or the chart ends, before it reaches t = 1;
    ray 0 runs the other way and exits normally.  The metric is checked fully only at
    the state each step starts from, and the error names ray 1."""
    xs = np.zeros((2, 3))
    vs = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(error, match=rf"^ray 1: .*({message})"):
        scatter_batch(metric, slab.entry_surface, slab.exit_surface, xs, vs,
                      step=1e-2)


def test_wrong_signature_names_the_ray(slab):
    """The metric is declared Lorentzian but has two negative eigenvalues
    on x1 > 0.4, where ray 1 enters; its entry still has an inward lift."""
    metric = _slab_metric(np.diag([-1.0, 1.0, -1.0]))
    xs = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    vs = np.array([[0.0, 0.6, 0.0], [0.0, 0.6, 0.0]])
    with pytest.raises(SignatureError,
                       match=r"^ray 1: lorentzian metric has 2 negative"):
        scatter_batch(metric, slab.entry_surface, slab.exit_surface, xs, vs)


def test_non_positive_conformal_factor_inside_the_march(product_disk):
    """lam = 0.5 - x1 is declared positive and is so at both entries; ray
    1 crosses the disk along x1 into lam <= 0, ray 0 cuts a short chord
    near x1 = -1 and exits normally."""
    lam = ScalarField(func=lambda p: 0.5 - np.asarray(p)[..., 0],
                      grad=lambda p: np.broadcast_to([-1.0, 0.0],
                                                     np.shape(p)),
                      positive=True)
    metric = scale_metric(product_disk.metric, scenarios.spacetime_field(lam))
    th = np.array([np.pi - 0.3, np.pi])
    b = np.array([0.9, 0.0])
    xs = np.stack([np.zeros(2), np.cos(th), np.sin(th)], axis=1)
    vs = np.stack([np.ones(2), -b * np.sin(th), b * np.cos(th)], axis=1)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^ray 1: scalar field declared positive"):
        scatter_batch(metric, product_disk.entry_surface,
                      product_disk.exit_surface, xs, vs)


def _circles(B, th, b):
    """The rays of stationary_rot from the unit-circle angles th with
    tangential fractions b: the spatial ray with charge k = 1 + B b / 2
    runs counter-clockwise on a circle of radius 1/B at speed k.
    Returns the centres c, the start angles phi0 about them and k."""
    R = 1.0 / B
    p = np.stack([np.cos(th), np.sin(th)], axis=-1)
    tang = np.stack([-p[:, 1], p[:, 0]], axis=-1)
    k = 1.0 + 0.5 * B * b
    u = (b[:, None] * tang
         - np.sqrt(k * k - b * b)[:, None] * p) / k[:, None]
    c = p + R * np.stack([-u[:, 1], u[:, 0]], axis=-1)
    phi0 = np.arctan2(p[:, 1] - c[:, 1], p[:, 0] - c[:, 0])
    return c, phi0, k


def _on_circle(B, t, c, phi0, phi):
    """The points (t, x, y) at the angles phi about the centre c of a ray
    that starts at time t at angle phi0: t grows by arc length minus the
    flux of omega."""
    R = 1.0 / B
    q = c + R * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    flux = 0.5 * B * (R * R * (phi - phi0)
                      + R * (c[0] * (np.sin(phi) - np.sin(phi0))
                             - c[1] * (np.cos(phi) - np.cos(phi0))))
    return np.column_stack([t + R * (phi - phi0) - flux, q])


def _circle_exits(B, t, th, b):
    """Exact exits of stationary_rot (see _circles).  Returns the exit
    points (t, x, y) and travels."""
    R = 1.0 / B
    c, phi0, k = _circles(B, th, b)
    # the circle meets the unit circle at angles gamma +- half about c
    cn = np.linalg.norm(c, axis=1)
    gamma = np.arctan2(c[:, 1], c[:, 0])
    half = np.arccos((1.0 - cn * cn - R * R) / (2.0 * R * cn))
    ys, travels = [], []
    for i in range(len(t)):
        gaps = [(gamma[i] + s * half[i] - phi0[i]) % (2 * np.pi)
                for s in (1.0, -1.0)]
        dphi = max(gaps, key=lambda g: min(g, 2 * np.pi - g))  # not entry
        ys.append(_on_circle(B, t[i], c[i], phi0[i],
                             np.array([phi0[i] + dphi]))[0])
        travels.append(R * dphi / k[i])
    return np.array(ys), np.array(travels)


def _rot_entries(B):
    """Five entries of stationary_rot whose exit parameters differ more
    than fivefold: (t, th, b, xs, vs)."""
    t = np.array([0.3, -0.2, 0.0, 0.45, -0.4])
    th = np.array([0.0, 1.3, 2.9, 4.0, 5.5])
    b = np.array([1.1, 0.74, 0.0, -0.5, -0.85])
    p = np.stack([np.cos(th), np.sin(th)], axis=-1)
    xs = np.concatenate([t[:, None], p], axis=1)
    vs = np.concatenate([np.ones((5, 1)),
                         b[:, None] * np.stack([-p[:, 1], p[:, 0]], axis=-1)],
                        axis=1)
    return t, th, b, xs, vs


@pytest.mark.parametrize("step", [1e-2, 1e-3])
def test_stationary_rot_exits_match_circles(stationary_rot, step):
    """One batch whose exit parameters differ more than fivefold."""
    B = stationary_rot.params["B"]
    t, th, b, xs, vs = _rot_entries(B)
    recs = scatter_batch(stationary_rot.metric, stationary_rot.entry_surface,
                         stationary_rot.exit_surface, xs, vs, step=step,
                         max_sigma=30.0)
    y_exact, travel_exact = _circle_exits(B, t, th, b)
    assert travel_exact.max() > 5 * travel_exact.min()
    for rec, y, travel in zip(recs, y_exact, travel_exact):
        assert np.abs(rec.y - y).max() <= 1e-6
        assert abs(rec.travel - travel) <= 1e-6
        assert abs(float(stationary_rot.exit_surface.value(rec.y))) <= 1e-12


def test_stationary_rot_paths_match_circles(stationary_rot):
    """Every sample of an error-controlled path, not only its exit, lies
    on its closed-form circle at its sigma, with the velocity of that
    circle; the samples before the exit are the caller's step grid."""
    B = stationary_rot.params["B"]
    R = 1.0 / B
    t, th, b, xs, vs = _rot_entries(B)
    step = 1e-3
    recs = scatter_batch(stationary_rot.metric, stationary_rot.entry_surface,
                         stationary_rot.exit_surface, xs, vs, step=step,
                         max_sigma=30.0, keep_paths=True)
    c, phi0, k = _circles(B, th, b)
    for i, rec in enumerate(recs):
        sigma = rec.path.sigma
        assert np.array_equal(sigma[:-1], np.arange(len(sigma) - 1) * step)
        phi = phi0[i] + k[i] * sigma / R
        x = _on_circle(B, t[i], c[i], phi0[i], phi)
        radial = c[i, 0] * np.cos(phi) + c[i, 1] * np.sin(phi)
        v = k[i] * np.column_stack([1.0 - 0.5 * B * (R + radial),
                                    -np.sin(phi), np.cos(phi)])
        assert np.abs(rec.path.x - x).max() <= 1e-9
        assert np.abs(rec.path.v - v).max() <= 1e-9


def test_error_control_saves_nineteen_twentieths_of_the_accel_calls(
        stationary_rot, monkeypatch):
    """A scatter of stationary_rot makes at most a twentieth of the metric
    jets, one per acceleration call, of the fixed march of its step, which
    is the march with MARCH_TOL = 0 (225 against 11860)."""
    sc = stationary_rot
    calls = []

    def counted(x):
        calls.append(1)
        return sc.metric.jetfunc(x)

    g = dataclasses.replace(sc.metric, jetfunc=counted)
    xs, vs = _rot_entries(sc.params["B"])[3:]

    def jets():
        calls.clear()
        scatter_batch(g, sc.entry_surface, sc.exit_surface, xs, vs,
                      max_sigma=30.0)
        return len(calls)

    controlled = jets()
    monkeypatch.setattr(geometry, "MARCH_TOL", 0.0)
    assert 20 * controlled <= jets()


def test_generated_pairs_are_the_single_ray_scatters(stationary_rot):
    """null_pairs and magnetic_pairs scatter their grids in one batch and
    give, bit for bit, the exits of one single-ray call per entry.  The
    batch's budget max_sigma 30 and scatter's default 10 both exceed
    every exit sigma here (below 3), so they march alike."""
    sc = stationary_rot
    entries = scenarios.scattering_entries(sc, 2, seed=7)
    for (x, v), (xb, y) in zip(entries, scenarios.null_pairs(sc, 2, seed=7)):
        rec = scatter(sc.metric, sc.entry_surface, sc.exit_surface, x, v)
        assert np.array_equal(xb, x) and np.array_equal(y, rec.y)
    entries = scenarios.magnetic_entries(sc, 2, seed=29)
    for (x, u), rb in zip(entries, scenarios.magnetic_pairs(sc, 2, seed=29)):
        rs = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u)
        assert np.array_equal(rb.x, x) and np.array_equal(rb.y, rs.y)
        assert rb.action == rs.action
    # an empty grid is an empty list
    assert scenarios.null_pairs(sc, 0) == scenarios.magnetic_pairs(sc, 0) == []


def test_empty_scatter_batch(stationary_rot):
    sc = stationary_rot
    assert scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                         np.empty((0, 3)), np.empty((0, 3))) == []


def test_empty_magnetic_scatter_batch(stationary_rot):
    sc = stationary_rot
    assert magnetic_scatter_batch(sc.magnetic, sc.spatial_boundary,
                                  np.empty((0, 2)), np.empty((0, 2))) == []


@pytest.mark.parametrize("call", [
    lambda sc: scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                             [], []),
    lambda sc: magnetic_scatter_batch(sc.magnetic, sc.spatial_boundary,
                                      [], [])],
    ids=["scatter_batch", "magnetic_scatter_batch"])
def test_an_empty_list_is_not_an_entry(stationary_rot, monkeypatch, call):
    """np.atleast_2d([]) is one entry of width zero: scatter_paths names
    its shape before any march."""
    def no_march(*args):
        raise AssertionError("marched")

    monkeypatch.setattr(geometry, "integrate_flow_to_surface", no_march)
    with pytest.raises(ValueError, match=r"^entry points of shape \(1, 0\) "
                                         r"have width 0$"):
        call(stationary_rot)


@pytest.mark.parametrize("call", ["scatter_batch", "magnetic_scatter_batch",
                                  "connecting_geodesics_batch"])
def test_matrix_calls_do_not_grow_with_the_batch(product_disk,
                                                 stationary_rot,
                                                 monkeypatch, call):
    """Around the march the metric is evaluated once for the whole batch
    at the entries and once at the exits, their normals and values shared
    by the lift, the checks and the exit projection; a connector batch
    evaluates it once.  A call on 8 entries or pairs makes as many
    MetricField.matrix calls as a call on one."""
    pd, sr = product_disk, stationary_rot
    if call == "scatter_batch":
        xs, vs = map(np.array, zip(*scenarios.scattering_entries(pd, 8, 3)))
        run = lambda b: scatter_batch(pd.metric, pd.entry_surface,
                                      pd.exit_surface, xs[:b], vs[:b],
                                      step=1e-2)
    elif call == "magnetic_scatter_batch":
        xs, us = map(np.array, zip(*scenarios.magnetic_entries(sr, 8, 3)))
        run = lambda b: magnetic_scatter_batch(
            sr.magnetic, sr.spatial_boundary, xs[:b], us[:b])
    else:
        xs, ys = scenarios.disk_pairs(8, 3)
        run = lambda b: connecting_geodesics_batch(pd.metric, xs[:b],
                                                   ys[:b], n_steps=100)
    matrix = MetricField.matrix
    calls = []

    def counted(self, x, validate=False):
        calls.append(np.shape(x))
        return matrix(self, x, validate)

    monkeypatch.setattr(MetricField, "matrix", counted)
    counts = []
    for b in (1, 8):
        calls.clear()
        assert len(run(b)) == b
        counts.append(len(calls))
    expected = 1 if call == "connecting_geodesics_batch" else 2
    assert counts == [expected, expected]


def test_boundary_helpers_are_batched(stationary_rot):
    """boundary_normal, boundary_project and lightlike_completion on a
    batch give, row by row, their single-point values to 1e-15."""
    sc = stationary_rot
    g, S = sc.metric, sc.entry_surface
    xs, vs = map(np.array, zip(*scenarios.scattering_entries(sc, 6, 5)))
    ws = np.random.default_rng(5).normal(size=xs.shape)
    batched = (geometry.boundary_normal(S, g, xs),
               geometry.boundary_project(g, S, xs, ws),
               geometry.lightlike_completion(g, S, xs, vs))
    for i in range(len(xs)):
        single = (geometry.boundary_normal(S, g, xs[i]),
                  geometry.boundary_project(g, S, xs[i], ws[i]),
                  geometry.lightlike_completion(g, S, xs[i], vs[i]))
        for b, one in zip(batched, single):
            assert one.shape == (3,)
            assert np.abs(b[i] - one).max() <= 1e-15
