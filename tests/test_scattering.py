import numpy as np
import pytest

from lorlab import (LORENTZIAN, TIME_COMPONENT, UNIT_INDUCED,
                    ChartDomainError, EscapeError, MetricField, NoLiftError,
                    NotPositiveDefiniteError, PreconditionError,
                    SignatureError, SingularMetricError, StationaryMetric,
                    TangencyError, inner, magnetic_scatter,
                    magnetic_scatter_batch, normalize, scatter, scatter_batch)
from lorlab import geometry, scenarios
from lorlab.fields import CovectorField, ScalarField


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
                   product_disk.exit_surface, x, v_proj, keep_path=False)
    for a in (0.5, 2.0, 10.0):
        rec = scatter(product_disk.metric, product_disk.entry_surface,
                      product_disk.exit_surface, x, a * v_proj,
                      keep_path=False)
        assert np.allclose(rec.y, base.y, atol=1e-8)
        assert np.allclose(rec.w_proj, a * base.w_proj, rtol=1e-8,
                           atol=1e-10)


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
                  product_disk.exit_surface, x, v_proj, keep_path=False)
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
                         product_disk.exit_surface, xs, vs)
    for (x, v), rb in zip(entries, recs):
        rs = scatter(product_disk.metric, product_disk.entry_surface,
                     product_disk.exit_surface, x, v, keep_path=False)
        assert np.allclose(rb.y, rs.y, atol=1e-9)
        assert np.allclose(rb.w_proj, rs.w_proj, atol=1e-9)
        assert rb.travel == pytest.approx(rs.travel, abs=1e-9)

    # four entries on perturbed_product: its base partials must broadcast
    # over any batch size, not only one or two points
    for sc, n in ((stationary_rot, 3), (perturbed_product, 4)):
        entries = scenarios.magnetic_entries(sc, n, seed=3)
        xs = np.array([x for x, _ in entries])
        us = np.array([u for _, u in entries])
        recs = magnetic_scatter_batch(sc.magnetic, sc.spatial_boundary, xs,
                                      us, keep_paths=True)
        for (x, u), rb in zip(entries, recs):
            rs = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u,
                                  keep_path=True)
            assert np.allclose(rb.y, rs.y, atol=1e-9)
            assert np.allclose(rb.w_proj, rs.w_proj, atol=1e-9)
            assert rb.length == pytest.approx(rs.length, abs=1e-9)
            assert rb.action == pytest.approx(rs.action, abs=1e-9)
            assert np.allclose(rb.path.x, rs.path.x, atol=1e-9)
            assert rb.path.speed_squared == pytest.approx(1.0, abs=1e-8)


def test_entries_are_admissible(stationary_rot):
    entries = scenarios.scattering_entries(stationary_rot, 10, seed=5)
    for x, v in entries:
        assert abs(float(stationary_rot.entry_surface.value(x))) < 1e-9
        rec = scatter(stationary_rot.metric, stationary_rot.entry_surface,
                      stationary_rot.exit_surface, x, v, keep_path=True)
        assert rec.path.speed_drift(stationary_rot.metric) < 1e-8


def test_batch_entry_off_boundary_raises(product_disk, stationary_rot):
    pd, sr = product_disk, stationary_rot
    xs = np.array([[0.0, 1.0, 0.0], [0.0, 0.9, 0.0]])
    vs = np.array([[1.0, 0.0, 0.3], [1.0, 0.0, 0.3]])
    with pytest.raises(PreconditionError, match="ray 1"):
        scatter_batch(pd.metric, pd.entry_surface, pd.exit_surface, xs, vs)
    with pytest.raises(PreconditionError, match="ray 1"):
        magnetic_scatter_batch(sr.magnetic, sr.spatial_boundary,
                               np.array([[1.0, 0.0], [0.9, 0.0]]),
                               np.zeros((2, 2)))


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
                       dfunc=lambda x: np.zeros(np.shape(x)[:-1] + (3, 3, 3)),
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
    the state each RK4 step starts from, and the error names ray 1."""
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
    metric = StationaryMetric(lam=lam, omega=CovectorField.zero(2),
                              base=product_disk.stationary.base).assembled
    th = np.array([np.pi - 0.3, np.pi])
    b = np.array([0.9, 0.0])
    xs = np.stack([np.zeros(2), np.cos(th), np.sin(th)], axis=1)
    vs = np.stack([np.ones(2), -b * np.sin(th), b * np.cos(th)], axis=1)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^ray 1: scalar field declared positive"):
        scatter_batch(metric, product_disk.entry_surface,
                      product_disk.exit_surface, xs, vs)


def _circle_exits(B, t, th, b):
    """Exact exits of stationary_rot: the spatial ray with charge
    k = 1 + B b / 2 runs counter-clockwise on a circle of radius 1/B at
    speed k, and t grows by arc length minus the flux of omega.  Returns
    the exit points (t, x, y) and travels."""
    R = 1.0 / B
    p = np.stack([np.cos(th), np.sin(th)], axis=-1)
    tang = np.stack([-p[:, 1], p[:, 0]], axis=-1)
    k = 1.0 + 0.5 * B * b
    u = (b[:, None] * tang
         - np.sqrt(k * k - b * b)[:, None] * p) / k[:, None]
    c = p + R * np.stack([-u[:, 1], u[:, 0]], axis=-1)
    phi0 = np.arctan2(p[:, 1] - c[:, 1], p[:, 0] - c[:, 0])
    # the circle meets the unit circle at angles gamma +- half about c
    cn = np.linalg.norm(c, axis=1)
    gamma = np.arctan2(c[:, 1], c[:, 0])
    half = np.arccos((1.0 - cn * cn - R * R) / (2.0 * R * cn))
    ys, travels = [], []
    for i in range(len(t)):
        gaps = [(gamma[i] + s * half[i] - phi0[i]) % (2 * np.pi)
                for s in (1.0, -1.0)]
        dphi = max(gaps, key=lambda g: min(g, 2 * np.pi - g))  # not entry
        phi1 = phi0[i] + dphi
        q = c[i] + R * np.array([np.cos(phi1), np.sin(phi1)])
        flux = 0.5 * B * (R * R * dphi
                          + R * (c[i, 0] * (np.sin(phi1) - np.sin(phi0[i]))
                                 - c[i, 1] * (np.cos(phi1) - np.cos(phi0[i]))))
        ys.append([t[i] + R * dphi - flux, q[0], q[1]])
        travels.append(R * dphi / k[i])
    return np.array(ys), np.array(travels)


@pytest.mark.parametrize("step", [1e-2, 1e-3])
def test_stationary_rot_exits_match_circles(stationary_rot, step):
    """One batch whose exit parameters differ more than fivefold."""
    B = stationary_rot.params["B"]
    t = np.array([0.3, -0.2, 0.0, 0.45, -0.4])
    th = np.array([0.0, 1.3, 2.9, 4.0, 5.5])
    b = np.array([1.1, 0.74, 0.0, -0.5, -0.85])
    p = np.stack([np.cos(th), np.sin(th)], axis=-1)
    xs = np.concatenate([t[:, None], p], axis=1)
    vs = np.concatenate([np.ones((5, 1)),
                         b[:, None] * np.stack([-p[:, 1], p[:, 0]], axis=-1)],
                        axis=1)
    recs = scatter_batch(stationary_rot.metric, stationary_rot.entry_surface,
                         stationary_rot.exit_surface, xs, vs, step=step,
                         max_sigma=30.0)
    y_exact, travel_exact = _circle_exits(B, t, th, b)
    assert travel_exact.max() > 5 * travel_exact.min()
    for rec, y, travel in zip(recs, y_exact, travel_exact):
        assert np.abs(rec.y - y).max() <= 1e-6
        assert abs(rec.travel - travel) <= 1e-6
        assert abs(float(stationary_rot.exit_surface.value(rec.y))) <= 1e-12


def test_generated_pairs_are_the_single_ray_scatters(stationary_rot):
    """null_pairs and magnetic_pairs scatter their grids in one batch and
    give, bit for bit, the exits of one single-ray call per entry."""
    sc = stationary_rot
    entries = scenarios.scattering_entries(sc, 2, seed=7)
    for (x, v), (xb, y) in zip(entries, scenarios.null_pairs(sc, 2, seed=7)):
        rec = scatter(sc.metric, sc.entry_surface, sc.exit_surface, x, v,
                      max_sigma=30.0, keep_path=False)
        assert np.array_equal(xb, x) and np.array_equal(y, rec.y)
    entries = scenarios.magnetic_entries(sc, 2, seed=29)
    for (x, u), rb in zip(entries, scenarios.magnetic_pairs(sc, 2, seed=29)):
        rs = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u,
                              keep_path=False)
        assert np.array_equal(rb.x, x) and np.array_equal(rb.y, rs.y)
        assert rb.action == rs.action
    # an empty grid is an empty list, as the CLI reports it for {"n": 0}
    assert scenarios.null_pairs(sc, 0) == scenarios.magnetic_pairs(sc, 0) == []
