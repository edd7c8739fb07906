import numpy as np
import pytest

from lorlab import scenarios
from lorlab.fields import _central_diff, _central_jet


@pytest.mark.parametrize("amplitude", [1.0, 0.15])
def test_disk_bump_derivatives(amplitude, rng):
    """The disk bump's gradient against central differences of its
    value, its Hessian against central differences of its gradient, and
    each order's lower outputs bit for bit those of the lower orders."""
    x = rng.uniform(-1.1, 1.1, (8, 2))
    b, db, d2b = scenarios.disk_bump(x, amplitude, 2)
    fd_b, fd_db = _central_jet(
        lambda p: scenarios.disk_bump(p, amplitude, 0)[0], x, ())
    assert np.array_equal(b, fd_b)
    assert np.abs(db - fd_db).max() <= 1e-8
    fd_d2b = _central_diff(
        lambda p: scenarios.disk_bump(p, amplitude, 1)[1], x, (2,))
    assert np.abs(d2b - fd_d2b).max() <= 1e-8
    lower = scenarios.disk_bump(x, amplitude, 1)
    assert np.array_equal(lower[0], b) and np.array_equal(lower[1], db)
    # the bump and its gradient vanish on the boundary circle
    th = rng.uniform(0.0, 2 * np.pi, 5)
    edge = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert all(np.abs(v).max() <= 1e-15
               for v in scenarios.disk_bump(edge, amplitude, 1))


@pytest.mark.parametrize("amplitude", [1.0, 0.3])
def test_gaussian_gradient(amplitude, rng):
    x = rng.uniform(-1.5, 1.5, (8, 2))
    G, dG = scenarios.gaussian(x, amplitude, 1)
    fd_G, fd_dG = _central_jet(
        lambda p: scenarios.gaussian(p, amplitude, 0)[0], x, ())
    assert np.array_equal(G, fd_G)
    assert np.abs(dG - fd_dG).max() <= 1e-8
    assert np.allclose(G, amplitude * np.exp(-(x ** 2).sum(-1)), rtol=1e-15,
                       atol=0.0)


def test_conformal_bump_is_the_perturbed_product_factor(perturbed_product,
                                                        rng):
    """perturbed_product's spatial block and base metric are
    conformal_bump(amplitude) times the identity, bit for bit, and so are
    their partials."""
    c = scenarios.conformal_bump(0.1)
    x = rng.uniform(-0.8, 0.8, (6, 3))
    gm, dg = perturbed_product.metric.jet(x)
    h, dh = perturbed_product.stationary.base.jet(x[:, 1:])
    cx, dc = c(x[:, 1:]), c.gradient(x[:, 1:])
    for i in (1, 2):
        assert np.array_equal(gm[:, i, i], cx)
        assert np.array_equal(h[:, i - 1, i - 1], cx)
        assert np.array_equal(dg[:, 1:, i, i], dc)
        assert np.array_equal(dh[:, :, i - 1, i - 1], dc)


def test_cylinder_is_time_times_the_circle(product_disk, rng):
    cyl, circle = product_disk.entry_surface, product_disk.spatial_boundary
    x = rng.uniform(-1.2, 1.2, (7, 3))
    assert np.array_equal(cyl.value(x), circle.value(x[:, 1:]))
    assert np.abs(cyl.gradient(x) - _central_diff(cyl.value, x, ())).max() \
        <= 1e-8
    a = np.array([0.4, 2.0])
    p = cyl.chart(a)
    assert np.allclose(p, [0.4, np.cos(2.0), np.sin(2.0)], atol=1e-15)
    assert np.allclose(cyl.chart_inverse(p), a, atol=1e-15)


@pytest.mark.parametrize("name", scenarios.available())
def test_magnetic_system_is_the_stationary_reduction(name):
    sc = scenarios.build(name)
    if sc.stationary is None:
        assert sc.magnetic is None
        return
    assert sc.magnetic.base is sc.stationary.base
    assert sc.magnetic.omega is sc.stationary.omega


@pytest.mark.parametrize("name", ["product_disk", "perturbed_product"])
@pytest.mark.parametrize("batch", [16, 144])
def test_hand_written_metric_is_its_stationary_form(name, batch, rng):
    """The hand-written metric of each scenario that has one (kept for the
    speed of its acceleration) and the assembled stationary form are one
    metric: values and partials equal bit for bit."""
    sc = scenarios.build(name)
    x = rng.uniform(-0.9, 0.9, (batch, 3))
    gm, dg = sc.metric.jet(x)
    gs, dgs = sc.stationary.assembled.jet(x)
    assert np.array_equal(gm, gs)
    assert np.array_equal(dg, dgs)
