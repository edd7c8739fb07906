import math

import numpy as np
import pytest

from lorlab import (GeodesicPath, PreconditionError, ftc_residual,
                    kernel_conformal_test, kernel_potential_test,
                    light_ray_transform, magnetic_linearized_transform,
                    pairing_along, scatter, sym_diff)
from lorlab import scenarios
from lorlab.fields import CovectorField, ScalarField, SymTwoTensorField
from lorlab.stationary import magnetic_scatter


def straight_null_path(n=2001):
    sigma = np.linspace(0.0, 1.0, n)
    x = np.stack([sigma, sigma, np.zeros(n)], axis=-1)
    v = np.tile([1.0, 1.0, 0.0], (n, 1))
    return GeodesicPath(sigma=sigma, x=x, v=v, speed_squared=0.0)


def test_transform_of_dx1_squared():
    f = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        np.diag([0.0, 1.0, 0.0]), np.shape(x)[:-1] + (3, 3)))
    assert light_ray_transform(f, straight_null_path()) == pytest.approx(
        1.0, abs=1e-10)


def test_transform_linearity(rng):
    path = straight_null_path()
    a = np.array(rng.normal(size=(3, 3)))
    b = np.array(rng.normal(size=(3, 3)))
    fa = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        a, np.shape(x)[:-1] + (3, 3)))
    fb = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        b, np.shape(x)[:-1] + (3, 3)))
    fab = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        2.0 * a + 3.0 * b, np.shape(x)[:-1] + (3, 3)))
    lhs = light_ray_transform(fab, path)
    rhs = (2.0 * light_ray_transform(fa, path)
           + 3.0 * light_ray_transform(fb, path))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transform_reparametrization_covariance():
    """Rescaling the affine parameter by a scales the transform by a:
    the integrand is quadratic in the velocity and the measure shrinks
    by 1/a."""
    f = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        np.diag([0.0, 1.0, 0.0]), np.shape(x)[:-1] + (3, 3)))
    base = light_ray_transform(f, straight_null_path())
    for a in (2.0, 0.5):
        n = 2001
        sigma = np.linspace(0.0, 1.0 / a, n)
        x = np.stack([a * sigma, a * sigma, np.zeros(n)], axis=-1)
        v = np.tile([a, a, 0.0], (n, 1))
        path = GeodesicPath(sigma=sigma, x=x, v=v, speed_squared=0.0)
        assert light_ray_transform(f, path) == pytest.approx(a * base,
                                                             rel=1e-10)


def _rays(product_disk, n, seed):
    entries = scenarios.scattering_entries(product_disk, n, seed=seed)
    out = []
    for x, v in entries:
        rec = scatter(product_disk.metric, product_disk.entry_surface,
                      product_disk.exit_surface, x, v)
        out.append(rec.path)
    return out


def test_potential_kernel(product_disk):
    rays = _rays(product_disk, 5, seed=8)

    def v_func(x):
        x = np.asarray(x, float)
        xs = x[..., 1:]
        B = (1.0 - np.einsum("...i,...i->...", xs, xs)) ** 3
        return B[..., None] * np.stack(
            [np.sin(x[..., 0]), x[..., 2], np.cos(x[..., 1])], axis=-1)

    res = kernel_potential_test(CovectorField(dim=3, func=v_func),
                                product_disk.metric, rays)
    assert res < 1e-8


def test_conformal_kernel(product_disk):
    rays = _rays(product_disk, 5, seed=8)
    c = ScalarField(func=lambda x: 1.0 + np.asarray(x, float)[..., 1] ** 2)
    assert kernel_conformal_test(c, product_disk.metric, rays) < 1e-12


def _nan_inside(x):
    """True where the spatial radius of x is below 0.3."""
    xs = np.asarray(x, float)[..., 1:]
    return np.einsum("...i,...i->...", xs, xs) < 0.09


def test_kernel_tests_keep_a_nan_transform(product_disk):
    """A NaN transform makes each kernel test NaN wherever its ray sits:
    of the first three seed-17 rays the first two pass within 0.3 of the
    axis, where the fields below are NaN, and the third stays outside.
    No rays is an error."""
    g = product_disk.metric
    rays = [r.path for r in scenarios.scattered_entries(
        product_disk, 3, seed=17, keep_paths=True)]

    def v_func(x):
        xs = np.asarray(x, float)[..., 1:]
        v = (1.0 - np.einsum("...i,...i->...", xs, xs))[..., None] \
            * np.array([1.0, 0.5, -0.2])
        return np.where(_nan_inside(x)[..., None], np.nan, v)

    v = CovectorField(dim=3, func=v_func)
    c = ScalarField(func=lambda x: np.where(_nan_inside(x), np.nan, 1.0))
    transforms = [light_ray_transform(sym_diff(v, g), p) for p in rays]
    assert [math.isnan(t) for t in transforms] == [True, True, False]
    for order in (rays, rays[::-1]):
        assert math.isnan(kernel_potential_test(v, g, order))
        assert math.isnan(kernel_conformal_test(c, g, order))
    with pytest.raises(PreconditionError, match="no rays"):
        kernel_potential_test(v, g, [])
    with pytest.raises(PreconditionError, match="no rays"):
        kernel_conformal_test(c, g, [])


def test_ftc_endpoint_identity(product_disk):
    rays = _rays(product_disk, 5, seed=9)
    v = CovectorField(dim=3, func=lambda x: np.stack(
        [0.2 + np.asarray(x, float)[..., 2],
         0.1 * np.asarray(x, float)[..., 0],
         np.cos(np.asarray(x, float)[..., 1])], axis=-1))
    for path in rays:
        assert abs(ftc_residual(v, product_disk.metric, path)) < 1e-8
        transform = light_ray_transform(sym_diff(v, product_disk.metric),
                                        path)
        vals = pairing_along(v, path)
        assert transform == pytest.approx(vals[-1] - vals[0], abs=1e-8)


def test_magnetic_kernel_pairs(stationary_rot, rng):
    """The linearized magnetic data vanish on the gauge pairs
    (d^s u, d(phi) - (Y u)^flat) along unit-speed magnetic geodesics."""
    mag = stationary_rot.magnetic

    def u_func(p):
        p = np.asarray(p, float)
        B = (1.0 - np.einsum("...i,...i->...", p, p)) ** 2
        return B[..., None] * np.stack([0.4 + p[..., 1],
                                        0.1 * p[..., 0]], axis=-1)

    u = CovectorField(dim=2, func=u_func)

    def phi_func(p):
        p = np.asarray(p, float)
        return (1.0 - np.einsum("...i,...i->...", p, p)) ** 2 * p[..., 0]

    phi = ScalarField(func=phi_func)

    def beta_func(p):
        p = np.asarray(p, float)
        grad = phi.gradient(p)
        u_vec = np.linalg.solve(mag.base.matrix(p), u(p)[..., None])[..., 0]
        force = mag.lorentz_force(p, u_vec)
        hforce = np.einsum("...ij,...j->...i", mag.base.matrix(p), force)
        return grad - hforce

    f = sym_diff(u, mag.base)
    beta = CovectorField(dim=2, func=beta_func)
    worst = 0.0
    for x, u0 in scenarios.magnetic_entries(stationary_rot, 30, seed=12):
        rec = magnetic_scatter(mag, stationary_rot.spatial_boundary, x, u0)
        worst = max(worst, abs(magnetic_linearized_transform(f, beta,
                                                             rec.path)))
    assert worst < 1e-7
