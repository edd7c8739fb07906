"""Light ray transform of symmetric two-tensors, the symmetrized
covariant differential, and gauge-kernel verification helpers."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .fields import (Array, CovectorField, ScalarField, SymTwoTensorField,
                     einsum, worst_of)
from .geometry import GeodesicPath, MetricField, christoffel
from .quadrature import simpson

LIGHTLIKE_TOL = 1e-8
UNIT_SPEED_TOL = 1e-8


def light_ray_transform(f: SymTwoTensorField, path: GeodesicPath,
                        lightlike_tol: float = LIGHTLIKE_TOL) -> float:
    """Integral of <f, gamma' x gamma'> along a lightlike geodesic,
    composite Simpson over the integrator's own samples."""
    if abs(path.speed_squared) > lightlike_tol:
        raise PreconditionError(
            f"path is not lightlike (speed squared {path.speed_squared:g})")
    return simpson(_tensor_along(f, path), path.sigma)


def sym_diff(v: CovectorField, g: MetricField) -> SymTwoTensorField:
    """Symmetrized covariant differential (v_{i;j} + v_{j;i}) / 2."""

    def func(x):
        dv = v.jacobian(x)                       # dv[..., i, j] = d_i v_j
        gamma = christoffel(g, x)
        corr = einsum("...kij,...k->...ij", gamma, v(x))
        return 0.5 * (dv + np.swapaxes(dv, -1, -2)) - corr

    return SymTwoTensorField(dim=g.dim, func=func)


def _tensor_along(f: SymTwoTensorField, path: GeodesicPath) -> Array:
    """<f, gamma' x gamma'> sampled along the path, by two contractions."""
    return einsum("mi,mi->m", einsum("mij,mj->mi", f(path.x), path.v),
                  path.v)


def pairing_along(v: CovectorField, path: GeodesicPath) -> Array:
    """<v, gamma'> sampled along the path."""
    return einsum("mi,mi->m", v(path.x), path.v)


def ftc_residual(v: CovectorField, g: MetricField, path: GeodesicPath) -> float:
    """L(d^s v) minus the endpoint difference of <v, gamma'>."""
    transform = light_ray_transform(sym_diff(v, g), path)
    vals = pairing_along(v, path)
    return float(transform - (vals[-1] - vals[0]))


def _kernel_worst(f: SymTwoTensorField, rays: list[GeodesicPath]) -> float:
    """worst_of |L(f)| over rays.  No rays is an error: a kernel test of
    nothing would pass every tolerance."""
    if not rays:
        raise PreconditionError("kernel test given no rays")
    return worst_of(abs(light_ray_transform(f, path)) for path in rays)


def kernel_potential_test(v: CovectorField, g: MetricField,
                          rays: list[GeodesicPath]) -> float:
    """worst_of |L(d^s v)| over rays, NaN if a transform is NaN, for v
    vanishing (to 1e-10) at every ray endpoint."""
    f = sym_diff(v, g)
    for path in rays:
        ends = np.linalg.norm(v(path.x[[0, -1]]), axis=-1)
        if np.any(ends > 1e-10):
            raise PreconditionError("one-form does not vanish at a ray "
                                    f"endpoint (|v| = {ends.max():g})")
    return _kernel_worst(f, rays)


def kernel_conformal_test(c: ScalarField, g: MetricField,
                          rays: list[GeodesicPath]) -> float:
    """worst_of |L(c*g)| over rays, NaN if a transform is NaN; the
    integrand vanishes pointwise."""
    f = SymTwoTensorField(dim=g.dim,
                          func=lambda x: c(x)[..., None, None] * g.func(x))
    return _kernel_worst(f, rays)


def magnetic_linearized_transform(f: SymTwoTensorField, beta: CovectorField,
                                  path: GeodesicPath) -> float:
    """X-ray transform with a one-form term over a unit-speed base
    geodesic: integral of <f, x' x x'> + <beta, x'>."""
    if abs(path.speed_squared - 1.0) > UNIT_SPEED_TOL:
        raise PreconditionError(
            f"base path not unit speed (|x'|^2 = {path.speed_squared:g})")
    return simpson(_tensor_along(f, path) + pairing_along(beta, path),
                   path.sigma)
