"""Ready-made geometries for experiments and tests.

Each scenario packages a Lorentzian metric with entry/exit boundary
hypersurfaces, and, where meaningful, the stationary block form and the
reduced magnetic system on the spatial base.  Entry generators produce
deterministic grids of admissible boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .connect import MetricFamily
from .fields import Array, CovectorField, ScalarField, SymTwoTensorField
from .gauge import GaugePair, scale_metric
from .geometry import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                       MetricField, boundary_project)
from .scattering import ScatteringRecord, scatter_batch
from .stationary import (MagneticRecord, MagneticSystem, StationaryMetric,
                         magnetic_scatter_batch)


@dataclass(frozen=True)
class Scenario:
    name: str
    metric: MetricField
    entry_surface: BoundaryHypersurface
    exit_surface: BoundaryHypersurface
    stationary: Optional[StationaryMetric] = None
    magnetic: Optional[MagneticSystem] = None
    spatial_boundary: Optional[BoundaryHypersurface] = None
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def constant_metric(dim: int, diag: Array, signature: str) -> MetricField:
    """Constant diagonal metric diag(diag) with analytic zero partials."""
    mat = np.diag(np.asarray(diag, float))

    def func(x):
        out = np.empty(np.shape(x)[:-1] + (dim, dim))
        out[...] = mat
        return out

    def dfunc(x):
        return np.zeros(np.shape(x)[:-1] + (dim, dim, dim))

    return MetricField(dim=dim, signature=signature, func=func, dfunc=dfunc)


def _time_slice(level: float, dim: int, exterior_sign: float) -> BoundaryHypersurface:
    grad = np.zeros(dim)
    grad[0] = 1.0

    return BoundaryHypersurface(
        value=lambda x: np.asarray(x, float)[..., 0] - level,
        gradient=lambda x: np.broadcast_to(grad, np.shape(x)),
        causal_type="spacelike",
        exterior_sign=exterior_sign,
        chart=lambda a: np.concatenate([[level], np.asarray(a, float)]),
        chart_inverse=lambda x: np.asarray(x, float)[1:])


def _cylinder(radius: float = 1.0) -> BoundaryHypersurface:
    r2 = radius ** 2

    def value(x):
        x = np.asarray(x, float)
        return 0.5 * (x[..., 1] ** 2 + x[..., 2] ** 2 - r2)

    def gradient(x):
        x = np.asarray(x, float)
        g = np.zeros_like(x)
        g[..., 1] = x[..., 1]
        g[..., 2] = x[..., 2]
        return g

    def chart(a):                  # a = (t, theta)
        t, th = float(a[0]), float(a[1])
        return np.array([t, radius * np.cos(th), radius * np.sin(th)])

    def chart_inverse(x):
        x = np.asarray(x, float)
        return np.array([x[0], np.arctan2(x[2], x[1])])

    return BoundaryHypersurface(value=value, gradient=gradient,
                                causal_type="timelike", exterior_sign=1.0,
                                chart=chart, chart_inverse=chart_inverse)


def _circle(radius: float = 1.0) -> BoundaryHypersurface:
    r2 = radius ** 2

    def value(x):
        x = np.asarray(x, float)
        return 0.5 * (np.einsum("...i,...i->...", x, x) - r2)

    def chart(a):                  # a = (theta,)
        th = float(np.asarray(a, float).reshape(-1)[0])
        return np.array([radius * np.cos(th), radius * np.sin(th)])

    def chart_inverse(x):
        x = np.asarray(x, float)
        return np.array([np.arctan2(x[1], x[0])])

    return BoundaryHypersurface(value=value,
                                gradient=lambda x: np.asarray(x, float),
                                causal_type="timelike", exterior_sign=1.0,
                                chart=chart, chart_inverse=chart_inverse)


def _rotation_form(B: float) -> CovectorField:
    def func(x):
        x = np.asarray(x, float)
        om = np.empty_like(x)
        om[..., 0] = -0.5 * B * x[..., 1]
        om[..., 1] = 0.5 * B * x[..., 0]
        return om

    def jac(x):
        x = np.asarray(x, float)
        J = np.zeros(np.shape(x)[:-1] + (2, 2))
        J[..., 0, 1] = 0.5 * B
        J[..., 1, 0] = -0.5 * B
        return J

    return CovectorField(dim=2, func=func, jac=jac)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def minkowski_slab(n_space: int = 2, thickness: float = 1.0) -> Scenario:
    dim = n_space + 1
    diag = np.ones(dim)
    diag[0] = -1.0
    return Scenario(
        name="minkowski_slab",
        metric=constant_metric(dim, diag, LORENTZIAN),
        entry_surface=_time_slice(0.0, dim, exterior_sign=-1.0),
        exit_surface=_time_slice(thickness, dim, exterior_sign=+1.0),
        params={"n_space": n_space, "thickness": thickness})


def product_disk() -> Scenario:
    cyl = _cylinder()
    h = constant_metric(2, np.ones(2), RIEMANNIAN)
    m = StationaryMetric(lam=ScalarField.constant(1.0),
                         omega=CovectorField.zero(2), base=h)
    return Scenario(
        name="product_disk",
        metric=constant_metric(3, np.array([-1.0, 1.0, 1.0]), LORENTZIAN),
        entry_surface=cyl, exit_surface=cyl,
        stationary=m, magnetic=MagneticSystem(base=h,
                                              omega=CovectorField.zero(2)),
        spatial_boundary=_circle(), params={})


def perturbed_product(amplitude: float = 0.1) -> Scenario:
    a = float(amplitude)

    def conf_jet(xs):
        """The factor c = 1 + a exp(-|xs|^2) and its gradient, from one
        exp."""
        xs = np.asarray(xs, float)
        bump = a * np.exp(-np.einsum("...i,...i->...", xs, xs))
        return 1.0 + bump, -2.0 * xs * bump[..., None]

    def g_of(c):
        g = np.zeros(c.shape + (3, 3))
        g[..., 0, 0] = -1.0
        g[..., 1, 1] = c
        g[..., 2, 2] = c
        return g

    def func(x):
        return g_of(conf_jet(np.asarray(x, float)[..., 1:])[0])

    def jetfunc(x):
        x = np.asarray(x, float)
        c, dc = conf_jet(x[..., 1:])     # (...), (..., 2)
        dg = np.zeros(x.shape[:-1] + (3, 3, 3))
        for k in (1, 2):
            dg[..., k, 1, 1] = dc[..., k - 1]
            dg[..., k, 2, 2] = dc[..., k - 1]
        return g_of(c), dg

    def h_of(c):
        return c[..., None, None] * np.broadcast_to(np.eye(2),
                                                    c.shape + (2, 2))

    def h_jetfunc(xs):
        c, dc = conf_jet(xs)
        return h_of(c), dc[..., :, None, None] * np.eye(2)

    h = MetricField(dim=2, signature=RIEMANNIAN,
                    func=lambda xs: h_of(conf_jet(xs)[0]),
                    dfunc=lambda xs: h_jetfunc(xs)[1], jetfunc=h_jetfunc)
    m = StationaryMetric(lam=ScalarField.constant(1.0),
                         omega=CovectorField.zero(2), base=h)
    cyl = _cylinder()
    return Scenario(
        name="perturbed_product",
        metric=MetricField(dim=3, signature=LORENTZIAN, func=func,
                           dfunc=lambda x: jetfunc(x)[1], jetfunc=jetfunc),
        entry_surface=cyl, exit_surface=cyl,
        stationary=m,
        magnetic=MagneticSystem(base=h, omega=CovectorField.zero(2)),
        spatial_boundary=_circle(),
        params={"amplitude": a})


def stationary_rot(B: float = 0.2) -> Scenario:
    omega = _rotation_form(float(B))
    h = constant_metric(2, np.ones(2), RIEMANNIAN)
    m = StationaryMetric(lam=ScalarField.constant(1.0), omega=omega, base=h)
    cyl = _cylinder()
    return Scenario(
        name="stationary_rot",
        metric=m.assembled,
        entry_surface=cyl, exit_surface=cyl,
        stationary=m, magnetic=MagneticSystem(base=h, omega=omega),
        spatial_boundary=_circle(),
        params={"B": float(B)})


_BUILDERS = {
    "minkowski_slab": minkowski_slab,
    "product_disk": product_disk,
    "perturbed_product": perturbed_product,
    "stationary_rot": stationary_rot,
}


def build(kind: str, **params) -> Scenario:
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise KeyError(f"unknown scenario {kind!r}; "
                       f"choose from {sorted(_BUILDERS)}") from None
    return builder(**params)


def available() -> list[str]:
    return sorted(_BUILDERS)


# ---------------------------------------------------------------------------
# deterministic boundary data grids
# ---------------------------------------------------------------------------

def scattering_entries(scenario: Scenario, n: int,
                       seed: int = 0) -> list[tuple[Array, Array]]:
    """Admissible (x, v') grid on the entry surface: projected entries
    with a lightlike inward completion, away from tangency."""
    rng = np.random.default_rng(seed)
    out = []
    if scenario.name == "minkowski_slab":
        ns = scenario.params["n_space"]
        for _ in range(n):
            x = np.zeros(ns + 1)
            x[1:] = rng.uniform(-0.5, 0.5, ns)
            v = rng.uniform(0.4, 1.4) * _unit(rng.normal(size=ns))
            out.append((x, np.concatenate([[0.0], v])))
        return out
    # cylinder entries: v' = dt + b * dtheta with |b| < 1
    for _ in range(n):
        th = rng.uniform(0.0, 2 * np.pi)
        t = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.75, 0.75)
        x = np.array([t, np.cos(th), np.sin(th)])
        tang = np.array([0.0, -np.sin(th), np.cos(th)])
        v_full = np.concatenate([[1.0], b * tang[1:]])
        out.append((x, boundary_project(scenario.metric,
                                        scenario.entry_surface, x, v_full)))
    return out


def _unit(v: Array) -> Array:
    return v / np.linalg.norm(v)


def magnetic_entries(scenario: Scenario, n: int,
                     seed: int = 0) -> list[tuple[Array, Array]]:
    """Sub-unit tangential entries (x, u') on the spatial boundary."""
    if scenario.spatial_boundary is None:
        raise ValueError(f"scenario {scenario.name} has no spatial boundary")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        th = rng.uniform(0.0, 2 * np.pi)
        b = rng.uniform(-0.75, 0.75)
        x = np.array([np.cos(th), np.sin(th)])
        tang = np.array([-np.sin(th), np.cos(th)])
        hm = scenario.magnetic.base.matrix(x)
        norm = np.sqrt(float(tang @ hm @ tang))
        out.append((x, (b / norm) * tang))
    return out


def rotation_bump_pair(eps: float = 0.15):
    """Boundary-fixing diffeomorphism of the unit disk: rotation by the
    radius-dependent angle eps*(1 - |x|^2)^2.  Radius is preserved, so
    the closed-form inverse rotates back by the same angle.  Packaged
    with a zero potential."""

    def theta(x):
        x = np.asarray(x, float)
        r2 = np.einsum("...i,...i->...", x, x)
        return eps * (1.0 - r2) ** 2

    def rotate(x, sign):
        x = np.asarray(x, float)
        th = sign * theta(x)
        c, s = np.cos(th), np.sin(th)
        return np.stack([c * x[..., 0] - s * x[..., 1],
                         s * x[..., 0] + c * x[..., 1]], axis=-1)

    def jac(x):
        x = np.asarray(x, float)
        th = theta(x)
        c, s = np.cos(th), np.sin(th)
        r2 = np.einsum("...i,...i->...", x, x)
        dth = -4.0 * eps * (1.0 - r2)[..., None] * x      # d_i theta
        R = np.stack([np.stack([c, -s], axis=-1),
                      np.stack([s, c], axis=-1)], axis=-2)
        Rp = np.stack([np.stack([-s, -c], axis=-1),
                       np.stack([c, -s], axis=-1)], axis=-2)
        Rx = np.einsum("...kl,...l->...k", Rp, x)
        return R + Rx[..., :, None] * dth[..., None, :]

    return GaugePair(dim=2, psi=lambda x: rotate(x, +1.0),
                     psi_inv=lambda x: rotate(x, -1.0),
                     phi=ScalarField.constant(0.0), jac=jac)


def time_shift_pair(amplitude: float = 0.05):
    """Pure potential gauge pair on the unit disk: psi = id, phi a
    radial bump vanishing (with its tangential derivative) on the
    boundary circle."""
    a = float(amplitude)

    def phi_func(x):
        x = np.asarray(x, float)
        r2 = np.einsum("...i,...i->...", x, x)
        return a * (1.0 - r2) ** 2

    def phi_grad(x):
        x = np.asarray(x, float)
        r2 = np.einsum("...i,...i->...", x, x)
        return -4.0 * a * (1.0 - r2)[..., None] * x

    base = GaugePair.identity(2)
    return GaugePair(dim=2, psi=base.psi, psi_inv=base.psi_inv,
                     phi=ScalarField(func=phi_func, grad=phi_grad),
                     jac=base.jac)


def conformal_bump(amplitude: float = 0.1) -> ScalarField:
    """Positive factor 1 + amplitude * exp(-|x|^2) on the spatial chart."""
    a = float(amplitude)

    def func(x):
        x = np.asarray(x, float)
        return 1.0 + a * np.exp(-np.einsum("...i,...i->...", x, x))

    def grad(x):
        x = np.asarray(x, float)
        return -2.0 * a * np.exp(
            -np.einsum("...i,...i->...", x, x))[..., None] * x

    return ScalarField(func=func, grad=grad, positive=True)


def stretch_family() -> MetricFamily:
    """g_tau = -dt^2 + (1 + tau) |dx|^2 on the disk chart."""
    f = SymTwoTensorField(dim=3, func=lambda x: np.broadcast_to(
        np.diag([0.0, 1.0, 1.0]), np.shape(x)[:-1] + (3, 3)))
    return MetricFamily(eval=lambda tau: constant_metric(
        3, [-1.0, 1.0 + tau, 1.0 + tau], LORENTZIAN), derivative_at_0=f)


def conformal_family(g0: MetricField) -> MetricFamily:
    """g_tau = (1 + tau c) g0 with c = conformal_bump(0.5) of the spatial
    coordinates: a pure conformal (gauge) family."""
    c = spacetime_field(conformal_bump(0.5))

    def eval_tau(tau):
        return scale_metric(g0, ScalarField(
            func=lambda x: 1.0 + tau * c(x),
            grad=lambda x: tau * c.gradient(x), positive=True))

    f = SymTwoTensorField(dim=3, func=lambda x: c(x)[..., None, None]
                          * np.asarray(g0.func(x), float))
    return MetricFamily(eval=eval_tau, derivative_at_0=f)


def equivalence_fields() -> tuple[SymTwoTensorField, CovectorField]:
    """Variations (dh, dom) of the base metric and the one-form on the
    unit disk: dh = exp(-|x|^2) Id and dom = (0.3 y^2, 0.2 + 0.1 x)."""

    def bump(p):
        p = np.asarray(p, float)
        return np.exp(-np.einsum("...i,...i->...", p, p))

    dh = SymTwoTensorField(dim=2, func=lambda p: bump(p)[
        ..., None, None] * np.eye(2))
    dom = CovectorField(dim=2, func=lambda p: np.stack(
        [0.3 * np.asarray(p, float)[..., 1] ** 2,
         0.2 + 0.1 * np.asarray(p, float)[..., 0]], axis=-1))
    return dh, dom


def gaussian_factor() -> ScalarField:
    """Conformal factor 1 + 0.3 exp(-|x|^2) of the spatial coordinates."""
    return spacetime_field(conformal_bump(0.3))


def reparam_start(scenario: Scenario) -> tuple[Array, Array]:
    """Null start (x0, xi0) of the conformal reparametrization check:
    xi0 lowers the lightlike vector (1, 0.8, 0.6) at x0."""
    x0 = np.array([0.0, -0.5, 0.1])
    return x0, scenario.metric.matrix(x0) @ np.array([1.0, 0.8, 0.6])


def collar_one_form() -> CovectorField:
    """One-form on the collar chart (theta, d), d the normal distance,
    with a normal component that does not vanish."""

    def om_func(p):
        p = np.asarray(p, float)
        th, d = p[..., 0], p[..., 1]
        return np.stack([0.1 * (1.0 - d) ** 2 + 0.05 * d * np.sin(th),
                         0.3 * d + 0.1 * np.cos(th)], axis=-1)

    return CovectorField(dim=2, func=om_func)


def spacetime_field(c: ScalarField) -> ScalarField:
    """The spatial field c as a field of the spacetime point (t, x)."""

    def grad(x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 1:] = c.gradient(x[..., 1:])
        return out

    return ScalarField(func=lambda x: c(np.asarray(x, float)[..., 1:]),
                       grad=grad, positive=c.positive)


def scattered_entries(scenario: Scenario, n: int, seed: int = 0,
                      step: float = 1e-3,
                      keep_paths: bool = False) -> list[ScatteringRecord]:
    """The lightlike scattering of scattering_entries(scenario, n, seed):
    one scatter_batch call, max_sigma 30."""
    entries = scattering_entries(scenario, n, seed)
    if not entries:
        return []
    xs, vs = map(np.array, zip(*entries))
    return scatter_batch(scenario.metric, scenario.entry_surface,
                         scenario.exit_surface, xs, vs, step=step,
                         max_sigma=30.0, keep_paths=keep_paths)


def null_pairs(scenario: Scenario, n: int,
               seed: int = 0) -> list[tuple[Array, Array]]:
    """Boundary pairs on the lightlike-connectivity set: the entry and
    exit points of scattered_entries."""
    return [(r.x, r.y) for r in scattered_entries(scenario, n, seed)]


def magnetic_pairs(scenario: Scenario, n: int,
                   seed: int = 0) -> list[MagneticRecord]:
    """The magnetic scattering of magnetic_entries(scenario, n, seed), one
    magnetic_scatter_batch call; each record's (x, y) is a magnetic pair."""
    entries = magnetic_entries(scenario, n, seed)
    if not entries:
        return []
    xs, us = map(np.array, zip(*entries))
    return magnetic_scatter_batch(scenario.magnetic,
                                  scenario.spatial_boundary, xs, us)


def disk_pairs(n: int, seed: int) -> tuple[Array, Array]:
    """n boundary pairs (x, y) of the unit cylinder, x at time 0 and y
    at time s in [0.3, 2.5], their angles 0.4 pi to 1.6 pi apart."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n):
        th1 = rng.uniform(0.0, 2 * np.pi)
        th2 = th1 + rng.uniform(0.4 * np.pi, 1.6 * np.pi)
        s = rng.uniform(0.3, 2.5)
        xs.append([0.0, np.cos(th1), np.sin(th1)])
        ys.append([s, np.cos(th2), np.sin(th2)])
    return np.array(xs), np.array(ys)
