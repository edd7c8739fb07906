"""Ready-made geometries for experiments and tests.

Each scenario packages a Lorentzian metric with entry/exit boundary
hypersurfaces, and, where meaningful, the stationary block form, whose
reduced magnetic system on the spatial base is Scenario.magnetic.  Entry
generators produce deterministic grids of admissible boundary data.  The
test fields (disk_bump, gaussian, and the gauge pairs and factors built
from them) are each defined once here, with their derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .connect import MetricFamily
from .fields import (Array, CovectorField, ScalarField, SymTwoTensorField,
                     einsum)
from .gauge import GaugePair, scale_metric
from .geometry import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                       MetricField, _dot, boundary_project)
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
    spatial_boundary: Optional[BoundaryHypersurface] = None
    params: dict = field(default_factory=dict)

    @property
    def magnetic(self) -> Optional[MagneticSystem]:
        """The magnetic system of the stationary form, if there is one."""
        return None if self.stationary is None else self.stationary.magnetic


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

    def jetfunc(x):
        return func(x), np.zeros(np.shape(x)[:-1] + (dim, dim, dim))

    return MetricField(dim=dim, signature=signature, func=func,
                       jetfunc=jetfunc)


def disk_bump(x: Array, amplitude: float, order: int) -> tuple[Array, ...]:
    """The bump b = amplitude (1 - |x|^2)^2, zero with its gradient on the
    unit circle, and its derivatives up to ``order`` (0, 1 or 2): b,
    d_i b = -4 amplitude (1 - |x|^2) x_i and d_i d_j b = amplitude
    (-4 (1 - |x|^2) delta_ij + 8 x_i x_j)."""
    x = np.asarray(x, float)
    u = 1.0 - einsum("...i,...i->...", x, x)
    out = (amplitude * u ** 2,)
    if order >= 1:
        out += (-4.0 * amplitude * u[..., None] * x,)
    if order >= 2:
        out += (-4.0 * amplitude * u[..., None, None] * np.eye(x.shape[-1])
                + 8.0 * amplitude * x[..., :, None] * x[..., None, :],)
    return out


def gaussian(x: Array, amplitude: float, order: int) -> tuple[Array, ...]:
    """The Gaussian G = amplitude exp(-|x|^2), and for ``order`` 1 also
    its gradient -2 x G, from one exp."""
    x = np.asarray(x, float)
    G = amplitude * np.exp(-einsum("...i,...i->...", x, x))
    return (G, -2.0 * x * G[..., None]) if order >= 1 else (G,)


def _time_slice(level: float, dim: int, exterior_sign: float) -> BoundaryHypersurface:
    grad = np.zeros(dim)
    grad[0] = 1.0

    return BoundaryHypersurface(
        value=lambda x: np.asarray(x, float)[..., 0] - level,
        gradient=lambda x: np.broadcast_to(grad, np.shape(x)),
        exterior_sign=exterior_sign,
        chart=lambda a: np.insert(np.asarray(a, float), 0, level, axis=-1),
        chart_inverse=lambda x: np.asarray(x, float)[..., 1:])


def _cylinder() -> BoundaryHypersurface:
    """The unit cylinder R x {|x| = 1}: the unit circle of the spatial
    coordinates, with the time coordinate as the first chart parameter."""
    circle = _circle()
    return BoundaryHypersurface(
        value=lambda x: circle.value(np.asarray(x, float)[..., 1:]),
        gradient=lambda x: np.concatenate(
            [np.zeros(np.shape(x)[:-1] + (1,)),
             circle.gradient(np.asarray(x, float)[..., 1:])], axis=-1),
        exterior_sign=1.0,
        chart=lambda a: np.insert(circle.chart(np.asarray(a, float)[..., 1:]),
                                  0, np.asarray(a, float)[..., 0], axis=-1),
        chart_inverse=lambda x: np.insert(
            circle.chart_inverse(np.asarray(x, float)[..., 1:]), 0,
            np.asarray(x, float)[..., 0], axis=-1))


def _circle() -> BoundaryHypersurface:
    """The unit circle |x| = 1 charted by its angle; the value and the
    gradient x are those of the unit sphere in any dimension."""

    def value(x):
        x = np.asarray(x, float)
        return 0.5 * (einsum("...i,...i->...", x, x) - 1.0)

    def chart(a):                  # a = (..., 1), the angle theta
        th = np.asarray(a, float)[..., 0]
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def chart_inverse(x):
        x = np.asarray(x, float)
        return np.arctan2(x[..., 1], x[..., 0])[..., None]

    return BoundaryHypersurface(value=value,
                                gradient=lambda x: np.asarray(x, float),
                                exterior_sign=1.0,
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
    if not n_space >= 1:
        raise ValueError(f"minkowski_slab needs n_space >= 1, not {n_space}")
    if not thickness > 0.0:
        raise ValueError(f"minkowski_slab needs thickness > 0, not "
                         f"{thickness}")
    dim = n_space + 1
    diag = np.ones(dim)
    diag[0] = -1.0
    return Scenario(
        name="minkowski_slab",
        metric=constant_metric(dim, diag, LORENTZIAN),
        entry_surface=_time_slice(0.0, dim, exterior_sign=-1.0),
        exit_surface=_time_slice(thickness, dim, exterior_sign=+1.0),
        params={"n_space": n_space, "thickness": thickness})


def _disk_scenario(name: str, metric: Optional[MetricField],
                   omega: CovectorField, base: MetricField,
                   params: dict) -> Scenario:
    """A scenario on R x the unit disk with the stationary form
    -(dt + omega)^2 + base, whose metric is ``metric`` or, for None, the
    assembled stationary form: lightlike data on the unit cylinder,
    magnetic data on the unit circle."""
    m = StationaryMetric(omega=omega, base=base)
    cyl = _cylinder()
    return Scenario(
        name=name, metric=m.assembled if metric is None else metric,
        entry_surface=cyl, exit_surface=cyl, stationary=m,
        spatial_boundary=_circle(), params=params)


def product_disk() -> Scenario:
    return _disk_scenario(
        "product_disk", constant_metric(3, [-1.0, 1.0, 1.0], LORENTZIAN),
        CovectorField.zero(2), constant_metric(2, np.ones(2), RIEMANNIAN), {})


def perturbed_product(amplitude: float = 0.1) -> Scenario:
    """-dt^2 + c |dx|^2 with c = conformal_bump(amplitude)."""
    a = float(amplitude)
    c = conformal_bump(a)

    def g_of(cx):
        g = np.zeros(cx.shape + (3, 3))
        g[..., 0, 0] = -1.0
        g[..., 1, 1] = cx
        g[..., 2, 2] = cx
        return g

    def jetfunc(x):
        """g and its partials, with c and its gradient from one exp."""
        x = np.asarray(x, float)
        bump, dc = gaussian(x[..., 1:], a, 1)     # (...), (..., 2)
        dg = np.zeros(x.shape[:-1] + (3, 3, 3))
        dg[..., 1:, 1, 1] = dg[..., 1:, 2, 2] = dc
        return g_of(1.0 + bump), dg

    return _disk_scenario(
        "perturbed_product", MetricField(
            dim=3, signature=LORENTZIAN, jetfunc=jetfunc,
            func=lambda x: g_of(c(np.asarray(x, float)[..., 1:]))),
        CovectorField.zero(2),
        scale_metric(constant_metric(2, np.ones(2), RIEMANNIAN), c),
        {"amplitude": a})


def stationary_rot(B: float = 0.2) -> Scenario:
    return _disk_scenario("stationary_rot", None, _rotation_form(float(B)),
                          constant_metric(2, np.ones(2), RIEMANNIAN),
                          {"B": float(B)})


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
    # cylinder entries: v' = dt + b * dtheta with |b| < 1, each entry
    # drawing (theta, t, b) in turn, projected in one batch
    th, t, b = rng.uniform([0.0, -0.5, -0.75], [2 * np.pi, 0.5, 0.75],
                           size=(n, 3)).T
    c, s = np.cos(th), np.sin(th)
    xs = np.stack([t, c, s], axis=-1)
    v_full = np.stack([np.ones(n), b * -s, b * c], axis=-1)
    return list(zip(xs, boundary_project(scenario.metric,
                                         scenario.entry_surface, xs, v_full)))


def _unit(v: Array) -> Array:
    return v / np.linalg.norm(v)


def magnetic_entries(scenario: Scenario, n: int,
                     seed: int = 0) -> list[tuple[Array, Array]]:
    """Sub-unit tangential entries (x, u') on the spatial boundary."""
    if scenario.spatial_boundary is None:
        raise ValueError(f"scenario {scenario.name} has no spatial boundary")
    # each entry draws (theta, b) in turn; one metric call for all
    th, b = np.random.default_rng(seed).uniform(
        [0.0, -0.75], [2 * np.pi, 0.75], size=(n, 2)).T
    xs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    tang = np.stack([-xs[:, 1], xs[:, 0]], axis=-1)
    norm = np.sqrt(_dot(tang, scenario.magnetic.base.matrix(xs), tang))
    return list(zip(xs, (b / norm)[:, None] * tang))


def rotation_bump_pair(eps: float = 0.15):
    """Boundary-fixing diffeomorphism of the unit disk: rotation by the
    radius-dependent angle disk_bump(x, eps).  Radius is preserved, so
    the closed-form inverse rotates back by the same angle.  Packaged
    with a zero potential."""

    def rotate(x, sign):
        x = np.asarray(x, float)
        th = sign * disk_bump(x, eps, 0)[0]
        c, s = np.cos(th), np.sin(th)
        return np.stack([c * x[..., 0] - s * x[..., 1],
                         s * x[..., 0] + c * x[..., 1]], axis=-1)

    def jac(x):
        x = np.asarray(x, float)
        th, dth = disk_bump(x, eps, 1)                    # theta, d_i theta
        c, s = np.cos(th), np.sin(th)
        R = np.stack([np.stack([c, -s], axis=-1),
                      np.stack([s, c], axis=-1)], axis=-2)
        Rp = np.stack([np.stack([-s, -c], axis=-1),
                       np.stack([c, -s], axis=-1)], axis=-2)
        Rx = einsum("...kl,...l->...k", Rp, x)
        return R + Rx[..., :, None] * dth[..., None, :]

    return GaugePair(dim=2, psi=lambda x: rotate(x, +1.0),
                     psi_inv=lambda x: rotate(x, -1.0),
                     phi=ScalarField.constant(0.0), jac=jac)


def time_shift_pair(amplitude: float = 0.05):
    """Pure potential gauge pair on the unit disk: psi = id and phi =
    disk_bump(x, amplitude), which vanishes with its gradient on the
    boundary circle."""
    a = float(amplitude)
    return replace(GaugePair.identity(2), phi=ScalarField(
        func=lambda x: disk_bump(x, a, 0)[0],
        grad=lambda x: disk_bump(x, a, 1)[1]))


def conformal_bump(amplitude: float = 0.1) -> ScalarField:
    """Positive factor 1 + gaussian(x, amplitude) on the spatial chart."""
    a = float(amplitude)
    return ScalarField(func=lambda x: 1.0 + gaussian(x, a, 0)[0],
                       grad=lambda x: gaussian(x, a, 1)[1], positive=True)


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
    dh = SymTwoTensorField(dim=2, func=lambda p: gaussian(p, 1.0, 0)[0][
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
    xs, vs = np.reshape(scattering_entries(scenario, n, seed),
                        (-1, 2, scenario.metric.dim)).swapaxes(0, 1)
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
    xs, us = np.reshape(magnetic_entries(scenario, n, seed),
                        (-1, 2, scenario.magnetic.base.dim)).swapaxes(0, 1)
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
