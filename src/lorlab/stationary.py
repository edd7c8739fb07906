"""Stationary Lorentzian metrics lam * (-(dt + omega)^2 + h) and their
reduction to a magnetic flow on the spatial base.

Covers assembly and disassembly of the block form, the magnetic
scattering relation and action on the base, lifting of magnetic
geodesics to lightlike ones, the graph identity for the action, the
equivalence of the two linearized transforms, and the normal-gauge
normalization of the one-form near a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from .errors import NoLiftError, PreconditionError
from .fields import Array, CovectorField, ScalarField, SymTwoTensorField
from .geometry import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                       GeodesicPath, MetricField, boundary_normal,
                       boundary_project, geodesic_accel, geodesic_term,
                       inner, integrate_flow_paths, integrate_geodesic,
                       metric_solve, scatter_paths)
from .lightray import light_ray_transform, magnetic_linearized_transform
from .scattering import ScatteringRecord, scatter
from .connect import _chart_stencil, solve_two_point


# ---------------------------------------------------------------------------
# stationary metrics in block form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryMetric:
    """Time-independent metric lam * (-(dt + omega)^2 + h) on R x N.

    ``lam`` and ``omega`` live on the spatial chart of N, ``base`` is the
    Riemannian metric h there.  Coordinate 0 of the assembled chart is t.
    """

    lam: ScalarField
    omega: CovectorField
    base: MetricField

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def assembled(self) -> MetricField:
        n = self.n

        def block(x, lam, om, h):
            g = np.empty(x.shape[:-1] + (n + 1, n + 1))
            g[..., 0, 0] = -lam
            g[..., 0, 1:] = -lam[..., None] * om
            g[..., 1:, 0] = g[..., 0, 1:]
            g[..., 1:, 1:] = lam[..., None, None] * (
                h - om[..., :, None] * om[..., None, :])
            return g

        def func(x):
            x = np.asarray(x, float)
            xs = x[..., 1:]
            return block(x, self.lam(xs), self.omega(xs),
                         np.asarray(self.base.func(xs), float))

        dfunc = jetfunc = None
        if (self.lam.grad is not None and self.omega.jac is not None
                and self.base.dfunc is not None):

            def jetfunc(x):
                x = np.asarray(x, float)
                xs = x[..., 1:]
                lam = self.lam(xs)
                om = self.omega(xs)
                h, dh = self.base._unchecked_jet(xs)  # dh (..., k, i, j)
                dlam = self.lam.gradient(xs)          # (..., n)
                dom = self.omega.jacobian(xs)         # (..., k, j)
                red = h - om[..., :, None] * om[..., None, :]
                dred = (dh - dom[..., :, :, None] * om[..., None, None, :]
                        - om[..., None, :, None] * dom[..., :, None, :])
                dg = np.zeros(x.shape[:-1] + (n + 1, n + 1, n + 1))
                dg[..., 1:, 0, 0] = -dlam
                mixed = -(dlam[..., :, None] * om[..., None, :]
                          + lam[..., None, None] * dom)
                dg[..., 1:, 0, 1:] = mixed
                dg[..., 1:, 1:, 0] = mixed
                dg[..., 1:, 1:, 1:] = (
                    dlam[..., :, None, None] * red[..., None, :, :]
                    + lam[..., None, None, None] * dred)
                return block(x, lam, om, h), dg

            def dfunc(x):
                return jetfunc(x)[1]

        domain = None
        if self.base.domain is not None:
            domain = lambda x: self.base.domain(np.asarray(x, float)[..., 1:])
        return MetricField(dim=n + 1, signature=LORENTZIAN, func=func,
                           dfunc=dfunc, domain=domain, jetfunc=jetfunc)


def reduced_time_component(m: StationaryMetric, x_spatial: Array,
                           v: Array) -> Array:
    """v_t + <omega, v_x>: invariant under adding multiples of the
    boundary normal, hence equal on a vector and its projection."""
    v = np.asarray(v, float)
    om = m.omega(np.asarray(x_spatial, float))
    val = v[..., 0] + np.einsum("...i,...i->...", om, v[..., 1:])
    return float(val) if np.ndim(val) == 0 else val


def from_raw(g: MetricField) -> StationaryMetric:
    """Recover (lam, omega, h) from a time-independent Lorentzian metric
    given as a plain matrix field on R x N."""
    n = g.dim - 1

    def full(xs):
        xs = np.asarray(xs, float)
        return np.concatenate([np.zeros(xs.shape[:-1] + (1,)), xs], axis=-1)

    def lam_func(xs):
        return -np.asarray(g.func(full(xs)), float)[..., 0, 0]

    def om_func(xs):
        G = np.asarray(g.func(full(xs)), float)
        return G[..., 0, 1:] / G[..., 0, 0][..., None]

    def h_func(xs):
        G = np.asarray(g.func(full(xs)), float)
        lam = -G[..., 0, 0]
        om = G[..., 0, 1:] / G[..., 0, 0][..., None]
        return (G[..., 1:, 1:] / lam[..., None, None]
                + om[..., :, None] * om[..., None, :])

    return StationaryMetric(
        lam=ScalarField(func=lam_func, positive=True),
        omega=CovectorField(dim=n, func=om_func),
        base=MetricField(dim=n, signature=RIEMANNIAN, func=h_func))


def conformal_normalize(m: StationaryMetric) -> StationaryMetric:
    """Divide out the conformal factor: same omega and h, lam = 1."""
    return StationaryMetric(lam=ScalarField.constant(1.0), omega=m.omega,
                            base=m.base)


# ---------------------------------------------------------------------------
# the magnetic flow on the base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagneticSystem:
    """Riemannian base metric h with the magnetic two-form d(omega)."""

    base: MetricField
    omega: CovectorField

    def two_form(self, x: Array) -> Array:
        return self.omega.exterior_derivative(x)

    def lorentz_force(self, x: Array, u: Array,
                      hm: Optional[Array] = None) -> Array:
        """Y u with h(Y u, .) = d(omega)(u, .), batched; ``hm`` is the
        matrix of h at x when the caller has it."""
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        A = self.two_form(x)
        rhs = np.einsum("...ij,...i->...j", A, u)
        return metric_solve(self.base.matrix(x) if hm is None else hm, rhs)


def magnetic_accel(mag: MagneticSystem, speed_from_velocity: bool = False):
    """Acceleration of the charge-one magnetic flow x'' = -Gamma(h) x'x'
    + Y x'.  With speed_from_velocity the force carries a factor |x'|_h,
    which makes the [0, 1]-parametrized flow a smooth shooting target.
    h comes from one MetricField.jet per call, checked as in
    geodesic_accel."""
    base = mag.base

    def accel(x: Array, v: Array, check: bool = True) -> Array:
        hm, dh = base.jet(x, check)
        force = mag.lorentz_force(x, v, hm)
        if speed_from_velocity:
            speed = np.sqrt(np.einsum("...i,...ij,...j->...", v, hm, v))
            force = speed[..., None] * force
        return geodesic_term(hm, dh, v) + force

    return accel


def magnetic_integrate(mag: MagneticSystem, x0: Array, u0: Array, stop,
                       step: float = 1e-3, max_sigma: float = 10.0,
                       require_interior_first: bool = False) -> GeodesicPath:
    """Arc-length magnetic geodesic from (x0, u0); u0 must be h-unit.
    The batch of one of integrate_flow_paths."""
    (path,) = integrate_flow_paths(
        magnetic_accel(mag), mag.base, np.asarray(x0, float)[None],
        np.asarray(u0, float)[None], stop, step, max_sigma,
        require_interior_first=require_interior_first, unit_speed=True)
    return path


def curve_flux(omega: CovectorField, path: GeodesicPath) -> float:
    """Line integral of the one-form along the sampled curve."""
    vals = np.einsum("mi,mi->m", omega(path.x), path.v)
    return float(simpson(vals, x=path.sigma))


@dataclass(frozen=True)
class MagneticRecord:
    """One evaluation of the magnetic scattering relation with its
    length and action (length minus flux of omega)."""

    x: Array
    u_proj: Array
    y: Array
    w_proj: Array
    length: float
    action: float
    path: Optional[GeodesicPath] = None


def magnetic_scatter_batch(mag: MagneticSystem, S: BoundaryHypersurface,
                           xs: Array, u_projs: Array, step: float = 1e-3,
                           max_sigma: float = 10.0,
                           keep_paths: bool = False) -> list[MagneticRecord]:
    """Shoot the unit-speed magnetic geodesics with inward completions of
    the sub-unit tangential entries u_projs (B, n) from xs on S back to S,
    one RK4 march for all.  The checks are those of scatter_batch, with
    NoLiftError for |u'|_h >= 1; errors name the failing ray."""

    def lift(x, up):
        q = float(inner(mag.base, x, up, up))
        if q >= 1.0:
            raise NoLiftError(f"tangential entry has |u'|_h^2 = {q:g} >= 1; "
                              "no unit completion")
        return up - np.sqrt(1.0 - q) * boundary_normal(S, mag.base, x)

    xs, u_projs, paths = scatter_paths(magnetic_accel(mag), mag.base, S, S,
                                       xs, u_projs, lift, step, max_sigma,
                                       unit_speed=True)
    records = []
    for x, up, path in zip(xs, u_projs, paths):
        length = float(path.sigma[-1])
        records.append(MagneticRecord(
            x=x, u_proj=up, y=path.end[0],
            w_proj=boundary_project(mag.base, S, *path.end), length=length,
            action=length - curve_flux(mag.omega, path),
            path=path if keep_paths else None))
    return records


def magnetic_scatter(mag: MagneticSystem, S: BoundaryHypersurface, x: Array,
                     u_proj: Array, step: float = 1e-3,
                     max_sigma: float = 10.0,
                     keep_path: bool = True) -> MagneticRecord:
    """Magnetic scattering of one boundary entry: the batch of one of
    magnetic_scatter_batch."""
    return magnetic_scatter_batch(mag, S, np.asarray(x, float)[None],
                                  np.asarray(u_proj, float)[None], step,
                                  max_sigma, keep_path)[0]


# ---------------------------------------------------------------------------
# two-point magnetic connectors and the action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagneticConnector:
    """Unit-speed magnetic geodesic from x to y with its invariants."""

    path: GeodesicPath            # arc-length parametrized on [0, length]
    x: Array
    y: Array
    length: float
    flux: float
    initial_w: Array              # [0, 1]-parametrization initial velocity

    @property
    def action(self) -> float:
        return self.length - self.flux


def magnetic_connectors_batch(mag: MagneticSystem, xs: Array, ys: Array,
                              seeds: Optional[Array] = None,
                              n_steps: int = 400, tol: float = 1e-10,
                              **kw) -> list[MagneticConnector]:
    """Solve the magnetic two-point problems for a batch of endpoint
    pairs by shooting the smooth [0, 1]-parametrized flow, then rescale
    each connector to arc length."""
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    march = []
    ws = solve_two_point(magnetic_accel(mag, speed_from_velocity=True), xs,
                         ys, seeds=seeds, n_steps=n_steps, tol=tol,
                         march=march, **kw)
    tau, zx, zv = march
    out = []
    for b, (x, y, w) in enumerate(zip(xs, ys, ws)):
        length = float(np.sqrt(inner(mag.base, x, w, w)))
        unit = GeodesicPath(sigma=length * tau, x=zx[:, b],
                            v=zv[:, b] / length,
                            speed_squared=float(inner(mag.base, x, w / length,
                                                      w / length)))
        out.append(MagneticConnector(path=unit, x=x, y=y, length=length,
                                     flux=curve_flux(mag.omega, unit),
                                     initial_w=w))
    return out


def magnetic_connector(mag: MagneticSystem, x: Array, y: Array,
                       seed: Optional[Array] = None, n_steps: int = 400,
                       tol: float = 1e-10, **kw) -> MagneticConnector:
    """The batch of one of magnetic_connectors_batch."""
    seeds = None if seed is None else np.asarray(seed, float)[None]
    (conn,) = magnetic_connectors_batch(
        mag, np.asarray(x, float)[None], np.asarray(y, float)[None],
        seeds=seeds, n_steps=n_steps, tol=tol, **kw)
    return conn


def action_A(mag: MagneticSystem, x: Array, y: Array,
             seed: Optional[Array] = None, **kw) -> float:
    """Magnetic action of the connector: length minus flux of omega."""
    return magnetic_connector(mag, x, y, seed=seed, **kw).action


def magnetic_michel(mag: MagneticSystem, S: BoundaryHypersurface, x: Array,
                    y: Array, fd_step: float = 1e-5,
                    n_steps: int = 400) -> tuple[float, float]:
    """Graph identity residuals for the action: the tangential parts of
    the connector's entry and exit velocities (as h-covectors on the
    boundary charts) must equal -d'_x A + omega'(x) and d'_y A +
    omega'(y)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    conn = magnetic_connector(mag, x, y, n_steps=n_steps, tol=1e-12)
    a0, b0, dA_da, dA_db = _chart_stencil(
        S, S, x, y, conn.initial_w, fd_step,
        lambda xs, ys, seeds: np.array([c.action for c in (
            magnetic_connectors_batch(mag, xs, ys, seeds, n_steps=n_steps,
                                      tol=1e-12))]))

    frame_x = S.chart_frame(a0)
    frame_y = S.chart_frame(b0)
    hx = mag.base.matrix(x)
    hy = mag.base.matrix(y)
    u_entry = conn.path.v[0]
    w_exit = conn.path.v[-1]
    lhs_in = frame_x.T @ (hx @ u_entry)
    rhs_in = -dA_da + frame_x.T @ mag.omega(x)
    lhs_out = frame_y.T @ (hy @ w_exit)
    rhs_out = dA_db + frame_y.T @ mag.omega(y)
    return (float(np.abs(lhs_in - rhs_in).max()),
            float(np.abs(lhs_out - rhs_out).max()))


# ---------------------------------------------------------------------------
# projection and lifting between R x N and N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionCheck:
    k_value: float
    k_drift: float
    ode_residual: float
    speed_identity_residual: float


def project_and_verify(m: StationaryMetric, path: GeodesicPath,
                       lam_tol: float = 1e-12) -> ProjectionCheck:
    """Check that the spatial projection of a geodesic of the assembled
    metric (lam = 1) obeys the magnetic equation with constant charge
    k = t' + <omega, x'>, and that (v,v)_g = -k^2 + |x'|_h^2."""
    xs = path.x[:, 1:]
    vs = path.v[:, 1:]
    if np.abs(m.lam(xs) - 1.0).max() > lam_tol:
        raise PreconditionError("reduction requires the unit conformal factor")
    om = m.omega(xs)
    k = path.v[:, 0] + np.einsum("mi,mi->m", om, vs)
    k0 = float(k[0])
    k_drift = float(np.abs(k - k0).max())

    g = m.assembled
    mag = MagneticSystem(m.base, m.omega)
    a_full = geodesic_accel(g)(path.x, path.v)
    a_geo = geodesic_accel(m.base)(xs, vs)
    a_mag = a_geo + k[:, None] * mag.lorentz_force(xs, vs)
    ode_residual = float(np.abs(a_full[:, 1:] - a_mag).max())

    hm = m.base.matrix(xs)
    msq = np.einsum("mi,mij,mj->m", vs, hm, vs)
    speed_res = float(np.abs(path.speed_squared - (-k ** 2 + msq)).max())
    return ProjectionCheck(k_value=k0, k_drift=k_drift,
                           ode_residual=ode_residual,
                           speed_identity_residual=speed_res)


def lift_magnetic(m: StationaryMetric, path: GeodesicPath,
                  t0: float = 0.0) -> GeodesicPath:
    """Lift a unit-speed magnetic geodesic on N to the lightlike
    geodesic of the assembled metric (lam = 1) with charge k = 1:
    t' = 1 - <omega, x'>, t(0) = t0."""
    if abs(path.speed_squared - 1.0) > 1e-8:
        raise PreconditionError("base path is not unit speed")
    om_dot = np.einsum("mi,mi->m", m.omega(path.x), path.v)
    tdot = 1.0 - om_dot
    t = t0 + CubicSpline(path.sigma, tdot).antiderivative()(path.sigma)
    X = np.concatenate([t[:, None], path.x], axis=1)
    V = np.concatenate([tdot[:, None], path.v], axis=1)
    speed2 = float(inner(m.assembled, X[0], V[0], V[0]))
    return GeodesicPath(sigma=path.sigma, x=X, v=V, speed_squared=speed2)


def lift_residual(m: StationaryMetric, lifted: GeodesicPath) -> float:
    """Sup distance between the lifted curve and the geodesic of the
    assembled metric re-integrated from the lifted initial data."""
    span = float(lifted.sigma[-1] - lifted.sigma[0])
    step = float(np.median(np.diff(lifted.sigma)))
    re = integrate_geodesic(m.assembled, lifted.x[0], lifted.v[0],
                            stop=span, step=step)
    resampled = CubicSpline(re.sigma, re.x, axis=0)(lifted.sigma
                                                    - lifted.sigma[0])
    return float(np.abs(resampled - lifted.x).max())


# ---------------------------------------------------------------------------
# scattering relation versus magnetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    endpoint_residual: float
    exit_residual: float
    length_residual: float
    action_residual: float
    exit_time_component_residual: float
    record: ScatteringRecord
    magnetic_record: MagneticRecord


def thmmag_verify(m: StationaryMetric, U: BoundaryHypersurface,
                  S: BoundaryHypersurface, x: Array, v_proj: Array,
                  scatter_step: float = 1e-3, n_steps: int = 400,
                  max_sigma: float = 30.0) -> ReductionReport:
    """Compare the lightlike scattering relation on the cylinder R x dN
    (entry normalized to reduced time component one) with the magnetic
    scattering relation, the length identity length = s - t + flux, and
    the action identity A(x, y) = s - t."""
    x = np.asarray(x, float)
    v_proj = np.asarray(v_proj, float)
    xs, t = x[1:], float(x[0])
    k_in = reduced_time_component(m, xs, v_proj)
    if k_in <= 0:
        raise PreconditionError("reduced time component of entry not positive")
    v_proj = v_proj / k_in

    g = m.assembled
    rec = scatter(g, U, U, x, v_proj, step=scatter_step, max_sigma=max_sigma)
    s, yb = float(rec.y[0]), rec.y[1:]
    wt_red = reduced_time_component(m, yb, rec.w_proj)

    mag = MagneticSystem(m.base, m.omega)
    mrec = magnetic_scatter(mag, S, xs, v_proj[1:], step=scatter_step,
                            max_sigma=max_sigma)
    endpoint_res = float(np.linalg.norm(yb - mrec.y))
    exit_res = float(np.linalg.norm(rec.w_proj[1:] - mrec.w_proj))

    spatial = GeodesicPath(sigma=rec.path.sigma, x=rec.path.x[:, 1:],
                           v=rec.path.v[:, 1:], speed_squared=1.0)
    flux = curve_flux(m.omega, spatial)
    length_res = abs(mrec.length - (s - t + flux))
    act = action_A(mag, xs, yb, seed=(mrec.length
                                      * spatial.v[0]))
    action_res = abs(act - (s - t))
    return ReductionReport(endpoint_residual=endpoint_res,
                           exit_residual=exit_res,
                           length_residual=length_res,
                           action_residual=action_res,
                           exit_time_component_residual=abs(wt_red - 1.0),
                           record=rec, magnetic_record=mrec)


def reconstruct_exits(m: StationaryMetric, S: BoundaryHypersurface,
                      ts: Array, xs_spatial: Array, u_projs: Array,
                      step: float = 1e-3,
                      max_sigma: float = 30.0) -> list[tuple[Array, Array]]:
    """Rebuild the reduced lightlike exit data (y, w') on the cylinder
    from magnetic data alone, for entries at times ts, with one magnetic
    scatter for all: exit time t + A(x, y), exit covector with reduced
    time component one and tangential part from the magnetic relation."""
    mag = MagneticSystem(m.base, m.omega)
    out = []
    for t, mrec in zip(ts, magnetic_scatter_batch(
            mag, S, xs_spatial, u_projs, step, max_sigma, keep_paths=True)):
        act = action_A(mag, mrec.x, mrec.y,
                       seed=(mrec.length * (mrec.path.v[0])))
        wt = 1.0 - float(m.omega(mrec.y) @ mrec.w_proj)
        out.append((np.concatenate([[t + act], mrec.y]),
                    np.concatenate([[wt], mrec.w_proj])))
    return out


def reconstruct_exit(m: StationaryMetric, S: BoundaryHypersurface, t: float,
                     x_spatial: Array, u_proj: Array, step: float = 1e-3,
                     max_sigma: float = 30.0) -> tuple[Array, Array]:
    """The batch of one of reconstruct_exits."""
    (out,) = reconstruct_exits(m, S, [t], [x_spatial], [u_proj], step,
                               max_sigma)
    return out


# ---------------------------------------------------------------------------
# linearized transforms on R x N and on N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedEquivalence:
    lorentzian_value: float
    magnetic_value: float
    ratio: float
    length: float


def linearization_equivalence(m: StationaryMetric, dh: SymTwoTensorField,
                              dom: CovectorField, x: Array, y: Array,
                              t0: float = 0.0,
                              n_steps: int = 400) -> LinearizedEquivalence:
    """Light ray transform of the variation of -(dt + omega)^2 + h over
    the lifted [0, 1]-connector versus the magnetic transform of
    (dh / 2, -dom) over the arc-length base connector.  Both values and
    their ratio are reported; no proportionality factor is assumed."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if abs(float(m.lam(x)) - 1.0) > 1e-12:
        raise PreconditionError("equivalence requires the unit conformal factor")
    mag = MagneticSystem(m.base, m.omega)
    conn = magnetic_connector(mag, x, y, n_steps=n_steps)
    lifted = lift_magnetic(m, conn.path, t0=t0)
    ell = conn.length
    lifted01 = GeodesicPath(sigma=lifted.sigma / ell, x=lifted.x,
                            v=ell * lifted.v,
                            speed_squared=ell ** 2 * lifted.speed_squared)

    n = m.n

    def ffunc(p):
        p = np.asarray(p, float)
        xs = p[..., 1:]
        om = m.omega(xs)
        dhv = dh(xs)
        domv = dom(xs)
        f = np.empty(p.shape[:-1] + (n + 1, n + 1))
        f[..., 0, 0] = 0.0
        f[..., 0, 1:] = -domv
        f[..., 1:, 0] = -domv
        f[..., 1:, 1:] = (dhv - om[..., :, None] * domv[..., None, :]
                          - domv[..., :, None] * om[..., None, :])
        return f

    f_full = SymTwoTensorField(dim=n + 1, func=ffunc)
    lor = light_ray_transform(f_full, lifted01, lightlike_tol=1e-6)

    half_dh = SymTwoTensorField(dim=n, func=lambda p: 0.5 * dh(p))
    minus_dom = CovectorField(dim=n, func=lambda p: -dom(p))
    mag_val = magnetic_linearized_transform(half_dh, minus_dom, conn.path)
    return LinearizedEquivalence(lorentzian_value=lor,
                                 magnetic_value=mag_val,
                                 ratio=lor / mag_val, length=ell)


# ---------------------------------------------------------------------------
# normal gauge near a boundary
# ---------------------------------------------------------------------------

def boundary_normal_coords(omega: CovectorField,
                           order: int = 30) -> tuple[ScalarField, CovectorField]:
    """On a collar chart whose last coordinate is the inward normal
    distance, return the gauge function phi(x) = integral of omega_n
    along the normal segment and the gauged one-form omega - d(phi),
    whose normal component vanishes."""
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def phi_func(x):
        x = np.asarray(x, float)
        half = 0.5 * x[..., -1]
        pts = np.repeat(x[..., None, :], order, axis=-2).copy()
        pts[..., -1] = half[..., None] * (nodes + 1.0)
        vals = omega(pts)[..., -1]
        return half * np.einsum("...q,q->...", vals, weights)

    phi = ScalarField(func=phi_func)
    gauged = CovectorField(dim=omega.dim,
                           func=lambda x: omega(x) - phi.gradient(x))
    return phi, gauged
