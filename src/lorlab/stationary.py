"""Stationary Lorentzian metrics -(dt + omega)^2 + h and their reduction
to a magnetic flow on the spatial base.  A conformal factor only
reparametrizes lightlike rays; a conformal multiple lam g is
gauge.scale_metric(g, lam).

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

from .errors import NoLiftError, PreconditionError
from .fields import (Array, CovectorField, ScalarField, SymTwoTensorField,
                     einsum)
from .geometry import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                       GeodesicPath, MetricField, _dot, _fixed_path,
                       christoffel_contraction,
                       geodesic_accel, inner, integrate_geodesic,
                       metric_solve, paired_rows, scatter_paths)
from .lightray import light_ray_transform, magnetic_linearized_transform
from .quadrature import CubicHermiteSpline, simpson
from .scattering import ScatteringRecord, scatter_batch
from .connect import FD_STEP, _chart_stencil, solve_two_point


# ---------------------------------------------------------------------------
# stationary metrics in block form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryMetric:
    """Time-independent metric -(dt + omega)^2 + h on R x N.

    ``omega`` lives on the spatial chart of N, ``base`` is the Riemannian
    metric h there.  Coordinate 0 of the assembled chart is t.
    """

    omega: CovectorField
    base: MetricField

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def assembled(self) -> MetricField:
        """g = diag(0, h) - a a^T with a = (1, omega); the jet takes dg
        from the parts, where a part without analytic partials is
        differenced by its own accessor.

        func and jetfunc share one construction (blocks), so that
        jet(x)[0] is bit-equal to func(x): the rows A = (a, d_t a, d_k a)
        give Q = A (x) a, whose symmetrization Q + Q^T is 2 a a^T in
        slab 0 (halved, exactly) and d_k a a^T + a d_k a^T in slab 1 + k.
        One array X then holds g, d_t g = 0 and every d_k g."""
        n = self.n

        def blocks(om, h, J, dh):
            """X[..., 0, :, :] = g; unless the partials J[..., k, j] =
            d_k omega_j and dh[..., k, i, j] = d_k h_ij are None, also
            X[..., 1, :, :] = d_t g = 0 and X[..., 1 + k, :, :] = d_k g."""
            rows = 1 if J is None else n + 2
            A = np.zeros(om.shape[:-1] + (rows, n + 1))
            A[..., 0, 0] = 1.0
            A[..., 0, 1:] = om
            X = np.zeros(om.shape[:-1] + (rows, n + 1, n + 1))
            X[..., 0, 1:, 1:] = h
            if J is not None:
                A[..., 2:, 1:] = J
                X[..., 2:, 1:, 1:] = dh
            Q = A[..., :, :, None] * A[..., :1, None, :]
            S = Q + Q.swapaxes(-1, -2)
            S[..., 0, :, :] *= 0.5
            X -= S
            return X

        def func(x):
            xs = np.asarray(x, float)[..., 1:]
            return blocks(self.omega(xs), np.asarray(self.base.func(xs), float),
                          None, None)[..., 0, :, :]

        def jetfunc(x):
            xs = np.asarray(x, float)[..., 1:]
            h, dh = self.base._unchecked_jet(xs)
            X = blocks(self.omega(xs), h, self.omega.jacobian(xs), dh)
            return X[..., 0, :, :], X[..., 1:, :, :]

        domain = None
        if self.base.domain is not None:
            domain = lambda x: self.base.domain(np.asarray(x, float)[..., 1:])
        return MetricField(dim=n + 1, signature=LORENTZIAN, func=func,
                           domain=domain, jetfunc=jetfunc)

    @property
    def magnetic(self) -> MagneticSystem:
        """The reduced magnetic system (h, omega) on the spatial base."""
        return MagneticSystem(self.base, self.omega)


def reduced_time_component(m: StationaryMetric, x_spatial: Array,
                           v: Array) -> Array:
    """v_t + <omega, v_x>: invariant under adding multiples of the
    boundary normal, hence equal on a vector and its projection."""
    v = np.asarray(v, float)
    om = m.omega(np.asarray(x_spatial, float))
    val = v[..., 0] + einsum("...i,...i->...", om, v[..., 1:])
    return float(val) if np.ndim(val) == 0 else val


def from_raw(g: MetricField) -> tuple[ScalarField, StationaryMetric]:
    """Split a time-independent Lorentzian metric, given as a plain matrix
    field on R x N, into lam and m with g = lam m.assembled; lam is a
    field of the spatial point, like m.omega."""
    n = g.dim - 1

    def parts(xs):
        """g at (0, xs), lam and omega."""
        xs = np.asarray(xs, float)
        G = np.asarray(g.func(np.concatenate(
            [np.zeros(xs.shape[:-1] + (1,)), xs], axis=-1)), float)
        return G, -G[..., 0, 0], G[..., 0, 1:] / G[..., 0, 0][..., None]

    def h_func(xs):
        G, lam, om = parts(xs)
        return (G[..., 1:, 1:] / lam[..., None, None]
                + om[..., :, None] * om[..., None, :])

    return (ScalarField(func=lambda xs: parts(xs)[1], positive=True),
            StationaryMetric(
                omega=CovectorField(dim=n, func=lambda xs: parts(xs)[2]),
                base=MetricField(dim=n, signature=RIEMANNIAN, func=h_func)))


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

    def force_covector(self, x: Array, u: Array) -> Array:
        """d(omega)(u, .), batched."""
        return einsum("...ij,...i->...j", self.two_form(x),
                      np.asarray(u, float))

    def lorentz_force(self, x: Array, u: Array) -> Array:
        """Y u with h(Y u, .) = d(omega)(u, .), batched."""
        return metric_solve(self.base.matrix(x), self.force_covector(x, u))


def magnetic_accel(mag: MagneticSystem, speed_from_velocity: bool = False):
    """Acceleration of the charge-one magnetic flow x'' = -Gamma(h) x'x'
    + Y x'.  With speed_from_velocity the force carries a factor |x'|_h,
    which makes the [0, 1]-parametrized flow a smooth shooting target.
    h comes from one MetricField.jet per call, checked as in
    geodesic_accel, and is solved once, for the Christoffel contraction
    of geodesic_term and the force together."""
    base = mag.base

    def accel(x: Array, v: Array, check: bool = True) -> Array:
        hm, dh = base.jet(x, check)
        force = mag.force_covector(x, v)
        if speed_from_velocity:
            speed = np.sqrt(einsum("...i,...ij,...j->...", v, hm, v))
            force = speed[..., None] * force
        return metric_solve(hm, force - christoffel_contraction(dh, v))

    return accel


def magnetic_integrate(mag: MagneticSystem, x0: Array, u0: Array,
                       stop: float) -> GeodesicPath:
    """Arc-length magnetic geodesic from (x0, u0) over [0, stop], sampled
    at steps of 1e-3; u0 must be h-unit (see geometry._fixed_path)."""
    return _fixed_path(magnetic_accel(mag), mag.base, x0, u0, stop, 1e-3,
                       True)


def curve_flux(omega: CovectorField, path: GeodesicPath) -> float:
    """Line integral of the one-form along the sampled curve."""
    vals = einsum("mi,mi->m", omega(path.x), path.v)
    return simpson(vals, path.sigma)


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
                           xs: Array, u_projs: Array, max_sigma: float = 10.0,
                           keep_paths: bool = False) -> list[MagneticRecord]:
    """Shoot the unit-speed magnetic geodesics with inward completions of
    the sub-unit tangential entries u_projs (B, n) from xs on S back to S,
    in one march of error-controlled Dormand-Prince 5(4) steps (see
    geometry.integrate_flow_to_surface) with paths sampled every 1e-3.  The
    checks are those of scatter_batch, with NoLiftError for |u'|_h >= 1;
    errors name the failing ray."""

    def lift(nu, hm, up):
        mag.base._check_signature(hm)
        q = _dot(up, hm, up)
        long = q >= 1.0
        if np.any(long):
            raise NoLiftError(f"tangential entry has |u'|_h^2 = "
                              f"{q[long][0]:g} >= 1; no unit completion")
        return up - np.sqrt(1.0 - q)[:, None] * nu

    xs, u_projs, w_projs, paths = scatter_paths(
        magnetic_accel(mag), mag.base, S, S, xs, u_projs, lift, 1e-3,
        max_sigma, unit_speed=True)
    return [MagneticRecord(x=x, u_proj=up, y=path.end[0], w_proj=w,
                           length=float(path.sigma[-1]),
                           action=float(path.sigma[-1])
                           - curve_flux(mag.omega, path),
                           path=path if keep_paths else None)
            for x, up, w, path in zip(xs, u_projs, w_projs, paths)]


def magnetic_scatter(mag: MagneticSystem, S: BoundaryHypersurface, x: Array,
                     u_proj: Array) -> MagneticRecord:
    """The batch of one of magnetic_scatter_batch, with its path."""
    return magnetic_scatter_batch(mag, S, np.asarray(x, float)[None],
                                  np.asarray(u_proj, float)[None],
                                  keep_paths=True)[0]


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
                              n_steps: int = 400,
                              tol: float = 1e-10) -> list[MagneticConnector]:
    """Solve the magnetic two-point problems for a batch of endpoint
    pairs by shooting the smooth [0, 1]-parametrized flow, then rescale
    each connector to arc length."""
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    march = []
    ws = solve_two_point(magnetic_accel(mag, speed_from_velocity=True), xs,
                         ys, seeds=seeds, n_steps=n_steps, tol=tol,
                         march=march)
    tau, zx, zv = march
    lengths = np.sqrt(inner(mag.base, xs, ws, ws))
    units = ws / lengths[:, None]
    speed2 = inner(mag.base, xs, units, units)
    out = []
    for b, (x, y, w, length) in enumerate(zip(xs, ys, ws, lengths)):
        unit = GeodesicPath(sigma=length * tau, x=zx[:, b],
                            v=zv[:, b] / length,
                            speed_squared=float(speed2[b]))
        out.append(MagneticConnector(path=unit, x=x, y=y,
                                     length=float(length),
                                     flux=curve_flux(mag.omega, unit),
                                     initial_w=w))
    return out


def magnetic_connector(mag: MagneticSystem, x: Array,
                       y: Array) -> MagneticConnector:
    """The batch of one of magnetic_connectors_batch."""
    return magnetic_connectors_batch(mag, np.asarray(x, float)[None],
                                     np.asarray(y, float)[None])[0]


def magnetic_michel_batch(mag: MagneticSystem, S: BoundaryHypersurface,
                          xs: Array, ys: Array, fd_step: float = FD_STEP,
                          n_steps: int = 400) -> list[tuple[float, float]]:
    """Graph identity residuals (entry, exit) for the action of each pair
    (xs, ys): the tangential parts of the connector's entry and exit
    velocities (as h-covectors on the boundary charts) must equal
    -d'_x A + omega'(x) and d'_y A + omega'(y).  Every pair and its
    chart stencil are one magnetic_connectors_batch, whose row k belongs
    to pair k // 5 on the boundary circle (see connect._chart_stencil).
    Before any stencil, paired_rows names ys shaped unlike xs."""
    xs, ys = paired_rows("points", xs, ("ys", ys))
    if not len(xs):
        return []
    conns, fx, fy, dA_da, dA_db = _chart_stencil(
        S, S, xs, ys, fd_step,
        lambda px, py: magnetic_connectors_batch(mag, px, py, n_steps=n_steps,
                                                 tol=1e-12),
        lambda c: c.action)

    def residual(frame, p, k, dA):      # at path sample k, every pair: (P,)
        v = np.array([c.path.v[k] for c in conns])
        ft = np.swapaxes(frame, 1, 2)
        return np.abs(ft @ (mag.base.matrix(p) @ v[..., None])
                      - (dA[..., None] + ft @ mag.omega(p)[..., None])
                      ).max(axis=(1, 2)).tolist()

    return list(zip(residual(fx, xs, 0, -dA_da), residual(fy, ys, -1, dA_db)))


def magnetic_michel(mag: MagneticSystem, S: BoundaryHypersurface, x: Array,
                    y: Array, fd_step: float = FD_STEP,
                    n_steps: int = 400) -> tuple[float, float]:
    """The batch of one of magnetic_michel_batch."""
    return magnetic_michel_batch(mag, S, [x], [y], fd_step, n_steps)[0]


# ---------------------------------------------------------------------------
# projection and lifting between R x N and N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionCheck:
    k_value: float
    k_drift: float
    ode_residual: float
    speed_identity_residual: float


def project_and_verify(m: StationaryMetric,
                       path: GeodesicPath) -> ProjectionCheck:
    """Check that the spatial projection of a geodesic of the assembled
    metric obeys the magnetic equation with constant charge k = t' +
    <omega, x'>, and that (v,v)_g = -k^2 + |x'|_h^2."""
    xs = path.x[:, 1:]
    vs = path.v[:, 1:]
    om = m.omega(xs)
    k = path.v[:, 0] + einsum("mi,mi->m", om, vs)
    k0 = float(k[0])
    k_drift = float(np.abs(k - k0).max())

    g = m.assembled
    a_full = geodesic_accel(g)(path.x, path.v)
    a_geo = geodesic_accel(m.base)(xs, vs)
    a_mag = a_geo + k[:, None] * m.magnetic.lorentz_force(xs, vs)
    ode_residual = float(np.abs(a_full[:, 1:] - a_mag).max())

    hm = m.base.matrix(xs)
    msq = einsum("mi,mij,mj->m", vs, hm, vs)
    speed_res = float(np.abs(path.speed_squared - (-k ** 2 + msq)).max())
    return ProjectionCheck(k_value=k0, k_drift=k_drift,
                           ode_residual=ode_residual,
                           speed_identity_residual=speed_res)


def lift_magnetic(m: StationaryMetric, path: GeodesicPath) -> GeodesicPath:
    """Lift a unit-speed magnetic geodesic on N to the lightlike geodesic
    of the assembled metric with charge k = 1: t(0) = 0 and t' = 1 -
    <omega, x'>, t'' = -(x'^T (d omega) x' + <omega, x''>).  The metric
    does not depend on t, so the lift from t0 is this one shifted by t0."""
    if abs(path.speed_squared - 1.0) > 1e-8:
        raise PreconditionError("base path is not unit speed")
    om, acc = m.omega(path.x), magnetic_accel(m.magnetic)(path.x, path.v)
    tdot = 1.0 - einsum("mi,mi->m", om, path.v)
    tddot = -(einsum("mi,mij,mj->m", path.v, m.omega.jacobian(path.x),
                     path.v) + einsum("mi,mi->m", om, acc))
    t = CubicHermiteSpline(path.sigma, tdot, tddot).antiderivative_at_knots()
    X = np.concatenate([t[:, None], path.x], axis=1)
    V = np.concatenate([tdot[:, None], path.v], axis=1)
    speed2 = float(inner(m.assembled, X[0], V[0], V[0]))
    return GeodesicPath(sigma=path.sigma, x=X, v=V, speed_squared=speed2)


def lift_residual(m: StationaryMetric, lifted: GeodesicPath) -> float:
    """Sup distance between the lifted curve and the geodesic of the
    assembled metric re-integrated from the lifted initial data."""
    s = lifted.sigma - lifted.sigma[0]
    re = integrate_geodesic(m.assembled, lifted.x[0], lifted.v[0],
                            stop=float(s[-1]),
                            step=float(np.median(np.diff(lifted.sigma))))
    resampled = CubicHermiteSpline(re.sigma, re.x, re.v)(s)
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


def thmmag_verify_batch(m: StationaryMetric, U: BoundaryHypersurface,
                        S: BoundaryHypersurface, xs: Array,
                        v_projs: Array) -> list[ReductionReport]:
    """Compare, for each entry, the lightlike scattering relation on the
    cylinder R x dN (entry normalized to reduced time component one)
    with the magnetic scattering relation, the length identity length =
    s - t + flux, and the action identity A(x, y) = s - t.  One
    scatter_batch and one magnetic_scatter_batch up to sigma 30, paths
    sampled every 1e-3, then one magnetic_connectors_batch for the
    actions, seeded by the rays: an error's ray or pair i is entry i.
    Before any march, paired_rows names v_projs shaped unlike xs, and a
    PreconditionError names the entries whose reduced time component is
    not positive."""
    xs, v_projs = paired_rows("entry points", xs, ("v_projs", v_projs))
    if not len(xs):
        return []
    k_in = reduced_time_component(m, xs[:, 1:], v_projs)
    bad = np.flatnonzero(k_in <= 0)
    if bad.size:
        raise PreconditionError(f"entries {bad.tolist()}: reduced time "
                                "component not positive")
    v_projs = v_projs / k_in[:, None]
    mag = m.magnetic
    recs = scatter_batch(m.assembled, U, U, xs, v_projs, max_sigma=30.0,
                         keep_paths=True)
    mrecs = magnetic_scatter_batch(mag, S, xs[:, 1:], v_projs[:, 1:],
                                   max_sigma=30.0, keep_paths=True)
    conns = magnetic_connectors_batch(
        mag, xs[:, 1:], [r.y[1:] for r in recs],
        seeds=[mr.length * r.path.v[0, 1:] for r, mr in zip(recs, mrecs)])
    out = []
    for x, rec, mrec, conn in zip(xs, recs, mrecs, conns):
        t, s, yb = float(x[0]), float(rec.y[0]), rec.y[1:]
        flux = curve_flux(m.omega, GeodesicPath(
            sigma=rec.path.sigma, x=rec.path.x[:, 1:], v=rec.path.v[:, 1:],
            speed_squared=1.0))
        wt_red = reduced_time_component(m, yb, rec.w_proj)
        out.append(ReductionReport(
            endpoint_residual=float(np.linalg.norm(yb - mrec.y)),
            exit_residual=float(np.linalg.norm(rec.w_proj[1:] - mrec.w_proj)),
            length_residual=abs(mrec.length - (s - t + flux)),
            action_residual=abs(conn.action - (s - t)),
            exit_time_component_residual=abs(wt_red - 1.0),
            record=rec, magnetic_record=mrec))
    return out


def thmmag_verify(m: StationaryMetric, U: BoundaryHypersurface,
                  S: BoundaryHypersurface, x: Array,
                  v_proj: Array) -> ReductionReport:
    """The batch of one of thmmag_verify_batch."""
    return thmmag_verify_batch(m, U, S, [x], [v_proj])[0]


def reconstruct_exits(m: StationaryMetric, S: BoundaryHypersurface,
                      ts: Array, xs_spatial: Array,
                      u_projs: Array) -> list[tuple[Array, Array]]:
    """Rebuild the reduced lightlike exit data (y, w') on the cylinder
    from magnetic data alone, for entries at times ts, with one magnetic
    scatter for all (up to sigma 30, sampled every 1e-3) and one
    magnetic_connectors_batch for the actions A(x, y), seeded by the
    scattered rays: exit time t + A(x, y), exit covector with reduced
    time component one and tangential part from the magnetic relation.
    An empty batch gives [].  Before any march, a ValueError names ts
    of a length other than the number of entries."""
    if len(ts) != len(xs_spatial):
        raise ValueError(f"ts of length {len(ts)} for {len(xs_spatial)} "
                         "entries")
    if not len(ts):
        return []
    mag = m.magnetic
    mrecs = magnetic_scatter_batch(mag, S, xs_spatial, u_projs,
                                   max_sigma=30.0, keep_paths=True)
    conns = magnetic_connectors_batch(
        mag, [r.x for r in mrecs], [r.y for r in mrecs],
        seeds=[r.length * r.path.v[0] for r in mrecs])
    return [(np.concatenate([[t + conn.action], r.y]),
             np.concatenate([[1.0 - float(m.omega(r.y) @ r.w_proj)],
                             r.w_proj]))
            for t, r, conn in zip(ts, mrecs, conns)]


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
                              dom: CovectorField, conn: MagneticConnector
                              ) -> LinearizedEquivalence:
    """Light ray transform of the variation of -(dt + omega)^2 + h over
    the lifted [0, 1]-connector versus the magnetic transform of
    (dh / 2, -dom) over the arc-length base connector conn, a solved
    magnetic connector of (m.base, m.omega), so several perturbations
    share one solve.  Both values and their ratio are reported; no
    proportionality factor is assumed."""
    lifted = lift_magnetic(m, conn.path)
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

NORMAL_QUAD_ORDER = 30   # Gauss-Legendre nodes of boundary_normal_coords


def boundary_normal_coords(
        omega: CovectorField) -> tuple[ScalarField, CovectorField]:
    """On a collar chart whose last coordinate is the inward normal
    distance, return the gauge function phi(x) = integral of omega_n
    along the normal segment and the gauged one-form omega - d(phi),
    whose normal component vanishes."""
    nodes, weights = np.polynomial.legendre.leggauss(NORMAL_QUAD_ORDER)

    def phi_func(x):
        x = np.asarray(x, float)
        half = 0.5 * x[..., -1]
        pts = np.repeat(x[..., None, :], NORMAL_QUAD_ORDER, axis=-2).copy()
        pts[..., -1] = half[..., None] * (nodes + 1.0)
        vals = omega(pts)[..., -1]
        return half * einsum("...q,q->...", vals, weights)

    phi = ScalarField(func=phi_func)
    gauged = CovectorField(dim=omega.dim,
                           func=lambda x: omega(x) - phi.gradient(x))
    return phi, gauged
