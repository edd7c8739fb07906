"""Two-point connecting geodesics, the energy defining function of the
lightlike-connectivity set, graph (Michel-type) checks, and the finite
difference linearization against the light ray transform."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConjugatePointError, ConvergenceError, EscapeError,
                     LorlabError, PreconditionError)
from .fields import Array, SymTwoTensorField
from .geometry import (BoundaryHypersurface, CausalClass, GeodesicPath,
                       MetricField, _causal_classes, geodesic_accel, inner,
                       integrate_flow_fixed)
from .lightray import light_ray_transform
from .scattering import scatter_batch

SIGMA_TOL = 1e-8        # largest |r| that sigma_detect puts on the set
PAIR_TOL = 1e-6         # |r| above which a pair is off the lightlike set
FD_STEP = 1e-5          # chart step of michel_check's central quotients
TAU_STEP = 1e-6         # tau step of MetricFamily.tensor_derivative
MAX_ITER = 50           # Newton iterations of each solve_two_point grid
COND_LIMIT = 1e10       # shooting Jacobian condition flagged as conjugate


# ---------------------------------------------------------------------------
# generic batched two-point shooting (shared with the magnetic flow)
# ---------------------------------------------------------------------------

def _march(accel, xs: Array, vs: Array, n_steps: int, rows_per_pair: int):
    """integrate_flow_fixed over [0, 1]; a state that turns non-finite
    is a Newton iterate that diverged, reported for its pair."""
    try:
        return integrate_flow_fixed(accel, xs, vs, 1.0, 1.0 / n_steps)
    except EscapeError as exc:
        if exc.ray is None:
            raise
        raise ConvergenceError(
            f"pair(s) [{exc.ray // rows_per_pair}]: Newton iterate "
            f"diverged ({exc})") from exc


def _newton(accel, xs: Array, ys: Array, v: Array, n_steps: int, tol: float,
            J: Optional[Array] = None):
    """The Newton/Broyden iteration of solve_two_point on one grid of
    n_steps steps, from the velocities v and, when given, the Jacobian J
    (updated in place), for at most MAX_ITER iterations; a Jacobian of
    condition above COND_LIMIT is a ConjugatePointError.  Returns (v, J,
    march at v)."""
    B, dim = xs.shape
    last = _march(accel, xs, v, n_steps, 1)
    F = last[1][-1] - ys
    res = np.abs(F).max(axis=1)
    for it in range(MAX_ITER + 1):
        done = res <= tol
        if np.all(done):
            return v, J, last
        if it == MAX_ITER:
            break
        last = None           # freed: a residual march precedes any return
        if J is None:
            delta = 1e-6 * np.maximum(1.0, np.linalg.norm(v, axis=1))
            pert = v[:, None, :] + delta[:, None, None] * np.eye(dim)
            xs_rep = np.repeat(xs[:, None, :], dim, axis=1).reshape(-1, dim)
            ends = np.array(_march(accel, xs_rep, pert.reshape(-1, dim),
                                   n_steps, dim)[1][-1]).reshape(B, dim, dim)
            J = (ends - (F + ys)[:, None, :]) / delta[:, None, None]
            J = np.swapaxes(J, 1, 2)            # J[b, out, in]
            conds = np.linalg.cond(J)
            bad = np.flatnonzero(conds > COND_LIMIT)
            if bad.size:
                raise ConjugatePointError(
                    f"pair(s) {bad.tolist()}: shooting Jacobian condition "
                    f"{conds.max():.3g} exceeds {COND_LIMIT:.1g}; endpoints "
                    "may be conjugate")
        dv = np.linalg.solve(J, F[..., None])[..., 0]
        v_new = np.where(done[:, None], v, v - dv)
        last = _march(accel, xs, v_new, n_steps, 1)
        F_new = last[1][-1] - ys
        res_new = np.abs(F_new).max(axis=1)
        improved = done | (res_new <= 0.5 * np.maximum(res, tol))
        if not np.all(improved):
            J = None                            # stale Jacobian, rebuild
        else:
            # good Broyden update J += (dF - J s) s^T / (s^T s) with the
            # step s, for each unfinished pair that moved
            s, dF = v_new - v, F_new - F
            s2 = np.einsum("bi,bi->b", s, s)
            upd = np.flatnonzero(~done & (s2 > 0.0))
            r = dF[upd] - np.einsum("bij,bj->bi", J[upd], s[upd])
            J[upd] += r[:, :, None] * s[upd, None, :] / s2[upd, None, None]
        v, F, res = v_new, F_new, res_new
    raise ConvergenceError(
        f"pair(s) {np.flatnonzero(~done).tolist()}: two-point shooting "
        f"residual {res.max():.3g} after {MAX_ITER} iterations")


COARSE_FACTOR = 8       # the coarse grid has n_steps // COARSE_FACTOR steps
COARSE_MIN_STEPS = 25   # no coarse phase on fewer steps than this
COARSE_TOL = 1e-8       # the coarse phase stops at max(tol, COARSE_TOL)


def solve_two_point(accel, xs: Array, ys: Array, seeds: Optional[Array] = None,
                    n_steps: int = 400, tol: float = 1e-10, *,
                    march: Optional[list] = None) -> Array:
    """Newton shooting on initial velocities for a batch of endpoint pairs.

    The flow x'' = accel(x, x') is integrated over [0, 1]; the unknowns
    are the initial velocities v with endpoint(x, v) = y.  The Jacobian
    is built by forward differences; while the residual of every
    unfinished pair contracts, each pair's Jacobian takes the good
    Broyden rank-one update, and it is rebuilt by forward differences
    at the current iterate when one does not.  Returns the solved
    velocities, shape (B, dim), with every residual at most tol on the
    grid of n_steps steps.  A list passed as ``march`` receives
    (sigma, xs, vs) of integrate_flow_fixed at those velocities on that
    grid: the solver's last march, so callers need not integrate again.

    Two grids: the iteration first runs from the seeds on the coarse
    grid of n_steps // 8 steps, to max(tol, 1e-8), then on the requested
    grid from the coarse velocities and the coarse Jacobian with its
    Broyden updates, which is rebuilt on the requested grid only when a
    step fails to contract.  Far from the answer a march of an eighth of
    the steps serves Newton as well as a full one; near it, the coarse
    Jacobian differs from the requested grid's by the discretization
    error, so one or two steps finish the solve.  The coarse phase is
    skipped when it would have fewer than 25 steps.  When it raises,
    the requested grid solves alone from the seeds, so every error comes
    from the requested grid and names its pairs.  Before any march, a
    ValueError names ys or seeds shaped unlike xs, or non-finite pairs.
    """
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    for name, arr in (("ys", ys), ("seeds", seeds)):
        if arr is not None and np.atleast_2d(arr).shape != xs.shape:
            raise ValueError(f"{name} {np.shape(arr)} unlike xs {xs.shape}")
    v = ys - xs if seeds is None else np.atleast_2d(np.array(seeds, float))
    bad = np.flatnonzero(~np.isfinite(np.hstack([xs, ys, v])).all(axis=1))
    if bad.size:
        raise ValueError(f"pair(s) {bad.tolist()}: non-finite xs, ys or seeds")
    same = np.flatnonzero(np.linalg.norm(ys - xs, axis=1) == 0.0)
    if same.size:
        raise PreconditionError(
            f"pair(s) {same.tolist()}: coincident endpoints")
    v0, J = v, None
    if n_steps // COARSE_FACTOR >= COARSE_MIN_STEPS:
        try:
            v0, J, _ = _newton(accel, xs, ys, v, n_steps // COARSE_FACTOR,
                               max(tol, COARSE_TOL))
        except LorlabError:
            pass        # the requested grid solves alone from the seeds
    v, _, last = _newton(accel, xs, ys, v0, n_steps, tol, J)
    if march is not None:
        march[:] = last
    return v


# ---------------------------------------------------------------------------
# connecting geodesics and the defining function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectingGeodesic:
    """Locally unique geodesic from x to y, parametrized on [0, 1]."""

    path: GeodesicPath
    x: Array
    y: Array
    energy: float
    causal: CausalClass


def connecting_geodesics_batch(g: MetricField, xs: Array, ys: Array,
                               seeds: Optional[Array] = None,
                               n_steps: int = 400,
                               tol: float = 1e-10) -> list[ConnectingGeodesic]:
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    march = []
    vs = solve_two_point(geodesic_accel(g), xs, ys, seeds=seeds,
                         n_steps=n_steps, tol=tol, march=march)
    sigma, px, pv = march
    speed2 = inner(g, xs, vs, vs)
    return [ConnectingGeodesic(
        path=GeodesicPath(sigma=sigma, x=px[:, b], v=pv[:, b],
                          speed_squared=float(speed2[b])),
        x=xs[b], y=ys[b], energy=0.5 * float(speed2[b]), causal=causal)
        for b, causal in enumerate(_causal_classes(speed2, vs))]


def _energies(conns: list[ConnectingGeodesic]) -> Array:
    return np.array([c.energy for c in conns])


def defining_r(g: MetricField, xs: Array, ys: Array) -> Array:
    """Energies (B,) of the locally unique connectors of the pairs (xs,
    ys), one connecting_geodesics_batch: negative iff timelike, zero iff
    lightlike, positive iff spacelike."""
    return _energies(connecting_geodesics_batch(g, xs, ys))


def sigma_detect(g: MetricField, xs: Array, ys: Array) -> Array:
    """Bool array (B,): which pairs lie on the lightlike-connectivity set,
    to SIGMA_TOL."""
    return np.abs(defining_r(g, xs, ys)) <= SIGMA_TOL


# ---------------------------------------------------------------------------
# Michel-type graph identity
# ---------------------------------------------------------------------------

def _surface_gradient(g: MetricField, S: BoundaryHypersurface, point: Array,
                      chart_derivs: Array, params: Array) -> Array:
    """Tangent vector whose g-pairing with the chart frame matches the
    given chart-coordinate derivatives."""
    frame = S.chart_frame(params)                 # (dim, p)
    gm = g.matrix(point)
    gram = frame.T @ gm @ frame
    return frame @ np.linalg.solve(gram, chart_derivs)


def _chart_stencil(U: BoundaryHypersurface, V: BoundaryHypersurface,
                   xs: Array, ys: Array, fd_step: float, solve, value):
    """The P pairs (xs, ys) and central quotients of a function of
    boundary pairs along the charts of U at each x and of V at each y,
    from one call ``solve(xs, ys)`` on a merged batch, every row from
    the solver's default seeds.  Pair p owns rows p R to p R + R - 1,
    R = 1 + 2 (a + b) for a chart parameters on U and b on V: (x_p, y_p),
    then x_p and then y_p moved along each chart parameter by +fd_step
    and by -fd_step.  ``value`` reads the function from a solved row.
    Returns the P solved rows (x_p, y_p), the chart parameters A0 (P, a)
    and B0 (P, b) and the quotients in each, (P, a) and (P, b)."""
    def moved(chart, p0):
        return [np.asarray(chart(p0 + s * fd_step * e), float)
                for e in np.eye(p0.size) for s in (+1.0, -1.0)]

    A0 = np.array([U.chart_inverse(x) for x in xs], float)
    B0 = np.array([V.chart_inverse(y) for y in ys], float)
    rows = []
    for x, y, a0, b0 in zip(xs, ys, A0, B0):
        rows += ([(x, y)] + [(xm, y) for xm in moved(U.chart, a0)]
                 + [(x, ym) for ym in moved(V.chart, b0)])
    solved = solve(*map(np.array, zip(*rows)))
    R = len(solved) // len(xs)
    vals = np.array([value(c) for c in solved]).reshape(len(xs), R)
    quot = (vals[:, 1::2] - vals[:, 2::2]) / (2 * fd_step)
    a = A0.shape[1]
    return solved[::R], A0, B0, quot[:, :a], quot[:, a:]


def michel_check_batch(g: MetricField, U: BoundaryHypersurface,
                       V: BoundaryHypersurface, xs: Array, ys: Array,
                       n_steps: int = 400) -> list[tuple[float, float]]:
    """Residuals (position, covector) of the graph identity for each
    pair (xs, ys): shooting from minus the tangential gradient of r at x
    must land at y with exit projection matching the tangential gradient
    of r at y (up to one positive scale), gradients by central quotients
    of chart step FD_STEP.  A PreconditionError names the pairs with
    |r| > PAIR_TOL.  One connecting_geodesics_batch solves all stencils
    (row k is pair k // 9 on the cylinder of R x disk; see
    _chart_stencil), one scatter_batch shoots all rays (ray i: pair i)."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if not len(xs):
        return []
    bases, A0, B0, dr_da, dr_db = _chart_stencil(
        U, V, xs, ys, FD_STEP,
        lambda px, py: connecting_geodesics_batch(g, px, py, n_steps=n_steps,
                                                  tol=1e-12),
        lambda c: c.energy)
    r = _energies(bases)
    off = np.flatnonzero(np.abs(r) > PAIR_TOL)
    if off.size:
        raise PreconditionError(f"pair(s) {off.tolist()}: not on the "
                                f"lightlike set (r = {r[off].tolist()})")
    grad_x = np.array([_surface_gradient(g, U, x, d, a0)
                       for x, d, a0 in zip(xs, dr_da, A0)])
    out = []
    for rec, y, d, b0 in zip(scatter_batch(g, U, V, xs, -grad_x), ys, dr_db,
                             B0):
        grad_y = _surface_gradient(g, V, y, d, b0)
        # graph identity holds for one reduced representation: match the scale
        scale = rec.w_proj[0] / grad_y[0] if abs(grad_y[0]) > 1e-12 else \
            np.linalg.norm(rec.w_proj) / np.linalg.norm(grad_y)
        w = rec.w_proj if scale <= 0 else rec.w_proj / scale
        out.append((float(np.linalg.norm(rec.y - y)),
                    float(np.linalg.norm(w - grad_y))))
    return out


def michel_check(g: MetricField, U: BoundaryHypersurface,
                 V: BoundaryHypersurface, x: Array, y: Array,
                 n_steps: int = 400) -> tuple[float, float]:
    """The batch of one of michel_check_batch."""
    return michel_check_batch(g, U, V, [x], [y], n_steps)[0]


# ---------------------------------------------------------------------------
# linearization of the defining function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricFamily:
    """One-parameter metric family tau -> g_tau with g_0 the base metric."""

    eval: Callable[[float], MetricField]
    derivative_at_0: Optional[SymTwoTensorField] = None

    def tensor_derivative(self) -> SymTwoTensorField:
        """derivative_at_0, else the central difference of step TAU_STEP."""
        if self.derivative_at_0 is not None:
            return self.derivative_at_0
        gp, gm = self.eval(TAU_STEP), self.eval(-TAU_STEP)

        def f(x):
            return (gp.func(x) - gm.func(x)) / (2 * TAU_STEP)

        return SymTwoTensorField(dim=self.eval(0.0).dim, func=f)


@dataclass(frozen=True)
class LinearizationReport:
    fd_value: float
    lrt_value: float
    kappa: float
    rel_error: float


def linearize_r(family: MetricFamily, xs: Array, ys: Array,
                fd_step: float = 1e-4) -> list[LinearizationReport]:
    """Central difference of tau -> r_tau against the light ray transform
    of the family derivative over the base connector (factor one half),
    one report per pair (xs, ys).  Three connecting_geodesics_batch
    solves of 400 RK4 steps: g_0, then g_{+fd_step} and g_{-fd_step}
    seeded by the g_0 connectors.  Every pair must have |r| <= PAIR_TOL
    under g_0, and the relative error is floored at 1e-10."""
    if not len(xs):
        return []
    base = connecting_geodesics_batch(family.eval(0.0), xs, ys, tol=1e-12)
    off = np.flatnonzero(np.abs(_energies(base)) > PAIR_TOL)
    if off.size:
        raise PreconditionError(f"pair(s) {off.tolist()}: not on the "
                                "lightlike set of g_0")
    seeds = np.array([c.path.v[0] for c in base])
    r_plus, r_minus = (_energies(connecting_geodesics_batch(
        family.eval(s * fd_step), xs, ys, seeds=seeds, tol=1e-12))
        for s in (+1.0, -1.0))
    f = family.tensor_derivative()
    lrt = np.array([light_ray_transform(f, c.path, lightlike_tol=10 * PAIR_TOL)
                    for c in base])
    fd = (r_plus - r_minus) / (2 * fd_step)
    rel = np.abs(fd - 0.5 * lrt) / np.maximum(np.abs(0.5 * lrt), 1e-10)
    return [LinearizationReport(fd_value=a, lrt_value=b, kappa=0.5,
                                rel_error=e)
            for a, b, e in zip(fd.tolist(), lrt.tolist(), rel.tolist())]
