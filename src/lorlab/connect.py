"""Two-point connecting geodesics, the energy defining function of the
lightlike-connectivity set, graph (Michel-type) checks, and the finite
difference linearization against the light ray transform."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConjugatePointError, ConvergenceError, EscapeError,
                     LorlabError, PreconditionError)
from .fields import Array, SymTwoTensorField, einsum
from .geometry import (BoundaryHypersurface, CausalClass, GeodesicPath,
                       MetricField, _causal_classes, geodesic_accel, inner,
                       integrate_flow_fixed, paired_rows)
from .lightray import light_ray_transform
from .scattering import scatter_batch

SIGMA_TOL = 1e-8        # largest |r| that sigma_detect puts on the set
PAIR_TOL = 1e-6         # |r| above which a pair is off the lightlike set
FD_STEP = 1e-5          # chart step of michel_check's central quotients
MAX_ITER = 50           # Newton iterations of each solve_two_point grid
COND_LIMIT = 1e10       # shooting Jacobian condition flagged as conjugate


# ---------------------------------------------------------------------------
# generic batched two-point shooting (shared with the magnetic flow)
# ---------------------------------------------------------------------------

def _march(accel, xs: Array, vs: Array, n_steps: int, pairs: Array):
    """integrate_flow_fixed over [0, 1]; a state that turns non-finite
    is a Newton iterate that diverged, reported for its pair pairs[row]."""
    try:
        return integrate_flow_fixed(accel, xs, vs, 1.0, 1.0 / n_steps)
    except EscapeError as exc:
        if exc.ray is None:
            raise
        raise ConvergenceError(
            f"pair(s) [{pairs[exc.ray]}]: Newton iterate "
            f"diverged ({exc})") from exc


def _jacobian(accel, xs: Array, v: Array, ends: Array, n_steps: int):
    """Forward-difference Jacobian J[b, out, in] of the endpoints at the
    velocities v: one march of the rows v_b + delta_b e_i (row b * dim +
    i), differenced against ends, the endpoints of a march at v.  A
    condition number above COND_LIMIT is a ConjugatePointError."""
    B, dim = xs.shape
    delta = 1e-6 * np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None, None]
    rows = np.repeat(np.arange(B), dim)
    pert = (v[:, None, :] + delta * np.eye(dim)).reshape(-1, dim)
    moved = _march(accel, xs[rows], pert, n_steps, rows)[1][-1]
    J = np.swapaxes((moved.reshape(B, dim, dim) - ends[:, None]) / delta, 1, 2)
    conds = np.linalg.cond(J)
    bad = np.flatnonzero(conds > COND_LIMIT)
    if bad.size:
        raise ConjugatePointError(
            f"pair(s) {bad.tolist()}: shooting Jacobian condition "
            f"{conds.max():.3g} exceeds {COND_LIMIT:.1g}; endpoints "
            "may be conjugate")
    return J


def _newton(accel, xs: Array, ys: Array, v: Array, n_steps: int, tol: float,
            J: Optional[Array] = None):
    """The Newton/Broyden iteration of solve_two_point on one grid of
    n_steps steps, from the velocities v and, when given, the Jacobian J
    (updated in place), for at most MAX_ITER iterations.  Returns (v, J,
    march at v); after the first, a march covers the unfinished pairs
    only, written into the rows of the kept one."""
    pairs = np.arange(len(xs))
    last = _march(accel, xs, v, n_steps, pairs)
    F = last[1][-1] - ys
    res = np.abs(F).max(axis=1)
    for it in range(MAX_ITER + 1):
        done = res <= tol
        if np.all(done):
            return v, J, last
        if it == MAX_ITER:
            break
        if J is None:
            J = _jacobian(accel, xs, v, last[1][-1], n_steps)
        dv = np.linalg.solve(J, F[..., None])[..., 0]
        v_new = np.where(done[:, None], v, v - dv)
        todo = pairs[~done]
        _, xt, vt = _march(accel, xs[todo], v_new[todo], n_steps, todo)
        last[1][:, todo], last[2][:, todo] = xt, vt
        F_new = last[1][-1] - ys
        res_new = np.abs(F_new).max(axis=1)
        improved = done | (res_new <= 0.5 * np.maximum(res, tol))
        if not np.all(improved):
            J = None                            # stale Jacobian, rebuild
        else:
            # good Broyden update J += (dF - J s) s^T / (s^T s) with the
            # step s, for each unfinished pair that moved
            s, dF = v_new - v, F_new - F
            s2 = einsum("bi,bi->b", s, s)
            upd = np.flatnonzero(~done & (s2 > 0.0))
            r = dF[upd] - einsum("bij,bj->bi", J[upd], s[upd])
            J[upd] += r[:, :, None] * s[upd, None, :] / s2[upd, None, None]
        v, F, res = v_new, F_new, res_new
    raise ConvergenceError(
        f"pair(s) {np.flatnonzero(~done).tolist()}: two-point shooting "
        f"residual {res.max():.3g} after {MAX_ITER} iterations")


COARSE_FACTOR = 16      # the coarse grid has n_steps // COARSE_FACTOR steps
COARSE_MIN_STEPS = 12   # no coarse phase on fewer steps than this
COARSE_TOL = 1e-8       # the coarse phase stops at max(tol, COARSE_TOL)


def solve_two_point(accel, xs: Array, ys: Array, seeds: Optional[Array] = None,
                    n_steps: int = 400, tol: float = 1e-10, *,
                    march: Optional[list] = None) -> Array:
    """Newton shooting on initial velocities for a batch of endpoint pairs.

    The flow x'' = accel(x, x') is integrated over [0, 1]; the unknowns
    are the initial velocities v with endpoint(x, v) = y.  The Jacobian
    is built by forward differences; while the residual of every
    unfinished pair contracts, each pair's Jacobian takes the good
    Broyden rank-one update, and it is rebuilt at the current iterate
    when one does not.  Returns the solved velocities, shape (B, dim),
    with every residual at most tol on the grid of n_steps steps.  A
    list passed as ``march`` receives (sigma, xs, vs) of the solver's
    last march, on that grid at those velocities.

    Two grids: the iteration first runs from the seeds on the coarse
    grid of n_steps // 16 steps, to max(tol, 1e-8), then on the requested
    grid from the coarse velocities.  If the coarse phase built a
    Jacobian, the requested grid starts from a fresh one, built on the
    coarse grid at the coarse velocities, not from the Broyden-updated
    one, which has drifted; it is rebuilt on the requested grid only
    when a step fails to contract.  No coarse phase on fewer than 12
    steps (n_steps < 192).  When the coarse phase or that build raises,
    the requested grid solves alone from the seeds, so every error names
    pairs of the requested grid.  Before any march, a ValueError names
    points of width zero, ys or seeds shaped unlike xs, or non-finite
    pairs.
    """
    xs, ys, seeds = paired_rows("points", xs, ("ys", ys), ("seeds", seeds))
    v = ys - xs if seeds is None else seeds
    bad = np.flatnonzero(~np.isfinite(np.hstack([xs, ys, v])).all(axis=1))
    if bad.size:
        raise ValueError(f"pair(s) {bad.tolist()}: non-finite xs, ys or seeds")
    same = np.flatnonzero(np.linalg.norm(ys - xs, axis=1) == 0.0)
    if same.size:
        raise PreconditionError(
            f"pair(s) {same.tolist()}: coincident endpoints")
    v0, J, coarse = v, None, n_steps // COARSE_FACTOR
    if coarse >= COARSE_MIN_STEPS:
        try:
            v0, J, last = _newton(accel, xs, ys, v, coarse,
                                  max(tol, COARSE_TOL))
            if J is not None:   # fresh: the Broyden-updated one has drifted
                J = _jacobian(accel, xs, v0, last[1][-1], coarse)
        except LorlabError:
            v0, J = v, None   # the requested grid solves alone from the seeds
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

def _surface_gradient(gm: Array, frame: Array, derivs: Array) -> Array:
    """Tangent vectors (P, dim) whose pairing under the metric values gm
    (P, dim, dim) with the chart frames (P, dim, p) matches the
    chart-coordinate derivatives (P, p)."""
    gram = np.swapaxes(frame, 1, 2) @ gm @ frame
    return (frame @ np.linalg.solve(gram, derivs[..., None]))[..., 0]


def _chart_stencil(U: BoundaryHypersurface, V: BoundaryHypersurface,
                   xs: Array, ys: Array, fd_step: float, solve, value):
    """The P pairs (xs, ys) and central quotients of a function of
    boundary pairs along the charts of U at each x and of V at each y,
    from one call ``solve(xs, ys)`` on a merged batch, every row from
    the solver's default seeds.  Pair p owns rows p R to p R + R - 1,
    R = 1 + 2 (a + b) for a chart parameters on U and b on V: (x_p, y_p),
    then x_p and then y_p moved along each chart parameter by +fd_step
    and by -fd_step, all from one chart call per side.  ``value`` reads
    the function from a solved row.  Returns the P solved rows (x_p,
    y_p), the chart frames at xs (P, dim, a) and at ys (P, dim, b),
    central quotients of the same moved points, and the quotients of
    the function in each chart, (P, a) and (P, b)."""
    def moved(S, pts):      # (P, 2 p, dim), then the frames (P, dim, p)
        a0 = S.chart_inverse(pts)
        d = fd_step * np.eye(a0.shape[1])
        out = np.asarray(S.chart(a0[:, None, None] + np.stack([d, -d], 1)))
        frame = (out[:, :, 0] - out[:, :, 1]) / (2 * fd_step)
        return out.reshape(len(pts), -1, pts.shape[1]), frame.swapaxes(1, 2)

    (mx, fx), (my, fy) = moved(U, xs), moved(V, ys)
    px = np.concatenate([xs[:, None], mx,
                         np.repeat(xs[:, None], my.shape[1], 1)], 1)
    py = np.concatenate([np.repeat(ys[:, None], 1 + mx.shape[1], 1), my], 1)
    solved = solve(*(q.reshape(-1, q.shape[2]) for q in (px, py)))
    vals = np.array([value(c) for c in solved]).reshape(px.shape[:2])
    quot = (vals[:, 1::2] - vals[:, 2::2]) / (2 * fd_step)
    a = fx.shape[2]
    return solved[::px.shape[1]], fx, fy, quot[:, :a], quot[:, a:]


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
    _chart_stencil), one scatter_batch shoots all rays (ray i: pair i).
    Before any stencil, paired_rows names ys shaped unlike xs."""
    xs, ys = paired_rows("points", xs, ("ys", ys))
    if not len(xs):
        return []
    bases, fx, fy, dr_da, dr_db = _chart_stencil(
        U, V, xs, ys, FD_STEP,
        lambda px, py: connecting_geodesics_batch(g, px, py, n_steps=n_steps,
                                                  tol=1e-12),
        lambda c: c.energy)
    r = _energies(bases)
    off = np.flatnonzero(np.abs(r) > PAIR_TOL)
    if off.size:
        raise PreconditionError(f"pair(s) {off.tolist()}: not on the "
                                f"lightlike set (r = {r[off].tolist()})")
    grad_x = _surface_gradient(g.matrix(xs), fx, dr_da)
    grad_y = _surface_gradient(g.matrix(ys), fy, dr_db)
    out = []
    for rec, y, gy in zip(scatter_batch(g, U, V, xs, -grad_x), ys, grad_y):
        # graph identity holds for one reduced representation: match the scale
        scale = rec.w_proj[0] / gy[0] if abs(gy[0]) > 1e-12 else \
            np.linalg.norm(rec.w_proj) / np.linalg.norm(gy)
        w = rec.w_proj if scale <= 0 else rec.w_proj / scale
        out.append((float(np.linalg.norm(rec.y - y)),
                    float(np.linalg.norm(w - gy))))
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
    """One-parameter metric family tau -> g_tau with g_0 the base metric,
    and d/dtau g_tau at 0 when it is known in closed form (without it,
    linearize_r differences the family)."""

    eval: Callable[[float], MetricField]
    derivative_at_0: Optional[SymTwoTensorField] = None


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
    solves sampled at 400 steps (50 pair steps): g_0, then g_{+fd_step}
    and g_{-fd_step} seeded by the g_0 connectors.  The family derivative is
    derivative_at_0, else the central difference of those same two
    metrics, (g_{+fd_step} - g_{-fd_step}) / (2 fd_step).  Every pair
    must have |r| <= PAIR_TOL under g_0, and the relative error is
    floored at 1e-10."""
    if not len(xs):
        return []
    base = connecting_geodesics_batch(family.eval(0.0), xs, ys, tol=1e-12)
    off = np.flatnonzero(np.abs(_energies(base)) > PAIR_TOL)
    if off.size:
        raise PreconditionError(f"pair(s) {off.tolist()}: not on the "
                                "lightlike set of g_0")
    seeds = np.array([c.path.v[0] for c in base])
    gp, gm = family.eval(fd_step), family.eval(-fd_step)
    r_plus, r_minus = (_energies(connecting_geodesics_batch(
        g, xs, ys, seeds=seeds, tol=1e-12)) for g in (gp, gm))
    f = family.derivative_at_0 or SymTwoTensorField(
        dim=gp.dim, func=lambda x: (gp.func(x) - gm.func(x)) / (2 * fd_step))
    lrt = np.array([light_ray_transform(f, c.path, lightlike_tol=10 * PAIR_TOL)
                    for c in base])
    fd = (r_plus - r_minus) / (2 * fd_step)
    rel = np.abs(fd - 0.5 * lrt) / np.maximum(np.abs(0.5 * lrt), 1e-10)
    return [LinearizationReport(fd_value=a, lrt_value=b, kappa=0.5,
                                rel_error=e)
            for a, b, e in zip(fd.tolist(), lrt.tolist(), rel.tolist())]
