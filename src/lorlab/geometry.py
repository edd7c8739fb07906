"""Chart-local semi-Riemannian geometry.

Metric evaluation, Christoffel symbols, fixed-step RK4 geodesic
integration with hypersurface stopping, causal classification, and
boundary normals/projections.  The integrator runs on a batch of
states at once; single-ray entry points are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (ChartDomainError, EscapeError, LorlabError,
                     NoLiftError, PreconditionError, SignatureError,
                     SingularMetricError, TangencyError, ray_errors)
from .fields import Array, _central_diff

DET_FLOOR = 1e-12
CAUSAL_TOL = 1e-9
SURFACE_TOL = 1e-10
TANGENCY_TOL = 1e-8

LORENTZIAN = "lorentzian"
RIEMANNIAN = "riemannian"


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Symmetric metric tensor on a chart with signature metadata.

    ``func`` maps points ``(..., dim)`` to matrices ``(..., dim, dim)``;
    ``dfunc``, when given, returns coordinate partials with layout
    ``dg[..., k, i, j] = d_k g_ij``.
    """

    dim: int
    signature: str
    func: Callable[[Array], Array]
    dfunc: Optional[Callable[[Array], Array]] = None
    domain: Optional[Callable[[Array], Array]] = None

    def evaluate(self, x: Array) -> Array:
        """Matrix values at x with the chart-domain check only."""
        x = np.asarray(x, float)
        if self.domain is not None and not np.all(self.domain(x)):
            raise ChartDomainError("point outside chart domain")
        return np.asarray(self.func(x), float)

    def matrix(self, x: Array, validate: bool = False) -> Array:
        """Matrix values at x, checked: chart domain, finite values,
        symmetry and a determinant off zero; with ``validate`` also the
        declared signature."""
        g = self.evaluate(x)
        if not np.all(np.isfinite(g)):
            raise SingularMetricError("non-finite metric values")
        asym = np.abs(g - np.swapaxes(g, -1, -2)).max()
        scale = np.abs(g).max()
        if asym > 1e-12 * max(scale, 1.0):
            raise SingularMetricError(f"metric not symmetric (asymmetry {asym:g})")
        det = np.linalg.det(g)
        if np.any(np.abs(det) < DET_FLOOR * max(scale, 1.0) ** self.dim):
            raise SingularMetricError("metric determinant below threshold")
        if validate:
            self._check_signature(g)
        return g

    def _check_signature(self, g: Array) -> None:
        eig = np.linalg.eigvalsh(g)
        neg = int(np.count_nonzero(eig < 0, axis=-1).max())
        neg_min = int(np.count_nonzero(eig < 0, axis=-1).min())
        want = 1 if self.signature == LORENTZIAN else 0
        if neg != want or neg_min != want:
            raise SignatureError(
                f"{self.signature} metric has {neg} negative eigenvalues")

    def partials(self, x: Array) -> Array:
        """dg[..., k, i, j] = d_k g_ij, analytic or central FD."""
        if self.dfunc is not None:
            return np.asarray(self.dfunc(np.asarray(x, float)), float)
        return _central_diff(self.func, x, (self.dim, self.dim))


def inner(g: MetricField, x: Array, u: Array, w: Array) -> Union[float, Array]:
    """Scalar product u . g(x) . w; validates symmetry and signature."""
    gm = g.matrix(x, validate=True)
    val = np.einsum("...i,...ij,...j->...", np.asarray(u, float), gm,
                    np.asarray(w, float))
    return float(val) if val.ndim == 0 else val


def christoffel(g: MetricField, x: Array) -> Array:
    """Levi-Civita symbols Gamma[..., k, i, j] from metric partials."""
    gm = g.matrix(x)
    dg = g.partials(x)
    # Gamma_{l,ij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    low = 0.5 * (np.einsum("...ilj->...lij", dg)
                 + np.einsum("...jli->...lij", dg) - dg)
    ginv = np.linalg.inv(gm)
    return np.einsum("...kl,...lij->...kij", ginv, low)


def metric_solve(gm: Array, rhs: Array) -> Array:
    """gm^{-1} rhs for a batch of vectors; SingularMetricError when a
    matrix of the batch is singular."""
    try:
        return np.linalg.solve(gm, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularMetricError("singular metric matrix") from None


def geodesic_term(g: MetricField, gm: Array, x: Array, v: Array) -> Array:
    """-Gamma^k_ij v^i v^j at x, batched, given the matrix values gm of
    g there."""
    dg = g.partials(x)
    t1 = np.einsum("...ilj,...i,...j->...l", dg, v, v)
    t2 = np.einsum("...lij,...i,...j->...l", dg, v, v)
    return -metric_solve(gm, t1 - 0.5 * t2)


def geodesic_accel(g: MetricField):
    """Acceleration closure a(x, v) = -Gamma^k_ij v^i v^j, batched.

    With ``check`` (the default) the metric passes MetricField.matrix;
    without, only its chart-domain check.  _rk4_step checks at the state
    a step starts from and skips the check at the three inner stages.
    """

    def accel(x: Array, v: Array, check: bool = True) -> Array:
        return geodesic_term(g, g.matrix(x) if check else g.evaluate(x),
                             x, v)

    return accel


# ---------------------------------------------------------------------------
# causal classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CausalClass:
    tag: str                      # timelike | lightlike | spacelike
    quadratic_form_value: float
    tol: float


def causal_classify(g: MetricField, x: Array, v: Array,
                    tol: float = CAUSAL_TOL) -> CausalClass:
    """Classify v by the sign of (v,v)_g with a relative tolerance band."""
    v = np.asarray(v, float)
    q = inner(g, x, v, v)
    band = tol * max(float(v @ v), 1e-300)
    if q < -band:
        tag = "timelike"
    elif q > band:
        tag = "spacelike"
    else:
        tag = "lightlike"
    return CausalClass(tag=tag, quadratic_form_value=q, tol=band)


# ---------------------------------------------------------------------------
# boundary hypersurfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryHypersurface:
    """Level set {b = 0} with the exterior on the side exterior_sign*b > 0.

    ``chart``/``chart_inverse`` give an explicit local parametrization,
    used for tangential finite-difference gradients.
    """

    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    causal_type: str              # timelike | spacelike
    exterior_sign: float = 1.0
    chart: Optional[Callable[[Array], Array]] = None
    chart_inverse: Optional[Callable[[Array], Array]] = None

    def side(self, x: Array) -> Array:
        """Signed distance proxy, positive on the exterior side."""
        return self.exterior_sign * np.asarray(self.value(x), float)

    def chart_frame(self, params: Array, step: float = 1e-6) -> Array:
        """Columns of d(chart)/d(params) at params; shape (dim, n_params)."""
        params = np.asarray(params, float)
        cols = []
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = step
            cols.append((np.asarray(self.chart(params + e), float)
                         - np.asarray(self.chart(params - e), float)) / (2 * step))
        return np.stack(cols, axis=-1)


def boundary_normal(S: BoundaryHypersurface, g: MetricField, x: Array) -> Array:
    """Exterior unit normal: g-orthogonal to T_xS, |(nu,nu)_g| = 1."""
    x = np.asarray(x, float)
    grad = np.asarray(S.gradient(x), float)
    if np.linalg.norm(grad) == 0.0:
        raise SingularMetricError("vanishing surface gradient")
    gm = g.matrix(x)
    n = np.linalg.solve(gm, grad)
    q = float(grad @ n)           # (n,n)_g
    if abs(q) < 1e-14 * float(grad @ grad):
        raise SingularMetricError("degenerate induced metric on surface")
    nu = n / np.sqrt(abs(q))
    # orient along the exterior side
    if S.exterior_sign * float(grad @ nu) < 0:
        nu = -nu
    return nu


def boundary_project(g: MetricField, S: BoundaryHypersurface,
                     x: Array, v: Array) -> Array:
    """Orthogonal projection of v onto T_xS: v - ((v,nu)/(nu,nu)) nu."""
    nu = boundary_normal(S, g, x)
    gm = g.matrix(x)
    eps = float(nu @ gm @ nu)
    coef = float(np.asarray(v, float) @ gm @ nu) / eps
    return np.asarray(v, float) - coef * nu


def lightlike_completion(g: MetricField, S: BoundaryHypersurface, x: Array,
                         v_proj: Array, orientation: float = -1.0) -> Array:
    """Lightlike vector v = v' + a*nu with projection v'; a signed by orientation.

    orientation -1 points inward (against the exterior normal), +1 outward.
    """
    v_proj = np.asarray(v_proj, float)
    nu = boundary_normal(S, g, x)
    gm = g.matrix(x)
    eps = float(nu @ gm @ nu)
    q = float(v_proj @ gm @ v_proj)
    a2 = -q / eps
    if a2 <= 0.0:
        raise NoLiftError(
            f"projected direction has (v',v')_g = {q:g}; no lightlike lift")
    return v_proj + orientation * np.sqrt(a2) * nu


# ---------------------------------------------------------------------------
# geodesic paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPath:
    """Sampled parametrized curve with velocities.

    ``speed_squared`` is the conserved quadratic form of the generating
    flow (metric scalar product of the velocity with itself).
    """

    sigma: Array                  # (M,)
    x: Array                      # (M, dim)
    v: Array                      # (M, dim)
    speed_squared: float

    def __post_init__(self):
        if not np.all(np.diff(self.sigma) > 0):
            raise ValueError("sigma samples must be strictly increasing")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("non-finite path samples")

    @property
    def end(self) -> tuple[Array, Array]:
        return self.x[-1], self.v[-1]

    def speed_drift(self, metric: MetricField) -> float:
        """max over samples of |(v,v)_g - speed_squared|."""
        gm = metric.matrix(self.x)
        q = np.einsum("mi,mij,mj->m", self.v, gm, self.v)
        return float(np.abs(q - self.speed_squared).max())


# ---------------------------------------------------------------------------
# RK4 flow integration (batched)
# ---------------------------------------------------------------------------

def _rk4_step(accel, x: Array, v: Array, h) -> tuple[Array, Array]:
    """One RK4 step of the second-order system x'' = accel(x, x').

    ``h`` may be a scalar or a per-batch-item array of shape (B,).  Only
    stage 1, the accepted state the step starts from, asks ``accel`` for
    the metric check.
    """
    h = np.asarray(h, float)
    if h.ndim == 1:
        h = h[:, None]
    a1 = accel(x, v)
    x2, v2 = x + 0.5 * h * v, v + 0.5 * h * a1
    a2 = accel(x2, v2, check=False)
    x3, v3 = x + 0.5 * h * (v + 0.5 * h * a1), v + 0.5 * h * a2
    a3 = accel(x3, v3, check=False)
    x4, v4 = x + h * (v + 0.5 * h * a2), v + h * a3
    a4 = accel(x4, v4, check=False)
    xn = x + h * v + (h * h / 6.0) * (a1 + a2 + a3)
    vn = v + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
    return xn, vn


def _ray_step(accel, x: Array, v: Array, h,
              rays: Array) -> tuple[Array, Array]:
    """_rk4_step on rows that hold the rays ``rays``.  An error of the
    step is raised again by the first ray that raises it on its own, with
    the ray named by ray_errors."""
    try:
        return _rk4_step(accel, x, v, h)
    except (LorlabError, ValueError):
        hs = np.broadcast_to(np.asarray(h, float), len(rays))
        for i, ray in enumerate(rays):
            with ray_errors(int(ray)):
                _rk4_step(accel, x[i:i + 1], v[i:i + 1], hs[i:i + 1])
        raise


def _check_step(k: int, xn: Array, vn: Array, x: Array, v: Array,
                rays: Array) -> None:
    """EscapeError when step k left a ray's state non-finite, naming the
    ray, the step and the ray's state before it."""
    if np.isfinite(xn).all() and np.isfinite(vn).all():
        return
    i = np.flatnonzero(~(np.isfinite(xn).all(axis=1)
                         & np.isfinite(vn).all(axis=1)))[0]
    raise EscapeError(
        f"ray {int(rays[i])}: state non-finite after step {k}; last finite "
        f"state x = {x[i].tolist()}, v = {v[i].tolist()}", ray=int(rays[i]))


def integrate_flow_fixed(accel, x0: Array, v0: Array, sigma_max: float,
                         step: float) -> tuple[Array, Array, Array]:
    """Integrate a batch to sigma_max with uniform steps; returns
    (sigma (M,), xs (M, B, dim), vs (M, B, dim)).  EscapeError as soon
    as a state turns non-finite."""
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    v = np.atleast_2d(np.asarray(v0, float)).copy()
    rays = np.arange(x.shape[0])
    n = max(1, int(round(sigma_max / step)))
    h = sigma_max / n
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for i in range(n):
        xn, vn = _ray_step(accel, x, v, h, rays)
        _check_step(i + 1, xn, vn, x, v, rays)
        x, v = xn, vn
        xs[i + 1], vs[i + 1] = x, v
    return np.linspace(0.0, sigma_max, n + 1), xs, vs


REFINE_TOL = 1e-15        # Newton correction at which a hit is accepted
REFINE_MAX_ITER = 60      # bisection of h down to rounding


def _refine_hit(accel, S: BoundaryHypersurface, x: Array, v: Array,
                f0: Array, f1: Array, h: float, sigma0: Array):
    """Locate, for a batch of rays, the b=0 crossing inside the step of
    length h from the last interior samples (x, v), where S.side is f0 < 0,
    to the crossing samples, where it is f1 >= 0.

    One safeguarded Newton search on the step length d in [0, h] runs for
    all rays at once, each iterate one RK4 step of length d from (x, v).
    It starts from the linear interpolation of side, uses the slope
    exterior_sign * grad b . v, and keeps a bracket per ray whose midpoint
    replaces any Newton iterate that leaves it or has a zero or
    non-finite slope.  A ray stops when its Newton correction is below
    REFINE_TOL * max(1, sigma0).  Returns (d, x(d), v(d)).
    """
    B = x.shape[0]
    lo, hi = np.zeros(B), np.full(B, float(h))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = h * f0 / (f0 - f1)
    d = np.where((d >= 0.0) & (d <= h), d, 0.5 * h)
    tol = REFINE_TOL * np.maximum(1.0, sigma0)
    de, xe, ve = np.empty(B), np.empty_like(x), np.empty_like(v)
    todo = np.arange(B)
    for _ in range(REFINE_MAX_ITER):
        dt = d[todo]
        xc, vc = _ray_step(accel, x[todo], v[todo], dt, todo)
        de[todo], xe[todo], ve[todo] = dt, xc, vc
        f = S.side(xc)
        slope = S.exterior_sign * np.einsum(
            "bi,bi->b", np.asarray(S.gradient(xc), float), vc)
        below = f < 0.0
        lo[todo[below]] = dt[below]
        hi[todo[~below]] = dt[~below]
        with np.errstate(divide="ignore", invalid="ignore"):
            dn = dt - f / slope
        lo_t, hi_t = lo[todo], hi[todo]
        bisect = ~((dn > lo_t) & (dn < hi_t))
        dn[bisect] = 0.5 * (lo_t[bisect] + hi_t[bisect])
        going = (f != 0.0) & (np.abs(dn - dt) > tol[todo])
        d[todo[going]] = dn[going]
        todo = todo[going]
        if not todo.size:
            break
    return de, xe, ve


def integrate_flow_to_surface(accel, x0: Array, v0: Array,
                              S: BoundaryHypersurface, step: float,
                              max_sigma: float = 10.0,
                              require_interior_first: bool = False):
    """March a batch until each ray crosses to the exterior side of S.

    Rays that have crossed stop marching.  Returns per-ray (sigma, x, v)
    sample arrays including the refined final sample on {b=0}.  Raises
    EscapeError listing rays that never crossed within max_sigma, or
    naming the first ray whose state turns non-finite.
    """
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    v = np.atleast_2d(np.asarray(v0, float)).copy()
    B = x.shape[0]
    n_max = int(np.ceil(max_sigma / step)) + 1
    xs = [x.copy()]
    vs = [v.copy()]
    phi = S.side(x)
    seen_interior = phi < -SURFACE_TOL
    hit_index = np.full(B, -1, dtype=int)
    f_in, f_out = np.empty(B), np.empty(B)   # side around the crossing
    active = np.ones(B, dtype=bool)
    k = 0
    while np.any(active) and k < n_max:
        rays = np.flatnonzero(active)
        xa, va = x[rays], v[rays]
        xn, vn = _ray_step(accel, xa, va, step, rays)
        _check_step(k + 1, xn, vn, xa, va, rays)
        phin = S.side(xn)
        crossing = phin >= 0.0
        if require_interior_first:
            crossing &= seen_interior[rays]
        seen_interior[rays] |= phin < -SURFACE_TOL
        hit = rays[crossing]
        hit_index[hit] = k
        f_in[hit], f_out[hit] = phi[hit], phin[crossing]
        active[hit] = False
        phi[rays] = phin
        x[rays], v[rays] = xn, vn
        xs.append(x.copy())
        vs.append(v.copy())
        k += 1
    if np.any(active):
        raise EscapeError(
            f"ray(s) {np.flatnonzero(active).tolist()} never met the target "
            f"surface within sigma budget {max_sigma}")
    xs = np.array(xs)
    vs = np.array(vs)
    rays = np.arange(B)
    sigma0 = hit_index * step
    d, xe, ve = _refine_hit(accel, S, xs[hit_index, rays],
                            vs[hit_index, rays], f_in, f_out, step, sigma0)
    missed = ~(np.abs(np.asarray(S.value(xe), float)) <= 100 * SURFACE_TOL)
    if np.any(missed):
        raise EscapeError(f"ray {int(np.flatnonzero(missed)[0])}: boundary "
                          "hit refinement failed")
    out = []
    for b in range(B):
        m = hit_index[b]
        sigma = np.append(np.arange(m + 1) * step, sigma0[b] + d[b])
        px = np.vstack([xs[: m + 1, b], xe[b][None, :]])
        pv = np.vstack([vs[: m + 1, b], ve[b][None, :]])
        if sigma[-1] - sigma[-2] < 1e-13:
            sigma = np.delete(sigma, -2)
            px = np.delete(px, -2, axis=0)
            pv = np.delete(pv, -2, axis=0)
        out.append((sigma, px, pv))
    return out


def _check_finite(x: Array, v: Array, what: str) -> None:
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise ValueError(f"non-finite {what}")


def _check_transversal(S: BoundaryHypersurface, g: MetricField, x: Array,
                       v: Array, what: str) -> None:
    nu = boundary_normal(S, g, x)
    if abs(float(v @ g.matrix(x) @ nu)) < TANGENCY_TOL * np.linalg.norm(v):
        raise TangencyError(f"{what} tangent to the hypersurface")


def integrate_flow_paths(accel, metric_for_speed: MetricField, x0: Array,
                         v0: Array, stop, step: float = 1e-3,
                         max_sigma: float = 10.0,
                         require_interior_first: bool = False,
                         unit_speed: bool = False) -> list[GeodesicPath]:
    """Fixed-step RK4 paths of the flow x'' = accel(x, x') from a batch
    of initial data (B, dim), marched in lockstep.

    ``stop`` is either a float (final parameter value) or a
    BoundaryHypersurface, in which case each final sample lies on {b=0}
    and tangential arrivals are rejected.  Before the march every ray
    must have finite data and ``metric_for_speed`` its declared signature
    at the start; that metric also sets the conserved speed_squared, which
    ``unit_speed`` requires to be one.  Errors name the failing ray.
    """
    x0 = np.atleast_2d(np.asarray(x0, float))
    v0 = np.atleast_2d(np.asarray(v0, float))
    speed2 = []
    for i, (x, v) in enumerate(zip(x0, v0)):
        with ray_errors(i):
            _check_finite(x, v, "initial data")
            speed2.append(float(inner(metric_for_speed, x, v, v)))
            if unit_speed and abs(speed2[-1] - 1.0) > 1e-8:
                raise PreconditionError(
                    f"initial velocity has (v,v) = {speed2[-1]:g}, not 1")
    if not isinstance(stop, BoundaryHypersurface):
        sigma, xs, vs = integrate_flow_fixed(accel, x0, v0, float(stop), step)
        return [GeodesicPath(sigma=sigma, x=xs[:, i], v=vs[:, i],
                             speed_squared=s) for i, s in enumerate(speed2)]
    sols = integrate_flow_to_surface(
        accel, x0, v0, stop, step, max_sigma,
        require_interior_first=require_interior_first)
    paths = []
    for i, (sigma, xs, vs) in enumerate(sols):
        with ray_errors(i):
            _check_transversal(stop, metric_for_speed, xs[-1], vs[-1],
                               "exit")
            paths.append(GeodesicPath(sigma=sigma, x=xs, v=vs,
                                      speed_squared=speed2[i]))
    return paths


def scatter_paths(accel, g: MetricField, U: BoundaryHypersurface,
                  V: BoundaryHypersurface, xs: Array, v_projs: Array, lift,
                  step: float, max_sigma: float, unit_speed: bool = False):
    """Shoot a batch of boundary entries (B, dim) from U to V in one
    lockstep march; the checks every scattering relation shares.

    Each entry must be finite and lie on U; ``lift(x, v_proj)`` completes
    it inward, and the completion must be g-transversal to U.  The march
    and its checks are those of integrate_flow_paths.  Errors name the
    failing ray.  Returns the entries as (B, dim) arrays and the paths.
    """
    xs = np.atleast_2d(np.asarray(xs, float))
    v_projs = np.atleast_2d(np.asarray(v_projs, float))
    lifts = np.empty_like(xs)
    for i, (x, vp) in enumerate(zip(xs, v_projs)):
        with ray_errors(i):
            _check_finite(x, vp, "entry data")
            if not abs(float(U.value(x))) <= 1e-9:
                raise PreconditionError("entry point not on the boundary")
            lifts[i] = lift(x, vp)
            _check_transversal(U, g, x, lifts[i], "entry")
    return xs, v_projs, integrate_flow_paths(
        accel, g, xs, lifts, V, step, max_sigma,
        require_interior_first=U is V, unit_speed=unit_speed)


def integrate_geodesic(g: MetricField, x0: Array, v0: Array,
                       stop, step: float = 1e-3, max_sigma: float = 10.0,
                       require_interior_first: bool = False) -> GeodesicPath:
    """Fixed-step RK4 geodesic of g: the batch of one of
    integrate_flow_paths, which documents the stops and checks."""
    (path,) = integrate_flow_paths(
        geodesic_accel(g), g, np.asarray(x0, float)[None],
        np.asarray(v0, float)[None], stop, step, max_sigma,
        require_interior_first=require_interior_first)
    return path
