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

from .errors import (ChartDomainError, EscapeError, NoLiftError,
                     PreconditionError, SignatureError, SingularMetricError,
                     TangencyError, ray_errors)
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

    def matrix(self, x: Array, validate: bool = False) -> Array:
        x = np.asarray(x, float)
        if self.domain is not None and not np.all(self.domain(x)):
            raise ChartDomainError("point outside chart domain")
        g = np.asarray(self.func(x), float)
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


def geodesic_accel(g: MetricField):
    """Acceleration closure a(x, v) = -Gamma^k_ij v^i v^j, batched."""

    def accel(x: Array, v: Array) -> Array:
        gm = g.matrix(x)
        dg = g.partials(x)
        t1 = np.einsum("...ilj,...i,...j->...l", dg, v, v)
        t2 = np.einsum("...lij,...i,...j->...l", dg, v, v)
        rhs = t1 - 0.5 * t2
        return -np.linalg.solve(gm, rhs[..., None])[..., 0]

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

    ``h`` may be a scalar or a per-batch-item array of shape (B,).
    """
    h = np.asarray(h, float)
    if h.ndim == 1:
        h = h[:, None]
    a1 = accel(x, v)
    x2, v2 = x + 0.5 * h * v, v + 0.5 * h * a1
    a2 = accel(x2, v2)
    x3, v3 = x + 0.5 * h * (v + 0.5 * h * a1), v + 0.5 * h * a2
    a3 = accel(x3, v3)
    x4, v4 = x + h * (v + 0.5 * h * a2), v + h * a3
    a4 = accel(x4, v4)
    xn = x + h * v + (h * h / 6.0) * (a1 + a2 + a3)
    vn = v + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
    return xn, vn


def integrate_flow_fixed(accel, x0: Array, v0: Array, sigma_max: float,
                         step: float) -> tuple[Array, Array, Array]:
    """Integrate a batch to sigma_max with uniform steps; returns
    (sigma (M,), xs (M, B, dim), vs (M, B, dim))."""
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    v = np.atleast_2d(np.asarray(v0, float)).copy()
    n = max(1, int(round(sigma_max / step)))
    h = sigma_max / n
    xs = np.empty((n + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for i in range(n):
        x, v = _rk4_step(accel, x, v, h)
        xs[i + 1], vs[i + 1] = x, v
    return np.linspace(0.0, sigma_max, n + 1), xs, vs


def _refine_hit(accel, S: BoundaryHypersurface, x: Array, v: Array,
                sigma0: float, h: float):
    """Locate the b=0 crossing inside (sigma0, sigma0+h] from state (x, v)."""
    xb = x[None, :]
    vb = v[None, :]

    def state_at(d):
        if d == 0.0:
            return x, v
        xn, vn = _rk4_step(accel, xb, vb, d)
        return xn[0], vn[0]

    def phi(d):
        return float(S.side(state_at(d)[0]))

    lo, hi = 0.0, h
    flo = phi(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-16 * max(1.0, abs(sigma0)):
            break
    d = 0.5 * (lo + hi)
    for _ in range(3):
        xc, vc = state_at(d)
        b = float(S.side(xc))
        slope = float(np.asarray(S.gradient(xc), float) @ vc) * S.exterior_sign
        if slope == 0.0:
            break
        d = min(max(d - b / slope, 0.0), h)
    xc, vc = state_at(d)
    return sigma0 + d, xc, vc


def integrate_flow_to_surface(accel, x0: Array, v0: Array,
                              S: BoundaryHypersurface, step: float,
                              max_sigma: float = 10.0,
                              require_interior_first: bool = False):
    """March a batch until each ray crosses to the exterior side of S.

    Returns per-ray (sigma, x, v) sample arrays including the refined
    final sample on {b=0}.  Raises EscapeError listing rays that never
    crossed within max_sigma.
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
    active = np.ones(B, dtype=bool)
    k = 0
    while np.any(active) and k < n_max:
        xn, vn = _rk4_step(accel, x, v, step)
        phin = S.side(xn)
        crossing = active & (phin >= 0.0)
        if require_interior_first:
            crossing &= seen_interior
        seen_interior |= phin < -SURFACE_TOL
        hit_index[crossing] = k
        active &= ~crossing
        x, v = xn, vn
        xs.append(x.copy())
        vs.append(v.copy())
        k += 1
    if np.any(active):
        lost = np.flatnonzero(active)
        blown = lost[~np.all(np.isfinite(x[lost]), axis=1)]
        raise EscapeError(
            f"ray(s) {lost.tolist()} never met the target surface within "
            f"sigma budget {max_sigma}"
            + (f"; non-finite state on ray(s) {blown.tolist()}"
               if blown.size else ""))
    xs = np.array(xs)
    vs = np.array(vs)
    out = []
    for b in range(B):
        m = hit_index[b]
        sig, xe, ve = _refine_hit(accel, S, xs[m, b], vs[m, b], m * step, step)
        if abs(float(S.value(xe))) > 100 * SURFACE_TOL:
            raise EscapeError(f"ray {b}: boundary hit refinement failed")
        sigma = np.append(np.arange(m + 1) * step, sig)
        px = np.vstack([xs[: m + 1, b], xe[None, :]])
        pv = np.vstack([vs[: m + 1, b], ve[None, :]])
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
