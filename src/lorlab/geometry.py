"""Chart-local semi-Riemannian geometry.

Metric evaluation, Christoffel symbols, causal classification,
boundary normals/projections, and the one fixed-step RK4 stepper of
y' = rhs(y) on a batch of flat states: geodesic and magnetic flows as
(x, v), with hypersurface stopping, and the Hamiltonian and
reparametrization flows of ``gauge``.  Every march stops on a
non-finite state, naming the ray and the step.  Single-ray entry
points are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (ChartDomainError, EscapeError, LorlabError,
                     NoLiftError, PreconditionError, SignatureError,
                     SingularMetricError, TangencyError, ray_errors)
from .fields import Array, _central_jet

DET_FLOOR = 1e-12
CAUSAL_TOL = 1e-9
SURFACE_TOL = 1e-10
TANGENCY_TOL = 1e-8
CHART_STEP = 1e-6

LORENTZIAN = "lorentzian"
RIEMANNIAN = "riemannian"


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Symmetric metric tensor on a chart with signature metadata.

    ``func`` maps points ``(..., dim)`` to matrices ``(..., dim, dim)``.
    ``jetfunc``, the one derivative hook, when given returns
    ``(func(x), dg)`` from one pass of the fields behind them, with the
    coordinate partials in the layout ``dg[..., k, i, j] = d_k g_ij``;
    without it the partials are central differences of ``func``.
    """

    dim: int
    signature: str
    func: Callable[[Array], Array]
    domain: Optional[Callable[[Array], Array]] = None
    jetfunc: Optional[Callable[[Array], tuple[Array, Array]]] = None

    def _check_chart(self, x: Array) -> None:
        if self.domain is not None and not np.all(self.domain(x)):
            raise ChartDomainError("point outside chart domain")

    def _check_values(self, g: Array) -> None:
        """Finite values, symmetry and a determinant off zero, each
        matrix against its own scale, so that a matrix passes or fails
        whatever batch it is in; the values of an empty batch pass."""
        if not np.all(np.isfinite(g)):
            raise SingularMetricError("non-finite metric values")
        asym = np.abs(g - np.swapaxes(g, -1, -2))
        size = np.abs(g)
        det = np.abs(np.linalg.det(g))
        # When the batch meets the symmetry bound at the smallest scale
        # (1) and the determinant floor at its largest scale, every matrix
        # meets them at its own; the per-matrix reductions are then
        # skipped, which would add about a third to every RK4 step's check.
        if (asym.max(initial=0.0) <= 1e-12 and det.min(initial=np.inf)
                >= DET_FLOOR * max(size.max(initial=0.0), 1.0) ** self.dim):
            return
        scale = np.maximum(size.max(axis=(-2, -1)), 1.0)
        asym = asym.max(axis=(-2, -1))
        unsym = asym > 1e-12 * scale
        if np.any(unsym):
            raise SingularMetricError(
                f"metric not symmetric (asymmetry {asym[unsym].max():g})")
        if np.any(det < DET_FLOOR * scale ** self.dim):
            raise SingularMetricError("metric determinant below threshold")

    def matrix(self, x: Array, validate: bool = False) -> Array:
        """Matrix values at x, checked: chart domain, finite values,
        symmetry and a determinant off zero; with ``validate`` also the
        declared signature."""
        x = np.asarray(x, float)
        self._check_chart(x)
        g = np.asarray(self.func(x), float)
        self._check_values(g)
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

    def jet(self, x: Array, check: bool = True) -> tuple[Array, Array]:
        """(matrix values, partials dg[..., k, i, j] = d_k g_ij) at x from
        one pass of the fields: ``jetfunc``, else ``func`` once on x and
        its central-difference stencil.  With ``check`` the values
        pass the checks of ``matrix`` (without ``validate``); without,
        only the chart-domain check."""
        x = np.asarray(x, float)
        self._check_chart(x)
        g, dg = self._unchecked_jet(x)
        if check:
            self._check_values(g)
        return g, dg

    def _unchecked_jet(self, x: Array) -> tuple[Array, Array]:
        """jet without any check, for fields built from this one."""
        if self.jetfunc is not None:
            g, dg = self.jetfunc(x)
            return np.asarray(g, float), np.asarray(dg, float)
        return _central_jet(self.func, x, (self.dim, self.dim))


def inner(g: MetricField, x: Array, u: Array, w: Array) -> Union[float, Array]:
    """Scalar product u . g(x) . w; validates symmetry and signature."""
    gm = g.matrix(x, validate=True)
    val = np.einsum("...i,...ij,...j->...", np.asarray(u, float), gm,
                    np.asarray(w, float))
    return float(val) if val.ndim == 0 else val


def christoffel(g: MetricField, x: Array) -> Array:
    """Levi-Civita symbols Gamma[..., k, i, j] from metric partials."""
    gm, dg = g.jet(x)
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


def christoffel_contraction(dg: Array, v: Array) -> Array:
    """Gamma_{l,ij} v^i v^j = d_i g_lj v^i v^j - (1/2) d_l g_ij v^i v^j,
    batched, from the partials dg of a metric at the points of v."""
    t1 = np.einsum("...ilj,...i,...j->...l", dg, v, v)
    t2 = np.einsum("...lij,...i,...j->...l", dg, v, v)
    return t1 - 0.5 * t2


def geodesic_term(gm: Array, dg: Array, v: Array) -> Array:
    """-Gamma^k_ij v^i v^j, batched, from the matrix values gm and the
    partials dg of a metric at the points of v."""
    return -metric_solve(gm, christoffel_contraction(dg, v))


def geodesic_accel(g: MetricField):
    """Acceleration closure a(x, v) = -Gamma^k_ij v^i v^j, batched, from
    one MetricField.jet per call.

    With ``check`` (the default) the metric values pass the checks of
    MetricField.matrix; without, only its chart-domain check.  _rk4_step
    checks at the state a step starts from and skips the check at the
    three inner stages.
    """

    def accel(x: Array, v: Array, check: bool = True) -> Array:
        return geodesic_term(*g.jet(x, check), v)

    return accel


# ---------------------------------------------------------------------------
# causal classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CausalClass:
    tag: str                      # timelike | lightlike | spacelike
    quadratic_form_value: float
    tol: float


def causal_classify(g: MetricField, x: Array, v: Array) -> CausalClass:
    """Classify v by the sign of (v,v)_g with the relative tolerance band
    CAUSAL_TOL."""
    v = np.asarray(v, float)
    q = inner(g, x, v, v)
    band = CAUSAL_TOL * max(float(v @ v), 1e-300)
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
    exterior_sign: float = 1.0
    chart: Optional[Callable[[Array], Array]] = None
    chart_inverse: Optional[Callable[[Array], Array]] = None

    def side(self, x: Array) -> Array:
        """Signed distance proxy, positive on the exterior side."""
        return self.exterior_sign * np.asarray(self.value(x), float)

    def chart_frame(self, params: Array) -> Array:
        """Columns of d(chart)/d(params) at params, central differences
        of step CHART_STEP; shape (dim, n_params)."""
        params = np.asarray(params, float)
        cols = []
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = CHART_STEP
            cols.append((np.asarray(self.chart(params + e), float)
                         - np.asarray(self.chart(params - e), float))
                        / (2 * CHART_STEP))
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
                         v_proj: Array) -> Array:
    """Inward lightlike vector v = v' - a*nu, a > 0, with projection v':
    it points against the exterior normal nu."""
    v_proj = np.asarray(v_proj, float)
    nu = boundary_normal(S, g, x)
    gm = g.matrix(x)
    eps = float(nu @ gm @ nu)
    q = float(v_proj @ gm @ v_proj)
    a2 = -q / eps
    if a2 <= 0.0:
        raise NoLiftError(
            f"projected direction has (v',v')_g = {q:g}; no lightlike lift")
    return v_proj - np.sqrt(a2) * nu


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

def _rk4_step(rhs, y: Array, h) -> Array:
    """One classical RK4 step of the first-order system y' = rhs(y, check)
    on a (B, n) state.  ``h`` may be a scalar or a per-batch-item array of
    shape (B,).  Only stage 1, the accepted state the step starts from,
    asks ``rhs`` for the metric check."""
    h = np.asarray(h, float)
    if h.ndim == 1:
        h = h[:, None]
    k1 = rhs(y, True)
    k2 = rhs(y + 0.5 * h * k1, False)
    k3 = rhs(y + 0.5 * h * k2, False)
    k4 = rhs(y + h * k3, False)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _second_order(accel):
    """Right-hand side (v, accel(x, v)) of x'' = accel(x, x') on the flat
    state y = (x, v) of shape (B, 2 * dim)."""

    def rhs(y: Array, check: bool) -> Array:
        dim = y.shape[1] // 2
        x, v = y[:, :dim], y[:, dim:]
        return np.concatenate([v, accel(x, v, check=check)], axis=1)

    return rhs


def _ray_step(rhs, y: Array, h, rays: Array) -> Array:
    """_rk4_step on rows that hold the rays ``rays``.  An error of the
    step is raised again by the first ray that raises it on its own, with
    the ray named by ray_errors."""
    try:
        return _rk4_step(rhs, y, h)
    except (LorlabError, ValueError):
        hs = np.broadcast_to(np.asarray(h, float), len(rays))
        for i, ray in enumerate(rays):
            with ray_errors(int(ray)):
                _rk4_step(rhs, y[i:i + 1], hs[i:i + 1])
        raise


def _check_step(k: int, yn: Array, y: Array, rays: Array,
                names=("x", "v")) -> None:
    """EscapeError when step k left a ray's state non-finite, naming the
    ray, the step and its state before it, split into parts ``names``."""
    finite = np.isfinite(yn).all(axis=1)
    if finite.all():
        return
    i = np.flatnonzero(~finite)[0]
    state = ", ".join(f"{name} = {part.tolist()}" for name, part
                      in zip(names, np.split(y[i], len(names))))
    raise EscapeError(f"ray {int(rays[i])}: state non-finite after step "
                      f"{k}; last finite state {state}", ray=int(rays[i]))


def _march_fixed(rhs, y: Array, sigma_max: float, step: float,
                 names=("x", "v")) -> tuple[Array, Array]:
    """March y' = rhs(y, check) from the float (B, n) state y to sigma_max
    with uniform steps; returns (sigma (M,), ys (M, B, n)).  EscapeError
    as soon as a state turns non-finite (see _check_step)."""
    rays = np.arange(y.shape[0])
    n = max(1, int(round(sigma_max / step)))
    h = sigma_max / n
    ys = np.empty((n + 1,) + y.shape)
    ys[0] = y
    for i in range(n):
        yn = _ray_step(rhs, y, h, rays)
        _check_step(i + 1, yn, y, rays, names)
        y = ys[i + 1] = yn
    return np.linspace(0.0, sigma_max, n + 1), ys


def integrate_flow_fixed(accel, x0: Array, v0: Array, sigma_max: float,
                         step: float) -> tuple[Array, Array, Array]:
    """Integrate a batch of x'' = accel(x, x') to sigma_max with uniform
    steps; returns (sigma (M,), xs (M, B, dim), vs (M, B, dim)).
    EscapeError as soon as a state turns non-finite."""
    sigma, ys = _march_fixed(_second_order(accel),
                             np.hstack(np.atleast_2d(x0, v0)).astype(float),
                             sigma_max, step)
    return (sigma, *np.split(ys, 2, axis=2))


REFINE_TOL = 1e-15        # Newton correction at which a hit is accepted
REFINE_MAX_ITER = 60      # bisection of h down to rounding


def _refine_hit(rhs, S: BoundaryHypersurface, y: Array, f0: Array,
                f1: Array, h: float, sigma0: Array):
    """Locate, for a batch of rays, the b=0 crossing inside the step of
    length h from the last interior states y = (x, v), where S.side is
    f0 < 0, to the crossing samples, where it is f1 >= 0.

    One safeguarded Newton search on the step length d in [0, h] runs for
    all rays at once, each iterate one RK4 step of length d from y.
    It starts from the linear interpolation of side, uses the slope
    exterior_sign * grad b . v, and keeps a bracket per ray whose midpoint
    replaces any Newton iterate that leaves it or has a zero or
    non-finite slope.  A ray stops when its Newton correction is below
    REFINE_TOL * max(1, sigma0).  Returns (d, y(d)).
    """
    B, dim = y.shape[0], y.shape[1] // 2
    lo, hi = np.zeros(B), np.full(B, float(h))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = h * f0 / (f0 - f1)
    d = np.where((d >= 0.0) & (d <= h), d, 0.5 * h)
    tol = REFINE_TOL * np.maximum(1.0, sigma0)
    de, ye = np.empty(B), np.empty_like(y)
    todo = np.arange(B)
    for _ in range(REFINE_MAX_ITER):
        dt = d[todo]
        yc = _ray_step(rhs, y[todo], dt, todo)
        de[todo], ye[todo] = dt, yc
        xc = yc[:, :dim]
        f = S.side(xc)
        slope = S.exterior_sign * np.einsum(
            "bi,bi->b", np.asarray(S.gradient(xc), float), yc[:, dim:])
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
    return de, ye


def integrate_flow_to_surface(accel, x0: Array, v0: Array,
                              S: BoundaryHypersurface, step: float,
                              max_sigma: float = 10.0,
                              require_interior_first: bool = False):
    """March a batch of x'' = accel(x, x') until each ray crosses to the
    exterior side of S.

    Rays that have crossed stop marching.  Returns per-ray (sigma, x, v)
    sample arrays including the refined final sample on {b=0}.  Raises
    EscapeError listing rays that never crossed within max_sigma, or
    naming the first ray whose state turns non-finite.
    """
    rhs = _second_order(accel)
    y = np.hstack(np.atleast_2d(x0, v0)).astype(float)
    B, dim = y.shape[0], y.shape[1] // 2
    n_max = int(np.ceil(max_sigma / step)) + 1
    # x and v are stacked apart, so one list is freed before the next stack
    xs, vs = [y[:, :dim].copy()], [y[:, dim:].copy()]
    phi = S.side(y[:, :dim])
    seen_interior = phi < -SURFACE_TOL
    hit_index = np.full(B, -1, dtype=int)
    f_in, f_out = np.empty(B), np.empty(B)   # side around the crossing
    y_in = np.empty_like(y)                  # state before the crossing
    active = np.ones(B, dtype=bool)
    k = 0
    while np.any(active) and k < n_max:
        rays = np.flatnonzero(active)
        ya = y[rays]
        yn = _ray_step(rhs, ya, step, rays)
        _check_step(k + 1, yn, ya, rays)
        phin = S.side(yn[:, :dim])
        crossing = phin >= 0.0
        if require_interior_first:
            crossing &= seen_interior[rays]
        seen_interior[rays] |= phin < -SURFACE_TOL
        hit = rays[crossing]
        hit_index[hit] = k
        f_in[hit], f_out[hit] = phi[hit], phin[crossing]
        y_in[hit] = ya[crossing]
        active[hit] = False
        phi[rays] = phin
        y[rays] = yn
        xs.append(y[:, :dim].copy())
        vs.append(y[:, dim:].copy())
        k += 1
    if np.any(active):
        raise EscapeError(
            f"ray(s) {np.flatnonzero(active).tolist()} never met the target "
            f"surface within sigma budget {max_sigma}")
    xs = np.array(xs)
    vs = np.array(vs)
    sigma0 = hit_index * step
    d, ye = _refine_hit(rhs, S, y_in, f_in, f_out, step, sigma0)
    missed = ~(np.abs(np.asarray(S.value(ye[:, :dim]), float))
               <= 100 * SURFACE_TOL)
    if np.any(missed):
        raise EscapeError(f"ray {int(np.flatnonzero(missed)[0])}: boundary "
                          "hit refinement failed")
    out = []
    for b in range(B):
        m, end = hit_index[b], sigma0[b] + d[b]
        if end - sigma0[b] >= 1e-13:   # else the exit replaces sample m
            m += 1
        out.append((np.append(np.arange(m) * step, end),
                    np.vstack([xs[:m, b], ye[b, None, :dim]]),
                    np.vstack([vs[:m, b], ye[b, None, dim:]])))
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
                       stop, step: float = 1e-3) -> GeodesicPath:
    """Fixed-step RK4 geodesic of g: the batch of one of
    integrate_flow_paths, which documents the stops and checks."""
    (path,) = integrate_flow_paths(
        geodesic_accel(g), g, np.asarray(x0, float)[None],
        np.asarray(v0, float)[None], stop, step)
    return path
