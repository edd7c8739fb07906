"""Chart-local semi-Riemannian geometry.

Metric evaluation, Christoffel symbols, causal classification, and
boundary normals, projections and completions on batches (..., dim), a
point being the batch of shape ().  Two steppers of y' = rhs(y) on a
batch of flat states serve every flow: classical RK4, with one step
length or one per row, for fixed steps over an interval (_fixed_path,
and the flows of gauge and connect), and the Dormand-Prince 5(4) pair
for error-controlled steps per ray to a surface
(integrate_flow_to_surface, behind scatter_paths).  A check that fails
on a batch runs again ray by ray, so its error names the first failing
ray (_by_ray).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (ChartDomainError, EscapeError, LorlabError,
                     NoLiftError, PreconditionError, SignatureError,
                     SingularMetricError, TangencyError)
from .fields import Array, _central_jet, einsum

try:
    # the gufuncs behind np.linalg.solve and np.linalg.det, called without
    # the wrappers' per-call type checks (see metric_solve)
    from numpy.linalg import _umath_linalg
    _solve1, _det = _umath_linalg.solve1, _umath_linalg.det
except (ImportError, AttributeError):
    _solve1 = _det = None

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
        size = np.abs(g)
        top = size.max(initial=0.0)     # NaN or inf iff a value is
        if not top < np.inf:
            raise SingularMetricError("non-finite metric values")
        asym = np.abs(g - g.swapaxes(-1, -2))
        det = np.abs(np.linalg.det(g) if _det is None
                     else _det(g, signature="d->d"))
        # When the batch meets the symmetry bound at the smallest scale
        # (1) and the determinant floor at its largest scale, every matrix
        # meets them at its own; the per-matrix reductions are then
        # skipped, which would add about a third to every RK4 step's check.
        if (asym.max(initial=0.0) <= 1e-12 and det.min(initial=np.inf)
                >= DET_FLOOR * max(top, 1.0) ** self.dim):
            return
        scale = np.maximum(size.max(axis=(-2, -1)), 1.0)
        asym = asym.max(axis=(-2, -1))
        unsym = asym > 1e-12 * scale
        if unsym.any():
            raise SingularMetricError(
                f"metric not symmetric (asymmetry {asym[unsym].max():g})")
        if (det < DET_FLOOR * scale ** self.dim).any():
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
        neg = np.count_nonzero(np.linalg.eigvalsh(g) < 0, axis=-1)
        wrong = neg != (1 if self.signature == LORENTZIAN else 0)
        if np.any(wrong):
            raise SignatureError(f"{self.signature} metric has "
                                 f"{neg[wrong].flat[0]} negative eigenvalues")

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


def _dot(u: Array, gm: Array, w: Array) -> Array:
    """u . gm . w over a batch (...)."""
    return einsum("...i,...ij,...j->...", u, gm, w)


def inner(g: MetricField, x: Array, u: Array, w: Array) -> Union[float, Array]:
    """Scalar product u . g(x) . w; validates symmetry and signature."""
    gm = g.matrix(x, validate=True)
    val = _dot(np.asarray(u, float), gm, np.asarray(w, float))
    return float(val) if val.ndim == 0 else val


def christoffel(g: MetricField, x: Array) -> Array:
    """Levi-Civita symbols Gamma[..., k, i, j] from metric partials."""
    gm, dg = g.jet(x)
    # Gamma_{l,ij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    low = 0.5 * (einsum("...ilj->...lij", dg)
                 + einsum("...jli->...lij", dg) - dg)
    ginv = np.linalg.inv(gm)
    return einsum("...kl,...lij->...kij", ginv, low)


def _singular(err, flag):
    raise SingularMetricError("singular metric matrix")


def metric_solve(gm: Array, rhs: Array) -> Array:
    """gm^{-1} rhs for a batch of vectors, bit for bit as np.linalg.solve;
    SingularMetricError when a matrix of the batch is singular.  Calls
    np.linalg.solve's gufunc under the floating-point error state that
    np.linalg.solve sets, whose handler reports a singular matrix, and
    np.linalg.solve itself when numpy has no such gufunc."""
    if _solve1 is None:
        try:
            return np.linalg.solve(gm, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise SingularMetricError("singular metric matrix") from None
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _solve1(gm, rhs, signature="dd->d")


def christoffel_contraction(dg: Array, v: Array) -> Array:
    """Gamma_{l,ij} v^i v^j = d_i g_lj v^i v^j - (1/2) d_l g_ij v^i v^j,
    batched, from the partials dg of a metric at the points of v: with
    w[..., k, i] = d_k g_ij v^j formed once, the mat-vec (w^T - w / 2) v."""
    w = einsum("...kij,...j->...ki", dg, v)
    return einsum("...li,...i->...l", w.swapaxes(-1, -2) - 0.5 * w, v)


def geodesic_term(gm: Array, dg: Array, v: Array) -> Array:
    """-Gamma^k_ij v^i v^j, batched, from the matrix values gm and the
    partials dg of a metric at the points of v."""
    return -metric_solve(gm, christoffel_contraction(dg, v))


def geodesic_accel(g: MetricField):
    """Acceleration closure a(x, v) = -Gamma^k_ij v^i v^j, batched, from
    one MetricField.jet per call.

    With ``check`` (the default) the metric values pass the checks of
    MetricField.matrix; without, only its chart-domain check.  The
    steppers check at the state a step starts from and skip the check at
    the inner stages.
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


def _causal_classes(q: Array, v: Array) -> list[CausalClass]:
    """The class of each row of v (B, dim), of (v,v)_g = q (B,), by sign
    with the relative tolerance band CAUSAL_TOL."""
    band = CAUSAL_TOL * np.maximum(einsum("bi,bi->b", v, v), 1e-300)
    tags = np.where(q < -band, "timelike",
                    np.where(q > band, "spacelike", "lightlike"))
    return [CausalClass(tag=str(t), quadratic_form_value=float(a),
                        tol=float(b)) for t, a, b in zip(tags, q, band)]


def causal_classify(g: MetricField, x: Array, v: Array) -> CausalClass:
    """Classify v by the sign of (v,v)_g with the relative tolerance band
    CAUSAL_TOL."""
    v = np.asarray(v, float)
    return _causal_classes(np.atleast_1d(inner(g, x, v, v)), v[None])[0]


# ---------------------------------------------------------------------------
# boundary hypersurfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryHypersurface:
    """Level set {b = 0} with the exterior on the side exterior_sign*b > 0.

    ``chart``/``chart_inverse`` give an explicit local parametrization
    on batches, (..., p) <-> (..., dim), like ``value``, ``gradient``
    and ``side``; connect._chart_stencil takes tangential gradients and
    chart frames from it.
    """

    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    exterior_sign: float = 1.0
    chart: Optional[Callable[[Array], Array]] = None
    chart_inverse: Optional[Callable[[Array], Array]] = None

    def side(self, x: Array) -> Array:
        """Signed distance proxy, positive on the exterior side."""
        return self.exterior_sign * np.asarray(self.value(x), float)


def boundary_normal(S: BoundaryHypersurface, g: MetricField, x: Array) -> Array:
    """Exterior unit normals at the points x (..., dim): g-orthogonal to
    T_xS, |(nu,nu)_g| = 1."""
    return _normal_metric(S, g, x)[0]


def _normal_metric(S: BoundaryHypersurface, g: MetricField,
                   x: Array) -> tuple[Array, Array]:
    """(boundary_normal, g.matrix) at the points x from one matrix call,
    for the helpers below that use both."""
    x = np.asarray(x, float)
    grad = np.asarray(S.gradient(x), float)
    if np.any(np.linalg.norm(grad, axis=-1) == 0.0):
        raise SingularMetricError("vanishing surface gradient")
    gm = g.matrix(x)
    n = metric_solve(gm, grad)
    q = einsum("...i,...i->...", grad, n)        # (n,n)_g
    if np.any(np.abs(q) < 1e-14 * einsum("...i,...i->...", grad, grad)):
        raise SingularMetricError("degenerate induced metric on surface")
    nu = n / np.sqrt(np.abs(q))[..., None]
    # orient along the exterior side
    inward = S.exterior_sign * einsum("...i,...i->...", grad, nu) < 0
    return np.where(inward[..., None], -nu, nu), gm


def boundary_project(g: MetricField, S: BoundaryHypersurface,
                     x: Array, v: Array) -> Array:
    """Orthogonal projections of v onto T_xS over a batch (..., dim):
    v - ((v,nu)/(nu,nu)) nu."""
    return _project(*_normal_metric(S, g, x), np.asarray(v, float))


def _project(nu: Array, gm: Array, v: Array) -> Array:
    """boundary_project from the normals nu and metric values gm."""
    coef = _dot(v, gm, nu) / _dot(nu, gm, nu)
    return v - coef[..., None] * nu


def lightlike_completion(g: MetricField, S: BoundaryHypersurface, x: Array,
                         v_proj: Array) -> Array:
    """Inward lightlike vectors v = v' - a*nu, a > 0, with projections v'
    over a batch (..., dim): they point against the exterior normal nu."""
    return _lightlike_lift(*_normal_metric(S, g, x),
                           np.asarray(v_proj, float))


def _lightlike_lift(nu: Array, gm: Array, v_proj: Array) -> Array:
    """lightlike_completion from the normals nu and metric values gm."""
    q = _dot(v_proj, gm, v_proj)
    a2 = -q / _dot(nu, gm, nu)
    short = a2 <= 0.0
    if np.any(short):
        raise NoLiftError(f"projected direction has (v',v')_g = "
                          f"{np.asarray(q)[short].flat[0]:g}; no lightlike "
                          "lift")
    return v_proj - np.sqrt(a2)[..., None] * nu


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
        q = einsum("mi,mij,mj->m", self.v, gm, self.v)
        return float(np.abs(q - self.speed_squared).max())


# ---------------------------------------------------------------------------
# flow integration (batched)
# ---------------------------------------------------------------------------

def _by_ray(check, rays):
    """check(rows) on the slice of all rows of a batch that holds the rays
    ``rays``.  An error of the batch is raised again by the first ray
    that raises it on its own, its message prefixed with ``ray i: ``."""
    try:
        return check(slice(None))
    except (LorlabError, ValueError):
        for i, ray in enumerate(rays):
            try:
                check(slice(i, i + 1))
            except (LorlabError, ValueError) as exc:
                exc.args = (f"ray {int(ray)}: {exc}",) + exc.args[1:]
                raise
        raise


def _rk4_step(rhs, y: Array, h: float, rays: Array) -> Array:
    """One classical RK4 step of length h of the first-order system
    y' = rhs(y, check) on a (B, n) state whose rows hold the rays
    ``rays``; errors name their first ray (_by_ray).  Only stage 1, the
    accepted state the step starts from, asks ``rhs`` for the metric
    check.  Returns the new state."""
    half = 0.5 * h

    def step(r):
        yr = y[r]
        k1 = rhs(yr, True)
        k2 = rhs(yr + half * k1, False)
        k3 = rhs(yr + half * k2, False)
        k4 = rhs(yr + h * k3, False)
        return yr + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return _by_ray(step, rays)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): the rows a_2 .. a_7 of its stage matrix, and the weights b of the
# order-5 solution and b_hat of the order-4 one.  a_7 = b, so the 7th
# stage is the derivative at the new state, the next step's first (FSAL).
DP54_A = ((1 / 5,),
          (3 / 40, 9 / 40),
          (44 / 45, -56 / 15, 32 / 9),
          (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
          (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
          (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
DP54_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP54_BHAT = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
             187 / 2100, 1 / 40)
_DP54_E = tuple(b - bh for b, bh in zip(DP54_B, DP54_BHAT))


def _combo(w, ks: list) -> Array:
    """sum_i w_i ks_i over the nonzero weights w_i, in order."""
    out = None
    for wi, ki in zip(w, ks):
        if wi:
            out = wi * ki if out is None else out + wi * ki
    return out


def _dp54_step(rhs, y: Array, h: Array, rays: Array,
               k1: Array) -> tuple[Array, Array]:
    """One Dormand-Prince 5(4) step (DP54_A) of y' = rhs(y, check) on a
    (B, n) state whose rows hold the rays ``rays``, of lengths h (B,),
    from its first stage k1 = rhs(y, True), which the caller holds; the
    five further stages skip the metric check, and errors name their
    first ray (_by_ray).  In increment form, so that a ray whose stages
    agree moves by exactly h k1: returns (the order-5 state
    y + h (k1 + sum_{i>=2} b_i (k_i - k1)), and the error sum
    sum_{i=2..6} e_i (k_i - k1), e = b - b_hat, without the 7th stage's
    term e_7 (rhs(new state) - k1), which the caller adds)."""
    h = np.asarray(h, float)[:, None]

    def step(r):
        yr, hr, k = y[r], h[r], [k1[r]]
        for row in DP54_A[:-1]:
            k.append(rhs(yr + hr * _combo(row, k), False))
        dk = [ki - k[0] for ki in k[1:]]
        return (yr + hr * (k[0] + _combo(DP54_A[-1][1:], dk)),
                _combo(_DP54_E[1:6], dk))

    return _by_ray(step, rays)


def _second_order(accel):
    """Right-hand side (v, accel(x, v)) of x'' = accel(x, x') on the flat
    state y = (x, v) of shape (B, 2 * dim)."""

    def rhs(y: Array, check: bool) -> Array:
        dim = y.shape[1] // 2
        x, v = y[:, :dim], y[:, dim:]
        return np.concatenate([v, accel(x, v, check=check)], axis=1)

    return rhs


def _check_step(k: int, yn: Array, y: Array, rays: Array,
                names=("x", "v")) -> None:
    """EscapeError when step k left a ray's state non-finite, naming the
    ray, the step and its state before it, split into parts ``names``."""
    finite = np.isfinite(yn)
    if finite.all():
        return
    i = np.flatnonzero(~finite.all(axis=1))[0]
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
        yn = _rk4_step(rhs, y, h, rays)
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


def _refine_hit(rhs, S: BoundaryHypersurface, y: Array, k1: Array,
                f0: Array, f1: Array, h: Array, sigma0: Array):
    """Locate, for a batch of rays, the b=0 crossing inside the steps of
    lengths h (B,) from the last interior states y = (x, v), where S.side
    is f0 < 0, to the crossing states, where it is f1 >= 0.

    One safeguarded Newton search on the step length d in [0, h] runs for
    all rays at once, each iterate one step of the march's pair
    (_dp54_step) of length d from y whose first stage is k1 = rhs(y,
    True), which the march already holds.
    It starts from the linear interpolation of side, uses the slope
    exterior_sign * grad b . v, and keeps a bracket per ray whose midpoint
    replaces any Newton iterate that leaves it or has a zero or
    non-finite slope.  A ray stops when its Newton correction is below
    REFINE_TOL * max(1, sigma0).  Returns (d, y(d)).
    """
    B, dim = y.shape[0], y.shape[1] // 2
    lo, hi = np.zeros(B), np.array(h, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = h * f0 / (f0 - f1)
    d = np.where((d >= 0.0) & (d <= h), d, 0.5 * h)
    tol = REFINE_TOL * np.maximum(1.0, sigma0)
    de, ye = np.empty(B), np.empty_like(y)
    todo = np.arange(B)
    for _ in range(REFINE_MAX_ITER):
        dt = d[todo]
        yc, _ = _dp54_step(rhs, y[todo], dt, todo, k1[todo])
        de[todo], ye[todo] = dt, yc
        xc = yc[:, :dim]
        f = S.side(xc)
        slope = S.exterior_sign * einsum(
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


MARCH_TOL = 1e-10         # local error per unit sigma of a surface-march step
MARCH_GROW = 64           # longest surface-march step, in caller's steps


def _hermite(s: Array, y: Array, f: Array, t: Array) -> list[Array]:
    """[x(t), x'(t)] as (dim, M) arrays at the increasing sigmas t (M,) in
    [s[0], s[-1]) of the quintic Hermite fit, on the knots s (K,), of the
    states y = (x, v) (K, 2 dim) and derivatives f = (v, a) of x'' = a:
    Horner sums in th = (t - s_i) / h_i over (dim, K-1) coefficient arrays
    per power, the constant term of x' being v_i, so that a t at a knot
    gives that knot's (x, v) bit for bit."""
    dim, h = y.shape[1] // 2, np.diff(s)
    x, v, a = y[:, :dim].T, y[:, dim:].T, f[:, dim:].T     # (dim, K)
    c1, c2 = h * v[:, :-1], 0.5 * h * h * a[:, :-1]
    # what c3 th^3 + c4 th^4 + c5 th^5 adds to x, h x' and h^2 x'' at th = 1
    d, e, q = (x[:, 1:] - x[:, :-1] - c1 - c2, h * v[:, 1:] - c1 - 2.0 * c2,
               h * h * a[:, 1:] - 2.0 * c2)
    c3, c4 = 10.0 * d - 4.0 * e + 0.5 * q, 7.0 * e - 15.0 * d - q
    c5 = 6.0 * d - 3.0 * e + 0.5 * q
    i = np.clip(np.searchsorted(s, t, side="right") - 1, 0, len(s) - 2)
    th = (t - s[i]) / h[i]
    out = []
    for cs in ((c5, c4, c3, c2, c1, x[:, :-1]),
               (5.0 * c5 / h, 4.0 * c4 / h, 3.0 * c3 / h, h * a[:, :-1],
                v[:, :-1])):
        p = np.take(cs[0], i, axis=1)
        for c in cs[1:]:
            p *= th
            p += np.take(c, i, axis=1)
        out.append(p)
    return out


def integrate_flow_to_surface(accel, x0: Array, v0: Array,
                              S: BoundaryHypersurface, step: float,
                              max_sigma: float = 10.0):
    """March a batch of x'' = accel(x, x') until each ray crosses to the
    exterior side of S after being strictly inside it (side < -SURFACE_TOL).

    Each ray takes its own steps h in [step, MARCH_GROW * step] of the
    Dormand-Prince 5(4) pair (_dp54_step), which advances the order-5
    solution.  The derivative at a step's end, f(y_new), is the pair's
    7th stage, the next step's first and its one metric-checked stage,
    so a step costs six acceleration calls.  A step is accepted when the
    estimate err = h max|sum_i e_i k_i| of the order-4 solution's local
    error, e = b - b_hat, meets err <= MARCH_TOL * h, or when h == step;
    the next one is h * clip(0.9 (MARCH_TOL h / err)^(1/4), 0.2, 4),
    never below step: the march is never finer than the march of fixed
    steps ``step``.
    Rays that have crossed stop marching.  Returns per-ray (sigma, x, v)
    arrays: the samples at sigma = j * step of the accepted states'
    quintic Hermite fit, by Horner (_hermite), then the refined sample on
    {b=0}, which replaces a sample less than 1e-13 before it.  Raises
    EscapeError listing rays that never crossed within max_sigma, or
    naming the first ray whose state turns non-finite or whose refined
    hit misses S.
    """
    rhs = _second_order(accel)
    y = np.hstack(np.atleast_2d(x0, v0)).astype(float)
    B, dim = y.shape[0], y.shape[1] // 2
    # the sigma that ceil(max_sigma / step) + 1 steps of length step
    # reach, less half a step for the rounding of sums of steps
    budget = (np.ceil(max_sigma / step) + 0.5) * step
    # the still-marching rays: states, derivatives, sigmas, next step
    # lengths and whether they have been strictly inside S
    rays, ya, sa, phi = np.arange(B), y, np.zeros(B), S.side(y[:, :dim])
    fa = _by_ray(lambda r: rhs(ya[r], True), rays)
    ha = np.full(B, float(step))
    seen = phi < -SURFACE_TOL
    # accepted (ray, sigma, y, f, side of S): a ray's last two knots hold
    # its crossing step, the refinement's data
    knots = [(rays, sa, ya, fa, phi)]
    escaped = []
    k = 0
    while rays.size:
        k += 1
        yn, e6 = _dp54_step(rhs, ya, ha, rays, fa)
        _check_step(k, yn, ya, rays)
        fn = _by_ray(lambda r: rhs(yn[r], True), rays)
        phin = S.side(yn[:, :dim])
        with np.errstate(invalid="ignore", over="ignore"):
            err = ha * np.abs(e6 + _DP54_E[6] * (fn - fa)).max(axis=1)
        err = np.where(np.isfinite(err), err, np.inf)
        ok = (err <= MARCH_TOL * ha) | (ha == step)
        grow = np.minimum(np.maximum(0.9 * np.sqrt(np.sqrt(
            MARCH_TOL * ha / np.maximum(err, 1e-300))), 0.2), 4.0)
        sn = sa + ha
        crossing = ok & (phin >= 0.0) & seen
        seen = seen | (ok & (phin < -SURFACE_TOL))
        hn = np.minimum(np.maximum(ha * grow, step), MARCH_GROW * step)
        if ok.all() and not crossing.any() and (sn < budget).all():
            # every ray steps on: no merge, no hit, no ray to drop
            knots.append((rays, sn, yn, fn, phin))
            ya, fa, sa, ha = yn, fn, sn, hn
            continue
        knots.append((rays[ok], sn[ok], yn[ok], fn[ok], phin[ok]))
        ya = np.where(ok[:, None], yn, ya)
        fa = np.where(ok[:, None], fn, fa)
        sa = np.where(ok, sn, sa)
        spent = ~crossing & (sa >= budget)
        escaped += rays[spent].tolist()
        going = ~crossing & ~spent
        rays, ya, fa, sa, ha, seen = (a[going] for a in
                                      (rays, ya, fa, sa, hn, seen))
    if escaped:
        raise EscapeError(
            f"ray(s) {sorted(escaped)} never met the target "
            f"surface within sigma budget {max_sigma}")
    ids, ks, ky, kf, kphi = (np.concatenate(c) for c in zip(*knots))
    by_ray = np.split(np.argsort(ids, kind="stable"),
                      np.cumsum(np.bincount(ids, minlength=B))[:-1])
    j0, j1 = (np.array([sel[i] for sel in by_ray]) for i in (-2, -1))
    d, ye = _refine_hit(rhs, S, ky[j0], kf[j0], kphi[j0], kphi[j1],
                        ks[j1] - ks[j0], ks[j0])
    miss = np.asarray(S.value(ye[:, :dim]), float)
    bad = np.flatnonzero(~(np.abs(miss) <= 100 * SURFACE_TOL))
    if bad.size:
        b = int(bad[0])
        raise EscapeError(f"ray {b}: boundary hit refinement failed; rejected "
                          f"(x, v) = {ye[b].tolist()}, surface value "
                          f"{miss[b]:g}", ray=b)
    out = []
    for b, sel in enumerate(by_ray):
        end = ks[j0[b]] + d[b]
        grid = np.arange(int(end / step) + 2) * step
        grid = grid[end - grid >= 1e-13]
        x, v = _hermite(ks[sel], ky[sel], kf[sel], grid)
        out.append((np.append(grid, end), np.vstack([x.T, ye[b, None, :dim]]),
                    np.vstack([v.T, ye[b, None, dim:]])))
    return out


def paired_rows(what: str, xs: Array, *named) -> list:
    """xs and the arrays of the (name, array) pairs named as float
    arrays of at least two dimensions, row i of each belonging to batch
    entry i; an array given as None stays None.  Before any work, a
    ValueError names xs, as what, when its rows have width 0, and each
    array shaped unlike xs, by its name and the shape the caller gave."""
    xs = np.atleast_2d(np.asarray(xs, float))
    if not xs.shape[1]:
        raise ValueError(f"{what} of shape {xs.shape} have width 0")
    out = [xs]
    for name, arr in named:
        if arr is not None:
            given, arr = np.shape(arr), np.atleast_2d(np.asarray(arr, float))
            if arr.shape != xs.shape:
                raise ValueError(f"{name} {given} unlike xs {xs.shape}")
        out.append(arr)
    return out


def _check_finite(x: Array, v: Array, what: str) -> None:
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise ValueError(f"non-finite {what}")


def _check_transversal(nu: Array, gm: Array, v: Array, what: str) -> None:
    """TangencyError unless v is g-transversal to the surface of the
    normals nu, where g has the values gm."""
    if np.any(np.abs(_dot(v, gm, nu))
              < TANGENCY_TOL * np.linalg.norm(v, axis=-1)):
        raise TangencyError(f"{what} tangent to the hypersurface")


def _initial_speeds(g: MetricField, gm: Array, v0: Array,
                    unit_speed: bool) -> Array:
    """The conserved (v0, v0)_g of finite initial velocities (B, dim) at
    points where g has the values gm, which must be of g's declared
    signature; ``unit_speed`` requires it to be 1."""
    g._check_signature(gm)
    speed2 = _dot(v0, gm, v0)
    off = np.abs(speed2 - 1.0) > 1e-8
    if unit_speed and np.any(off):
        raise PreconditionError(
            f"initial velocity has (v,v) = {speed2[off][0]:g}, not 1")
    return speed2


def scatter_paths(accel, g: MetricField, U: BoundaryHypersurface,
                  V: BoundaryHypersurface, xs: Array, v_projs: Array, lift,
                  step: float, max_sigma: float, unit_speed: bool = False):
    """Shoot a batch of boundary entries (B, dim) from U to V in one
    lockstep march of x'' = accel(x, x'), with the checks every
    scattering relation shares.  Each entry must be finite and on U;
    ``lift(nu, gm, v_projs)``, given the exterior normals nu of U and
    the values gm of g at the entries, completes the batch inward,
    g-transversal to U, and the completions pass _initial_speeds.  Each
    ray stops where it crosses V after being strictly inside it,
    g-transversal to V.  Normals and metric values are computed once per
    batch at the entries and once at the exits.  Returns the entries as
    (B, dim) arrays, their exit projections onto V and their paths.
    Before any march, paired_rows names entry points of width zero and
    directions v_projs shaped unlike xs."""
    xs, v_projs = paired_rows("entry points", xs, ("directions", v_projs))
    if not len(xs):
        return xs, v_projs, np.empty_like(xs), []
    rays = range(len(xs))

    def entry(r):
        x, vp = xs[r], v_projs[r]
        _check_finite(x, vp, "entry data")
        if not np.all(np.abs(U.value(x)) <= 1e-9):
            raise PreconditionError("entry point not on the boundary")
        nu, gm = _normal_metric(U, g, x)
        v = lift(nu, gm, vp)
        _check_transversal(nu, gm, v, "entry")
        return v, gm

    v0, gm0 = _by_ray(entry, rays)

    def speeds(r):
        _check_finite(xs[r], v0[r], "initial data")
        return _initial_speeds(g, gm0[r], v0[r], unit_speed)

    speed2 = _by_ray(speeds, rays)
    sols = integrate_flow_to_surface(accel, xs, v0, V, step, max_sigma)
    ys, ws = np.array([(x[-1], v[-1]) for _, x, v in sols]).swapaxes(0, 1)

    def exits(r):
        nu, gm = _normal_metric(V, g, ys[r])
        _check_transversal(nu, gm, ws[r], "exit")
        return ([GeodesicPath(sigma=sigma, x=x, v=v, speed_squared=float(q))
                 for (sigma, x, v), q in zip(sols[r], speed2[r])],
                _project(nu, gm, ws[r]))

    paths, w_projs = _by_ray(exits, rays)
    return xs, v_projs, w_projs, paths


def _fixed_path(accel, g: MetricField, x0: Array, v0: Array, stop: float,
                step: float, unit_speed: bool) -> GeodesicPath:
    """The RK4 path of x'' = accel(x, x') from (x0, v0) over [0, stop],
    after the _initial_speeds checks, which name ray 0."""
    x0, v0 = np.asarray(x0, float)[None], np.asarray(v0, float)[None]

    def speeds(r):
        _check_finite(x0[r], v0[r], "initial data")
        return _initial_speeds(g, g.matrix(x0[r]), v0[r], unit_speed)

    (speed2,) = _by_ray(speeds, [0])
    sigma, xs, vs = integrate_flow_fixed(accel, x0, v0, float(stop), step)
    return GeodesicPath(sigma=sigma, x=xs[:, 0], v=vs[:, 0],
                        speed_squared=float(speed2))


def integrate_geodesic(g: MetricField, x0: Array, v0: Array, stop: float,
                       step: float = 1e-3) -> GeodesicPath:
    """Fixed-step RK4 geodesic of g over [0, stop] (see _fixed_path); a
    geodesic stopped at a surface is the path of a scatter."""
    return _fixed_path(geodesic_accel(g), g, x0, v0, stop, step, False)
