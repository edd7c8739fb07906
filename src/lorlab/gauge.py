"""Gauge actions and conformal invariances.

Boundary-fixing gauge pairs (diffeomorphism plus potential) acting on
magnetic data, conformal rescaling of Lorentzian metrics, the null-shell
Hamiltonian flow (a right-hand side of the fixed march of ``geometry``),
the check that a conformal factor only reparametrizes it (a quadrature
along the flow, ``lorlab.quadrature``), and scattering invariance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .fields import (Array, CovectorField, ScalarField, _central_diff,
                     einsum, worst_of)
from .geometry import (BoundaryHypersurface, MetricField, _march_fixed,
                       metric_solve)
from .quadrature import CubicHermiteSpline
from .scattering import scatter_batch
from .stationary import MagneticSystem, magnetic_scatter_batch


# ---------------------------------------------------------------------------
# gauge pairs on the base manifold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugePair:
    """Diffeomorphism psi of the base fixing the boundary together with
    a potential phi vanishing on the boundary."""

    dim: int
    psi: Callable[[Array], Array]
    psi_inv: Callable[[Array], Array]
    phi: ScalarField
    jac: Optional[Callable[[Array], Array]] = None   # [..., k, i] = d_i psi^k

    def jacobian(self, x: Array) -> Array:
        """[..., k, i] = d_i psi^k at x: jac when given, else central
        differences of psi."""
        if self.jac is not None:
            return np.asarray(self.jac(np.asarray(x, float)), float)
        return np.swapaxes(_central_diff(self.psi, x, (self.dim,)), -1, -2)

    @staticmethod
    def identity(dim: int) -> "GaugePair":
        ident = lambda x: np.asarray(x, float)
        return GaugePair(dim=dim, psi=ident, psi_inv=ident,
                         phi=ScalarField.constant(0.0),
                         jac=lambda x: np.broadcast_to(
                             np.eye(dim), np.shape(x)[:-1] + (dim, dim)))


def apply_gauge(mag: MagneticSystem, pair: GaugePair) -> MagneticSystem:
    """Transformed data: h -> psi^* h, omega -> psi^* (omega + d phi)."""

    def new_omega(x):
        x = np.asarray(x, float)
        px = pair.psi(x)
        alpha = mag.omega(px) + pair.phi.gradient(px)
        return einsum("...k,...ki->...i", alpha, pair.jacobian(x))

    return MagneticSystem(
        base=pullback_metric(mag.base, pair.psi, pair.jacobian),
        omega=CovectorField(dim=mag.base.dim, func=new_omega))


def compose_gauge(p1: GaugePair, p2: GaugePair) -> GaugePair:
    """Pair whose action is the action of p1 followed by that of p2:
    psi = psi1 o psi2, phi = phi1 + phi2 o psi1^{-1}, jac the chain rule
    of the parts' GaugePair.jacobian (differenced for a part without)."""
    if p1.dim != p2.dim:
        raise ValueError("gauge pairs on different dimensions")

    def psi(x):
        return p1.psi(p2.psi(np.asarray(x, float)))

    def psi_inv(x):
        return p2.psi_inv(p1.psi_inv(np.asarray(x, float)))

    def phi_func(x):
        x = np.asarray(x, float)
        return p1.phi(x) + p2.phi(p1.psi_inv(x))

    def jac(x):
        x = np.asarray(x, float)
        return einsum("...kl,...li->...ki",
                      p1.jacobian(p2.psi(x)), p2.jacobian(x))

    return GaugePair(dim=p1.dim, psi=psi, psi_inv=psi_inv,
                     phi=ScalarField(func=phi_func), jac=jac)


# ---------------------------------------------------------------------------
# conformal rescaling
# ---------------------------------------------------------------------------

def scale_metric(g: MetricField, c: ScalarField) -> MetricField:
    """Pointwise conformal multiple c * g; its jet takes dc g + c dg by
    the product rule, differencing only a factor without analytic ones."""

    def func(x):
        return c(x)[..., None, None] * np.asarray(g.func(x), float)

    def jetfunc(x):
        x = np.asarray(x, float)
        cx = c(x)
        gm, dg = g._unchecked_jet(x)
        return (cx[..., None, None] * gm,
                c.gradient(x)[..., :, None, None] * gm[..., None, :, :]
                + cx[..., None, None, None] * dg)

    return MetricField(dim=g.dim, signature=g.signature, func=func,
                       domain=g.domain, jetfunc=jetfunc)


def pullback_metric(g: MetricField, psi: Callable[[Array], Array],
                    jac: Callable[[Array], Array]) -> MetricField:
    """psi^* g as a matrix field on the points that psi maps into g's
    domain, jac [..., k, i] = d_i psi^k (GaugePair.jacobian); its
    partials, which would need second derivatives of psi, are central
    differences."""

    def func(x):
        x = np.asarray(x, float)
        J = np.asarray(jac(x), float)
        gp = np.asarray(g.func(psi(x)), float)
        return einsum("...ki,...kl,...lj->...ij", J, gp, J)

    return MetricField(dim=g.dim, signature=g.signature, func=func,
                       domain=None if g.domain is None
                       else lambda x: g.domain(psi(np.asarray(x, float))))


# ---------------------------------------------------------------------------
# Hamiltonian flow on the cotangent bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianPath:
    """Sampled flow of H = (1/2) c^{-1} g^{kl} xi_k xi_l restricted to
    the null shell H = 0."""

    sigma: Array
    x: Array                      # (M, dim)
    xi: Array                     # (M, dim)
    h_values: Array               # (M,)
    xdot: Array                   # (M, dim) x' at the samples
    xidot: Array                  # (M, dim) xi' at the samples

    @property
    def h_drift(self) -> float:
        return float(np.abs(self.h_values - self.h_values[0]).max())


def hamiltonian_flow(g: MetricField, x0: Array, xi0: Array, sigma_max: float,
                     c: Optional[ScalarField] = None,
                     step: float = 1e-3) -> HamiltonianPath:
    """Integrate x' = c^{-1} g^{-1} xi, xi'_i = -(1/2) c^{-1}
    (d_i g^{kl}) xi_k xi_l, the null-shell reduction of the cotangent
    Hamiltonian vector field of the metric c * g.  A supplied factor c
    requires H(x0, xi0) = 0, where the reduction is valid.  Each stage
    solves g once: with u = g^{-1} xi, x' = u / c and, since
    d_i g^{kl} = -(g^{-1} d_i g g^{-1})^{kl},
    xi'_i = (1/2) d_i g(u, u) / c; samples at pair steps of about ``step``."""
    x0 = np.asarray(x0, float)
    xi0 = np.asarray(xi0, float)
    dim = x0.size

    def hval(x, xi):
        ginv = np.linalg.inv(g.matrix(x))
        h = 0.5 * einsum("...k,...kl,...l->...", xi, ginv, xi)
        return h if c is None else h / c(x)

    h0 = float(hval(x0, xi0))
    if c is not None and abs(h0) > 1e-10 * max(1.0, float(xi0 @ xi0)):
        raise PreconditionError(
            f"scaled Hamiltonian flow requires the null shell (H = {h0:g})")

    def rhs(y, check):
        # the metric check runs at the state a step starts from only
        x, xi = y[:, :dim], y[:, dim:]
        gm, dg = g.jet(x, check)
        u = metric_solve(gm, xi)
        xidot = 0.5 * einsum("...ikl,...k,...l->...i", dg, u, u)
        dy = np.concatenate([u, xidot], axis=1)
        return dy if c is None else (1.0 / c(x)[..., None]) * dy

    sigma, ys, fs = _march_fixed(rhs, np.concatenate([x0, xi0])[None],
                                 sigma_max, step, names=("x", "xi"))
    xs, xis = ys[:, 0, :dim], ys[:, 0, dim:]
    return HamiltonianPath(sigma=sigma, x=xs, xi=xis, h_values=hval(xs, xis),
                           xdot=fs[:, 0, :dim], xidot=fs[:, 0, dim:])


# ---------------------------------------------------------------------------
# conformal reparametrization of lightlike geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReparamReport:
    max_deviation: float
    alpha: Array                  # alpha(s) at the scaled flow's samples
    s: Array                      # the scaled flow's sigmas
    sigma_end: float


def conformal_reparam_check(g: MetricField, c: ScalarField, x0: Array,
                            xi0: Array, sigma_max: float) -> ReparamReport:
    """The flow of the c-scaled Hamiltonian started on the null shell
    traces the unscaled flow under the parameter change alpha with
    alpha'(s) = 1 / c(x(alpha(s))), alpha(0) = 0; the covector is
    carried along unchanged.  Both flows take pair steps of 4e-3.  The
    inverse s(sigma), the integral of c along the unscaled flow, is taken
    exactly for c's cubic Hermite fit, and alpha is the Hermite fit of
    its inverse; PreconditionError when s does not increase."""
    step = 4e-3
    base = hamiltonian_flow(g, x0, xi0, sigma_max, step=step)
    base_x = CubicHermiteSpline(base.sigma, base.x, base.xdot)
    base_xi = CubicHermiteSpline(base.sigma, base.xi, base.xidot)
    cb = c(base.x)
    s = CubicHermiteSpline(base.sigma, cb, einsum(
        "mi,mi->m", c.gradient(base.x), base.xdot)).antiderivative_at_knots()
    bad = np.flatnonzero(~(np.diff(s) > 0.0)) + 1
    if bad.size:
        raise PreconditionError(
            f"conformal factor not positive along the flow: s = int c "
            f"does not increase at sample {bad[0]} (c = {cb[bad[0]]:g})")
    scaled = hamiltonian_flow(g, x0, xi0, s[-1], c=c, step=step)
    alpha = CubicHermiteSpline(s, base.sigma, 1.0 / cb)(scaled.sigma)
    dev = max(float(np.abs(scaled.x - base_x(alpha)).max()),
              float(np.abs(scaled.xi - base_xi(alpha)).max()))
    return ReparamReport(max_deviation=dev, alpha=alpha, s=scaled.sigma,
                         sigma_end=sigma_max)


# ---------------------------------------------------------------------------
# invariance of the scattering data
# ---------------------------------------------------------------------------

def scattering_invariance(g1: MetricField, g2: MetricField,
                          U: BoundaryHypersurface, V: BoundaryHypersurface,
                          entries: Sequence[tuple[Array, Array]]) -> float:
    """worst_of the discrepancies of the scattering data of two metrics
    over a set of boundary entries (scatter_batch up to sigma 30).
    Exit projections are compared after matching the positive exit scale
    (the relation is homogeneous; conformal changes reparametrize the
    rays)."""
    xs = np.array([x for x, _ in entries], float)
    vs = np.array([v for _, v in entries], float)
    recs1 = scatter_batch(g1, U, V, xs, vs, max_sigma=30.0)
    recs2 = scatter_batch(g2, U, V, xs, vs, max_sigma=30.0)
    return worst_of(d for r1, r2 in zip(recs1, recs2)
                    for d in (np.linalg.norm(r1.y - r2.y),
                              np.linalg.norm(r1.w_proj / r1.w_proj[0]
                                             - r2.w_proj / r2.w_proj[0])))


def magnetic_invariance(mag1: MagneticSystem, mag2: MagneticSystem,
                        S: BoundaryHypersurface,
                        entries: Sequence[tuple[Array, Array]]) -> float:
    """worst_of the discrepancies of magnetic boundary data (exit point,
    exit projection, action) between two gauge-equivalent systems
    (magnetic_scatter_batch up to sigma 30)."""
    xs = np.array([x for x, _ in entries], float)
    us = np.array([u for _, u in entries], float)
    recs1 = magnetic_scatter_batch(mag1, S, xs, us, max_sigma=30.0)
    recs2 = magnetic_scatter_batch(mag2, S, xs, us, max_sigma=30.0)
    return worst_of(d for r1, r2 in zip(recs1, recs2)
                    for d in (np.linalg.norm(r1.y - r2.y),
                              np.linalg.norm(r1.w_proj - r2.w_proj),
                              abs(r1.action - r2.action)))
