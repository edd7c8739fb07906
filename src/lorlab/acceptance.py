"""The thirteen acceptance checks, shared by the test suite and the
command line runner.

Each criterion function is self-contained: it builds its scenarios,
runs the relevant pipeline at the stated steps and grid sizes, and
returns a CriterionResult whose checks carry the measured residuals
against the declared tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import scenarios
from .connect import (MetricFamily, connecting_geodesics_batch, linearize_r,
                      michel_check)
from .fields import CovectorField, ScalarField, SymTwoTensorField
from .gauge import (apply_gauge, compose_gauge, conformal_reparam_check,
                    hamiltonian_flow, scattering_invariance)
from .geometry import LORENTZIAN, MetricField, integrate_geodesic
from .lightray import (ftc_residual, kernel_conformal_test,
                       kernel_potential_test)
from .scattering import scatter, scatter_batch
from .stationary import (StationaryMetric, boundary_normal_coords,
                         linearization_equivalence, magnetic_integrate,
                         magnetic_michel, magnetic_scatter,
                         project_and_verify, reconstruct_exit,
                         reduced_time_component, thmmag_verify)


@dataclass(frozen=True)
class Check:
    label: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    checks: list[Check]
    wall_time_s: float
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> Check:
        return max(self.checks, key=lambda c: c.value / c.tolerance)

    def line(self) -> str:
        w = self.worst
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index:02d} {self.name:<28s} {status}  "
                f"worst {w.label}: {w.value:.3e} (tol {w.tolerance:.1e})")


def _timed(index, name, build_checks):
    t0 = time.perf_counter()
    checks, notes = build_checks()
    return CriterionResult(index=index, name=name, checks=checks,
                           wall_time_s=time.perf_counter() - t0, notes=notes)


# ---------------------------------------------------------------------------
# 1. conservation of speed invariants and the Hamiltonian
# ---------------------------------------------------------------------------

def criterion_conservation() -> CriterionResult:
    def run():
        checks = []
        for kind in scenarios.available():
            sc = scenarios.build(kind)
            entries = scenarios.scattering_entries(sc, 4, seed=11)
            xs = np.array([x for x, _ in entries])
            vs = np.array([v for _, v in entries])
            recs = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                                 xs, vs, step=1e-3, max_sigma=30.0,
                                 keep_paths=True)
            drift = max(r.path.speed_drift(sc.metric) for r in recs)
            checks.append(Check(f"lightlike drift {kind}", drift, 1e-8))

        sr = scenarios.build("stationary_rot")
        x0 = np.array([-1.0, 0.0])
        u0 = np.array([np.sqrt(1 - 0.36), 0.6])
        mpath = magnetic_integrate(sr.magnetic, x0, u0, stop=3.0, step=1e-3)
        checks.append(Check("magnetic drift", mpath.speed_drift(sr.magnetic.base),
                            1e-8))

        pp = scenarios.build("perturbed_product")
        xh = np.array([0.0, -0.4, 0.1])
        gm = pp.metric.matrix(xh)
        vx = np.array([0.6, 0.5])
        c_here = gm[1, 1]
        vnull = np.concatenate([[np.sqrt(c_here * (vx @ vx))], vx])
        xi0 = gm @ vnull
        flow = hamiltonian_flow(pp.metric, xh, xi0, sigma_max=1.2, step=1e-3)
        checks.append(Check("hamiltonian drift", flow.h_drift, 1e-9))
        flow2 = hamiltonian_flow(pp.metric, xh, xi0, sigma_max=1.2,
                                 c=scenarios.conformal_bump(0.3), step=1e-3)
        checks.append(Check("scaled hamiltonian drift", flow2.h_drift, 1e-9))
        return checks, {}

    return _timed(1, "conservation", run)


# ---------------------------------------------------------------------------
# 2. defining-function trichotomy on the product disk
# ---------------------------------------------------------------------------

def criterion_trichotomy() -> CriterionResult:
    def run():
        pd = scenarios.build("product_disk")
        x = np.array([0.0, 1.0, 0.0])
        thetas = np.linspace(0.35 * np.pi, 1.65 * np.pi, 20)
        svals = np.linspace(0.25, 2.55, 20)
        xs, ys = [], []
        for th in thetas:
            p = np.array([0.0, np.cos(th), np.sin(th)])
            for s in svals:
                xs.append(x)
                ys.append(np.array([s, p[1], p[2]]))
        xs, ys = np.array(xs), np.array(ys)
        conns = connecting_geodesics_batch(pd.metric, xs, ys, tol=1e-12)
        r = np.array([c.energy for c in conns]).reshape(20, 20)
        rho = 2.0 * np.abs(np.sin((thetas - 0.0) / 2.0))
        r_exact = 0.5 * (rho[:, None] ** 2 - svals[None, :] ** 2)

        solid = np.abs(r_exact) > 1e-3
        rel = np.abs(r - r_exact)[solid] / np.abs(r_exact)[solid]
        checks = [Check("closed-form r relative error", float(rel.max()),
                        1e-8)]

        tags = np.array([c.causal.tag for c in conns]).reshape(20, 20)
        sign_ok = True
        for i in range(20):
            for j in range(20):
                if abs(r_exact[i, j]) < 1e-6:
                    continue
                want = "timelike" if r_exact[i, j] < 0 else "spacelike"
                sign_ok &= tags[i, j] == want
        checks.append(Check("sign/causal agreement (0 = all agree)",
                            0.0 if sign_ok else 1.0, 0.5))

        crossings = [(np.diff(np.sign(r[i])) != 0).sum() for i in range(20)]
        checks.append(Check("sweep sign changes minus one",
                            float(max(abs(c - 1) for c in crossings)), 0.5))
        return checks, {"grid": "20x20", "min_rho": float(rho.min())}

    return _timed(2, "defining-r trichotomy", run)


# ---------------------------------------------------------------------------
# 3. graph identity for r on the lightlike set
# ---------------------------------------------------------------------------

def criterion_michel() -> CriterionResult:
    def run():
        checks = []
        for kind in ("product_disk", "stationary_rot"):
            sc = scenarios.build(kind)
            pairs = scenarios.null_pairs(sc, 20, seed=7)
            worst = 0.0
            for x, y in pairs:
                pos, cov = michel_check(sc.metric, sc.entry_surface,
                                        sc.exit_surface, x, y, n_steps=200)
                worst = max(worst, pos, cov)
            checks.append(Check(f"graph residual {kind}", worst, 1e-5))
        return checks, {"pairs_per_scenario": 20}

    return _timed(3, "michel graph identity", run)


# ---------------------------------------------------------------------------
# 4. linearization of r against the light ray transform
# ---------------------------------------------------------------------------

def _potential_family(g0: MetricField) -> MetricFamily:
    """g_tau = g + tau d^s v with v = (1-|x|^2)^2 a, a constant, in the
    flat product chart (so d^s is the symmetrized Jacobian, closed
    form)."""
    a = np.array([0.3, 0.2, -0.1])

    def bump(x):
        xs = np.asarray(x, float)[..., 1:]
        return (1.0 - np.einsum("...i,...i->...", xs, xs)) ** 2

    def dbump(x):
        x = np.asarray(x, float)
        xs = x[..., 1:]
        r2 = np.einsum("...i,...i->...", xs, xs)
        out = np.zeros_like(x)
        out[..., 1:] = -4.0 * (1.0 - r2)[..., None] * xs
        return out

    def d2bump(x):
        x = np.asarray(x, float)
        xs = x[..., 1:]
        r2 = np.einsum("...i,...i->...", xs, xs)
        out = np.zeros(x.shape[:-1] + (3, 3))
        eye = np.eye(2)
        out[..., 1:, 1:] = (-4.0 * (1.0 - r2)[..., None, None] * eye
                            + 8.0 * xs[..., :, None] * xs[..., None, :])
        return out

    def f_func(x):
        dB = dbump(x)
        return 0.5 * (a[..., :, None] * dB[..., None, :]
                      + a[..., None, :] * dB[..., :, None])

    def df_func(x):
        d2 = d2bump(x)          # [..., k, j] = d_k d_j B
        return 0.5 * (a[None, :, None] * d2[..., :, None, :]
                      + a[None, None, :] * d2[..., :, :, None])

    base = np.diag([-1.0, 1.0, 1.0])

    def eval_tau(tau):
        def func(x):
            return base + tau * f_func(x)

        def dfunc(x):
            return tau * df_func(x)

        return MetricField(dim=3, signature=LORENTZIAN, func=func,
                           dfunc=dfunc)

    return MetricFamily(eval=eval_tau,
                        derivative_at_0=SymTwoTensorField(dim=3, func=f_func))


def criterion_linearize() -> CriterionResult:
    def run():
        pd = scenarios.build("product_disk")
        pairs = scenarios.null_pairs(pd, 20, seed=13)
        fam = scenarios.stretch_family()
        worst = 0.0
        for x, y in pairs:
            rep = linearize_r(fam, x, y, fd_step=1e-4)
            worst = max(worst, rep.rel_error)
        checks = [Check("non-gauge family relative error", worst, 1e-3)]

        both = 0.0
        for fam in (scenarios.conformal_family(pd.metric),
                    _potential_family(pd.metric)):
            for x, y in pairs[:5]:
                rep = linearize_r(fam, x, y, fd_step=1e-4)
                both = max(both, abs(rep.fd_value),
                           abs(rep.kappa * rep.lrt_value))
        checks.append(Check("gauge families, both sides absolute", both,
                            1e-6))
        return checks, {"pairs": 20, "fd_step": 1e-4}

    return _timed(4, "r-linearization (kappa=1/2)", run)


# ---------------------------------------------------------------------------
# 5. kernel of the light ray transform
# ---------------------------------------------------------------------------

def criterion_kernel() -> CriterionResult:
    def run():
        pd = scenarios.build("product_disk")
        entries = scenarios.scattering_entries(pd, 50, seed=17)
        xs = np.array([x for x, _ in entries])
        vs = np.array([v for _, v in entries])
        recs = scatter_batch(pd.metric, pd.entry_surface, pd.exit_surface,
                             xs, vs, step=1e-3, max_sigma=30.0,
                             keep_paths=True)
        rays = [r.path for r in recs]

        def v_int_func(x):
            x = np.asarray(x, float)
            xs_ = x[..., 1:]
            B = (1.0 - np.einsum("...i,...i->...", xs_, xs_)) ** 3
            comps = np.stack([np.sin(x[..., 0] + x[..., 1]),
                              x[..., 2], np.cos(x[..., 1])], axis=-1)
            return B[..., None] * comps

        v_int = CovectorField(dim=3, func=v_int_func)
        checks = [Check("max |L(d^s v)|, interior v",
                        kernel_potential_test(v_int, pd.metric, rays), 1e-8)]

        c = ScalarField(func=lambda x: np.exp(
            -np.einsum("...i,...i->...", np.asarray(x, float)[..., 1:],
                       np.asarray(x, float)[..., 1:])), positive=True)
        checks.append(Check("max |L(c g)|",
                            kernel_conformal_test(c, pd.metric, rays), 1e-12))

        v_nv = CovectorField(dim=3, func=lambda x: np.stack(
            [0.2 + np.asarray(x, float)[..., 2],
             0.1 * np.asarray(x, float)[..., 0],
             np.cos(np.asarray(x, float)[..., 1])], axis=-1))
        ftc = max(abs(ftc_residual(v_nv, pd.metric, p)) for p in rays)
        checks.append(Check("FTC endpoint identity", ftc, 1e-8))
        return checks, {"rays": 50}

    return _timed(5, "light-ray kernel", run)


# ---------------------------------------------------------------------------
# 6. reduction of lightlike geodesics to the magnetic flow
# ---------------------------------------------------------------------------

def criterion_projection() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        entries = scenarios.scattering_entries(sr, 5, seed=19)
        ode = kdrift = 0.0
        for x, v in entries:
            rec = scatter(sr.metric, sr.entry_surface, sr.exit_surface, x, v,
                          step=1e-3, max_sigma=30.0)
            chk = project_and_verify(sr.stationary, rec.path)
            ode = max(ode, chk.ode_residual)
            kdrift = max(kdrift, chk.k_drift)
        checks = [Check("magnetic ODE residual", ode, 1e-6),
                  Check("k drift", kdrift, 1e-7)]

        speed = 0.0
        for v0 in (np.array([1.0, 0.2, 0.1]), np.array([0.2, 0.8, 0.3])):
            path = integrate_geodesic(sr.metric, np.array([0.0, -0.3, 0.2]),
                                      v0, stop=1.0, step=1e-3)
            chk = project_and_verify(sr.stationary, path)
            speed = max(speed, chk.speed_identity_residual)
        checks.append(Check("speed identity -k^2+m^2", speed, 1e-8))
        return checks, {}

    return _timed(6, "stationary-to-magnetic ODE", run)


# ---------------------------------------------------------------------------
# 7. length/action identities and the round trip
# ---------------------------------------------------------------------------

def criterion_reduction_identities() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        entries = scenarios.scattering_entries(sr, 30, seed=23)
        length = action = data = wt = 0.0
        for x, v in entries:
            rep = thmmag_verify(sr.stationary, sr.entry_surface,
                                sr.spatial_boundary, x, v)
            data = max(data, rep.endpoint_residual, rep.exit_residual)
            length = max(length, rep.length_residual)
            action = max(action, rep.action_residual)
            wt = max(wt, rep.exit_time_component_residual)
        checks = [Check("exit data vs magnetic relation", data, 1e-6),
                  Check("length identity", length, 1e-6),
                  Check("action identity", action, 1e-6),
                  Check("exit reduced time component minus 1", wt, 1e-8)]

        rt = 0.0
        for x, v in entries[:10]:
            k = reduced_time_component(sr.stationary, x[1:], v)
            vn = v / k
            rec = scatter(sr.metric, sr.entry_surface, sr.exit_surface, x, vn,
                          step=1e-3, max_sigma=30.0, keep_path=False)
            y_rec, w_rec = reconstruct_exit(sr.stationary,
                                            sr.spatial_boundary,
                                            float(x[0]), x[1:], vn[1:])
            rt = max(rt, float(np.linalg.norm(rec.y - y_rec)),
                     float(np.linalg.norm(rec.w_proj - w_rec)))
        checks.append(Check("scattering round trip via magnetic data", rt,
                            1e-5))
        return checks, {"rays": 30}

    return _timed(7, "length/action identities", run)


# ---------------------------------------------------------------------------
# 8. graph identity for the magnetic action
# ---------------------------------------------------------------------------

def criterion_magnetic_michel() -> CriterionResult:
    def run():
        checks = []
        for kind in ("product_disk", "stationary_rot"):
            sc = scenarios.build(kind)
            entries = scenarios.magnetic_entries(sc, 8, seed=29)
            worst = 0.0
            for x, u in entries:
                mrec = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x,
                                        u, keep_path=False)
                res = magnetic_michel(sc.magnetic, sc.spatial_boundary, x,
                                      mrec.y, fd_step=1e-5, n_steps=200)
                worst = max(worst, *res)
            checks.append(Check(f"action graph residual {kind}", worst, 1e-5))
        return checks, {"pairs_per_scenario": 8}

    return _timed(8, "magnetic action graph identity", run)


# ---------------------------------------------------------------------------
# 9. equivalence of the two linearized transforms
# ---------------------------------------------------------------------------

def criterion_linearized_equivalence() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        entries = scenarios.magnetic_entries(sr, 10, seed=31)
        pairs = []
        for x, u in entries:
            mrec = magnetic_scatter(sr.magnetic, sr.spatial_boundary, x, u,
                                    keep_path=False)
            pairs.append((x, mrec.y))

        dh_bump, dom_poly = scenarios.equivalence_fields()
        zero_h = SymTwoTensorField.zero(2)
        zero_w = CovectorField.zero(2)
        perturbations = [("dh-only", dh_bump, zero_w),
                         ("dom-only", zero_h, dom_poly),
                         ("mixed", dh_bump, dom_poly)]

        stated = 0.0
        corrected = 0.0
        ratios = []
        for label, dh, dom in perturbations:
            for x, y in pairs:
                eq = linearization_equivalence(sr.stationary, dh, dom, x, y,
                                               n_steps=200)
                target = 2.0 * eq.length ** 2 * eq.magnetic_value
                stated = max(stated, abs(eq.lorentzian_value - target)
                             / max(abs(target), 1e-12))
                alt = 2.0 * eq.length * eq.magnetic_value
                corrected = max(corrected, abs(eq.lorentzian_value - alt)
                                / max(abs(alt), 1e-12))
                ratios.append((label, eq.ratio, eq.length))
        checks = [Check("relative error against 2*l^2 * magnetic", stated,
                        1e-6)]
        return checks, {"pairs": len(pairs),
                        "relative_error_against_2l": corrected,
                        "sample_ratios": ratios[:3]}

    return _timed(9, "linearized transform equivalence", run)


# ---------------------------------------------------------------------------
# 10. gauge and conformal invariance of the scattering relation
# ---------------------------------------------------------------------------

def criterion_invariance() -> CriterionResult:
    def run():
        checks = []
        pd = scenarios.build("product_disk")
        sr = scenarios.build("stationary_rot")
        diffeo = scenarios.rotation_bump_pair(0.15)
        shift = scenarios.time_shift_pair(0.05)

        def assembled(mag):
            return StationaryMetric(lam=ScalarField.constant(1.0),
                                    omega=mag.omega, base=mag.base).assembled

        cases = [
            ("interior diffeomorphism", pd,
             assembled(apply_gauge(pd.magnetic, diffeo))),
            ("time-shift potential", sr,
             assembled(apply_gauge(sr.magnetic, shift))),
            ("conformal factor", sr,
             StationaryMetric(lam=scenarios.conformal_bump(0.1),
                              omega=sr.stationary.omega,
                              base=sr.stationary.base).assembled),
            ("composition", sr,
             assembled(apply_gauge(sr.magnetic,
                                   compose_gauge(diffeo, shift)))),
        ]
        for label, sc, g2 in cases:
            entries = scenarios.scattering_entries(sc, 50, seed=37)
            dev = scattering_invariance(sc.metric, g2, sc.entry_surface,
                                        sc.exit_surface, entries)
            checks.append(Check(label, dev, 1e-6))
        return checks, {"rays_per_transform": 50}

    return _timed(10, "scattering invariance", run)


# ---------------------------------------------------------------------------
# 11. conformal reparametrization of null flows
# ---------------------------------------------------------------------------

def criterion_reparam() -> CriterionResult:
    def run():
        pd = scenarios.build("product_disk")
        x0, xi0 = scenarios.reparam_start(pd)
        rep1 = conformal_reparam_check(pd.metric, ScalarField.constant(1.0),
                                       x0, xi0, sigma_max=0.6)
        rep4 = conformal_reparam_check(pd.metric, ScalarField.constant(4.0),
                                       x0, xi0, sigma_max=0.6)
        repg = conformal_reparam_check(pd.metric, scenarios.gaussian_factor(),
                                       x0, xi0, sigma_max=0.6)
        mono = float((np.diff(repg.alpha) <= 0).sum())
        checks = [
            Check("identity factor deviation", rep1.max_deviation, 1e-10),
            Check("constant factor 4: alpha vs s/4",
                  float(np.abs(rep4.alpha - rep4.s / 4.0).max()), 1e-9),
            Check("constant factor 4 deviation", rep4.max_deviation, 1e-9),
            Check("gaussian factor deviation", repg.max_deviation, 1e-6),
            Check("alpha monotone (violations)", mono, 0.5),
        ]
        return checks, {}

    return _timed(11, "conformal reparametrization", run)


# ---------------------------------------------------------------------------
# 12. normal gauge for the one-form near the boundary
# ---------------------------------------------------------------------------

def criterion_normal_coords() -> CriterionResult:
    def run():
        phi, gauged = boundary_normal_coords(scenarios.collar_one_form())
        th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        dd = np.linspace(0.0, 0.4, 8)
        grid = np.stack(np.meshgrid(th, dd, indexing="ij"), axis=-1)
        normal_comp = np.abs(gauged(grid.reshape(-1, 2))[:, -1]).max()
        at_boundary = np.abs(phi(np.stack([th, np.zeros_like(th)],
                                          axis=-1))).max()
        checks = [Check("gauged normal component", float(normal_comp), 1e-8),
                  Check("phi on the boundary", float(at_boundary), 1e-12)]
        return checks, {"grid": "12x8 collar"}

    return _timed(12, "boundary-normal gauge", run)


# ---------------------------------------------------------------------------
# 13. observed convergence orders
# ---------------------------------------------------------------------------

def criterion_orders() -> CriterionResult:
    def run():
        pp = scenarios.build("perturbed_product")
        x0 = np.array([0.0, -0.6, 0.2])
        v0 = np.array([1.1, 0.9, 0.35])
        ends = []
        for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            path = integrate_geodesic(pp.metric, x0, v0, stop=1.0, step=h)
            ends.append(path.x[-1])
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        e3 = np.linalg.norm(ends[2] - ends[3])
        rk4_order = min(np.log2(e1 / e2), np.log2(e2 / e3))
        checks = [Check("RK4 order shortfall (3.7 - observed)",
                        max(0.0, 3.7 - float(rk4_order)), 1e-12)]

        pd = scenarios.build("product_disk")
        (x, y), = scenarios.null_pairs(pd, 1, seed=41)
        rho2 = float(np.sum((y[1:] - x[1:]) ** 2))

        fam = MetricFamily(eval=lambda tau: scenarios.constant_metric(
            3, [-1.0, np.exp(tau), np.exp(tau)], LORENTZIAN))
        exact = 0.5 * rho2
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            rep = linearize_r(fam, x, y, fd_step=h)
            errs.append(abs(rep.fd_value - exact))
        fd_order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
        checks.append(Check("central FD order shortfall (1.8 - observed)",
                            max(0.0, 1.8 - float(fd_order)), 1e-12))
        return checks, {"rk4_order": float(rk4_order),
                        "fd_order": float(fd_order)}

    return _timed(13, "convergence orders", run)


CRITERIA = [
    criterion_conservation,
    criterion_trichotomy,
    criterion_michel,
    criterion_linearize,
    criterion_kernel,
    criterion_projection,
    criterion_reduction_identities,
    criterion_magnetic_michel,
    criterion_linearized_equivalence,
    criterion_invariance,
    criterion_reparam,
    criterion_normal_coords,
    criterion_orders,
]


def run_all() -> list[CriterionResult]:
    return [c() for c in CRITERIA]
