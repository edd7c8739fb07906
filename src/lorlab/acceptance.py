"""The thirteen acceptance checks, shared by the test suite and the
command line runner.

Each criterion function is self-contained: it builds its scenarios,
runs the relevant pipeline at the stated steps and grid sizes, and
returns a CriterionResult whose checks carry the measured residuals
against the declared tolerances.  Where a criterion has a matching
subcommand, one ``*_records`` function defines the experiment: it
builds the per-item record dicts that the subcommand reports and the
criterion reduces to its checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import scenarios
from .connect import (MetricFamily, connecting_geodesics_batch, linearize_r,
                      michel_check_batch)
from .fields import (Array, CovectorField, ScalarField, SymTwoTensorField,
                     worst_of)
from .gauge import (apply_gauge, compose_gauge, conformal_reparam_check,
                    hamiltonian_flow, scattering_invariance)
from .geometry import LORENTZIAN, MetricField, integrate_geodesic
from .lightray import (ftc_residual, kernel_conformal_test,
                       kernel_potential_test)
from .stationary import (StationaryMetric, boundary_normal_coords,
                         linearization_equivalence, magnetic_connectors_batch,
                         magnetic_integrate, magnetic_michel_batch,
                         project_and_verify, reconstruct_exits,
                         thmmag_verify_batch)


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
        return max(self.checks, key=lambda c: (not c.passed,
                                               c.value / c.tolerance))

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

def scatter_records(sc, n: int, seed: int, step: float) -> list[dict]:
    """Scattering data and speed drift of n entries of sc (scatter)."""
    return [{"x": r.x, "v_proj": r.v_proj, "y": r.y, "w_proj": r.w_proj,
             "travel": r.travel, "speed_drift": r.path.speed_drift(sc.metric)}
            for r in scenarios.scattered_entries(sc, n, seed, step,
                                                 keep_paths=True)]


def criterion_conservation() -> CriterionResult:
    def run():
        checks = []
        for kind in scenarios.available():
            sc = scenarios.build(kind)
            drift = worst_of(r["speed_drift"]
                             for r in scatter_records(sc, 4, 11, 1e-3))
            checks.append(Check(f"lightlike drift {kind}", drift, 1e-8))

        sr = scenarios.build("stationary_rot")
        x0 = np.array([-1.0, 0.0])
        u0 = np.array([np.sqrt(1 - 0.36), 0.6])
        mpath = magnetic_integrate(sr.magnetic, x0, u0, stop=3.0)
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
                                 c=scenarios.gaussian_factor(), step=1e-3)
        checks.append(Check("scaled hamiltonian drift", flow2.h_drift, 1e-9))
        return checks, {}

    return _timed(1, "conservation", run)


# ---------------------------------------------------------------------------
# 2. defining-function trichotomy on the product disk
# ---------------------------------------------------------------------------

def r_sweeps(sc, thetas, svals) -> list[list[dict]]:
    """Connector energy r from (0, 1, 0) to (s, cos theta, sin theta) for
    every theta and s, one batched solve, against the product-disk closed
    form (|y' - x'|^2 - s^2) / 2; one list per theta (defining-r-sweep)."""
    x = np.array([0.0, 1.0, 0.0])
    ys, rho2 = [], []
    for th in thetas:
        p = np.array([np.cos(th), np.sin(th)])
        rho2.append(float(((p - x[1:]) ** 2).sum()))
        ys += [[s, p[0], p[1]] for s in svals]
    conns = connecting_geodesics_batch(sc.metric, np.tile(x, (len(ys), 1)),
                                       np.array(ys), tol=1e-12)
    r_exact = 0.5 * (np.array(rho2)[:, None] - svals ** 2)
    records = [{"s": float(s), "r": c.energy, "r_closed_form": float(re),
                "causal": c.causal.tag}
               for c, s, re in zip(conns, np.tile(svals, len(rho2)),
                                   r_exact.ravel())]
    return [records[i:i + len(svals)]
            for i in range(0, len(records), len(svals))]


def sweep_residuals(sweep: list[dict]) -> tuple[np.ndarray, int]:
    """Relative errors of r where its closed form exceeds 1e-3 in size,
    and the number of sign changes of r, along one sweep of r_sweeps."""
    r = np.array([rec["r"] for rec in sweep])
    exact = np.array([rec["r_closed_form"] for rec in sweep])
    solid = np.abs(exact) > 1e-3
    return (np.abs(r - exact)[solid] / np.abs(exact)[solid],
            int((np.diff(np.sign(r)) != 0).sum()))


def criterion_trichotomy() -> CriterionResult:
    def run():
        thetas = np.linspace(0.35 * np.pi, 1.65 * np.pi, 20)
        sweeps = r_sweeps(scenarios.build("product_disk"), thetas,
                          np.linspace(0.25, 2.55, 20))
        rel, crossings = zip(*map(sweep_residuals, sweeps))
        checks = [Check("closed-form r relative error",
                        worst_of(np.concatenate(rel)), 1e-8)]
        sign_ok = all(rec["causal"] == ("timelike" if rec["r_closed_form"] < 0
                                        else "spacelike")
                      for sweep in sweeps for rec in sweep
                      if abs(rec["r_closed_form"]) >= 1e-6)
        checks.append(Check("sign/causal agreement (0 = all agree)",
                            0.0 if sign_ok else 1.0, 0.5))
        checks.append(Check("sweep sign changes minus one",
                            worst_of(abs(c - 1) for c in crossings), 0.5))
        rho = 2.0 * np.abs(np.sin(thetas / 2.0))
        return checks, {"grid": "20x20", "min_rho": float(rho.min())}

    return _timed(2, "defining-r trichotomy", run)


# ---------------------------------------------------------------------------
# 3. graph identity for r on the lightlike set
# ---------------------------------------------------------------------------

MICHEL_KEYS = ("position_residual", "covector_residual")


def michel_records(sc, n: int, seed: int, n_steps: int = 400) -> list[dict]:
    """Graph identity residuals of r on n null pairs of sc (michel), from
    one michel_check_batch."""
    pairs = scenarios.null_pairs(sc, n, seed=seed)
    res = michel_check_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                             *zip(*pairs), n_steps=n_steps)
    return [{"x": x, "y": y, **dict(zip(MICHEL_KEYS, r))}
            for (x, y), r in zip(pairs, res)]


def criterion_michel() -> CriterionResult:
    def run():
        checks = []
        for kind in ("product_disk", "stationary_rot"):
            recs = michel_records(scenarios.build(kind), 20, 7, n_steps=200)
            worst = worst_of(r[k] for r in recs for k in MICHEL_KEYS)
            checks.append(Check(f"graph residual {kind}", worst, 1e-5))
        return checks, {"pairs_per_scenario": 20}

    return _timed(3, "michel graph identity", run)


# ---------------------------------------------------------------------------
# 4. linearization of r against the light ray transform
# ---------------------------------------------------------------------------

def _potential_family() -> MetricFamily:
    """g_tau = g + tau d^s v with v = b a, b = scenarios.disk_bump of the
    spatial coordinates and a constant, in the flat product chart (so
    d^s is the symmetrized Jacobian, closed form)."""
    a = np.array([0.3, 0.2, -0.1])

    def f_func(x):
        x = np.asarray(x, float)
        dB = np.zeros_like(x)                             # d_j b
        dB[..., 1:] = scenarios.disk_bump(x[..., 1:], 1.0, 1)[1]
        return 0.5 * (a[..., :, None] * dB[..., None, :]
                      + a[..., None, :] * dB[..., :, None])

    def df_func(x):
        x = np.asarray(x, float)
        d2 = np.zeros(x.shape[:-1] + (3, 3))              # d_k d_j b
        d2[..., 1:, 1:] = scenarios.disk_bump(x[..., 1:], 1.0, 2)[2]
        return 0.5 * (a[None, :, None] * d2[..., :, None, :]
                      + a[None, None, :] * d2[..., :, :, None])

    base = np.diag([-1.0, 1.0, 1.0])

    def eval_tau(tau):
        def func(x):
            return base + tau * f_func(x)

        def jetfunc(x):
            return func(x), tau * df_func(x)

        return MetricField(dim=3, signature=LORENTZIAN, func=func,
                           jetfunc=jetfunc)

    return MetricFamily(eval=eval_tau,
                        derivative_at_0=SymTwoTensorField(dim=3, func=f_func))


def linearization_records(family: MetricFamily, pairs) -> list[dict]:
    """Central difference in tau (step 1e-4) of r against half the light
    ray transform of the family's derivative, per pair, from one batched
    linearize_r (verify-thm1)."""
    xs, ys = np.array(pairs).swapaxes(0, 1)
    return [{"x": x, "y": y, "fd_value": rep.fd_value,
             "half_transform": rep.kappa * rep.lrt_value,
             "rel_error": rep.rel_error}
            for x, y, rep in zip(xs, ys, linearize_r(family, xs, ys,
                                                     fd_step=1e-4))]


def criterion_linearize() -> CriterionResult:
    def run():
        pd = scenarios.build("product_disk")
        pairs = scenarios.null_pairs(pd, 20, seed=13)
        worst = worst_of(r["rel_error"] for r in linearization_records(
            scenarios.stretch_family(), pairs))
        checks = [Check("non-gauge family relative error", worst, 1e-3)]

        both = worst_of(abs(r[k])
                        for fam in (scenarios.conformal_family(pd.metric),
                                    _potential_family())
                        for r in linearization_records(fam, pairs[:5])
                        for k in ("fd_value", "half_transform"))
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
        rays = [r.path for r in scenarios.scattered_entries(
            pd, 50, seed=17, keep_paths=True)]

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

        c = ScalarField(func=lambda x: scenarios.gaussian(
            np.asarray(x, float)[..., 1:], 1.0, 0)[0], positive=True)
        checks.append(Check("max |L(c g)|",
                            kernel_conformal_test(c, pd.metric, rays), 1e-12))

        v_nv = CovectorField(dim=3, func=lambda x: np.stack(
            [0.2 + np.asarray(x, float)[..., 2],
             0.1 * np.asarray(x, float)[..., 0],
             np.cos(np.asarray(x, float)[..., 1])], axis=-1))
        ftc = worst_of(abs(ftc_residual(v_nv, pd.metric, p)) for p in rays)
        checks.append(Check("FTC endpoint identity", ftc, 1e-8))
        return checks, {"rays": 50}

    return _timed(5, "light-ray kernel", run)


# ---------------------------------------------------------------------------
# 6. reduction of lightlike geodesics to the magnetic flow
# ---------------------------------------------------------------------------

def criterion_projection() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        chks = [project_and_verify(sr.stationary, r.path)
                for r in scenarios.scattered_entries(sr, 5, seed=19,
                                                     keep_paths=True)]
        checks = [Check("magnetic ODE residual",
                        worst_of(c.ode_residual for c in chks), 1e-6),
                  Check("k drift", worst_of(c.k_drift for c in chks), 1e-7)]

        speed = worst_of(
            project_and_verify(sr.stationary, integrate_geodesic(
                sr.metric, np.array([0.0, -0.3, 0.2]), v0, stop=1.0,
                step=1e-3)).speed_identity_residual
            for v0 in (np.array([1.0, 0.2, 0.1]), np.array([0.2, 0.8, 0.3])))
        checks.append(Check("speed identity -k^2+m^2", speed, 1e-8))
        return checks, {}

    return _timed(6, "stationary-to-magnetic ODE", run)


# ---------------------------------------------------------------------------
# 7. length/action identities and the round trip
# ---------------------------------------------------------------------------

THMMAG_KEYS = ("endpoint_residual", "exit_residual", "length_residual",
               "action_residual")


def thmmag_records(sc, n: int, seed: int) -> list[dict]:
    """Magnetic reduction of the scattering of n entries (verify-thmmag),
    from one thmmag_verify_batch."""
    entries = scenarios.scattering_entries(sc, n, seed=seed)
    reps = thmmag_verify_batch(sc.stationary, sc.entry_surface,
                               sc.spatial_boundary, *zip(*entries))
    keys = THMMAG_KEYS + ("exit_time_component_residual",)
    return [{"x": x, "v_proj": v, **{k: getattr(rep, k) for k in keys}}
            for (x, v), rep in zip(entries, reps)]


def criterion_reduction_identities() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        reps = thmmag_verify_batch(
            sr.stationary, sr.entry_surface, sr.spatial_boundary,
            *zip(*scenarios.scattering_entries(sr, 30, seed=23)))

        def worst(*keys):
            return worst_of(getattr(r, k) for r in reps for k in keys)

        checks = [Check("exit data vs magnetic relation",
                        worst("endpoint_residual", "exit_residual"), 1e-6),
                  Check("length identity", worst("length_residual"), 1e-6),
                  Check("action identity", worst("action_residual"), 1e-6),
                  Check("exit reduced time component minus 1",
                        worst("exit_time_component_residual"), 1e-8)]

        # the first 10 rays, entries normalized to reduced time component 1
        exits = [r.record for r in reps[:10]]
        xs = np.array([rec.x for rec in exits])
        vns = np.array([rec.v_proj for rec in exits])
        rebuilt = reconstruct_exits(sr.stationary, sr.spatial_boundary,
                                    xs[:, 0], xs[:, 1:], vns[:, 1:])
        rt = worst_of(float(np.linalg.norm(d)) for rec, (y_rec, w_rec) in
                      zip(exits, rebuilt)
                      for d in (rec.y - y_rec, rec.w_proj - w_rec))
        checks.append(Check("scattering round trip via magnetic data", rt,
                            1e-5))
        return checks, {"rays": 30}

    return _timed(7, "length/action identities", run)


# ---------------------------------------------------------------------------
# 8. graph identity for the magnetic action
# ---------------------------------------------------------------------------

MAGNETIC_MICHEL_KEYS = ("entry_residual", "exit_residual")


def magnetic_michel_records(sc, n: int, seed: int,
                            n_steps: int = 400) -> list[dict]:
    """Graph identity residuals of the magnetic action (magnetic-michel),
    from one magnetic_michel_batch."""
    recs = scenarios.magnetic_pairs(sc, n, seed=seed)
    res = magnetic_michel_batch(sc.magnetic, sc.spatial_boundary,
                                [rec.x for rec in recs],
                                [rec.y for rec in recs], n_steps=n_steps)
    return [{"x": rec.x, "y": rec.y, "action": rec.action,
             **dict(zip(MAGNETIC_MICHEL_KEYS, r))}
            for rec, r in zip(recs, res)]


def criterion_magnetic_michel() -> CriterionResult:
    def run():
        checks = []
        for kind in ("product_disk", "stationary_rot"):
            recs = magnetic_michel_records(scenarios.build(kind), 8, 29,
                                           n_steps=200)
            worst = worst_of(r[k] for r in recs for k in MAGNETIC_MICHEL_KEYS)
            checks.append(Check(f"action graph residual {kind}", worst, 1e-5))
        return checks, {"pairs_per_scenario": 8}

    return _timed(8, "magnetic action graph identity", run)


# ---------------------------------------------------------------------------
# 9. equivalence of the two linearized transforms
# ---------------------------------------------------------------------------

def equivalence_records(m: StationaryMetric, perturbations, pairs,
                        n_steps: int = 400) -> list[dict]:
    """Lorentzian against magnetic linearized transforms of each (dh, dom)
    of perturbations over each pair's magnetic connector, and the error
    against the stated 2 l^2 (lin-equivalence); the connectors come from
    one magnetic_connectors_batch, the records perturbation by
    perturbation."""
    xs, ys = np.reshape(pairs, (-1, 2, m.n)).swapaxes(0, 1)
    conns = magnetic_connectors_batch(m.magnetic, xs, ys, n_steps=n_steps)
    records = []
    for dh, dom in perturbations:
        for c in conns:
            eq = linearization_equivalence(m, dh, dom, c)
            target = 2.0 * eq.length ** 2 * eq.magnetic_value
            records.append({"x": c.x, "y": c.y, "length": eq.length,
                            "lorentzian": eq.lorentzian_value,
                            "magnetic": eq.magnetic_value, "ratio": eq.ratio,
                            "ratio_over_2l": eq.ratio / (2.0 * eq.length),
                            "rel_error_vs_2l2": abs(eq.lorentzian_value
                                                    - target)
                            / max(abs(target), 1e-12)})
    return records


def criterion_linearized_equivalence() -> CriterionResult:
    def run():
        sr = scenarios.build("stationary_rot")
        pairs = [(r.x, r.y) for r in scenarios.magnetic_pairs(sr, 10, 31)]
        dh_bump, dom_poly = scenarios.equivalence_fields()
        perturbations = {"dh-only": (dh_bump, CovectorField.zero(2)),
                         "dom-only": (SymTwoTensorField.zero(2), dom_poly),
                         "mixed": (dh_bump, dom_poly)}
        labels = [label for label in perturbations for _ in pairs]
        recs = list(zip(labels, equivalence_records(
            sr.stationary, perturbations.values(), pairs, n_steps=200)))
        stated = worst_of(r["rel_error_vs_2l2"] for _, r in recs)
        corrected = worst_of(
            abs(r["lorentzian"] - 2.0 * r["length"] * r["magnetic"])
            / max(abs(2.0 * r["length"] * r["magnetic"]), 1e-12)
            for _, r in recs)
        checks = [Check("relative error against 2*l^2 * magnetic", stated,
                        1e-6)]
        return checks, {"pairs": len(pairs),
                        "relative_error_against_2l": corrected,
                        "sample_ratios": [(label, r["ratio"], r["length"])
                                          for label, r in recs[:3]]}

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

        def gauged(sc, pair):
            """sc's assembled metric with its magnetic system gauged."""
            mag = apply_gauge(sc.magnetic, pair)
            return replace(sc.stationary, omega=mag.omega,
                           base=mag.base).assembled

        cases = [
            ("interior diffeomorphism", pd, gauged(pd, diffeo)),
            ("time-shift potential", sr, gauged(sr, shift)),
            ("conformal factor", sr, replace(
                sr.stationary, lam=scenarios.conformal_bump(0.1)).assembled),
            ("composition", sr, gauged(sr, compose_gauge(diffeo, shift))),
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

def reparam_records(sc) -> list[dict]:
    """Reparametrization of the null flow under the factors 1, 4 and a
    Gaussian; alpha_rate_error is max |alpha - s / c| for a constant c
    (conformal-reparam)."""
    x0, xi0 = scenarios.reparam_start(sc)
    records = []
    for label, c, rate in (("constant 1", ScalarField.constant(1.0), 1.0),
                           ("constant 4", ScalarField.constant(4.0), 4.0),
                           ("gaussian", scenarios.gaussian_factor(), None)):
        rep = conformal_reparam_check(sc.metric, c, x0, xi0, sigma_max=0.6)
        records.append({
            "factor": label, "max_deviation": rep.max_deviation,
            "sigma_end": rep.sigma_end,
            "alpha_rate_error": None if rate is None
            else float(np.abs(rep.alpha - rep.s / rate).max()),
            "alpha_monotone_violations": float((np.diff(rep.alpha) <= 0)
                                               .sum())})
    return records


def criterion_reparam() -> CriterionResult:
    def run():
        one, four, gauss = reparam_records(scenarios.build("product_disk"))
        checks = [
            Check("identity factor deviation", one["max_deviation"], 1e-10),
            Check("constant factor 4: alpha vs s/4",
                  four["alpha_rate_error"], 1e-9),
            Check("constant factor 4 deviation", four["max_deviation"], 1e-9),
            Check("gaussian factor deviation", gauss["max_deviation"], 1e-6),
            Check("alpha monotone (violations)",
                  gauss["alpha_monotone_violations"], 0.5),
        ]
        return checks, {}

    return _timed(11, "conformal reparametrization", run)


# ---------------------------------------------------------------------------
# 12. normal gauge for the one-form near the boundary
# ---------------------------------------------------------------------------

def normal_coords_records() -> list[dict]:
    """Largest normal component of the gauged collar one-form, and largest
    |phi|, on 12 angles at 8 normal distances in [0, 0.4] (normal-coords)."""
    phi, gauged = boundary_normal_coords(scenarios.collar_one_form())
    th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    records = []
    for d in np.linspace(0.0, 0.4, 8):
        pts = np.stack([th, np.full_like(th, d)], axis=-1)
        records.append({
            "normal_distance": float(d),
            "max_normal_component": float(np.abs(gauged(pts)[:, -1]).max()),
            "max_abs_phi": float(np.abs(phi(pts)).max())})
    return records


def criterion_normal_coords() -> CriterionResult:
    def run():
        recs = normal_coords_records()
        checks = [Check("gauged normal component",
                        worst_of(r["max_normal_component"] for r in recs),
                        1e-8),
                  Check("phi on the boundary", recs[0]["max_abs_phi"],
                        1e-12)]
        return checks, {"grid": "12x8 collar"}

    return _timed(12, "boundary-normal gauge", run)


# ---------------------------------------------------------------------------
# 13. observed convergence orders
# ---------------------------------------------------------------------------

# RK4 steps of criterion 13: coarse enough that the end-point
# differences (about 6e-10, 4e-11 and 2.4e-12) measure truncation, not
# rounding
RK4_ORDER_STEPS = (4e-2, 2e-2, 1e-2, 5e-3)


def rk4_order(g: MetricField, x0: Array, v0: Array) -> float:
    """Observed order of integrate_geodesic over sigma in [0, 1]: the
    smaller of the two log2 ratios of successive end-point differences
    along RK4_ORDER_STEPS."""
    ends = [integrate_geodesic(g, x0, v0, stop=1.0, step=h).x[-1]
            for h in RK4_ORDER_STEPS]
    diffs = [np.linalg.norm(a - b) for a, b in zip(ends, ends[1:])]
    return float(min(np.log2(diffs[0] / diffs[1]),
                     np.log2(diffs[1] / diffs[2])))


def criterion_orders() -> CriterionResult:
    def run():
        pp = scenarios.build("perturbed_product")
        rk4 = rk4_order(pp.metric, np.array([0.0, -0.6, 0.2]),
                        np.array([1.1, 0.9, 0.35]))
        checks = [Check("RK4 order shortfall (3.7 - observed)",
                        worst_of([0.0, 3.7 - rk4]), 1e-12)]

        pd = scenarios.build("product_disk")
        (x, y), = scenarios.null_pairs(pd, 1, seed=41)
        rho2 = float(np.sum((y[1:] - x[1:]) ** 2))

        fam = MetricFamily(eval=lambda tau: scenarios.constant_metric(
            3, [-1.0, np.exp(tau), np.exp(tau)], LORENTZIAN))
        exact = 0.5 * rho2
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            (rep,) = linearize_r(fam, x[None], y[None], fd_step=h)
            errs.append(abs(rep.fd_value - exact))
        fd_order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
        checks.append(Check("central FD order shortfall (1.8 - observed)",
                            worst_of([0.0, 1.8 - fd_order]), 1e-12))
        return checks, {"rk4_order": rk4,
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
