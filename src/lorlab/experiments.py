"""Config-driven experiment runners behind the command line interface.

Every runner takes a plain-dict config and a seed and returns a JSON
serializable report with a fixed shape: schema_version, experiment,
scenario, seed, a list of per-item records, and a summary block with
the residual statistics and the pass flag.
"""

from __future__ import annotations

import time

import numpy as np

from . import acceptance, scenarios
from .connect import connecting_geodesics_batch, linearize_r, michel_check
from .errors import LorlabError
from .fields import ScalarField
from .gauge import conformal_reparam_check
from .scattering import scatter_batch
from .stationary import (boundary_normal_coords, linearization_equivalence,
                         magnetic_michel, magnetic_scatter, thmmag_verify)

SCHEMA_VERSION = 1


class ScenarioError(LorlabError):
    """The requested scenario cannot be built."""


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _build_scenario(config: dict, default_kind: str):
    kind = config.get("scenario", default_kind)
    params = config.get("scenario_params", {})
    try:
        return scenarios.build(kind, **params)
    except (KeyError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


def _report(experiment, scenario_name, seed, records, residuals, tolerance,
            t0, extra=None):
    residuals = [float(r) for r in residuals]
    summary = {
        "max_residual": max(residuals) if residuals else 0.0,
        "mean_residual": (sum(residuals) / len(residuals)) if residuals
        else 0.0,
        "tolerance": tolerance,
        "pass": bool(residuals) and max(residuals) <= tolerance,
        "wall_time_s": time.perf_counter() - t0,
    }
    if extra:
        summary.update(extra)
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "scenario": scenario_name,
        "seed": seed,
        "records": _jsonable(records),
        "summary": _jsonable(summary),
    }


def run_scatter(config: dict, seed: int) -> dict:
    """Scatter boundary entries and report the lightlike speed drift."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "minkowski_slab")
    n = int(config.get("n", 10))
    step = float(config.get("step", 1e-3))
    tol = float(config.get("tolerance", 1e-8))
    entries = scenarios.scattering_entries(sc, n, seed=seed)
    xs = np.array([x for x, _ in entries])
    vs = np.array([v for _, v in entries])
    recs = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface, xs,
                         vs, step=step, max_sigma=30.0, keep_paths=True)
    records, residuals = [], []
    for r in recs:
        drift = r.path.speed_drift(sc.metric)
        residuals.append(drift)
        records.append({"x": r.x, "v_proj": r.v_proj, "y": r.y,
                        "w_proj": r.w_proj, "travel": r.travel,
                        "speed_drift": drift})
    return _report("scatter", sc.name, seed, records, residuals, tol, t0)


def _disk_pair_grid(sc, n, seed):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n):
        th1 = rng.uniform(0.0, 2 * np.pi)
        th2 = th1 + rng.uniform(0.4 * np.pi, 1.6 * np.pi)
        s = rng.uniform(0.3, 2.5)
        xs.append([0.0, np.cos(th1), np.sin(th1)])
        ys.append([s, np.cos(th2), np.sin(th2)])
    return np.array(xs), np.array(ys)


def run_connect(config: dict, seed: int) -> dict:
    """Solve connecting geodesics of boundary pairs; report endpoint misses."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    n = int(config.get("n", 20))
    tol = float(config.get("tolerance", 1e-8))
    xs, ys = _disk_pair_grid(sc, n, seed)
    conns = connecting_geodesics_batch(sc.metric, xs, ys, tol=1e-12)
    records, residuals = [], []
    for c in conns:
        miss = float(np.linalg.norm(c.path.x[-1] - c.y))
        residuals.append(miss)
        records.append({"x": c.x, "y": c.y, "energy": c.energy,
                        "causal": c.causal.tag, "endpoint_miss": miss})
    return _report("connect", sc.name, seed, records, residuals, tol, t0)


def run_defining_r_sweep(config: dict, seed: int) -> dict:
    """Connector energy r along a time sweep against its closed form."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    n_s = int(config.get("n", 20))
    tol = float(config.get("tolerance", 1e-8))
    rng = np.random.default_rng(seed)
    th2 = rng.uniform(0.4 * np.pi, 1.6 * np.pi)
    svals = np.linspace(0.25, 2.55, n_s)
    x = np.array([0.0, 1.0, 0.0])
    p = np.array([np.cos(th2), np.sin(th2)])
    xs = np.tile(x, (n_s, 1))
    ys = np.concatenate([svals[:, None], np.tile(p, (n_s, 1))], axis=1)
    conns = connecting_geodesics_batch(sc.metric, xs, ys, tol=1e-12)
    r = np.array([c.energy for c in conns])
    rho2 = float(((p - x[1:]) ** 2).sum())
    r_exact = 0.5 * (rho2 - svals ** 2)
    solid = np.abs(r_exact) > 1e-3
    residuals = list(np.abs(r - r_exact)[solid] / np.abs(r_exact)[solid])
    crossings = int((np.diff(np.sign(r)) != 0).sum())
    records = [{"s": float(s), "r": float(ri), "r_closed_form": float(re)}
               for s, ri, re in zip(svals, r, r_exact)]
    rep = _report("defining-r-sweep", sc.name, seed, records, residuals,
                  tol, t0, extra={"sign_changes": crossings})
    rep["summary"]["pass"] = rep["summary"]["pass"] and crossings == 1
    return rep


def run_michel(config: dict, seed: int) -> dict:
    """Graph (Michel) identity residuals of r on lightlike pairs."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    n = int(config.get("n", 10))
    tol = float(config.get("tolerance", 1e-5))
    records, residuals = [], []
    for x, y in scenarios.null_pairs(sc, n, seed=seed):
        pos, cov = michel_check(sc.metric, sc.entry_surface, sc.exit_surface,
                                x, y)
        residuals.append(max(pos, cov))
        records.append({"x": x, "y": y, "position_residual": pos,
                        "covector_residual": cov})
    return _report("michel", sc.name, seed, records, residuals, tol, t0)


def run_verify_thm1(config: dict, seed: int) -> dict:
    """Linearization of r against half its light ray transform."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    n = int(config.get("n", 10))
    tol = float(config.get("tolerance", 1e-3))
    fam = scenarios.stretch_family()
    records, residuals = [], []
    for x, y in scenarios.null_pairs(sc, n, seed=seed):
        rep = linearize_r(fam, x, y, fd_step=1e-4)
        residuals.append(rep.rel_error)
        records.append({"x": x, "y": y, "fd_value": rep.fd_value,
                        "half_transform": rep.kappa * rep.lrt_value,
                        "rel_error": rep.rel_error})
    return _report("verify-thm1", sc.name, seed, records, residuals, tol, t0)


def run_kernel_tests(config: dict, seed: int) -> dict:
    """Kernel checks of the light ray transform (criterion 5)."""
    t0 = time.perf_counter()
    res = acceptance.criterion_kernel()
    records = [{"check": c.label, "value": c.value, "tolerance": c.tolerance,
                "pass": c.passed} for c in res.checks]
    rep = _report("kernel-tests", "product_disk", seed, records,
                  [c.value / c.tolerance for c in res.checks], 1.0, t0)
    rep["summary"]["tolerance"] = "per-record"
    return rep


def run_verify_thmmag(config: dict, seed: int) -> dict:
    """Stationary scattering against its magnetic reduction."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "stationary_rot")
    n = int(config.get("n", 10))
    tol = float(config.get("tolerance", 1e-6))
    records, residuals = [], []
    for x, v in scenarios.scattering_entries(sc, n, seed=seed):
        rep = thmmag_verify(sc.stationary, sc.entry_surface,
                            sc.spatial_boundary, x, v)
        worst = max(rep.endpoint_residual, rep.exit_residual,
                    rep.length_residual, rep.action_residual)
        residuals.append(worst)
        records.append({"x": x, "v_proj": v,
                        "endpoint_residual": rep.endpoint_residual,
                        "exit_residual": rep.exit_residual,
                        "length_residual": rep.length_residual,
                        "action_residual": rep.action_residual})
    return _report("verify-thmmag", sc.name, seed, records, residuals, tol,
                   t0)


def run_magnetic_michel(config: dict, seed: int) -> dict:
    """Graph identity residuals of the magnetic action."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "stationary_rot")
    n = int(config.get("n", 6))
    tol = float(config.get("tolerance", 1e-5))
    records, residuals = [], []
    for x, u in scenarios.magnetic_entries(sc, n, seed=seed):
        mrec = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u,
                                keep_path=False)
        entry_res, exit_res = magnetic_michel(sc.magnetic,
                                              sc.spatial_boundary, x, mrec.y)
        residuals.append(max(entry_res, exit_res))
        records.append({"x": x, "y": mrec.y, "action": mrec.action,
                        "entry_residual": entry_res,
                        "exit_residual": exit_res})
    return _report("magnetic-michel", sc.name, seed, records, residuals,
                   tol, t0)


def run_lin_equivalence(config: dict, seed: int) -> dict:
    """Lorentzian against magnetic linearized transforms."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "stationary_rot")
    n = int(config.get("n", 5))
    tol = float(config.get("tolerance", 1e-6))
    dh, dom = scenarios.equivalence_fields()
    records, residuals = [], []
    for x, u in scenarios.magnetic_entries(sc, n, seed=seed):
        mrec = magnetic_scatter(sc.magnetic, sc.spatial_boundary, x, u,
                                keep_path=False)
        eq = linearization_equivalence(sc.stationary, dh, dom, x, mrec.y)
        target = 2.0 * eq.length ** 2 * eq.magnetic_value
        rel = abs(eq.lorentzian_value - target) / max(abs(target), 1e-12)
        residuals.append(rel)
        records.append({"x": x, "y": mrec.y, "length": eq.length,
                        "lorentzian": eq.lorentzian_value,
                        "magnetic": eq.magnetic_value, "ratio": eq.ratio,
                        "ratio_over_2l": eq.ratio / (2.0 * eq.length),
                        "rel_error_vs_2l2": rel})
    return _report("lin-equivalence", sc.name, seed, records, residuals,
                   tol, t0)


def run_gauge_invariance(config: dict, seed: int) -> dict:
    """Gauge and conformal invariance of scattering (criterion 10)."""
    t0 = time.perf_counter()
    res = acceptance.criterion_invariance()
    records = [{"transform": c.label, "max_deviation": c.value,
                "tolerance": c.tolerance, "pass": c.passed}
               for c in res.checks]
    return _report("gauge-invariance", "product_disk+stationary_rot", seed,
                   records, [c.value for c in res.checks], 1e-6, t0)


def run_conformal_reparam(config: dict, seed: int) -> dict:
    """Conformal reparametrization of the null Hamiltonian flow."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    tol = float(config.get("tolerance", 1e-6))
    x0, xi0 = scenarios.reparam_start(sc)
    records, residuals = [], []
    cases = [("constant 1", ScalarField.constant(1.0)),
             ("constant 4", ScalarField.constant(4.0)),
             ("gaussian", scenarios.gaussian_factor())]
    for label, c in cases:
        rep = conformal_reparam_check(sc.metric, c, x0, xi0, sigma_max=0.6)
        residuals.append(rep.max_deviation)
        records.append({"factor": label, "max_deviation": rep.max_deviation,
                        "sigma_end": rep.sigma_end})
    return _report("conformal-reparam", sc.name, seed, records, residuals,
                   tol, t0)


def run_normal_coords(config: dict, seed: int) -> dict:
    """Normal component of the boundary-normal gauged one-form."""
    t0 = time.perf_counter()
    tol = float(config.get("tolerance", 1e-8))
    phi, gauged = boundary_normal_coords(scenarios.collar_one_form())
    th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    dd = np.linspace(0.0, 0.4, 8)
    records, residuals = [], []
    for d in dd:
        pts = np.stack([th, np.full_like(th, d)], axis=-1)
        nc = float(np.abs(gauged(pts)[:, -1]).max())
        residuals.append(nc)
        records.append({"normal_distance": float(d),
                        "max_normal_component": nc})
    return _report("normal-coords", "collar", seed, records, residuals, tol,
                   t0)


def run_all(config: dict, seed: int) -> dict:
    """Run the thirteen acceptance criteria."""
    t0 = time.perf_counter()
    records = []
    worst_ratio = 0.0
    for result in acceptance.run_all():
        records.append({
            "index": result.index,
            "name": result.name,
            "pass": result.passed,
            "wall_time_s": result.wall_time_s,
            "checks": [{"label": c.label, "value": c.value,
                        "tolerance": c.tolerance, "pass": c.passed}
                       for c in result.checks],
            "notes": result.notes,
        })
        worst_ratio = max(worst_ratio,
                          max(c.value / c.tolerance for c in result.checks))
    rep = _report("all", "bundled", seed, records, [worst_ratio], 1.0, t0)
    rep["summary"]["pass"] = all(r["pass"] for r in records)
    rep["summary"]["tolerance"] = "per-check"
    return rep


RUNNERS = {
    "scatter": run_scatter,
    "connect": run_connect,
    "defining-r-sweep": run_defining_r_sweep,
    "michel": run_michel,
    "verify-thm1": run_verify_thm1,
    "kernel-tests": run_kernel_tests,
    "verify-thmmag": run_verify_thmmag,
    "magnetic-michel": run_magnetic_michel,
    "lin-equivalence": run_lin_equivalence,
    "gauge-invariance": run_gauge_invariance,
    "conformal-reparam": run_conformal_reparam,
    "normal-coords": run_normal_coords,
    "all": run_all,
}
