"""Config-driven experiment runners behind the command line interface.

Every runner takes a plain-dict config and a seed and returns a JSON
serializable report with a fixed shape: schema_version, experiment,
scenario, seed, a list of per-item records, and a summary block with
the residual statistics and the pass flag.  The records of a runner
that has a matching acceptance criterion come from that criterion's
``acceptance.*_records`` function, so each experiment is defined once.
"""

from __future__ import annotations

import time

import numpy as np

from . import acceptance, scenarios
from .connect import connecting_geodesics_batch
from .errors import LorlabError

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
            t0):
    residuals = [float(r) for r in residuals]
    worst = acceptance.worst_of(residuals)
    summary = {
        "max_residual": worst,
        "mean_residual": (sum(residuals) / len(residuals)) if residuals
        else 0.0,
        "tolerance": tolerance,
        "pass": bool(residuals) and worst <= tolerance,
        "wall_time_s": time.perf_counter() - t0,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "scenario": scenario_name,
        "seed": seed,
        "records": _jsonable(records),
        "summary": _jsonable(summary),
    }


def _run(name, config, seed, scenario, n, tolerance, records, keys):
    """Report records(sc, n, seed), the worst of keys as each residual."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, scenario)
    tol = float(config.get("tolerance", tolerance))
    recs = records(sc, int(config.get("n", n)), seed)
    return _report(name, sc.name, seed, recs,
                   [acceptance.worst_of(r[k] for k in keys) for r in recs],
                   tol, t0)


def run_scatter(config: dict, seed: int) -> dict:
    """Scatter boundary entries and report the lightlike speed drift."""
    return _run("scatter", config, seed, "minkowski_slab", 10, 1e-8,
                lambda *args: acceptance.scatter_records(
                    *args, step=float(config.get("step", 1e-3))),
                ["speed_drift"])


def _connect_records(sc, n, seed):
    xs, ys = scenarios.disk_pairs(n, seed)
    return [{"x": c.x, "y": c.y, "energy": c.energy, "causal": c.causal.tag,
             "endpoint_miss": float(np.linalg.norm(c.path.x[-1] - c.y))}
            for c in connecting_geodesics_batch(sc.metric, xs, ys, tol=1e-12)]


def run_connect(config: dict, seed: int) -> dict:
    """Solve connecting geodesics of boundary pairs; report endpoint misses."""
    return _run("connect", config, seed, "product_disk", 20, 1e-8,
                _connect_records, ["endpoint_miss"])


def run_defining_r_sweep(config: dict, seed: int) -> dict:
    """Connector energy r along a time sweep against its closed form."""
    t0 = time.perf_counter()
    sc = _build_scenario(config, "product_disk")
    n_s = int(config.get("n", 20))
    tol = float(config.get("tolerance", 1e-8))
    th2 = np.random.default_rng(seed).uniform(0.4 * np.pi, 1.6 * np.pi)
    (records,) = acceptance.r_sweeps(sc, [th2], np.linspace(0.25, 2.55, n_s))
    residuals, crossings = acceptance.sweep_residuals(records)
    rep = _report("defining-r-sweep", sc.name, seed, records, residuals,
                  tol, t0)
    rep["summary"]["sign_changes"] = crossings
    rep["summary"]["pass"] = rep["summary"]["pass"] and crossings == 1
    return rep


def run_michel(config: dict, seed: int) -> dict:
    """Graph (Michel) identity residuals of r on lightlike pairs."""
    return _run("michel", config, seed, "product_disk", 10, 1e-5,
                acceptance.michel_records, acceptance.MICHEL_KEYS)


def run_verify_thm1(config: dict, seed: int) -> dict:
    """Linearization of r against half its light ray transform."""
    return _run("verify-thm1", config, seed, "product_disk", 10, 1e-3,
                lambda sc, n, seed: acceptance.linearization_records(
                    scenarios.stretch_family(),
                    scenarios.null_pairs(sc, n, seed)),
                ["rel_error"])


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
    return _run("verify-thmmag", config, seed, "stationary_rot", 10, 1e-6,
                acceptance.thmmag_records, acceptance.THMMAG_KEYS)


def run_magnetic_michel(config: dict, seed: int) -> dict:
    """Graph identity residuals of the magnetic action."""
    return _run("magnetic-michel", config, seed, "stationary_rot", 6, 1e-5,
                acceptance.magnetic_michel_records,
                acceptance.MAGNETIC_MICHEL_KEYS)


def run_lin_equivalence(config: dict, seed: int) -> dict:
    """Lorentzian against magnetic linearized transforms."""
    return _run("lin-equivalence", config, seed, "stationary_rot", 5, 1e-6,
                lambda sc, n, seed: acceptance.equivalence_records(
                    sc.stationary, *scenarios.equivalence_fields(),
                    [(r.x, r.y) for r in scenarios.magnetic_pairs(sc, n,
                                                                  seed)]),
                ["rel_error_vs_2l2"])


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
    records = acceptance.reparam_records(sc)
    return _report("conformal-reparam", sc.name, seed, records,
                   [r["max_deviation"] for r in records], tol, t0)


def run_normal_coords(config: dict, seed: int) -> dict:
    """Normal component of the boundary-normal gauged one-form."""
    t0 = time.perf_counter()
    tol = float(config.get("tolerance", 1e-8))
    records = acceptance.normal_coords_records()
    return _report("normal-coords", "collar", seed, records,
                   [r["max_normal_component"] for r in records], tol, t0)


def run_all(config: dict, seed: int) -> dict:
    """Run the thirteen acceptance criteria."""
    t0 = time.perf_counter()
    records, ratios = [], []
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
        ratios += [c.value / c.tolerance for c in result.checks]
    rep = _report("all", "bundled", seed, records,
                  [acceptance.worst_of(ratios)], 1.0, t0)
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
