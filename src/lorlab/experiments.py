"""Config-driven experiment runners behind the command line interface.

Every runner takes a plain-dict config and a seed and returns a JSON
serializable report with a fixed shape: schema_version, experiment,
scenario, seed, a list of per-item records, and a summary block with
the residual statistics and the pass flag.  A config key that the
runner does not read is a ConfigError.  The records of a runner that
has a matching acceptance criterion come from that criterion's
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


class ConfigError(ValueError):
    """A config key that the runner does not read, or a value of the wrong
    type or out of range."""


def _read_config(name: str, config: dict, **defaults) -> dict:
    """The config of runner name over the defaults of the keys it reads;
    a ConfigError names any other key, or a value unlike its default.
    Every number a runner reads is positive: an int (a count such as n)
    is at least 1, a float (a tolerance or a step) above 0."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ConfigError(
            f"{name} does not read config keys {unknown}; it reads "
            f"{sorted(defaults)}" if defaults else
            f"{name} takes no config; its criteria fix their scenarios, "
            f"grids and tolerances (got keys {unknown})")
    for key, value in sorted(config.items()):
        default = defaults[key]     # an int may stand for a float
        kind = (int, float) if isinstance(default, float) else type(default)
        if (not isinstance(value, kind)
                or isinstance(value, bool) != isinstance(default, bool)):
            raise ConfigError(
                f"{name} reads config key {key!r} as "
                f"{type(default).__name__}, got {value!r}")
        count = isinstance(default, int) and not isinstance(default, bool)
        if count and not value >= 1:
            raise ConfigError(f"{name} reads config key {key!r} as a "
                              f"count of at least 1, got {value!r}")
        if isinstance(default, float) and not value > 0:
            raise ConfigError(f"{name} reads config key {key!r} as a "
                              f"positive number, got {value!r}")
    return {**defaults, **config}


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


def _build_scenario(name: str, cfg: dict):
    """The scenario of runner name's config; ScenarioError if it cannot
    be built, or if the runner reduces a stationary form to its magnetic
    system and the scenario has none."""
    try:
        sc = scenarios.build(cfg["scenario"], **cfg["scenario_params"])
    except (KeyError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    if sc.stationary is None and name in ("verify-thmmag", "magnetic-michel",
                                          "lin-equivalence"):
        raise ScenarioError(f"{name} needs a stationary form; {sc.name} "
                            f"has none")
    return sc


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


def _run(name, config, seed, scenario, n, tolerance, records, keys,
         **extra):
    """Report records(sc, n, seed, **extra), the worst of keys as each
    residual; the config keys are scenario, scenario_params, n, tolerance
    and those of extra, whose values are defaults."""
    t0 = time.perf_counter()
    cfg = _read_config(name, config, scenario=scenario, scenario_params={},
                       n=n, tolerance=tolerance, **extra)
    sc = _build_scenario(name, cfg)
    recs = records(sc, cfg["n"], seed, **{k: cfg[k] for k in extra})
    return _report(name, sc.name, seed, recs,
                   [acceptance.worst_of(r[k] for k in keys) for r in recs],
                   float(cfg["tolerance"]), t0)


def run_scatter(config: dict, seed: int) -> dict:
    """Scatter boundary entries and report the lightlike speed drift."""
    return _run("scatter", config, seed, "minkowski_slab", 10, 1e-8,
                acceptance.scatter_records, ["speed_drift"], step=1e-3)


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
    cfg = _read_config("defining-r-sweep", config, scenario="product_disk",
                       scenario_params={}, n=20, tolerance=1e-8)
    sc = _build_scenario("defining-r-sweep", cfg)
    n_s, tol = cfg["n"], float(cfg["tolerance"])
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
    _read_config("kernel-tests", config)
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
                    sc.stationary, [scenarios.equivalence_fields()],
                    [(r.x, r.y) for r in scenarios.magnetic_pairs(sc, n,
                                                                  seed)]),
                ["rel_error_vs_2l2"])


def run_gauge_invariance(config: dict, seed: int) -> dict:
    """Gauge and conformal invariance of scattering (criterion 10)."""
    _read_config("gauge-invariance", config)
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
    cfg = _read_config("conformal-reparam", config, scenario="product_disk",
                       scenario_params={}, tolerance=1e-6)
    sc = _build_scenario("conformal-reparam", cfg)
    records = acceptance.reparam_records(sc)
    return _report("conformal-reparam", sc.name, seed, records,
                   [r["max_deviation"] for r in records],
                   float(cfg["tolerance"]), t0)


def run_normal_coords(config: dict, seed: int) -> dict:
    """Normal component of the boundary-normal gauged one-form."""
    t0 = time.perf_counter()
    tol = float(_read_config("normal-coords", config,
                             tolerance=1e-8)["tolerance"])
    records = acceptance.normal_coords_records()
    return _report("normal-coords", "collar", seed, records,
                   [r["max_normal_component"] for r in records], tol, t0)


def run_all(config: dict, seed: int) -> dict:
    """Run the thirteen acceptance criteria."""
    _read_config("all", config)
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
