"""Config-driven experiment runners behind the command line interface.

RUNNERS declares each subcommand once, under its name.  Every runner
is called with that name, a plain-dict config and a seed, and returns a
JSON serializable report with a fixed shape: schema_version,
experiment, scenario, seed, a list of per-item records, and a summary
block with the residual statistics and the pass flag.  A config key
that the runner does not read is a ConfigError.  Most runners are one
``_run`` row: help text, records builder, residual keys and config
defaults.  The records of a runner that has a matching acceptance
criterion come from that criterion's ``acceptance.*_records``
function, or from the criterion's checks, so each experiment is
defined once.
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
    except (KeyError, TypeError, ValueError) as exc:
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


def _run(doc: str, records, keys, **defaults):
    """A runner of RUNNERS, with help doc: it reads its config over
    defaults and scenario_params ({}), builds the scenario sc and
    reports ``records(sc, seed=seed, **rest)``, rest being every config
    key but scenario, scenario_params and tolerance; each record's
    residual is the worst of its keys."""
    def run(name: str, config: dict, seed: int) -> dict:
        t0 = time.perf_counter()
        cfg = _read_config(name, config, scenario_params={}, **defaults)
        sc = _build_scenario(name, cfg)
        recs = records(sc, seed=seed, **{
            k: v for k, v in cfg.items()
            if k not in ("scenario", "scenario_params", "tolerance")})
        return _report(name, sc.name, seed, recs,
                       [acceptance.worst_of(r[k] for k in keys) for r in recs],
                       float(cfg["tolerance"]), t0)

    run.__doc__ = doc
    return run


def _check_records(checks, label: str, value: str) -> list[dict]:
    """One record per criterion check, its label and value under the
    keys label and value."""
    return [{label: c.label, value: c.value, "tolerance": c.tolerance,
             "pass": c.passed} for c in checks]


def _connect_records(sc, n, seed):
    xs, ys = scenarios.disk_pairs(n, seed)
    return [{"x": c.x, "y": c.y, "energy": c.energy, "causal": c.causal.tag,
             "endpoint_miss": float(np.linalg.norm(c.path.x[-1] - c.y))}
            for c in connecting_geodesics_batch(sc.metric, xs, ys, tol=1e-12)]


def run_defining_r_sweep(name: str, config: dict, seed: int) -> dict:
    """Connector energy r along a time sweep against its closed form."""
    t0 = time.perf_counter()
    cfg = _read_config(name, config, scenario="product_disk",
                       scenario_params={}, n=20, tolerance=1e-8)
    sc = _build_scenario(name, cfg)
    n_s, tol = cfg["n"], float(cfg["tolerance"])
    th2 = np.random.default_rng(seed).uniform(0.4 * np.pi, 1.6 * np.pi)
    (records,) = acceptance.r_sweeps(sc, [th2], np.linspace(0.25, 2.55, n_s))
    residuals, crossings = acceptance.sweep_residuals(records)
    rep = _report(name, sc.name, seed, records, residuals, tol, t0)
    rep["summary"]["sign_changes"] = crossings
    rep["summary"]["pass"] = rep["summary"]["pass"] and crossings == 1
    return rep


def run_kernel_tests(name: str, config: dict, seed: int) -> dict:
    """Kernel checks of the light ray transform (criterion 5)."""
    _read_config(name, config)
    t0 = time.perf_counter()
    checks = acceptance.criterion_kernel().checks
    rep = _report(name, "product_disk", seed,
                  _check_records(checks, "check", "value"),
                  [c.value / c.tolerance for c in checks], 1.0, t0)
    rep["summary"]["tolerance"] = "per-record"
    return rep


def run_gauge_invariance(name: str, config: dict, seed: int) -> dict:
    """Gauge and conformal invariance of scattering (criterion 10)."""
    _read_config(name, config)
    t0 = time.perf_counter()
    checks = acceptance.criterion_invariance().checks
    return _report(name, "product_disk+stationary_rot", seed,
                   _check_records(checks, "transform", "max_deviation"),
                   [c.value for c in checks], 1e-6, t0)


def run_normal_coords(name: str, config: dict, seed: int) -> dict:
    """Normal component of the boundary-normal gauged one-form."""
    t0 = time.perf_counter()
    tol = float(_read_config(name, config, tolerance=1e-8)["tolerance"])
    records = acceptance.normal_coords_records()
    return _report(name, "collar", seed, records,
                   [r["max_normal_component"] for r in records], tol, t0)


def run_all(name: str, config: dict, seed: int) -> dict:
    """Run the thirteen acceptance criteria."""
    _read_config(name, config)
    t0 = time.perf_counter()
    results = acceptance.run_all()
    records = [{"index": r.index, "name": r.name, "pass": r.passed,
                "wall_time_s": r.wall_time_s,
                "checks": _check_records(r.checks, "label", "value"),
                "notes": r.notes} for r in results]
    ratios = [c.value / c.tolerance for r in results for c in r.checks]
    rep = _report(name, "bundled", seed, records,
                  [acceptance.worst_of(ratios)], 1.0, t0)
    rep["summary"]["pass"] = all(r.passed for r in results)
    rep["summary"]["tolerance"] = "per-check"
    return rep


# Each subcommand's runner, called as runner(name, config, seed), its
# help the runner's __doc__, in the order of the command line's help.
RUNNERS = {
    "scatter": _run(
        "Scatter boundary entries and report the lightlike speed drift.",
        acceptance.scatter_records, ["speed_drift"],
        scenario="minkowski_slab", n=10, tolerance=1e-8, step=1e-3),
    "connect": _run(
        "Solve connecting geodesics of boundary pairs; report endpoint "
        "misses.", _connect_records, ["endpoint_miss"],
        scenario="product_disk", n=20, tolerance=1e-8),
    "defining-r-sweep": run_defining_r_sweep,
    "michel": _run(
        "Graph (Michel) identity residuals of r on lightlike pairs.",
        acceptance.michel_records, acceptance.MICHEL_KEYS,
        scenario="product_disk", n=10, tolerance=1e-5),
    "verify-thm1": _run(
        "Linearization of r against half its light ray transform.",
        lambda sc, n, seed: acceptance.linearization_records(
            scenarios.stretch_family(), scenarios.null_pairs(sc, n, seed)),
        ["rel_error"], scenario="product_disk", n=10, tolerance=1e-3),
    "kernel-tests": run_kernel_tests,
    "verify-thmmag": _run(
        "Stationary scattering against its magnetic reduction.",
        acceptance.thmmag_records, acceptance.THMMAG_KEYS,
        scenario="stationary_rot", n=10, tolerance=1e-6),
    "magnetic-michel": _run(
        "Graph identity residuals of the magnetic action.",
        acceptance.magnetic_michel_records, acceptance.MAGNETIC_MICHEL_KEYS,
        scenario="stationary_rot", n=6, tolerance=1e-5),
    "lin-equivalence": _run(
        "Lorentzian against magnetic linearized transforms.",
        lambda sc, n, seed: acceptance.equivalence_records(
            sc.stationary, [scenarios.equivalence_fields()],
            [(r.x, r.y) for r in scenarios.magnetic_pairs(sc, n, seed)]),
        ["rel_error_vs_2l2"], scenario="stationary_rot", n=5, tolerance=1e-6),
    "gauge-invariance": run_gauge_invariance,
    "conformal-reparam": _run(
        "Conformal reparametrization of the null Hamiltonian flow.",
        lambda sc, seed: acceptance.reparam_records(sc), ["max_deviation"],
        scenario="product_disk", tolerance=1e-6),
    "normal-coords": run_normal_coords,
    "all": run_all,
}
