"""Span tracing of lorlab from outside the package.

``Tracer.installed()`` replaces each traced public function in every
lorlab module namespace that holds it (``lorlab.connect`` imported
``integrate_flow_fixed`` by name, so that name is wrapped there too),
the traced methods on their classes, and the ``geodesic_accel`` factory,
so that every closure it returns is wrapped.  On exit the originals are
put back, so untraced calls run the unmodified program.

Each span records its layer, start, end, parent span, call id and
whether it exited by an exception.  Spans stay in memory until
``arrays`` hands them to the writer at the end of a run;
``layer_metrics`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time

import numpy as np


def _surface_extra(a, out):
    # ray b crossed in lockstep step m_b + 1 (its own steps), where its
    # refined exit sigma lies in (m_b * step, (m_b + 1) * step]
    step = float(a["step"])
    own = sum(math.ceil(float(sigma[-1]) / step - 1e-6)
              for sigma, _, _ in out)
    return (len(out), own)


# (module, attribute, layer, extra): module-level functions, wrapped in
# every lorlab namespace that holds the same object.  ``extra`` maps
# (bound arguments, result) to a tuple of numbers kept with the span.
FUNCTIONS = [
    ("lorlab.geometry", "integrate_flow_to_surface", "geometry.to_surface",
     _surface_extra),
    ("lorlab.geometry", "_refine_hit", "geometry.refine", None),
    ("lorlab.geometry", "integrate_flow_fixed", "geometry.fixed",
     lambda a, out: (out[1].shape[1],)),
    ("lorlab.scattering", "scatter", "scattering.scatter",
     lambda a, out: (1,)),
    ("lorlab.scattering", "scatter_batch", "scattering.scatter_batch",
     lambda a, out: (len(out),)),
    ("lorlab.connect", "solve_two_point", "connect.solve",
     lambda a, out: np.shape(out)),
    ("lorlab.connect", "michel_check", "connect.michel_check", None),
    ("lorlab.lightray", "light_ray_transform", "lightray.transform",
     lambda a, out: (len(a["path"].sigma),)),
    ("lorlab.stationary", "magnetic_scatter", "stationary.magnetic_scatter",
     None),
    ("lorlab.stationary", "magnetic_connector",
     "stationary.magnetic_connector", None),
    ("lorlab.stationary", "thmmag_verify", "stationary.thmmag_verify", None),
    ("lorlab.stationary", "magnetic_michel", "stationary.magnetic_michel",
     None),
    ("lorlab.gauge", "hamiltonian_flow", "gauge.hamiltonian_flow", None),
    ("lorlab.gauge", "conformal_reparam_check",
     "gauge.conformal_reparam_check", None),
]
# (class in lorlab.geometry, method, layer)
METHODS = [
    ("MetricField", "matrix", "geometry.matrix"),
    # called once before the lockstep march and once after each step
    ("BoundaryHypersurface", "side", "geometry.side"),
]
ACCEL_LAYER = "geometry.accel"    # closures returned by geodesic_accel

MODULES = ["geometry", "scattering", "connect", "lightray", "stationary",
           "gauge"]
REPORTED = [
    "geometry.matrix", "geometry.accel", "geometry.to_surface",
    "geometry.fixed", "scattering.scatter", "scattering.scatter_batch",
    "connect.solve", "connect.michel_check", "lightray.transform",
    "stationary.magnetic_scatter", "stationary.magnetic_connector",
    "stationary.thmmag_verify", "stationary.magnetic_michel",
    "gauge.hamiltonian_flow", "gauge.conformal_reparam_check"]
# layers reported with .calls and .busy_s but no .self_s
NO_SELF = {"geometry.matrix", "geometry.accel", "geometry.fixed",
           "lightray.transform"}
LAYERS = REPORTED + ["geometry.refine", "geometry.side"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in REPORTED:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if layer not in NO_SELF:
            units[f"{layer}.self_s"] = "s"
    units.update({
        "geometry.march_steps": "count",
        "geometry.refine.accel_calls": "count",
        "geometry.refine.accel_busy_s": "s",
        "geometry.lockstep_useful": "ratio",
        "scattering.rays": "count",
        "connect.pairs": "count",
        "connect.residual_evals": "count",
        "connect.jacobian_builds": "count",
        "lightray.samples": "count",
    })
    for mod in MODULES:
        units[f"{mod}.errors"] = "count"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """In-memory span recorder for a single-threaded process."""

    def __init__(self):
        self._rows: list[tuple] = []    # (span, layer, start, end, parent,
        self._extra: dict = {}          #  call, failed); span -> extra
        self._stack = [-1]
        self._next = 0
        self._call = -1

    def _wrap(self, func, layer: int, extra=None):
        clock = time.perf_counter
        stack, rows = self._stack, self._rows
        sig = inspect.signature(func) if extra is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            failed = True
            t0 = clock()
            try:
                out = func(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                stack.pop()
                rows.append((sid, layer, t0, t1, parent, self._call, failed))
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._extra[sid] = extra(bound.arguments, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, call_id: int):
        """Wrap the traced functions for the duration of one call."""
        geometry = sys.modules["lorlab.geometry"]
        saved = []                      # (owner, attribute, original)
        mods = [m for n, m in list(sys.modules.items())
                if n == "lorlab" or n.startswith("lorlab.")]

        def replace_everywhere(orig, new):
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, new)

        for mod_name, attr, layer, extra in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            replace_everywhere(orig, self._wrap(orig, LAYERS.index(layer),
                                                extra))
        for cls_name, attr, layer in METHODS:
            cls = getattr(geometry, cls_name)
            orig = cls.__dict__[attr]
            saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, LAYERS.index(layer)))
        factory = geometry.geodesic_accel
        accel = LAYERS.index(ACCEL_LAYER)

        @functools.wraps(factory)
        def traced_factory(g):
            return self._wrap(factory(g), accel)

        replace_everywhere(factory, traced_factory)
        self._call = call_id
        try:
            yield
        finally:
            self._call = -1
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, in the order they were opened."""
        rows = sorted(self._rows)
        col = list(zip(*rows)) if rows else [()] * 7
        return {"span": np.array(col[0], np.int64),
                "layer": np.array(col[1], np.int32),
                "start": np.array(col[2], float),
                "end": np.array(col[3], float),
                "parent": np.array(col[4], np.int64),
                "call": np.array(col[5], np.int32),
                "failed": np.array(col[6], bool),
                "layer_names": np.array(LAYERS)}

    def layer_metrics(self, calls) -> dict[str, float]:
        """Per-layer metrics over the spans of the given call ids."""
        sp = self.arrays()
        keep = np.isin(sp["call"], list(calls))
        span, layer = sp["span"][keep], sp["layer"][keep]
        dur = (sp["end"] - sp["start"])[keep]
        failed = sp["failed"][keep]
        n = span.size
        pos = {int(s): i for i, s in enumerate(span)}
        parent = np.array([pos.get(int(p), -1) for p in sp["parent"][keep]],
                          np.int64)
        child = np.zeros(n)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        lid = {name: i for i, name in enumerate(LAYERS)}

        def enclosing(name):
            """Index of the nearest enclosing span of a layer, or -1."""
            out = np.full(n, -1, np.int64)
            for i in range(n):            # parents precede their children
                p = parent[i]
                if p >= 0:
                    out[i] = p if layer[p] == lid[name] else out[p]
            return out

        def extra(i):
            """The span's extra numbers; None if it raised."""
            return self._extra.get(int(span[i]))

        def total(*names):
            return int(sum(extra(i)[0] for i in np.nonzero(
                np.isin(layer, [lid[k] for k in names]))[0]
                if extra(i) is not None))

        m: dict[str, float] = {}
        for name in REPORTED:
            sel = layer == lid[name]
            m[f"{name}.calls"] = int(sel.sum())
            m[f"{name}.busy_s"] = float(dur[sel].sum())
            if name not in NO_SELF:
                m[f"{name}.self_s"] = float((dur - child)[sel].sum())

        accel = layer == lid[ACCEL_LAYER]
        refine = enclosing("geometry.refine") >= 0
        m["geometry.refine.accel_calls"] = int((accel & refine).sum())
        m["geometry.refine.accel_busy_s"] = float(dur[accel & refine].sum())
        surface = enclosing("geometry.to_surface")
        steps = {}                       # to_surface index -> march steps
        for i in np.nonzero((layer == lid["geometry.side"]) & ~refine
                            & (surface >= 0))[0]:
            steps[surface[i]] = steps.get(surface[i], -1) + 1
        m["geometry.march_steps"] = int(sum(steps.values()))
        useful = slots = 0
        for i, k in steps.items():
            if extra(i) is not None:
                batch, own = extra(i)
                useful += own
                slots += batch * k
        m["geometry.lockstep_useful"] = useful / slots if slots else 0.0
        m["scattering.rays"] = total("scattering.scatter",
                                     "scattering.scatter_batch")

        solve = enclosing("connect.solve")
        res = jac = 0
        for i in np.nonzero((layer == lid["geometry.fixed"])
                            & (solve >= 0))[0]:
            if extra(solve[i]) is None or extra(i) is None:
                continue
            batch, dim = extra(solve[i])
            rows = extra(i)[0]
            res += rows == batch
            jac += rows == batch * dim
        m["connect.pairs"] = total("connect.solve")
        m["connect.residual_evals"] = int(res)
        m["connect.jacobian_builds"] = int(jac)
        m["lightray.samples"] = total("lightray.transform")

        # a failure counts once per module: where it leaves that module
        module = np.array([name.split(".")[0] for name in LAYERS])[layer]
        outer = np.where(parent >= 0, module[np.maximum(parent, 0)], "")
        leaves = failed & (outer != module)
        for mod in MODULES:
            m[f"{mod}.errors"] = int((leaves & (module == mod)).sum())
        return m
