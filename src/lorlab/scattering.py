"""The lightlike scattering relation between boundary hypersurfaces."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError
from .fields import Array
from .geometry import (BoundaryHypersurface, GeodesicPath, MetricField,
                       _lightlike_lift, geodesic_accel, inner, scatter_paths)

UNIT_INDUCED = "unit_g_prime"
TIME_COMPONENT = "time_component"
REDUCED_MODES = (UNIT_INDUCED, TIME_COMPONENT)


@dataclass(frozen=True)
class ScatteringRecord:
    """One evaluation of the scattering relation.

    x, v_proj: entry point and projected entry direction (tangent to U);
    y, w_proj: exit point and projected exit direction (tangent to V);
    travel: exit value of the affine parameter in the normalization in
    which v_proj was supplied.
    """

    x: Array
    v_proj: Array
    y: Array
    w_proj: Array
    travel: float
    path: GeodesicPath | None = None


def scatter_batch(g: MetricField, U: BoundaryHypersurface,
                  V: BoundaryHypersurface, xs: Array, v_projs: Array,
                  step: float = 1e-3, max_sigma: float = 10.0,
                  keep_paths: bool = False) -> list[ScatteringRecord]:
    """Shoot the lightlike geodesics with inward completions of v_projs
    (B, dim) from xs in U to their first transversal intersections with
    V, in one march for all, each ray with its own error-controlled
    Dormand-Prince 5(4) steps, never shorter than ``step``, and its path
    sampled at multiples of ``step`` (see
    geometry.integrate_flow_to_surface); the checks are those of
    geometry.scatter_paths, with NoLiftError when an entry has no
    lightlike completion."""
    xs, v_projs, w_projs, paths = scatter_paths(
        geodesic_accel(g), g, U, V, xs, v_projs, _lightlike_lift, step,
        max_sigma)
    return [ScatteringRecord(x=x, v_proj=vp, y=p.end[0], w_proj=w,
                             travel=float(p.sigma[-1]),
                             path=p if keep_paths else None)
            for x, vp, w, p in zip(xs, v_projs, w_projs, paths)]


def scatter(g: MetricField, U: BoundaryHypersurface, V: BoundaryHypersurface,
            x: Array, v_proj: Array) -> ScatteringRecord:
    """The batch of one of scatter_batch, with its path."""
    return scatter_batch(g, U, V, np.asarray(x, float)[None],
                         np.asarray(v_proj, float)[None], keep_paths=True)[0]


def normalize(rec: ScatteringRecord, mode: str, g: MetricField) -> ScatteringRecord:
    """Rescale (v', w', travel) by one positive factor so the entry
    satisfies the reduced-mode constraint."""
    if mode not in REDUCED_MODES:
        raise ValueError(f"unknown reduced mode {mode!r}")
    if mode == TIME_COMPONENT:
        vt = float(rec.v_proj[0])
        if vt <= 0.0:
            raise PreconditionError("time component of entry not positive")
        a = 1.0 / vt
    else:
        q = float(inner(g, rec.x, rec.v_proj, rec.v_proj))
        if q == 0.0:
            raise PreconditionError("induced norm of entry vanishes")
        a = 1.0 / np.sqrt(abs(q))
    return replace(rec, v_proj=a * rec.v_proj, w_proj=a * rec.w_proj,
                   travel=rec.travel / a, path=None)
