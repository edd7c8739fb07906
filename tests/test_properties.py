"""Property-based checks for the algebraic invariants that hold for
arbitrary inputs: bilinearity, homogeneity, classification scaling, and
boundary charts that act on batches row by row."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lorlab import (GeodesicPath, causal_classify, inner, light_ray_transform,
                    scenarios)
from lorlab.fields import SymTwoTensorField
from lorlab.geometry import LORENTZIAN, MetricField


def minkowski():
    def func(x):
        return np.broadcast_to(np.diag([-1.0, 1.0, 1.0]),
                               np.shape(x)[:-1] + (3, 3))

    return MetricField(
        dim=3, signature=LORENTZIAN, func=func,
        jetfunc=lambda x: (func(x), np.zeros(np.shape(x)[:-1] + (3, 3, 3))))


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonzero_scale = st.floats(min_value=0.05, max_value=20.0)


@given(st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3),
       finite, finite)
@settings(max_examples=50, deadline=None)
def test_inner_is_bilinear(u, w, a, b):
    g = minkowski()
    x = np.zeros(3)
    u = np.array(u)
    w = np.array(w)
    lhs = inner(g, x, a * u + b * w, w)
    rhs = a * inner(g, x, u, w) + b * inner(g, x, w, w)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@given(st.lists(finite, min_size=3, max_size=3), nonzero_scale)
@settings(max_examples=50, deadline=None)
def test_causal_class_scale_invariant(v, a):
    g = minkowski()
    v = np.array(v)
    x = np.zeros(3)
    base = causal_classify(g, x, v)
    scaled = causal_classify(g, x, a * v)
    if abs(inner(g, x, v, v)) > 1e-6 * max(1.0, float(v @ v)):
        assert scaled.tag == base.tag


@given(st.lists(finite, min_size=6, max_size=6), finite, finite)
@settings(max_examples=30, deadline=None)
def test_light_ray_transform_linear(entries, a, b):
    n = 801
    sigma = np.linspace(0.0, 1.0, n)
    x = np.stack([sigma, sigma, np.zeros(n)], axis=-1)
    v = np.tile([1.0, 1.0, 0.0], (n, 1))
    path = GeodesicPath(sigma=sigma, x=x, v=v, speed_squared=0.0)
    m1 = np.zeros((3, 3))
    m1[np.triu_indices(3)] = entries
    m1 = 0.5 * (m1 + m1.T)
    m2 = np.diag([1.0, -2.0, 0.5])

    def const(mat):
        return SymTwoTensorField(dim=3, func=lambda p: np.broadcast_to(
            mat, np.shape(p)[:-1] + (3, 3)))

    lhs = light_ray_transform(const(a * m1 + b * m2), path)
    rhs = (a * light_ray_transform(const(m1), path)
           + b * light_ray_transform(const(m2), path))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def bundled_surfaces():
    """(name, surface, chart parameters) of every distinct boundary
    hypersurface of the bundled scenarios."""
    out, seen = [], set()
    for name in scenarios.available():
        sc = scenarios.build(name)
        for kind, S, dim in (("entry", sc.entry_surface, sc.metric.dim),
                             ("exit", sc.exit_surface, sc.metric.dim),
                             ("spatial", sc.spatial_boundary,
                              sc.metric.dim - 1)):
            if S is not None and id(S) not in seen:
                seen.add(id(S))
                out.append((f"{name}.{kind}", S, dim - 1))
    return out


SURFACES = bundled_surfaces()
chart_param = st.floats(min_value=-3.0, max_value=3.0)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_charts_act_on_batches_row_by_row(B, C, data):
    """chart and chart_inverse on batches (p,), (B, p) and (B, C, p) are
    the stacked calls on their rows, and chart_inverse undoes chart."""
    for name, S, p in SURFACES:
        a = np.reshape(data.draw(st.lists(chart_param, min_size=B * C * p,
                                          max_size=B * C * p)), (B, C, p))
        x = S.chart(a)
        assert np.abs(S.chart_inverse(x) - a).max() <= 1e-15, name
        for batch, pts in ((a[0, 0], x[0, 0]), (a[0], x[0]), (a, x)):
            rows, prows = batch.reshape(-1, p), pts.reshape(-1, pts.shape[-1])
            assert np.array_equal(
                S.chart(batch), np.reshape([S.chart(r) for r in rows],
                                           batch.shape[:-1] + (-1,))), name
            assert np.array_equal(
                S.chart_inverse(pts),
                np.reshape([S.chart_inverse(r) for r in prows],
                           batch.shape)), name
