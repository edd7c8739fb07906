"""The benchmark in ``perfbench/`` reaches lorlab by name: the tracer
installs its wrappers with ``getattr`` and reads bound arguments by
parameter name, and the workloads call the public API with keywords.
These tests read ``perfbench/`` without changing it, so that a rename in
``src/`` that would break ``perfbench/run.py`` (with or without
``--trace``) fails here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import lorlab
from lorlab import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for mod_name, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr))
    geometry = importlib.import_module("lorlab.geometry")
    for cls_name, attr, _ in tracer.METHODS:
        assert callable(getattr(geometry, cls_name).__dict__[attr])
    assert callable(geometry.geodesic_accel)


@pytest.mark.parametrize("module, func, param", [
    ("lorlab.geometry", "integrate_flow_to_surface", "step"),
    ("lorlab.lightray", "light_ray_transform", "path")])
def test_traced_extras_find_their_parameters(module, func, param):
    f = getattr(importlib.import_module(module), func)
    assert param in inspect.signature(f).parameters


def test_fixed_march_has_the_shape_the_tracer_reads():
    """The tracer's extra for integrate_flow_fixed reads the batch size
    as out[1].shape[1]: the march returns (sigma (M,), xs (M, B, dim),
    vs (M, B, dim))."""
    (extra,) = [e for _, attr, _, e in _tracer().FUNCTIONS
                if attr == "integrate_flow_fixed"]
    geometry = importlib.import_module("lorlab.geometry")
    g = scenarios.build("product_disk").metric
    xs = np.zeros((2, 3))
    vs = np.array([[1.0, 0.5, 0.0], [1.0, 0.0, -0.5]])
    out = geometry.integrate_flow_fixed(geometry.geodesic_accel(g), xs, vs,
                                        0.5, 0.05)
    assert len(out) == 3
    sigma, px, pv = out
    assert sigma.shape == (11,) and px.shape == pv.shape == (11, 2, 3)
    assert extra(None, out) == (2,)


def _lorlab_calls():
    """(line, owner module, name, positional count, keywords, first
    argument) of each call of ``lorlab.<name>`` or ``scenarios.<name>``
    in the workloads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    owners = {"lorlab": lorlab, "scenarios": scenarios}
    for node in ast.walk(tree):
        f = node.func if isinstance(node, ast.Call) else None
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in owners):
            yield (node.lineno, owners[f.value.id], f.attr, len(node.args),
                   [k.arg for k in node.keywords],
                   node.args[0] if node.args else None)


def test_workload_calls_bind():
    calls = list(_lorlab_calls())
    assert len(calls) >= 10                  # the scan sees the workloads
    for line, owner, name, n_pos, keywords, first in calls:
        where = f"workloads.py:{line} {owner.__name__}.{name}"
        assert hasattr(owner, name), where
        binds = [(getattr(owner, name), n_pos)]
        if binds[0][0] is scenarios.build and keywords:
            # the scenario's own builder takes the parameters
            binds.append((getattr(scenarios, ast.literal_eval(first)), 0))
        for func, n in binds:
            try:
                inspect.signature(func).bind(*[None] * n,
                                             **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
