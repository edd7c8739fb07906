"""lorlab.quadrature against scipy, which the tests keep as the
reference, and the guard that keeps scipy off lorlab's import path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicSpline as ScipySpline

from lorlab.quadrature import CubicSpline, simpson

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lorlab"


def _grids(rng):
    """(x, y) cases: two and three samples, odd and even counts up to
    2000 on random and uniform grids, and uniform grids whose last
    interval is short, as an exit sample leaves it."""
    for n in (2, 3):
        yield np.sort(rng.uniform(0, 1, n)), rng.standard_normal(n)
    for _ in range(150):
        n = int(rng.integers(2, 2001))
        yield np.cumsum(rng.uniform(0.01, 1.0, n)), rng.standard_normal(n)
        x = 1e-3 * np.arange(n)
        yield x, np.sin(7 * x) + rng.standard_normal(n)
        short = x.copy()
        if n > 2:
            gap = rng.uniform() * 10.0 ** -rng.integers(0, 9)
            short[-1] = short[-2] + 1e-3 * gap
        yield short, rng.standard_normal(n)


def test_simpson_equals_scipy_bitwise():
    cases = list(_grids(np.random.default_rng(71)))
    counts = {len(x) % 2 for x, _ in cases}
    assert counts == {0, 1}
    for x, y in cases:
        assert simpson(y, x) == float(scipy_simpson(y, x=x)), len(x)


def test_simpson_is_exact_on_quadratics_and_trapezoid_on_two_samples():
    """Odd and even counts on an uneven grid; the corrected last
    interval of an even count is a parabola too."""
    x = np.array([0.0, 0.3, 0.5, 1.1, 1.2, 2.0])
    for xs in (x, x[:5]):
        assert simpson(xs ** 2, xs) == pytest.approx(xs[-1] ** 3 / 3,
                                                     rel=1e-13)
    assert simpson([1.0, 3.0], [0.0, 0.5]) == 1.0


def _spline_cases(rng):
    """(M,) and (M, 3) data on near-uniform grids, and (M, 3) data on a
    uniform grid whose last interval is short."""
    for m in (2, 3, 4, 5, 9, 300, 1001):
        x = 1e-2 * np.cumsum(rng.uniform(0.5, 1.0, m))
        y = np.sin(40 * x)[:, None] + 0.1 * rng.standard_normal((m, 3))
        yield pytest.param(x, y[:, 0], id=f"{m}")
        yield pytest.param(x, y, id=f"{m}x3")
        x = 1e-3 * np.arange(m, dtype=float)
        if m > 2:
            x[-1] = x[-2] + 3e-7
        yield pytest.param(x, np.exp(x)[:, None] * [1.0, -2.0, 0.5],
                           id=f"{m}x3-short-last")


@pytest.mark.parametrize("x, y", _spline_cases(np.random.default_rng(73)))
def test_spline_matches_scipy(x, y):
    """Values at the knots, inside and beyond both ends (end-piece
    extrapolation), and the antiderivative at the knots."""
    ours, ref = CubicSpline(x, y), ScipySpline(x, y, axis=0)
    rng = np.random.default_rng(len(x))
    inside = rng.uniform(x[0], x[-1], 40)
    # up to three lengths of the end piece beyond each end
    outside = np.concatenate([x[0] - (x[1] - x[0]) * rng.uniform(0, 3, 5),
                              x[-1] + (x[-1] - x[-2]) * rng.uniform(0, 3, 5)])
    for pts in (x, inside, outside, np.array(x[len(x) // 2])):
        got, want = ours(pts), ref(pts)
        assert got.shape == np.shape(pts) + y.shape[1:]
        assert np.abs(got - want).max() <= 1e-12 * max(1.0,
                                                       np.abs(want).max())
    anti, want = ours.antiderivative_at_knots(), ref.antiderivative()(x)
    assert anti.shape == y.shape
    assert np.abs(anti - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_spline_rejects_unsorted_abscissae():
    with pytest.raises(ValueError, match="strictly increasing"):
        CubicSpline([0.0, 0.2, 0.2, 0.3], np.zeros(4))
    with pytest.raises(ValueError, match="two samples"):
        CubicSpline([0.0], [1.0])


def test_import_lorlab_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, lorlab; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_lorlab_module_imports_scipy():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names
                          if n.split(".")[0] == "scipy"]
    assert not offenders
