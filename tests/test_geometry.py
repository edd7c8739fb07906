import importlib.util
import math
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest

from lorlab import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                    ChartDomainError, EscapeError, MetricField, NoLiftError,
                    SingularMetricError, StationaryMetric,
                    boundary_normal, causal_classify, christoffel,
                    geodesic_accel, inner, integrate_geodesic,
                    lightlike_completion, scatter_batch, scenarios)
from lorlab import fields, geometry
from lorlab.errors import LorlabError
from lorlab.fields import CovectorField, _central_diff, _central_jet
from lorlab.geometry import integrate_flow_fixed, integrate_flow_to_surface
from lorlab.gauge import apply_gauge, scale_metric


def minkowski(dim=3):
    diag = np.ones(dim)
    diag[0] = -1.0

    def func(x):
        return np.broadcast_to(np.diag(diag), np.shape(x)[:-1] + (dim, dim))

    return MetricField(dim=dim, signature=LORENTZIAN, func=func,
                       jetfunc=lambda x: (func(x), np.zeros(
                           np.shape(x)[:-1] + (dim, dim, dim))))


def test_inner_minkowski_timelike_unit():
    g = minkowski()
    u = np.array([1.0, 0.0, 0.0])
    assert inner(g, np.zeros(3), u, u) == pytest.approx(-1.0)


def test_inner_stationary_example():
    om = CovectorField(dim=2,
                       func=lambda p: np.broadcast_to(np.array([0.3, 0.0]),
                                                      np.shape(p)))
    h = MetricField(dim=2, signature=RIEMANNIAN,
                    func=lambda p: np.broadcast_to(np.eye(2),
                                                   np.shape(p)[:-1] + (2, 2)))
    m = StationaryMetric(omega=om, base=h)
    v = np.array([1.0, 1.0, 0.0])
    assert inner(m.assembled, np.zeros(3), v, v) == pytest.approx(-0.69)


def test_christoffel_flat_vanishes():
    g = minkowski()
    gamma = christoffel(g, np.array([0.2, -0.4, 0.1]))
    assert np.abs(gamma).max() < 1e-14


def test_christoffel_conformal_disk_closed_form(rng):
    """FD Christoffel symbols of c(x)(dx^2+dy^2) against the conformal
    closed form with sigma = log(c)/2."""
    def c(p):
        p = np.asarray(p, float)
        return 1.0 + 0.3 * np.exp(-np.einsum("...i,...i->...", p, p))

    def dsigma(p):
        p = np.asarray(p, float)
        bump = 0.3 * np.exp(-np.einsum("...i,...i->...", p, p))
        dc = -2.0 * p * bump[..., None]
        return dc / (2.0 * c(p)[..., None])

    g = MetricField(dim=2, signature=RIEMANNIAN,
                    func=lambda p: c(p)[..., None, None] * np.eye(2))
    for _ in range(5):
        x = rng.uniform(-0.6, 0.6, 2)
        ds = dsigma(x)
        expected = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    expected[k, i, j] = ((i == k) * ds[j] + (j == k) * ds[i]
                                         - (i == j) * ds[k])
        assert np.abs(christoffel(g, x) - expected).max() < 1e-7


def test_geodesic_accel_flat_zero():
    g = minkowski()
    acc = geodesic_accel(g)
    a = acc(np.array([[0.0, 0.1, 0.2]]), np.array([[1.0, 0.5, -0.2]]))
    assert np.abs(a).max() < 1e-14


@pytest.mark.parametrize("lead", [(1,), (16,), (2, 4)])
def test_christoffel_contraction_against_two_einsums(lead):
    """The one-product contraction against the two-einsum form
    d_i g_lj v^i v^j - (1/2) d_l g_ij v^i v^j, per point within
    1e-14 |dg| |v|^2 (Frobenius norm of dg at that point)."""
    rng = np.random.default_rng(11)
    dg = rng.normal(size=lead + (3, 3, 3))
    dg = dg + np.swapaxes(dg, -1, -2)              # symmetric in i, j
    v = rng.normal(size=lead + (3,))
    reference = (np.einsum("...ilj,...i,...j->...l", dg, v, v)
                 - 0.5 * np.einsum("...lij,...i,...j->...l", dg, v, v))
    got = geometry.christoffel_contraction(dg, v)
    assert got.shape == lead + (3,)
    bound = (1e-14 * np.linalg.norm(dg.reshape(lead + (27,)), axis=-1)
             * np.einsum("...i,...i->...", v, v))
    assert (np.abs(got - reference).max(axis=-1) <= bound).all()


@pytest.mark.parametrize("name", ["stationary_rot", "perturbed_product"])
def test_geodesic_accel_rows_do_not_depend_on_the_batch(name):
    """Each row of a batched acceleration is bit-equal to the same row
    computed alone, checked or not."""
    acc = geodesic_accel(scenarios.build(name).metric)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-1.0, 1.0, (16, 1)),
                        rng.uniform(-0.6, 0.6, (16, 2))], axis=1)
    v = rng.normal(size=(16, 3))
    for check in (True, False):
        batch = acc(x, v, check)
        for i in range(len(x)):
            assert np.array_equal(acc(x[i:i + 1], v[i:i + 1], check)[0],
                                  batch[i])


def test_causal_classification():
    g = minkowski()
    x = np.zeros(3)
    assert causal_classify(g, x, np.array([1.0, 0.0, 0.0])).tag == "timelike"
    assert causal_classify(g, x, np.array([0.0, 1.0, 0.0])).tag == "spacelike"
    assert causal_classify(g, x, np.array([1.0, 1.0, 0.0])).tag == "lightlike"


def test_boundary_normal_product_cylinder(product_disk):
    x = np.array([0.0, 1.0, 0.0])
    nu = boundary_normal(product_disk.entry_surface, product_disk.metric, x)
    assert np.allclose(nu, [0.0, 1.0, 0.0], atol=1e-12)


def test_boundary_normal_stationary_tilts(product_disk):
    om = CovectorField(dim=2,
                       func=lambda p: np.broadcast_to(np.array([0.3, 0.0]),
                                                      np.shape(p)))
    m = StationaryMetric(omega=om, base=product_disk.magnetic.base)
    nu = boundary_normal(product_disk.entry_surface, m.assembled,
                         np.array([0.0, 1.0, 0.0]))
    assert np.allclose(nu, [-0.3, 1.0, 0.0], atol=1e-12)


def test_lightlike_completion_inward(product_disk):
    v = lightlike_completion(product_disk.metric, product_disk.entry_surface,
                             np.array([0.0, 1.0, 0.0]),
                             np.array([1.0, 0.0, 0.0]))
    assert np.allclose(v, [1.0, -1.0, 0.0], atol=1e-12)
    assert inner(product_disk.metric, np.zeros(3), v, v) == pytest.approx(
        0.0, abs=1e-12)


def test_lightlike_completion_null_projection_raises(product_disk):
    # b = 1: the projected direction is already lightlike, so the only
    # completion is tangent to the boundary and is rejected
    x = np.array([0.0, 1.0, 0.0])
    tang = np.array([0.0, 0.0, 1.0])
    with pytest.raises(NoLiftError):
        lightlike_completion(product_disk.metric,
                             product_disk.entry_surface, x,
                             np.array([1.0, 0.0, 0.0]) + tang)


def test_speed_drift_on_curved_scenario(perturbed_product):
    path = integrate_geodesic(perturbed_product.metric,
                              np.array([0.0, -0.6, 0.2]),
                              np.array([1.1, 0.9, 0.35]), stop=1.0,
                              step=1e-3)
    assert path.speed_drift(perturbed_product.metric) < 1e-10


def test_rk4_endpoint_convergence(perturbed_product):
    x0 = np.array([0.0, -0.6, 0.2])
    v0 = np.array([1.1, 0.9, 0.35])
    ends = [integrate_geodesic(perturbed_product.metric, x0, v0, stop=1.0,
                               step=h).x[-1]
            for h in (1e-2, 5e-3, 2.5e-3)]
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    assert np.log2(e1 / e2) > 3.7


def test_matrix_rejects_non_finite_values():
    g = MetricField(dim=2, signature=RIEMANNIAN,
                    func=lambda x: np.full(np.shape(x)[:-1] + (2, 2), np.nan))
    with pytest.raises(SingularMetricError, match="non-finite"):
        g.matrix(np.zeros(2))


@pytest.mark.parametrize("bad, fails", [
    (np.diag([-1.0, 1.0, 1e-11]), False),
    (np.diag([-1.0, 1.0, 1.0]) + 5e-12 * np.eye(3, k=1), True)],
    ids=["small-determinant", "asymmetry-5e-12"])
def test_matrix_check_does_not_depend_on_the_batch(bad, fails):
    """Each matrix is checked against its own scale: a matrix passes or
    fails alone as it does next to diag(-10, 10, 10)."""
    def verdict(mats):
        g = MetricField(dim=3, signature=LORENTZIAN, func=lambda x: mats,
                        jetfunc=lambda x: (mats, np.zeros(mats.shape[:1]
                                                          + (3, 3, 3))))
        try:
            g.jet(np.zeros((len(mats), 3)))
            g.matrix(np.zeros((len(mats), 3)))
        except SingularMetricError:
            return True
        return False

    assert verdict(bad[None]) is fails
    assert verdict(np.stack([bad, np.diag([-10.0, 10.0, 10.0])])) is fails


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lead", [(), (1,), (16,), (48,)])
def test_metric_solve_is_numpys_solve(rng, monkeypatch, dim, lead):
    """metric_solve gives the bits of np.linalg.solve, through the gufunc
    and through the fallback taken when numpy lacks it."""
    gm = rng.normal(size=lead + (dim, dim))
    gm = gm + gm.swapaxes(-1, -2) + 2 * dim * np.eye(dim)
    rhs = rng.normal(size=lead + (dim,))
    want = np.linalg.solve(gm, rhs[..., None])[..., 0]
    assert np.array_equal(geometry.metric_solve(gm, rhs), want)
    monkeypatch.setattr(geometry, "_solve1", None)
    assert np.array_equal(geometry.metric_solve(gm, rhs), want)


_SRC = pathlib.Path(geometry.__file__).parent
_SUBSCRIPTS = sorted({sub for f in _SRC.glob("*.py") for sub in
                      re.findall(r'einsum\(\s*"([^"]+)"', f.read_text())})


def _fields_without_c_einsum(monkeypatch):
    """A fresh copy of lorlab.fields, run while numpy's multiarray
    modules, where c_einsum lives, cannot be imported."""
    for name in ("numpy._core.multiarray", "numpy.core.multiarray"):
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location("lorlab._fields_fallback",
                                                  fields.__file__)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def _einsum_operands(rng, subscripts, n):
    """Normal operands of subscripts on a batch of n rows: "..." is (n,),
    without it the first index of the first operand is the batch, and
    every other index has length 3."""
    terms = subscripts.split("->")[0].split(",")
    batch = None if "..." in subscripts else terms[0][0]
    return [rng.normal(size=((n,) if t.startswith("...") else ()) + tuple(
        n if c == batch else 3 for c in t.replace("...", "")))
        for t in terms]


def test_every_einsum_call_goes_through_the_alias(monkeypatch):
    """No module of lorlab calls np.einsum (or any einsum but the alias
    of lorlab.fields), and the alias is numpy's C einsum unless it
    cannot be imported."""
    calls = {f.name: re.findall(r"[\w.]+\.einsum\(", f.read_text())
             for f in _SRC.glob("*.py")}
    assert not {name: c for name, c in calls.items() if c}
    assert len(_SUBSCRIPTS) > 10
    assert fields.einsum is not np.einsum
    assert _fields_without_c_einsum(monkeypatch).einsum is np.einsum


@pytest.mark.parametrize("n", [0, 1, 16])
@pytest.mark.parametrize("subscripts", _SUBSCRIPTS)
def test_einsum_alias_is_numpys_einsum(rng, monkeypatch, subscripts, n):
    """Every subscript string of lorlab gives the bytes of np.einsum,
    through c_einsum and through the fallback."""
    ops = _einsum_operands(rng, subscripts, n)
    want = np.einsum(subscripts, *ops)
    for einsum in (fields.einsum,
                   _fields_without_c_einsum(monkeypatch).einsum):
        got = einsum(subscripts, *ops)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fallback", [False, True], ids=["gufunc", "wrapper"])
def test_metric_solve_raises_on_a_singular_matrix(monkeypatch, fallback):
    """An exactly singular matrix of the batch raises SingularMetricError
    and no RuntimeWarning (which the test configuration makes an error)."""
    if fallback:
        monkeypatch.setattr(geometry, "_solve1", None)
    gm = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
    with pytest.raises(SingularMetricError, match="singular metric matrix"):
        geometry.metric_solve(gm, np.ones((2, 2)))


_GOOD = np.diag([-1.0, 1.0])


@pytest.mark.parametrize("fallback", [False, True], ids=["gufunc", "wrapper"])
@pytest.mark.parametrize("bad, message", [
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite metric values"),
    ([[-1.0, 0.0], [0.0, np.inf]], "non-finite metric values"),
    ([[np.nan, 1.0], [0.0, 0.0]], "non-finite metric values"),
    ([[1.0, 1.0], [0.0, 0.0]], "metric not symmetric"),
    ([[1.0, 1.0], [1.0, 1.0]], "metric determinant below threshold")],
    ids=["nan", "inf", "nan-asymmetric", "asymmetric-singular", "singular"])
def test_check_values_messages(monkeypatch, fallback, bad, message):
    """The first failing check of a batch names the failure, in the order
    finite values, symmetry, determinant, with the determinant from
    np.linalg.det's gufunc or from np.linalg.det."""
    if fallback:
        monkeypatch.setattr(geometry, "_det", None)
    g = MetricField(dim=2, signature=LORENTZIAN, func=lambda x: x)
    with pytest.raises(SingularMetricError, match=message):
        g._check_values(np.array([_GOOD, bad]))
    g._check_values(_GOOD)
    g._check_values(np.empty((0, 2, 2)))


def _blowing_up_flow(calls):
    """Flat Minkowski metric whose partials turn NaN for t > 0.3, so the
    geodesic state goes non-finite a few steps past t = 0.3."""
    flat = minkowski()

    def nan_partials(x):
        calls.append(1)
        x = np.asarray(x, float)
        dg = np.zeros(x.shape[:-1] + (3, 3, 3))
        dg[x[..., 0] > 0.3] = np.nan
        return dg

    return geodesic_accel(MetricField(
        dim=3, signature=LORENTZIAN, func=flat.func,
        jetfunc=lambda x: (flat.func(x), nan_partials(x))))


@pytest.mark.parametrize("march, first", [
    # flat steps grow 0.01, 0.04, 0.16, then 0.64 from sigma 0.21, which
    # takes both rays past t = 0.3; ray 0 is named first
    pytest.param("to_surface", "ray 0: state non-finite after step 4; last "
                 "finite state x = [0.105", id="to_surface"),
    # ray 1 reaches t = 0.3 first, at step 30
    pytest.param("fixed", "ray 1: state non-finite after step 30; last "
                 "finite state x = [0.29", id="fixed")])
def test_non_finite_state_stops_the_march(slab, march, first):
    """The march stops at the first step whose state is non-finite rather
    than spending the whole parameter budget (1000 steps here), naming
    the ray, the step and the last finite state."""
    calls = []
    accel = _blowing_up_flow(calls)
    x0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
    v0 = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, -1.0]])
    with pytest.raises(EscapeError) as err:
        if march == "to_surface":
            integrate_flow_to_surface(accel, x0, v0, slab.exit_surface,
                                      step=1e-2, max_sigma=10.0)
        else:
            integrate_flow_fixed(accel, x0, v0, 10.0, 1e-2)
    assert str(err.value).startswith(first)
    assert len(calls) <= 4 * 32


def _pair_march(accel, x0, v0, step, n):
    """The states (n + 1, B, 2 dim) of n fixed steps of the surface
    march's pair (geometry._dp54_step), each from the metric-checked
    derivative at the state it starts from."""
    rhs = geometry._second_order(accel)
    ys = [np.hstack([x0, v0])]
    rays = np.arange(len(ys[0]))
    for _ in range(n):
        ys.append(geometry._dp54_step(rhs, ys[-1], np.full(len(rays), step),
                                      rays, rhs(ys[-1], True))[0])
    return np.array(ys)


def test_march_without_tolerance_is_the_fixed_march(stationary_rot,
                                                   monkeypatch):
    """With MARCH_TOL = 0 no step passes the error test, so the march to
    the surface keeps every step at its floor: its samples before the
    exits are, bit for bit, those of a loop of the pair's fixed steps
    from the same states."""
    monkeypatch.setattr(geometry, "MARCH_TOL", 0.0)
    sc, step = stationary_rot, 2.0 ** -8
    xs, vs = map(np.array, zip(*scenarios.scattering_entries(sc, 4, seed=5)))
    paths = [rec.path for rec in scatter_batch(
        sc.metric, sc.entry_surface, sc.exit_surface, xs, vs, step=step,
        max_sigma=30.0, keep_paths=True)]
    n = max(len(p.sigma) for p in paths)
    ys = _pair_march(geodesic_accel(sc.metric), [p.x[0] for p in paths],
                     [p.v[0] for p in paths], step, n)
    for b, p in enumerate(paths):
        m = len(p.sigma) - 1
        assert np.array_equal(p.sigma[:-1], np.arange(m) * step)
        assert np.array_equal(p.x[:-1], ys[:m, b, :3])
        assert np.array_equal(p.v[:-1], ys[:m, b, 3:])


def test_dormand_prince_tableau():
    """The pair's stage rows sum to the published nodes c, b and b_hat sum
    to 1, and the 7th row is b (FSAL).  A mistyped weight that passes
    these shows in the observed order of the pair's fixed steps on
    perturbed_product from the start of criterion 13, at steps 0.1, 0.05
    and 0.025 over sigma 1, whose end-state differences (about 3e-11 and
    1e-12) measure truncation, far above rounding."""
    c = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    for row, ci in zip(geometry.DP54_A, c[1:]):
        assert math.fsum(row) == pytest.approx(ci, abs=1e-15)
    assert math.fsum(geometry.DP54_B) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(geometry.DP54_BHAT) == pytest.approx(1.0, abs=1e-15)
    assert geometry.DP54_A[-1] + (0.0,) == geometry.DP54_B
    accel = geodesic_accel(scenarios.build("perturbed_product").metric)
    x0, v0 = np.array([[0.0, -0.6, 0.2]]), np.array([[1.1, 0.9, 0.35]])
    ends = [_pair_march(accel, x0, v0, h, n)[-1, 0]
            for h, n in ((0.1, 10), (0.05, 20), (0.025, 40))]
    order = np.log2(np.linalg.norm(ends[0] - ends[1])
                    / np.linalg.norm(ends[1] - ends[2]))
    assert 4.8 <= order <= 5.2


def test_refined_exit_on_a_step_boundary():
    """Straight ray with v_t = 1 and step 2^-7: t = 1 is sample 128
    exactly, so the crossing lies at d = h and the exit is that sample."""
    sc = scenarios.minkowski_slab(thickness=1.0)
    (rec,) = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                           [[0.0, 0.25, 0.0]], [[0.0, 1.0, 0.0]],
                           step=2.0 ** -7, keep_paths=True)
    assert rec.travel == 1.0
    assert np.array_equal(rec.y, [1.0, 1.25, 0.0])
    assert np.array_equal(rec.path.sigma, np.arange(129) * 2.0 ** -7)


@pytest.mark.parametrize("gap", [1e-12, 1e-14])
def test_refined_exit_just_after_a_sample(gap):
    """Crossing at d = gap after sample 64 (t = 0.5) of a straight ray; a
    sample closer than 1e-13 to the exit is merged into it."""
    thickness = 0.5 + gap
    sc = scenarios.minkowski_slab(thickness=thickness)
    (rec,) = scatter_batch(sc.metric, sc.entry_surface, sc.exit_surface,
                           [[0.0, 0.25, 0.0]], [[0.0, 1.0, 0.0]],
                           step=2.0 ** -7, keep_paths=True)
    assert rec.travel == pytest.approx(thickness, abs=2e-16)
    assert np.abs(rec.y - [thickness, 0.25 + thickness, 0.0]).max() <= 2e-16
    kept = 65 if gap > 1e-13 else 64
    assert np.array_equal(rec.path.sigma[:-1], np.arange(kept) * 2.0 ** -7)


def test_refinement_failure_names_the_ray():
    """Both rays cross t = 0.5.  For ray 0 (x1 < 0) the surface value is
    t - 0.5; for ray 1 (x1 > 0) it jumps from -1 to 1 there, so the
    bracket closes on the jump with |b| = 1 and the hit is rejected."""
    def value(x):
        x = np.asarray(x, float)
        t = x[..., 0] - 0.5
        return np.where(x[..., 1] > 0.0, np.where(t < 0.0, -1.0, 1.0), t)

    jump = BoundaryHypersurface(
        value=value,
        gradient=lambda x: np.broadcast_to([1.0, 0.0, 0.0], np.shape(x)))
    x0 = np.array([[0.0, -0.2, 0.0], [0.0, 0.2, 0.0]])
    v0 = np.array([[1.0, 0.0, 0.3], [1.0, 0.0, -0.3]])
    with pytest.raises(EscapeError,
                       match=r"^ray 1: boundary hit refinement failed; "
                       r"rejected \(x, v\) = \[.*\], surface value -?1$"
                       ) as err:
        integrate_flow_to_surface(geodesic_accel(minkowski()), x0, v0, jump,
                                  step=0.03)
    assert err.value.ray == 1


def test_hermite_sampler_is_exact_on_quintics():
    """Given (p, p', p'') at unevenly spaced knots of a quintic p, the
    sampler's fit is p itself: its samples match p and p' to 1e-13
    relative, samples at the knots other than the last return the
    knot's (x, v) bit for bit, and a path of one interval samples
    without a RuntimeWarning."""
    P = np.polynomial.polynomial
    coef = np.random.default_rng(29).uniform(-1.0, 1.0, (6, 3))
    s = np.array([0.0, 0.13, 0.4, 0.47, 0.9, 1.3])
    x, v, a = (P.polyval(s, P.polyder(coef, k)).T for k in range(3))
    y, f = np.hstack([x, v]), np.hstack([v, a])
    t = np.sort(np.random.default_rng(31).uniform(0.0, 1.3, 400))
    for k, got in enumerate(geometry._hermite(s, y, f, t)):
        want = P.polyval(t, P.polyder(coef, k))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    xk, vk = geometry._hermite(s, y, f, s[:-1])
    assert np.array_equal(xk.T, x[:-1]) and np.array_equal(vk.T, v[:-1])
    t = np.linspace(s[1], s[2], 9)[:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x1, _ = geometry._hermite(s[1:3], y[1:3], f[1:3], t)
    assert np.abs(x1 - P.polyval(t, coef)).max() <= 1e-13


def test_a_crossing_counts_after_the_ray_was_inside(product_disk):
    """A straight ray from (t, x) = (0, 1.5, 0) along (1, -1, 0) starts
    outside the unit cylinder: it enters at sigma 0.5 and stops where it
    leaves, at sigma 2.5."""
    ((sigma, x, v),) = integrate_flow_to_surface(
        geodesic_accel(minkowski()), [[0.0, 1.5, 0.0]], [[1.0, -1.0, 0.0]],
        product_disk.entry_surface, step=1e-2)
    assert sigma[-1] == pytest.approx(2.5, abs=1e-12)
    assert np.abs(x[-1] - [2.5, -1.0, 0.0]).max() <= 1e-12


def test_geodesic_march_is_fourth_order():
    """Observed order of integrate_geodesic on perturbed_product from the
    start of criterion 13 at the first three steps of its ladder.  The
    end-point differences (about 6e-10 and 4e-11) measure truncation;
    this checks the order from above too."""
    g = scenarios.build("perturbed_product").metric
    x0 = np.array([0.0, -0.6, 0.2])
    v0 = np.array([1.1, 0.9, 0.35])
    ends = [integrate_geodesic(g, x0, v0, stop=1.0, step=h).x[-1]
            for h in (4e-2, 2e-2, 1e-2)]
    order = np.log2(np.linalg.norm(ends[0] - ends[1])
                    / np.linalg.norm(ends[1] - ends[2]))
    assert 3.8 <= order <= 4.2


def _jet_metrics():
    """Every scenario metric, every magnetic base, and a conformal
    multiple."""
    out = []
    for name in scenarios.available():
        sc = scenarios.build(name)
        out.append(pytest.param(sc.metric, id=name))
        if sc.magnetic is not None:
            out.append(pytest.param(sc.magnetic.base, id=f"{name}.base"))
    out.append(pytest.param(scale_metric(
        scenarios.build("product_disk").metric, scenarios.conformal_bump()),
        id="scaled-product_disk"))
    return out


@pytest.mark.parametrize("metric", _jet_metrics())
def test_jet_matches_matrix_and_partials(metric):
    """The jet's values are matrix's, bit for bit, and its partials agree
    with central differences of the metric's own func."""
    rng = np.random.default_rng(47)
    for x in (rng.uniform(-0.5, 0.5, (5, metric.dim)),
              rng.uniform(-0.5, 0.5, metric.dim)):
        gm, dg = metric.jet(x)
        assert np.array_equal(gm, metric.matrix(x))
        fd_dg = _central_jet(metric.func, x, (metric.dim, metric.dim))[1]
        assert np.abs(dg - fd_dg).max() <= 1e-8
        assert dg.shape == x.shape[:-1] + (metric.dim,) * 3


def test_jet_without_partials_evaluates_the_metric_once(stationary_rot):
    """A gauged base has no analytic partials: its jet calls func once,
    on the point stacked with the central-difference stencil, and agrees
    with matrix and with the central differences of two calls."""
    gauged = apply_gauge(stationary_rot.magnetic,
                         scenarios.rotation_bump_pair(0.15)).base
    calls = []

    def func(p):
        calls.append(np.shape(p))
        return gauged.func(p)

    g = MetricField(dim=2, signature=RIEMANNIAN, func=func)
    x = np.random.default_rng(53).uniform(-0.6, 0.6, (5, 2))
    gm, dg = g.jet(x)
    assert calls == [(5, 5, 2)]
    assert np.array_equal(gm, gauged.matrix(x))
    assert np.abs(dg - _central_diff(gauged.func, x, (2, 2))).max() <= 1e-10


def _failing_metric(kind):
    """Euclidean plane metric that fails the named check on x0 > 0.4."""
    bad = {"non-finite": np.full((2, 2), np.nan),
           "asymmetric": np.array([[1.0, 0.5], [0.0, 1.0]]),
           "vanishing-determinant": np.diag([1.0, 0.0])}.get(kind)

    def func(x):
        x = np.asarray(x, float)
        g = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        if bad is not None:
            g[x[..., 0] > 0.4] = bad
        return g

    return MetricField(
        dim=2, signature=RIEMANNIAN, func=func,
        jetfunc=lambda x: (func(x), np.zeros(np.shape(x)[:-1] + (2, 2, 2))),
        domain=(lambda x: np.asarray(x)[..., 0] < 0.4) if kind == "chart"
        else None)


@pytest.mark.parametrize("kind", ["non-finite", "asymmetric",
                                  "vanishing-determinant", "chart"])
def test_jet_fails_as_matrix_does(kind):
    """The checked jet raises what matrix raises; the unchecked jet keeps
    only the chart-domain check."""
    g = _failing_metric(kind)
    x = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(LorlabError) as expected:
        g.matrix(x)
    with pytest.raises(type(expected.value), match=re.escape(
            str(expected.value))):
        g.jet(x)
    if kind == "chart":
        with pytest.raises(ChartDomainError):
            g.jet(x, check=False)
    else:
        gm, _ = g.jet(x, check=False)
        assert np.array_equal(gm, g.func(x), equal_nan=True)
