from dataclasses import replace

import numpy as np
import pytest

from lorlab import (LORENTZIAN, EscapeError, GaugePair, MagneticSystem,
                    MetricField, PreconditionError, apply_gauge,
                    compose_gauge, from_raw, hamiltonian_flow,
                    integrate_geodesic, pullback_metric, scale_metric)
from lorlab import fields, gauge, geometry, scenarios
from lorlab.fields import CovectorField, ScalarField
from lorlab.gauge import (conformal_reparam_check, magnetic_invariance,
                          scattering_invariance)


def grid(rng, n=40, lim=0.7):
    return rng.uniform(-lim, lim, (n, 2))


def test_jacobian_analytic_matches_fd(rng):
    pair = scenarios.rotation_bump_pair(0.15)
    fd_pair = GaugePair(dim=2, psi=pair.psi, psi_inv=pair.psi_inv,
                        phi=pair.phi)
    pts = grid(rng)
    assert np.abs(pair.jacobian(pts) - fd_pair.jacobian(pts)).max() < 1e-9


def test_inverse_round_trip(rng):
    pair = scenarios.rotation_bump_pair(0.15)
    pts = grid(rng)
    assert np.abs(pair.psi_inv(pair.psi(pts)) - pts).max() < 1e-12


def test_apply_gauge_pullback_property(stationary_rot, rng):
    mag = stationary_rot.magnetic
    pair = scenarios.rotation_bump_pair(0.1)
    gauged = apply_gauge(mag, pair)
    pts = grid(rng, n=10)
    J = pair.jacobian(pts)
    h_at = mag.base.matrix(pair.psi(pts))
    expected = np.einsum("...ki,...kl,...lj->...ij", J, h_at, J)
    assert np.abs(gauged.base.matrix(pts) - expected).max() < 1e-12


def test_compose_matches_sequential_application(stationary_rot, rng):
    mag = stationary_rot.magnetic
    p1 = scenarios.rotation_bump_pair(0.1)
    p2 = scenarios.time_shift_pair(0.05)
    composed = apply_gauge(mag, compose_gauge(p1, p2))
    sequential = apply_gauge(apply_gauge(mag, p1), p2)
    pts = grid(rng, n=20)
    assert np.abs(composed.base.matrix(pts)
                  - sequential.base.matrix(pts)).max() < 1e-10
    assert np.abs(composed.omega(pts) - sequential.omega(pts)).max() < 1e-10


def test_compose_two_time_shifts(rng):
    p1 = scenarios.time_shift_pair(0.05)
    p2 = scenarios.time_shift_pair(0.02)
    comp = compose_gauge(p1, p2)
    pts = grid(rng)
    assert np.abs(comp.phi(pts) - (p1.phi(pts) + p2.phi(pts))).max() < 1e-12
    assert np.abs(comp.psi(pts) - pts).max() < 1e-12


def test_compose_with_inverse_is_identity(rng):
    p = scenarios.rotation_bump_pair(0.12)
    inv = GaugePair(dim=2, psi=p.psi_inv, psi_inv=p.psi,
                    phi=ScalarField.constant(0.0))
    comp = compose_gauge(p, inv)
    pts = grid(rng)
    assert np.abs(comp.psi(pts) - pts).max() < 1e-8
    assert np.abs(comp.phi(pts)).max() < 1e-12


def test_compose_associative(rng):
    p1 = scenarios.rotation_bump_pair(0.08)
    p2 = scenarios.time_shift_pair(0.03)
    p3 = scenarios.rotation_bump_pair(0.05)
    left = compose_gauge(compose_gauge(p1, p2), p3)
    right = compose_gauge(p1, compose_gauge(p2, p3))
    pts = grid(rng)
    assert np.abs(left.psi(pts) - right.psi(pts)).max() < 1e-8
    assert np.abs(left.phi(pts) - right.phi(pts)).max() < 1e-8


def test_identity_is_neutral(stationary_rot, rng):
    mag = stationary_rot.magnetic
    gauged = apply_gauge(mag, GaugePair.identity(2))
    pts = grid(rng, n=10)
    assert np.abs(gauged.base.matrix(pts) - mag.base.matrix(pts)).max() < 1e-12
    assert np.abs(gauged.omega(pts) - mag.omega(pts)).max() < 1e-12


def test_pullback_metric_flat_rotation(product_disk, rng):
    pair = scenarios.rotation_bump_pair(0.1)
    pulled = pullback_metric(product_disk.magnetic.base, pair.psi,
                             jac=pair.jacobian)
    pts = grid(rng, n=10)
    J = pair.jacobian(pts)
    expected = np.einsum("...ki,...kj->...ij", J, J)
    assert np.abs(pulled.matrix(pts) - expected).max() < 1e-12


def _without_jac(pair):
    return GaugePair(dim=pair.dim, psi=pair.psi, psi_inv=pair.psi_inv,
                     phi=pair.phi)


def _gauged_assembled(sc, pair):
    mag = apply_gauge(sc.magnetic, pair)
    return replace(sc.stationary, omega=mag.omega, base=mag.base).assembled


def _from_raw_rebuilt(sc):
    lam, m = from_raw(sc.metric)
    return scale_metric(m.assembled, scenarios.spacetime_field(lam))


@pytest.mark.parametrize("build", [
    _from_raw_rebuilt,
    lambda sc: scale_metric(sc.metric, ScalarField(
        func=scenarios.spacetime_field(scenarios.conformal_bump(0.1)).func)),
    lambda sc: _gauged_assembled(sc, scenarios.rotation_bump_pair(0.15))],
    ids=["from_raw", "scale_metric", "apply_gauge"])
def test_builders_differentiate_through_parts(stationary_rot, build):
    """A derived metric with a part that has no analytic derivative
    still takes its partials through its parts, the differenced part by
    its own accessor: they agree with central differences of the whole
    metric to the differencing error, and its jet's values are its
    func's, bit for bit."""
    g = build(stationary_rot)
    assert g.jetfunc is not None
    rng = np.random.default_rng(21)
    pts = np.hstack([rng.uniform(-1.0, 1.0, (20, 1)), grid(rng, n=20)])
    gm, dg = g.jet(pts)
    fd = fields._central_jet(g.func, pts, (3, 3))[1]
    assert np.array_equal(gm, g.func(pts))
    assert np.abs(dg - fd).max() <= 1e-8 * np.abs(fd).max()


def test_composed_jacobian_is_the_chain_rule():
    """compose_gauge multiplies its parts' Jacobians, differencing only
    the part without jac.  (A metric pulled back by a differenced
    Jacobian would be differenced twice, to a noise of about 1e-6.)"""
    p1 = _without_jac(scenarios.rotation_bump_pair(0.15))
    p2 = scenarios.rotation_bump_pair(0.1)
    comp = compose_gauge(p1, p2)
    pts = grid(np.random.default_rng(22))
    fd = np.swapaxes(fields._central_jet(comp.psi, pts, (2,))[1], -1, -2)
    assert comp.jac is not None
    assert np.abs(comp.jacobian(pts) - fd).max() <= 1e-8 * np.abs(fd).max()


def test_hamiltonian_flow_matches_geodesic(perturbed_product):
    g = perturbed_product.metric
    x0 = np.array([0.0, -0.4, 0.1])
    gm = g.matrix(x0)
    vx = np.array([0.6, 0.5])
    v0 = np.concatenate([[np.sqrt(gm[1, 1] * (vx @ vx))], vx])
    xi0 = gm @ v0
    flow = hamiltonian_flow(g, x0, xi0, sigma_max=1.0, step=1e-3)
    path = integrate_geodesic(g, x0, v0, stop=1.0, step=1e-3)
    assert np.abs(flow.x[-1] - path.x[-1]).max() < 1e-8
    raised = np.linalg.solve(g.matrix(flow.x[-1]), flow.xi[-1])
    assert np.abs(raised - path.v[-1]).max() < 1e-8


def test_hamiltonian_constant_factor_halves_parameter(perturbed_product):
    g = perturbed_product.metric
    x0 = np.array([0.0, -0.4, 0.1])
    gm = g.matrix(x0)
    vx = np.array([0.6, 0.5])
    v0 = np.concatenate([[np.sqrt(gm[1, 1] * (vx @ vx))], vx])
    xi0 = gm @ v0
    base = hamiltonian_flow(g, x0, xi0, sigma_max=0.5, step=1e-3)
    scaled = hamiltonian_flow(g, x0, xi0, sigma_max=1.0,
                              c=ScalarField.constant(2.0), step=1e-3)
    assert np.abs(scaled.x[-1] - base.x[-1]).max() < 1e-8
    assert np.abs(scaled.xi[-1] - base.xi[-1]).max() < 1e-8


def test_hamiltonian_path_derivatives_on_constant_metric(product_disk):
    """With g = diag(-1, 1, 1) and c = 4: x' = g^-1 xi / 4 and xi' = 0
    at every sample."""
    g = product_disk.metric
    x0 = np.array([0.0, -0.4, 0.1])
    xi0 = g.matrix(x0) @ np.array([1.0, 0.6, 0.8])
    flow = hamiltonian_flow(g, x0, xi0, sigma_max=0.5,
                            c=ScalarField.constant(4.0), step=1e-2)
    assert flow.xdot.shape == flow.xidot.shape == flow.x.shape == (51, 3)
    want = np.linalg.solve(g.matrix(flow.x), flow.xi[..., None])[..., 0] / 4
    assert np.abs(flow.xdot - want).max() < 1e-15
    assert np.abs(flow.xidot).max() == 0.0


def test_hamiltonian_scaled_requires_null_shell(perturbed_product):
    g = perturbed_product.metric
    x0 = np.array([0.0, -0.4, 0.1])
    xi0 = g.matrix(x0) @ np.array([1.0, 0.0, 0.0])   # timelike
    with pytest.raises(PreconditionError):
        hamiltonian_flow(g, x0, xi0, sigma_max=0.5,
                         c=ScalarField.constant(2.0))


def test_reparam_alpha_monotone(product_disk):
    x0 = np.array([0.0, -0.5, 0.1])
    xi0 = product_disk.metric.matrix(x0) @ np.array([1.0, 0.8, 0.6])

    def cg(x):
        xs = np.asarray(x, float)[..., 1:]
        return 1.0 + 0.3 * np.exp(-np.einsum("...i,...i->...", xs, xs))

    rep = conformal_reparam_check(product_disk.metric,
                                  ScalarField(func=cg, positive=True), x0,
                                  xi0, sigma_max=0.6)
    assert rep.max_deviation < 1e-6
    assert (np.diff(rep.alpha) > 0).all()


def test_reparam_constant_rate(product_disk):
    x0 = np.array([0.0, -0.5, 0.1])
    xi0 = product_disk.metric.matrix(x0) @ np.array([1.0, 0.8, 0.6])
    rep = conformal_reparam_check(product_disk.metric,
                                  ScalarField.constant(4.0), x0, xi0,
                                  sigma_max=0.6)
    assert np.abs(rep.alpha - rep.s / 4.0).max() < 1e-9


def test_reparam_marches_two_flows(product_disk, monkeypatch):
    """The unscaled and the scaled flow are the only marches: the
    parameter change is a quadrature along the first."""
    marches = []

    def counted(*args, **kwargs):
        marches.append(args[2])
        return geometry._march_fixed(*args, **kwargs)

    monkeypatch.setattr(gauge, "_march_fixed", counted)
    x0, xi0 = scenarios.reparam_start(product_disk)
    conformal_reparam_check(product_disk.metric, scenarios.gaussian_factor(),
                            x0, xi0, sigma_max=0.6)
    assert len(marches) == 2 and marches[0] == 0.6


def test_reparam_closed_form_parameter_change(product_disk):
    """On the straight null line x = x0 + sigma (1, 0.8, 0.6) of
    g = diag(-1, 1, 1), c = 1 + 0.2 x_1 = 0.9 + 0.16 sigma, so
    s(sigma) = 0.9 sigma + 0.08 sigma^2 and alpha(s) is its inverse."""
    x0 = np.array([0.0, -0.5, 0.1])
    xi0 = product_disk.metric.matrix(x0) @ np.array([1.0, 0.8, 0.6])
    c = ScalarField(func=lambda x: 1.0 + 0.2 * np.asarray(x)[..., 1],
                    grad=lambda x: np.broadcast_to([0.0, 0.2, 0.0],
                                                   np.shape(x)))
    rep = conformal_reparam_check(product_disk.metric, c, x0, xi0,
                                  sigma_max=0.6)
    alpha = (-0.9 + np.sqrt(0.81 + 0.32 * rep.s)) / 0.16
    assert np.abs(rep.alpha - alpha).max() <= 1e-13
    assert rep.max_deviation <= 1e-13
    with pytest.raises(PreconditionError, match="sample 1 "):
        conformal_reparam_check(product_disk.metric,
                                ScalarField.constant(-1.0), x0, xi0,
                                sigma_max=0.6)


def test_scale_metric_matches_manual(product_disk, rng):
    c = scenarios.conformal_bump(0.2)

    def cfull(x):
        return c(np.asarray(x, float)[..., 1:])

    def cgrad(x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        out[..., 1:] = c.gradient(x[..., 1:])
        return out

    scaled = scale_metric(product_disk.metric,
                          ScalarField(func=cfull, grad=cgrad, positive=True))
    pts = np.concatenate([rng.uniform(-0.3, 0.3, (10, 1)),
                          grid(rng, n=10, lim=0.6)], axis=1)
    expected = cfull(pts)[..., None, None] * product_disk.metric.matrix(pts)
    assert np.abs(scaled.matrix(pts) - expected).max() < 1e-13


def test_invariance_of_identical_metrics(product_disk):
    entries = scenarios.scattering_entries(product_disk, 5, seed=21)
    dev = scattering_invariance(product_disk.metric, product_disk.metric,
                                product_disk.entry_surface,
                                product_disk.exit_surface, entries)
    assert dev < 1e-12


def test_non_finite_hamiltonian_state_stops_the_flow():
    """Flat Minkowski metric whose partials turn NaN for t > 0.3.  The
    flow x' = (1, 1, 0) reaches t = 0.3 in step 30 and must stop there,
    naming the ray, the step and the last finite (x, xi), instead of
    returning NaN samples."""
    flat = scenarios.constant_metric(3, [-1.0, 1.0, 1.0], LORENTZIAN)

    def nan_partials(x):
        dg = np.zeros(np.shape(x)[:-1] + (3, 3, 3))
        dg[np.asarray(x)[..., 0] > 0.3] = np.nan
        return dg

    g = MetricField(dim=3, signature=LORENTZIAN, func=flat.func,
                    jetfunc=lambda x: (flat.func(x), nan_partials(x)))
    with pytest.raises(EscapeError) as err:
        hamiltonian_flow(g, np.array([0.0, 0.1, 0.0]),
                         np.array([-1.0, 1.0, 0.0]), sigma_max=1.0,
                         step=1e-2)
    assert err.value.ray == 0
    assert str(err.value).startswith(
        "ray 0: state non-finite after step 30; last finite state "
        "x = [0.29")
    assert "xi = [-1.0, 1.0, 0.0]" in str(err.value)


def test_scaled_hamiltonian_flow_is_fourth_order(perturbed_product):
    """Observed order of the scaled flow of criterion 01 over sigma 0.96
    at steps 4e-2, 2e-2 and 1e-2, where the end-state differences (about
    1e-9 and 8e-11) measure truncation, far above rounding."""
    g = perturbed_product.metric
    x0 = np.array([0.0, -0.4, 0.1])
    gm = g.matrix(x0)
    vx = np.array([0.6, 0.5])
    xi0 = gm @ np.concatenate([[np.sqrt(gm[1, 1] * (vx @ vx))], vx])
    ends = []
    for h in (4e-2, 2e-2, 1e-2):
        flow = hamiltonian_flow(g, x0, xi0, sigma_max=0.96,
                                c=scenarios.conformal_bump(0.3), step=h)
        ends.append(np.concatenate([flow.x[-1], flow.xi[-1]]))
    order = np.log2(np.linalg.norm(ends[0] - ends[1])
                    / np.linalg.norm(ends[1] - ends[2]))
    assert 3.8 <= order <= 4.2


def test_invariance_detects_a_non_gauge_change(product_disk):
    """Negative control: stretching space by 5% is no gauge change, so
    the scattering data must move well above the 1e-6 gate."""
    entries = scenarios.scattering_entries(product_disk, 4, seed=37)
    dev = scattering_invariance(product_disk.metric,
                                scenarios.stretch_family().eval(0.05),
                                product_disk.entry_surface,
                                product_disk.exit_surface, entries)
    assert dev > 1e-3


@pytest.mark.parametrize("pair", [scenarios.time_shift_pair(0.05),
                                  scenarios.rotation_bump_pair(0.15)],
                         ids=["time-shift", "diffeomorphism"])
def test_magnetic_invariance_under_gauge(stationary_rot, pair):
    mag = stationary_rot.magnetic
    entries = scenarios.magnetic_entries(stationary_rot, 3, seed=29)
    dev = magnetic_invariance(mag, apply_gauge(mag, pair),
                              stationary_rot.spatial_boundary, entries)
    assert dev <= 1e-6


def test_magnetic_invariance_detects_a_non_exact_change(stationary_rot):
    """Negative control: omega + 0.05 x dy differs by a one-form that is
    not closed, so the magnetic boundary data must move."""
    mag = stationary_rot.magnetic
    om = mag.omega
    bent = MagneticSystem(mag.base, CovectorField(
        dim=2, func=lambda p: om(p) + 0.05 * np.asarray(p)[..., :1] * [0, 1],
        jac=lambda p: om.jacobian(p) + [[0.0, 0.05], [0.0, 0.0]]))
    entries = scenarios.magnetic_entries(stationary_rot, 3, seed=29)
    dev = magnetic_invariance(mag, bent, stationary_rot.spatial_boundary,
                              entries)
    assert dev > 1e-3


def test_hamiltonian_flow_solves_once_per_stage(perturbed_product,
                                                monkeypatch):
    """Each right-hand side evaluation, one metric jet, solves g once;
    the derivatives at the samples are one batched evaluation."""
    g0 = perturbed_product.metric
    jets, solves = [], []

    def counted_jet(x):
        jets.append(len(x))
        return g0.jetfunc(x)

    def counted_solve(gm, rhs):
        solves.append(len(rhs))
        return geometry.metric_solve(gm, rhs)

    monkeypatch.setattr(gauge, "metric_solve", counted_solve)
    g = MetricField(dim=3, signature=LORENTZIAN, func=g0.func,
                    jetfunc=counted_jet)
    x0 = np.array([0.0, -0.4, 0.1])
    xi0 = g0.matrix(x0) @ np.array([1.0, 0.3, 0.2])
    flow = hamiltonian_flow(g, x0, xi0, sigma_max=0.05, step=1e-2)
    assert len(flow.sigma) == 6
    # one jet and one solve per RK4 stage, then one over the 6 samples
    assert solves == jets == [1] * 20 + [6]


def two_call_quotient(func, x, value_shape):
    """Central quotient from one call of func on the +h stencil and one on
    the -h stencil: the reference for the stacked call."""
    h = fields.fd_step(x)[..., None, None] * np.eye(x.shape[-1])
    fp = np.asarray(func(x[..., None, :] + h))
    fm = np.asarray(func(x[..., None, :] - h))
    return (fp - fm) / (2.0 * fields.fd_step(x)).reshape(
        x.shape[:-1] + (1,) * (1 + len(value_shape)))


@pytest.mark.parametrize("kind", ["covector", "scalar", "metric"])
def test_central_differences_call_the_field_once(kind, rng):
    """Without analytic derivatives a field is called once, on the +h
    and -h stencils stacked, with the values of one call on each."""
    calls = []

    def f(p):
        calls.append(np.shape(p))
        s = np.sin(p) * np.exp(-np.einsum("...i,...i->...", p, p))[..., None]
        return {"covector": s, "scalar": s[..., 0],
                "metric": 2.0 * np.eye(2) + s[..., :, None] * s[..., None, :]
                }[kind]

    x = rng.uniform(-0.7, 0.7, (5, 2))
    if kind == "covector":
        d, shape = CovectorField(dim=2, func=f).jacobian(x), (2,)
    elif kind == "scalar":
        d, shape = ScalarField(func=f).gradient(x), ()
    else:
        d, shape = MetricField(dim=2, signature="riemannian",
                               func=f).jet(x)[1], (2, 2)
    # a metric's jet stacks x itself in front of the stencil
    assert calls == [(5, 5 if kind == "metric" else 4, 2)]
    assert np.array_equal(d, two_call_quotient(f, x, shape))


def test_gauged_two_form_calls_the_one_form_once(stationary_rot, rng):
    """The gauged one-form has no analytic Jacobian: its two-form takes
    one call of it, with the values of one call on each stencil."""
    gauged = apply_gauge(stationary_rot.magnetic,
                         scenarios.rotation_bump_pair(0.15)).omega
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return gauged.func(p)

    x = rng.uniform(-0.7, 0.7, (4, 2))
    A = MagneticSystem(stationary_rot.magnetic.base,
                       CovectorField(dim=2, func=counted)).two_form(x)
    assert calls == [(4, 4, 2)]
    J = two_call_quotient(gauged.func, x, (2,))
    assert np.array_equal(A, J - np.swapaxes(J, -1, -2))
