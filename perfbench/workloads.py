"""The three benchmark workloads: seed-drawn inputs, closed-form oracles,
the public lorlab calls that are timed, and the checks of their outputs.

Inputs are plain numpy arrays drawn here from ``--seed``; the program
under test only ever sees those arrays.  Every check compares an output
with closed-form truth where the scenario has one (circles of radius 1/B
on ``stationary_rot``, ``r = (rho^2 - s^2) / 2`` on ``product_disk``) and
otherwise with the identity the call itself checks, always at the
tolerance of the acceptance criterion that exercises the same call path.
A check returns the worst ratio of error to tolerance; above 1 is a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import lorlab
from lorlab import scenarios

B_ROT = 0.2           # field of stationary_rot; rays curve with radius 1/B
SCATTER_STEP = 1e-3
MAX_SIGMA = 30.0
SHOOT_STEPS = 400
SHOOT_TOL = 1e-12
IDENTITY_STEPS = 200  # n_steps of criteria 03 and 08
REPARAM_SIGMA = 0.6   # sigma_max of criterion 11

# Tolerances, each taken from the acceptance criterion on the same path.
TOL_EXIT = 1e-6          # exit data, criteria 07 and 10
TOL_LRT_REL = 1e-8       # light ray transform, criterion 05
TOL_ENDPOINT = 1e-8      # connector endpoint miss, CLI `connect`
TOL_R_REL = 1e-8         # closed-form r, criterion 02
R_SOLID = 1e-3           # |r| below which criterion 02 measures absolute error
TOL_MICHEL = 1e-5        # criteria 03 and 08
TOL_TIME_COMPONENT = 1e-8  # criterion 07
TOL_REPARAM = 1e-6       # criterion 11, gaussian factor


def _errors(**ratios: float) -> float:
    """Worst error/tolerance ratio; NaN counts as a miss."""
    vals = np.array(list(ratios.values()), float)
    return float("inf") if np.any(~np.isfinite(vals)) else float(vals.max())


# ---------------------------------------------------------------------------
# closed-form lightlike rays on stationary_rot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotRay:
    """A cylinder entry of stationary_rot with its exact exit data.

    For ``-(dt + omega)^2 + |dx|^2`` with ``d omega = B dx^dy`` the spatial
    projection of a lightlike geodesic with charge ``k = t' + omega(x')``
    is a counter-clockwise circle of radius ``1/B`` traversed at speed
    ``k``, and ``t`` grows by ``length - flux of omega``.
    """

    x: np.ndarray        # entry (t, cos th, sin th)
    v_proj: np.ndarray   # projected entry (1, b * tangent)
    k: float             # charge, reduced time component of v_proj
    exit_x: np.ndarray   # spatial exit point on the unit circle
    exit_t: float        # exit time
    length: float        # spatial arc length
    travel: float        # affine exit parameter for v_proj as given


def rot_rays(rng: np.random.Generator, n: int) -> list[RotRay]:
    """n entries from the ``scenarios.scattering_entries`` distribution."""
    th = rng.uniform(0.0, 2 * np.pi, n)
    t = rng.uniform(-0.5, 0.5, n)
    b = rng.uniform(-0.75, 0.75, n)
    R = 1.0 / B_ROT
    out = []
    for thi, ti, bi in zip(th, t, b):
        p = np.array([np.cos(thi), np.sin(thi)])
        tang = np.array([-p[1], p[0]])
        # dt-component one and no normal part: already tangent to the
        # cylinder in this metric (its normal has no time component).
        v_proj = np.concatenate([[1.0], bi * tang])
        k = 1.0 + 0.5 * B_ROT * bi         # omega(tang) = B/2 on r = 1
        u = bi * tang - np.sqrt(k * k - bi * bi) * p  # inward completion
        uhat = u / k
        c = p + R * np.array([-uhat[1], uhat[0]])   # centre, left of motion
        gamma = np.arctan2(c[1], c[0])
        cn = np.linalg.norm(c)
        half = np.arccos((1.0 - cn * cn - R * R) / (2.0 * R * cn))
        phi0 = np.arctan2(p[1] - c[1], p[0] - c[0])
        # the circle meets the unit circle at gamma +- half; one is the entry
        cand = [gamma + half, gamma - half]
        gaps = [(ph - phi0) % (2 * np.pi) for ph in cand]
        # the entry candidate sits at a gap of 0 or 2 pi up to rounding
        dphi = max(gaps, key=lambda g: min(g, 2 * np.pi - g))
        phi1 = phi0 + dphi
        q = c + R * np.array([np.cos(phi1), np.sin(phi1)])
        flux = 0.5 * B_ROT * (R * R * dphi
                              + R * (c[0] * (np.sin(phi1) - np.sin(phi0))
                                     - c[1] * (np.cos(phi1) - np.cos(phi0))))
        length = R * dphi
        out.append(RotRay(x=np.array([ti, p[0], p[1]]), v_proj=v_proj, k=k,
                          exit_x=q, exit_t=ti + length - flux, length=length,
                          travel=length / k))
    return out


def _gauss(x):
    xs = np.asarray(x, float)[..., 1:]
    return np.exp(-np.einsum("...i,...i->...", xs, xs))


def lrt_tensor(metric: lorlab.MetricField) -> lorlab.SymTwoTensorField:
    """Fixed smooth tensor ``|dx|^2 + exp(-|x|^2) g``.  Along a lightlike
    ray of charge k the second term vanishes and the first integrates to
    ``k * length``."""
    spatial = np.diag([0.0, 1.0, 1.0])

    def func(x):
        x = np.asarray(x, float)
        return spatial + _gauss(x)[..., None, None] * np.asarray(
            metric.func(x), float)

    return lorlab.SymTwoTensorField(dim=3, func=func)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """A closed-loop workload: ``inputs[i]`` is passed to ``call``; the
    output is checked by ``check`` and flattened by ``digest`` for the
    bit-identity comparison of traced and untraced runs."""

    name: str
    inputs: list
    items_per_call: int
    call: Callable
    check: Callable            # (inp, out) -> worst error/tolerance ratio
    digest: Callable           # out -> list of arrays
    calls_per_cycle: int = 1   # runs end on a whole cycle of call kinds


def scatter_grid(seed: int, batch: int = 16, n_inputs: int = 24) -> Workload:
    """One 16-ray ``scatter_batch`` on stationary_rot, then the light ray
    transform of one fixed tensor along each path (criteria 01, 05, 10)."""
    sc = scenarios.build("stationary_rot", B=B_ROT)
    f = lrt_tensor(sc.metric)
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(n_inputs):
        rays = rot_rays(rng, batch)
        inputs.append({"xs": np.array([r.x for r in rays]),
                       "vs": np.array([r.v_proj for r in rays]),
                       "rays": rays})

    def call(inp):
        recs = lorlab.scatter_batch(sc.metric, sc.entry_surface,
                                    sc.exit_surface, inp["xs"], inp["vs"],
                                    step=SCATTER_STEP, max_sigma=MAX_SIGMA,
                                    keep_paths=True)
        lrts = [lorlab.light_ray_transform(f, r.path) for r in recs]
        return recs, np.array(lrts)

    def check(inp, out):
        recs, lrts = out
        worst = 0.0
        for ray, rec, lrt in zip(inp["rays"], recs, lrts):
            worst = max(worst, _errors(
                exit_x=np.linalg.norm(rec.y[1:] - ray.exit_x) / TOL_EXIT,
                exit_t=abs(rec.y[0] - ray.exit_t) / TOL_EXIT,
                travel=abs(rec.travel - ray.travel) / TOL_EXIT,
                lrt=abs(lrt - ray.k * ray.length)
                / (TOL_LRT_REL * ray.k * ray.length)))
        return worst

    def digest(out):
        recs, lrts = out
        return [lrts] + [a for r in recs
                         for a in (r.y, r.w_proj, r.path.x, r.path.v)]

    return Workload("scatter-grid", inputs, batch, call, check, digest)


def disk_pairs(rng: np.random.Generator, n: int):
    """Boundary pairs of the CLI ``connect`` distribution: a spatial chord
    rho in [1.18, 2] against a time gap s in [0.3, 2.5], so a mix of
    timelike and spacelike pairs, some close to lightlike."""
    th1 = rng.uniform(0.0, 2 * np.pi, n)
    th2 = th1 + rng.uniform(0.4 * np.pi, 1.6 * np.pi, n)
    s = rng.uniform(0.3, 2.5, n)
    xs = np.stack([np.zeros(n), np.cos(th1), np.sin(th1)], axis=1)
    ys = np.stack([s, np.cos(th2), np.sin(th2)], axis=1)
    return xs, ys


def shoot_pairs(seed: int, batch: int = 16, n_inputs: int = 24) -> Workload:
    """16 pairs by Newton shooting on perturbed_product, then the same
    pairs on product_disk where r is exact (criterion 02)."""
    pp = scenarios.build("perturbed_product")
    pd = scenarios.build("product_disk")
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(n_inputs):
        xs, ys = disk_pairs(rng, batch)
        rho2 = np.sum((ys[:, 1:] - xs[:, 1:]) ** 2, axis=1)
        inputs.append({"xs": xs, "ys": ys,
                       "r_exact": 0.5 * (rho2 - (ys[:, 0] - xs[:, 0]) ** 2)})

    def call(inp):
        return [lorlab.connecting_geodesics_batch(
            sc.metric, inp["xs"], inp["ys"], n_steps=SHOOT_STEPS,
            tol=SHOOT_TOL) for sc in (pp, pd)]

    def check(inp, out):
        curved, flat = out
        miss = max(float(np.linalg.norm(c.path.x[-1] - c.y))
                   for c in curved + flat)
        r = np.array([c.energy for c in flat])
        r_err = np.abs(r - inp["r_exact"]) / np.maximum(
            np.abs(inp["r_exact"]), R_SOLID)
        return _errors(endpoint=miss / TOL_ENDPOINT,
                       r=float(r_err.max()) / TOL_R_REL)

    def digest(out):
        return [a for conns in out for c in conns
                for a in (c.path.x, c.path.v, np.array([c.energy]))]

    return Workload("shoot-pairs", inputs, batch, call, check, digest)


def identity_checks(seed: int, n_inputs: int = 12) -> Workload:
    """The paper's identities one pair at a time, as the criteria call
    them: michel_check, thmmag_verify and magnetic_michel on a
    stationary_rot entry, then conformal_reparam_check on product_disk
    (criteria 03, 07, 08, 11)."""
    sr = scenarios.build("stationary_rot", B=B_ROT)
    pd = scenarios.build("product_disk")
    c_gauss = lorlab.ScalarField(
        func=lambda x: 1.0 + 0.3 * _gauss(x), positive=True)
    rng = np.random.default_rng(seed)
    rays = rot_rays(rng, n_inputs)
    inputs = []
    for ray in rays:
        y = np.concatenate([[ray.exit_t], ray.exit_x])
        rad, ang, psi = (rng.uniform(0.0, 0.5), rng.uniform(0, 2 * np.pi),
                         rng.uniform(0, 2 * np.pi))
        x0 = np.array([0.0, rad * np.cos(ang), rad * np.sin(ang)])
        # g = diag(-1, 1, 1) lowers the null vector (1, cos psi, sin psi)
        xi0 = np.array([-1.0, np.cos(psi), np.sin(psi)])
        inputs += [{"kind": "michel", "ray": ray, "y": y},
                   {"kind": "thmmag", "ray": ray},
                   {"kind": "magnetic_michel", "ray": ray},
                   {"kind": "reparam", "x0": x0, "xi0": xi0}]

    def call(inp):
        kind = inp["kind"]
        if kind == "reparam":
            return lorlab.conformal_reparam_check(
                pd.metric, c_gauss, inp["x0"], inp["xi0"],
                sigma_max=REPARAM_SIGMA)
        ray = inp["ray"]
        if kind == "michel":
            return lorlab.michel_check(sr.metric, sr.entry_surface,
                                       sr.exit_surface, ray.x, inp["y"],
                                       n_steps=IDENTITY_STEPS)
        if kind == "thmmag":
            return lorlab.thmmag_verify(sr.stationary, sr.entry_surface,
                                        sr.spatial_boundary, ray.x,
                                        ray.v_proj)
        return lorlab.magnetic_michel(sr.magnetic, sr.spatial_boundary,
                                      ray.x[1:], ray.exit_x, fd_step=1e-5,
                                      n_steps=IDENTITY_STEPS)

    def check(inp, out):
        kind = inp["kind"]
        if kind in ("michel", "magnetic_michel"):
            return _errors(graph=max(out) / TOL_MICHEL)
        if kind == "reparam":
            mono = float(np.sum(np.diff(out.alpha) <= 0))
            return _errors(deviation=out.max_deviation / TOL_REPARAM,
                           monotone=2.0 * mono)   # any violation misses
        ray = inp["ray"]
        rec, mrec = out.record, out.magnetic_record
        return _errors(
            data=max(out.endpoint_residual, out.exit_residual) / TOL_EXIT,
            length=out.length_residual / TOL_EXIT,
            action=out.action_residual / TOL_EXIT,
            time_component=out.exit_time_component_residual
            / TOL_TIME_COMPONENT,
            exit_x=np.linalg.norm(rec.y[1:] - ray.exit_x) / TOL_EXIT,
            exit_t=abs(rec.y[0] - ray.exit_t) / TOL_EXIT,
            magnetic_exit=np.linalg.norm(mrec.y - ray.exit_x) / TOL_EXIT,
            magnetic_length=abs(mrec.length - ray.length) / TOL_EXIT)

    def digest(out):
        if isinstance(out, tuple):
            return [np.array(out)]
        if hasattr(out, "alpha"):
            return [out.alpha, np.array([out.max_deviation])]
        return [out.record.y, out.record.w_proj, out.magnetic_record.y,
                out.magnetic_record.w_proj,
                np.array([out.length_residual, out.action_residual])]

    return Workload("identity-checks", inputs, 1, call, check, digest,
                    calls_per_cycle=4)


WORKLOADS = {"scatter-grid": scatter_grid, "shoot-pairs": shoot_pairs,
             "identity-checks": identity_checks}
