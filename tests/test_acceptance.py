"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with the worst residual against its tolerance."""

import math

import numpy as np
import pytest

from lorlab import acceptance, scenarios, stationary
from lorlab.scattering import scatter_batch


def _check(result):
    print(result.line())
    failing = [c for c in result.checks if not c.passed]
    assert not failing, "; ".join(
        f"{c.label}: {c.value:.6e} > tol {c.tolerance:.1e}" for c in failing)


def test_worst_of_propagates_nan():
    """A NaN residual fails its check wherever it sits in the list."""
    nan = float("nan")
    for values in ([0.0, nan, 1e-9], [nan, 0.0], [1e-9, nan]):
        worst = acceptance.worst_of(values)
        assert math.isnan(worst)
        assert not acceptance.Check("residual", worst, 1.0).passed
    assert acceptance.worst_of([0.0, 2e-9, 1e-9]) == 2e-9
    assert acceptance.worst_of([]) == 0.0
    result = acceptance.CriterionResult(
        0, "nan", [acceptance.Check("finite", 1e-9, 1.0),
                   acceptance.Check("nan", nan, 1.0)], 0.0)
    assert not result.passed and result.worst.label == "nan"


def test_criteria_register_in_index_order(monkeypatch):
    """CRITERIA holds the thirteen criterion_* functions, each declared
    once by @criterion, in index order 1..13 with unique names; run_all
    runs them in that order.  Nothing here runs a criterion."""
    defined = {v for k, v in vars(acceptance).items()
               if k.startswith("criterion_")}
    assert set(acceptance.CRITERIA) == defined
    assert [c.index for c in acceptance.CRITERIA] == list(range(1, 14))
    names = [c.name for c in acceptance.CRITERIA]
    assert len(set(names)) == 13 and all(names)

    monkeypatch.setattr(acceptance, "CRITERIA", [])
    for index in (3, 1, 2):
        acceptance.criterion(index, f"stub {index}")(
            lambda i=index: ([acceptance.Check("c", 0.0, 1.0)], {"i": i}))
    results = acceptance.run_all()
    assert [(r.index, r.name, r.notes["i"]) for r in results] == [
        (3, "stub 3", 3), (1, "stub 1", 1), (2, "stub 2", 2)]
    assert all(r.passed and r.wall_time_s >= 0.0 for r in results)


def test_criterion_01_conservation():
    _check(acceptance.criterion_conservation())


def test_criterion_02_defining_r_trichotomy():
    _check(acceptance.criterion_trichotomy())


def test_criterion_03_michel_graph_identity():
    _check(acceptance.criterion_michel())


def test_criterion_04_linearization_of_r():
    _check(acceptance.criterion_linearize())


def test_criterion_05_light_ray_kernel():
    _check(acceptance.criterion_kernel())


def test_criterion_06_stationary_to_magnetic():
    _check(acceptance.criterion_projection())


def test_criterion_07_length_action_identities():
    _check(acceptance.criterion_reduction_identities())


def test_criterion_07_scatters_once(monkeypatch):
    """The round trip reuses the rays that thmmag_verify_batch scattered."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[3]))
        return scatter_batch(*args, **kwargs)

    # acceptance no longer imports scatter_batch; a second call there counts
    for module in (acceptance, stationary):
        monkeypatch.setattr(module, "scatter_batch", counted, raising=False)
    acceptance.criterion_reduction_identities()
    assert calls == [30]


def test_criterion_08_magnetic_action_graph():
    _check(acceptance.criterion_magnetic_michel())


def test_criterion_09_linearized_equivalence():
    result = acceptance.criterion_linearized_equivalence()
    print(result.line())
    print("   diagnostic: relative error against 2*l*magnetic =",
          result.notes["relative_error_against_2l"])
    _check(result)


@pytest.mark.slow
def test_criterion_10_scattering_invariance():
    _check(acceptance.criterion_invariance())


def test_criterion_11_conformal_reparametrization():
    _check(acceptance.criterion_reparam())


def test_criterion_12_boundary_normal_gauge():
    _check(acceptance.criterion_normal_coords())


def test_criterion_13_convergence_orders():
    _check(acceptance.criterion_orders())


def test_rk4_order_holds_on_other_starts():
    """Criterion 13's RK4 order on seven other starts of its
    perturbed_product flow stays above the criterion's 3.7 floor: its
    steps measure truncation, not rounding."""
    g = scenarios.build("perturbed_product").metric
    rng = np.random.default_rng(13)
    for _ in range(7):
        x0 = np.array([0.0, *rng.uniform(-0.6, 0.6, 2)])
        v0 = np.array([1.1, *rng.uniform(-0.9, 0.9, 2)])
        assert acceptance.rk4_order(g, x0, v0) >= 3.7, (x0, v0)
