"""Numerical laboratory for Lorentzian scattering data: lightlike
scattering relations, connecting geodesics and defining functions,
light ray transforms, the stationary-to-magnetic reduction, and the
gauge invariances tying them together."""

from .errors import (ChartDomainError, ConjugatePointError, ConvergenceError,
                     EscapeError, LorlabError, NoLiftError,
                     NotPositiveDefiniteError, PreconditionError,
                     SignatureError, SingularMetricError, TangencyError)
from .fields import CovectorField, ScalarField, SymTwoTensorField
from .geometry import (LORENTZIAN, RIEMANNIAN, BoundaryHypersurface,
                       CausalClass, GeodesicPath, MetricField,
                       boundary_normal, boundary_project, causal_classify,
                       christoffel, geodesic_accel, inner, integrate_geodesic,
                       lightlike_completion)
from .scattering import (REDUCED_MODES, TIME_COMPONENT, UNIT_INDUCED,
                         ScatteringRecord, normalize, scatter, scatter_batch)
from .connect import (ConnectingGeodesic, LinearizationReport, MetricFamily,
                      connecting_geodesics_batch, defining_r, linearize_r,
                      michel_check, michel_check_batch, sigma_detect,
                      solve_two_point)
from .lightray import (ftc_residual, kernel_conformal_test,
                       kernel_potential_test, light_ray_transform,
                       magnetic_linearized_transform, pairing_along, sym_diff)
from .stationary import (LinearizedEquivalence, MagneticConnector,
                         MagneticRecord, MagneticSystem, ProjectionCheck,
                         ReductionReport, StationaryMetric,
                         boundary_normal_coords, curve_flux, from_raw,
                         lift_magnetic, lift_residual,
                         linearization_equivalence, magnetic_connector,
                         magnetic_connectors_batch, magnetic_integrate,
                         magnetic_michel, magnetic_michel_batch,
                         magnetic_scatter, magnetic_scatter_batch,
                         project_and_verify, reconstruct_exits,
                         reduced_time_component, thmmag_verify,
                         thmmag_verify_batch)
from .gauge import (GaugePair, HamiltonianPath, ReparamReport, apply_gauge,
                    compose_gauge, conformal_reparam_check, hamiltonian_flow,
                    magnetic_invariance, pullback_metric, scale_metric,
                    scattering_invariance)
from . import scenarios

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_")]
