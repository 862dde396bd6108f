"""Nonholonomic mechanics and optimal control on skew-symmetric algebroids."""

from .algebroid import (AlgebroidModel, ConstraintSpec, ConstrainedSystem,
                        ModelPartials, OrthogonalSplitting, build_constrained_system,
                        build_splitting, constant_model, grad_potential,
                        restrict_metric)
from .bvp import (ShootingProblem, ShootingResult, extremal_trajectory,
                  shooting_residual, solve_bvp, trajectory_cost)
from .dynamics import (StateQY, Trajectory, controlled_field,
                       dalembert_oracle_field, drift_acceleration,
                       nonholonomic_field, simulate)
from .hamiltonian import (HamiltonianSystem, PhasePoint, RegularityReport,
                          integrate_hamiltonian, integrate_step, inverse_legendre,
                          legendre_map, regularity_matrix, symplecticity_defect)
from .models import (load_model_config, make_builtin, make_chaplygin,
                     make_double_integrator, make_suslov)
from .optimal_control import (ControlDistribution, CostModel, ExtremalState,
                              OCProblem, integrate_extremal, lift_cost,
                              necessary_conditions_field, quadratic_cost,
                              recover_controls)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AlgebroidModel", "ConstraintSpec", "ConstrainedSystem", "ModelPartials",
    "OrthogonalSplitting", "build_constrained_system", "build_splitting",
    "constant_model", "grad_potential", "restrict_metric",
    "StateQY", "Trajectory", "controlled_field", "dalembert_oracle_field",
    "drift_acceleration", "nonholonomic_field", "simulate",
    "ControlDistribution", "CostModel", "ExtremalState", "OCProblem",
    "integrate_extremal", "lift_cost", "necessary_conditions_field",
    "quadratic_cost", "recover_controls",
    "HamiltonianSystem", "PhasePoint", "RegularityReport", "integrate_hamiltonian", "integrate_step", "inverse_legendre", "legendre_map",
    "regularity_matrix", "symplecticity_defect",
    "ShootingProblem", "ShootingResult", "extremal_trajectory",
    "shooting_residual", "solve_bvp", "trajectory_cost",
    "load_model_config", "make_builtin", "make_chaplygin",
    "make_double_integrator", "make_suslov",
    "errors",
]
