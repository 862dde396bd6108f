"""Nonholonomic mechanics and optimal control on skew-symmetric algebroids."""

from .algebroid import (AlgebroidModel, ConstraintSpec, ConstrainedSystem,
                        ModelPartials, build_constrained_system, constant_model,
                        restrict_metric)
from .bvp import (ShootingProblem, ShootingResult, extremal_trajectory,
                  shooting_residual, solve_bvp)
from .dynamics import (StateQY, Trajectory, dalembert_oracle_field,
                       drift_acceleration, nonholonomic_field, simulate)
from .hamiltonian import (HamiltonianSystem, PhasePoint, integrate_hamiltonian,
                          integrate_step, inverse_legendre, legendre_map,
                          regularity_matrix, symplecticity_defect)
from .models import (load_model_config, make_builtin, make_chaplygin,
                     make_double_integrator, make_suslov)
from .optimal_control import (ControlDistribution, CostModel, ExtremalState,
                              OCProblem, integrate_extremal,
                              necessary_conditions_field, quadratic_cost,
                              recover_controls)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AlgebroidModel", "ConstraintSpec", "ConstrainedSystem", "ModelPartials",
    "build_constrained_system", "constant_model", "restrict_metric",
    "StateQY", "Trajectory", "dalembert_oracle_field",
    "drift_acceleration", "nonholonomic_field", "simulate",
    "ControlDistribution", "CostModel", "ExtremalState", "OCProblem",
    "integrate_extremal", "necessary_conditions_field",
    "quadratic_cost", "recover_controls",
    "HamiltonianSystem", "PhasePoint", "integrate_hamiltonian", "integrate_step",
    "inverse_legendre", "legendre_map", "regularity_matrix", "symplecticity_defect",
    "ShootingProblem", "ShootingResult", "extremal_trajectory",
    "shooting_residual", "solve_bvp",
    "load_model_config", "make_builtin", "make_chaplygin",
    "make_double_integrator", "make_suslov",
    "errors",
]
