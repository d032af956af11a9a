"""Newton-Anderson solvers with adaptive safeguarding near singular points.

A small library and benchmark harness for solving square nonlinear systems
f(x) = 0 with Newton's method, depth-m Anderson-accelerated Newton, and
(adaptively) safeguarded Newton-Anderson, plus diagnostics that measure
convergence orders and null/range error decompositions on the built-in
singular and near-singular test problems.
"""

from .diagnostics import (
    ConvergenceReport,
    MissingGroundTruth,
    OrderUndefined,
    decompose_errors,
    estimate_order,
    gain_history,
    null_space_gamma,
    quasi_restart_count,
    step_gains,
)
from .linalg import SingularMatrix, Tridiagonal, least_squares, solve_linear
from .problem import (
    PROBLEM_IDS,
    GroundTruth,
    NonlinearProblem,
    finite_difference_jacobian,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    problem_from_id,
)
from .solver import (
    ACTIVATIONS,
    METHODS,
    ArmijoConfig,
    IterationRecord,
    SafeguardDecision,
    SolverConfig,
    adaptive_gamma_safeguard,
    anderson_gamma_1,
    armijo_backtrack,
    gamma_safeguard,
    na_m_update,
    na_update,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "METHODS",
    "PROBLEM_IDS",
    "ArmijoConfig",
    "ConvergenceReport",
    "GroundTruth",
    "IterationRecord",
    "MissingGroundTruth",
    "NonlinearProblem",
    "OrderUndefined",
    "SafeguardDecision",
    "SingularMatrix",
    "SolverConfig",
    "Tridiagonal",
    "adaptive_gamma_safeguard",
    "anderson_gamma_1",
    "armijo_backtrack",
    "decompose_errors",
    "estimate_order",
    "finite_difference_jacobian",
    "gain_history",
    "gamma_safeguard",
    "least_squares",
    "make_bratu_1d",
    "make_chandrasekhar",
    "make_singular_quadratic",
    "na_m_update",
    "na_update",
    "null_space_gamma",
    "problem_from_id",
    "quasi_restart_count",
    "solve",
    "solve_linear",
    "step_gains",
]
