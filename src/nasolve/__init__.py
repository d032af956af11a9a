"""Newton-Anderson solvers with adaptive safeguarding near singular points.

A small library and benchmark harness for solving square nonlinear systems
f(x) = 0 with Newton's method, depth-m Anderson-accelerated Newton, and
(adaptively) safeguarded Newton-Anderson, plus diagnostics that measure
convergence orders, step ratios and optimization gains on the built-in
singular and near-singular test problems.
"""

from . import diagnostics, linalg, problem, solver
from .diagnostics import *
from .linalg import *
from .problem import *
from .solver import *

__version__ = "0.1.0"

__all__ = diagnostics.__all__ + linalg.__all__ + problem.__all__ + solver.__all__
