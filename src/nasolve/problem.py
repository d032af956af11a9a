"""Benchmark nonlinear systems f(x) = 0 for the solver and its diagnostics.

Three built-ins cover the regimes of interest:

* ``singular_quadratic`` -- f(x1, x2) = (x1^2, x2).  Truly singular root at
  the origin with a one-dimensional null space spanned by (1, 0); the second
  derivative along the null direction is nondegenerate, so Newton converges
  linearly from generic starting points.
* ``chandrasekhar`` -- midpoint-rule discretization of the Chandrasekhar
  H-equation with scattering parameter c.  The Jacobian at the physical
  solution becomes singular as c -> 1, giving a classical near-singular
  integral-equation benchmark.
* ``bratu1d`` -- standard three-point finite differences for the boundary
  value problem u'' + lambda*exp(u) = 0, u(0) = u(1) = 0.  The lower solution
  branch folds back near lambda ~ 3.5138, where the Jacobian at the solution
  is close to singular.

Problem objects are immutable after construction and safe to share across
concurrent solver runs; ``residual`` and ``jacobian`` must be re-entrant.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import Tridiagonal, _matvec

__all__ = [
    "NonlinearProblem",
    "make_singular_quadratic",
    "make_chandrasekhar",
    "make_bratu_1d",
    "problem_from_id",
    "PROBLEM_IDS",
]


@dataclass(frozen=True)
class NonlinearProblem:
    """A square nonlinear system with residual and Jacobian callables.

    ``residual`` and ``jacobian`` accept any x of length ``dimension`` and
    return a length-n vector and an n-by-n matrix respectively.  The matrix
    is either dense (a 2-D array) or a ``linalg.Tridiagonal``, which the
    solver factors in O(n) and ``np.asarray`` turns into the dense matrix.

    ``solve`` owns the dense matrix ``jacobian`` returns and may overwrite it
    with its LU factors, so ``jacobian`` must return a fresh array on each
    call.  Only a writeable Fortran-contiguous float64 matrix is factored in
    place; any other matrix is copied first.  Returning Fortran order spares
    that n-by-n copy.

    ``default_start`` is the documented initial iterate used when callers
    (for example the CLI) do not provide one; its length is ``dimension``.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray | Tridiagonal]
    default_start: np.ndarray

    def __post_init__(self):
        if not callable(self.jacobian):
            raise ValueError("a Jacobian is required: jacobian must be callable")
        start = np.asarray(self.default_start, dtype=float)
        if start.ndim != 1 or not start.size:
            raise ValueError(f"default_start of shape {start.shape} is not a non-empty vector")
        object.__setattr__(self, "default_start", start)

    @property
    def dimension(self):
        return len(self.default_start)


def make_singular_quadratic():
    """2-D problem f(x1, x2) = (x1^2, x2) with a singular root at the origin.

    The Jacobian at the root is diag(0, 1): rank 1, null space spanned by
    (1, 0).  Newton iterates from (1, 1) halve the first component exactly
    at every step.  Default initial iterate: (1, 1).
    """

    def residual(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[0] ** 2, x[1]])

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        return np.array([[2.0 * x[0], 0.0], [0.0, 1.0]], order="F")

    return NonlinearProblem(
        residual=residual,
        jacobian=jacobian,
        default_start=np.array([1.0, 1.0]),
    )


_MAX_SIZE = np.iinfo(np.intp).max


def _grid_size(n):
    """``n`` as an int; ValueError unless finite, integral and at most _MAX_SIZE."""
    try:
        size = int(n)
    except (OverflowError, ValueError):  # inf, nan
        size = None
    if size != n or size > _MAX_SIZE:
        raise ValueError(f"grid size must be an integer up to {_MAX_SIZE}, got {n!r}")
    return size


def make_chandrasekhar(c, n):
    """Discretized Chandrasekhar H-equation with scattering parameter c.

    Midpoint nodes mu_i = (i - 1/2)/n for i = 1..n and

        F(H)_i = H_i - (1 - (c/2n) sum_j mu_i H_j / (mu_i + mu_j))^-1.

    The Jacobian at the physical solution is singular exactly at c = 1.
    Default initial iterate: the all-ones vector.
    """
    c = float(c)
    n = _grid_size(n)
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c must lie in (0, 1], got {c}")
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    mu = (np.arange(1, n + 1) - 0.5) / n
    # (c/2n) mu_i / (mu_i + mu_j), built in its own buffer
    A = np.add.outer(mu, mu)
    np.divide((c / (2.0 * n)) * mu[:, None], A, out=A)

    def residual(H):
        H = np.asarray(H, dtype=float)
        return H - 1.0 / (1.0 - _matvec(A, H))

    def jacobian(H):
        H = np.asarray(H, dtype=float)
        d = 1.0 / (1.0 - _matvec(A, H))
        # I - diag(d^2) A, written as its transpose into a C-ordered buffer so
        # that J is Fortran-ordered and LU-factored in place.  Entry for entry
        # -(d_i^2 A_ij), so a product that underflows to 0 gives -0.0.
        Jt = np.multiply(A.T, -(d * d), out=np.empty((n, n)))
        Jt.flat[:: n + 1] += 1.0
        return Jt.T

    return NonlinearProblem(
        residual=residual,
        jacobian=jacobian,
        default_start=np.ones(n),
    )


def make_bratu_1d(lam, n):
    """1-D Bratu problem u'' + lambda*exp(u) = 0 on n interior grid points.

    Three-point Laplacian with mesh width h = 1/(n+1) and homogeneous
    Dirichlet boundary values, so the Jacobian is returned as a
    ``Tridiagonal``.  For lambda = 0 the root is the zero vector; the lower
    branch folds near lambda ~ 3.5138.  Default initial iterate: the zero
    vector.
    """
    lam = float(lam)
    n = _grid_size(n)
    if n < 3:
        raise ValueError(f"need at least 3 interior points, got {n}")
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    h2 = (1.0 / (n + 1)) ** 2
    # shared by every Jacobian as both off-diagonal bands, so kept read-only
    off = np.full(n - 1, 1.0 / h2)
    off.flags.writeable = False

    def residual(u):
        u = np.asarray(u, dtype=float)
        r = -2.0 * u
        r[:-1] += u[1:]
        r[1:] += u[:-1]
        return r / h2 + lam * np.exp(u)

    def jacobian(u):
        u = np.asarray(u, dtype=float)
        return Tridiagonal(off, -2.0 / h2 + lam * np.exp(u), off)

    return NonlinearProblem(
        residual=residual,
        jacobian=jacobian,
        default_start=np.zeros(n),
    )


# id -> (constructor, its parameters in call order with their defaults);
# the constructor converts and checks each number
_BUILT_INS = {
    "singular_quadratic": (make_singular_quadratic, {}),
    "chandrasekhar": (make_chandrasekhar, {"c": 0.5, "n": 100}),
    "bratu1d": (make_bratu_1d, {"lambda": 1.0, "n": 100}),
}
PROBLEM_IDS = tuple(_BUILT_INS)


def problem_from_id(problem_id, params=None):
    """Build a built-in problem from its string id and a parameter map.

    Recognized ids: ``singular_quadratic`` (no parameters),
    ``chandrasekhar`` (``c`` in (0, 1], grid size ``n``), and ``bratu1d``
    (finite ``lambda`` >= 0, interior points ``n``).  A string value, as
    the CLI passes it, is read as a float first.
    """
    if problem_id not in _BUILT_INS:
        raise ValueError(f"unknown problem id {problem_id!r}; choose from {PROBLEM_IDS}")
    make, defaults = _BUILT_INS[problem_id]
    params = params or {}
    unknown = params.keys() - defaults.keys()
    if unknown:
        raise ValueError(f"unknown parameters for {problem_id}: {sorted(unknown)}")
    args = []
    for name, default in defaults.items():
        value = params.get(name, default)
        try:
            args.append(float(value) if isinstance(value, str) else value)
        except ValueError:
            raise ValueError(
                f"{problem_id} parameter {name} must be a number, got {value!r}"
            ) from None
    return make(*args)
