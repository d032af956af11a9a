"""Linear-algebra kernels used by the nonlinear solvers.

``solve_linear`` takes either a dense square matrix (a 2-D
``numpy.ndarray``, or anything ``np.asarray`` turns into one) or a
``Tridiagonal`` held as its three bands, and factors each with the LAPACK
routine for its structure: partial-pivoted LU (``dgetrf``/``dgetrs``,
O(n^3)) for dense matrices and ``dgtsv`` (O(n)) for tridiagonal ones.  Both
apply the same singularity test to the pivots.  ``least_squares`` serves the
small tall mixing problems of Anderson acceleration.  Both call LAPACK
directly and raise ``NonFiniteInput`` on a NaN or inf entry.  Vectors are 1-D
arrays; the kernels are pure functions over immutable inputs and are safe
for concurrent use, apart from ``solve_linear(..., overwrite_a=True)``,
which may overwrite its matrix.  Iterative and sparse solvers are out of scope.

This module is the package's one binding to SciPy's BLAS and LAPACK:
``blas`` and ``lapack`` are SciPy's f2py extension modules
``scipy.linalg._fblas`` and ``scipy.linalg._flapack``, loaded directly.
Importing ``scipy.linalg`` instead would run its package init, whose
array-API layer imports ``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and
``numpy.random``: about 0.18 s of start-up and 16 MB of resident memory
that no solve uses.  The routines are the very objects that
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export (``lapack.dgetrf
is scipy.linalg.lapack.dgetrf`` once both are imported), so every result is
the same.  ``scipy.linalg`` itself stays unimported, and a later ``import
scipy.linalg`` runs its usual init over the two modules already loaded.
The private ``_norm``, ``_dot`` and ``_matvec`` compute every product of the
package, each on this BLAS and bitwise equal to NumPy's on NumPy's own
OpenBLAS; no other module calls BLAS, LAPACK, ``@`` or ``np.linalg``.  Only
a norm whose squares sum below the smallest normal float differs: ``dnrm2``
gives it, so that a nonzero vector never has norm 0.0.
"""

import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteInput", "SingularMatrix", "Tridiagonal", "solve_linear", "least_squares"
]


def _load_scipy_linalg_module(name):
    """Load ``scipy.linalg.<name>`` through ``sys.meta_path``, without the package.

    ``scipy/linalg/__init__.py`` does not run.  CPython's extension loader
    records the module in ``sys.modules`` under its full name, as any import
    of it does.  Raises ``ImportError`` naming a module that is not found.
    """
    fullname = f"scipy.linalg.{name}"
    path = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    for finder in sys.meta_path:
        spec = finder.find_spec(fullname, path)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no module named {fullname!r}", name=fullname)


blas = _load_scipy_linalg_module("_fblas")
lapack = _load_scipy_linalg_module("_flapack")

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Columns whose pivot falls below this fraction of |R11| are treated as
# numerically dependent and dropped from the least-squares basis.
_RANK_TOL = 1e-12


class SingularMatrix(Exception):
    """A pivot of the LU factorization fell below ``eps * max|A|``.

    In the solver loop this signals that the Jacobian is numerically
    singular at the current iterate.
    """


class NonFiniteInput(ValueError):
    """A matrix or right-hand side holds a NaN or inf entry."""


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """A square tridiagonal matrix of order n >= 2, held as its three bands.

    ``dl`` is the sub-diagonal (``A[i+1, i]``, length n-1), ``d`` the
    diagonal (length n) and ``du`` the super-diagonal (``A[i, i+1]``,
    length n-1).  ``np.asarray`` of an instance is the dense matrix, so code
    that expects an array keeps working; ``solve_linear`` factors the bands
    directly.  The bands are not copied: callers must not mutate them.
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        for name in ("dl", "d", "du"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.d.shape[0] if self.d.ndim == 1 else 0
        if n < 2 or self.dl.shape != (n - 1,) or self.du.shape != (n - 1,):
            raise ValueError(
                "expected bands of lengths n-1, n, n-1 with n >= 2, got "
                f"{self.dl.shape}, {self.d.shape}, {self.du.shape}"
            )

    @property
    def shape(self):
        n = self.d.shape[0]
        return (n, n)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Tridiagonal has no dense buffer to share")
        A = np.diag(self.d) + np.diag(self.du, 1) + np.diag(self.dl, -1)
        return A if dtype is None else A.astype(dtype, copy=False)


def _all_finite(v):
    """``np.isfinite(v).all()`` for a float array of at most one dimension.

    One BLAS ``ddot`` screens it: a NaN or inf entry makes ``v . v`` NaN or
    inf, and only an overflowing finite sum falls back to the full test.
    SciPy's BLAS, not ``ndarray.dot``: it is the library LAPACK runs on, so
    a large screen wakes no second BLAS thread pool before a factorization.
    """
    return not v.size or math.isfinite(blas.ddot(v, v)) or bool(np.isfinite(v).all())


def _norm(v):
    """Euclidean norm of a C-contiguous 1-D float array, bitwise equal to
    ``np.linalg.norm``, which takes the square root of ``v.dot(v)``: the same
    ``ddot``, on SciPy's BLAS.  A sum of squares is never -0.0, so unlike
    ``_dot`` it needs no 0.0 added.  A sum below ``_TINY`` may have
    underflowed, even to 0.0; there ``dnrm2``, which scales, gives the norm."""
    squares = blas.ddot(v, v)
    return blas.dnrm2(v) if squares < _TINY else math.sqrt(squares)


def _dot(a, b):
    """``a @ b`` for two 1-D float arrays, on SciPy's BLAS, bitwise equal to
    NumPy's: it adds the ``ddot`` to 0.0, which turns a -0.0 sum into 0.0.
    Raises ValueError unless ``a`` and ``b`` have one shape, as ``ddot``
    would read only a prefix of the longer one."""
    if a.shape != b.shape:
        raise ValueError(f"dot product of shapes {a.shape} and {b.shape}")
    return 0.0 + blas.ddot(a, b)


def _matvec(M, v):
    """``M @ v`` on SciPy's BLAS for a C-contiguous 2-D float ``M`` (or the
    transpose of a Fortran-contiguous one), summed as NumPy's matmul sums it:
    one row as a dot product, any other shape but one column as ``dgemv_t``
    over the rows.  One column is left to NumPy, which runs no BLAS there.
    Raises ValueError unless ``v`` has shape ``(M.shape[1],)``, as ``dgemv``
    would read only a prefix of a longer ``v``."""
    rows, cols = M.shape
    if v.shape != (cols,):
        raise ValueError(f"expected a vector of length {cols}, got shape {v.shape}")
    if rows == 1:
        return np.array([_dot(M[0], v)])
    if cols == 1:
        return M @ v
    # trans=1 after the defaults of beta, y, offx, incx, offy and incy:
    # f2py parses positional arguments in half the time of the keyword
    return blas.dgemv(1.0, M.T, v, 0.0, None, 0, 1, 0, 1, 1)


def _difference_matrix(vectors, m_k):
    """The n-by-m_k matrix of differences of the m_k+1 newest vectors, newest
    first: column j is ``vectors[-1-j] - vectors[-2-j]``."""
    return np.column_stack([vectors[-1 - j] - vectors[-2 - j] for j in range(m_k)])


def _check_pivots(pivots, info, scale):
    """Raise SingularMatrix on a zero pivot or one below ``eps * scale``.

    ``argmin`` picks the smallest magnitude, or the first NaN, just as
    ``min`` would, without the reduction machinery of ``ndarray.min``.
    """
    magnitudes = np.abs(pivots)
    smallest = float(magnitudes[magnitudes.argmin()])
    if info > 0 or smallest < _EPS * scale:
        raise SingularMatrix(
            f"pivot {smallest:.3e} below eps*max|A| = {_EPS * scale:.3e}"
        )


def solve_linear(A, b, overwrite_a=False):
    """Solve the square system ``A x = b`` via partial-pivoted LU.

    A ``Tridiagonal`` ``A`` is solved with LAPACK ``dgtsv``; anything else is
    taken as a dense matrix and solved with ``dgetrf``/``dgetrs``, the
    routines behind ``scipy.linalg.lu_factor``/``lu_solve``, whose results
    it reproduces bitwise.

    ``overwrite_a`` (SciPy's name) lets ``dgetrf`` factor a dense ``A`` in
    its own buffer, sparing an n-by-n copy; ``A`` then holds its LU factors.
    Only a writeable Fortran-contiguous float64 array is factored in place:
    any other dense ``A`` is copied first, and ``b`` and a ``Tridiagonal``'s
    bands are never written.  ``x`` is the same either way, bit for bit.

    Raises
    ------
    SingularMatrix
        When a pivot of the factorization is zero or its magnitude is below
        ``eps * max|A|`` (the matrix is numerically singular).
    NonFiniteInput
        On a NaN or inf entry in ``A`` or ``b``.
    ValueError
        On non-square ``A`` or shape mismatch.
    """
    b = np.asarray(b, dtype=float)
    if isinstance(A, Tridiagonal):
        entries = np.concatenate((A.dl, A.d, A.du))
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        # a view of a C- or Fortran-ordered A: the scans below copy nothing
        entries = A.ravel(order="K")
    if b.shape != (A.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix shape {A.shape}")
    if not (_all_finite(entries) and _all_finite(b)):
        raise NonFiniteInput("matrix or rhs contains non-finite entries")
    # max|A| scales the pivot test
    scale = abs(float(entries[blas.idamax(entries)])) if entries.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    if isinstance(A, Tridiagonal):
        _, u_diag, _, x, info = lapack.dgtsv(A.dl, A.d, A.du, b)
        _check_pivots(u_diag, info, scale)
        return x
    # f2py would overwrite a read-only array too; positional, as f2py parses
    # it faster than the keyword
    lu, piv, info = lapack.dgetrf(A, overwrite_a and A.flags.writeable)
    _check_pivots(lu.diagonal(), info, scale)
    return lapack.dgetrs(lu, piv, b)[0]


def least_squares(F, b):
    """Return a minimizer of ``||b - F g||_2`` for a tall dense ``F``.

    Uses QR with column pivoting.  Rank deficiency is handled, not raised:
    pivot columns with ``|R_ii| <= 1e-12 * |R11|`` are truncated and their
    coefficients set to zero.  Below LAPACK's block size (32 columns) the
    direct ``dgeqp3``/``dorgqr``/``dtrtrs`` calls reproduce ``scipy.linalg.qr(F,
    mode="economic", pivoting=True)`` and ``solve_triangular`` bitwise.  A NaN
    or inf entry raises ``NonFiniteInput``, a shape mismatch ``ValueError``.
    """
    F = np.asarray(F, dtype=float)
    b = np.asarray(b, dtype=float)
    if F.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {F.shape}")
    n, m = F.shape
    if not n >= m >= 1:
        raise ValueError(f"need n >= m >= 1 columns, got shape {F.shape}")
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix shape {F.shape}")
    if not (_all_finite(F.ravel(order="K")) and _all_finite(b)):
        raise NonFiniteInput("matrix or rhs contains non-finite entries")
    qr, perm, tau, _, _ = lapack.dgeqp3(F)
    diag = np.abs(qr.diagonal())
    rank = 0
    if diag[0] > 0.0:
        tol = _RANK_TOL * diag[0]
        while rank < m and diag[rank] > tol:
            rank += 1
    g = np.zeros(m)
    if rank:
        Q = lapack.dorgqr(qr, tau)[0]
        qtb = _matvec(Q[:, :rank].T, b)
        # R x = Q^T b as scipy solves a C-ordered R: the transposed lower
        # system, whose summation order differs from the upper one
        y = lapack.dtrtrs(qr[:rank, :rank].T, qtb, lower=1, trans=1)[0]
        g[perm[:rank] - 1] = y
    return g
