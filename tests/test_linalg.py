import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nasolve import SingularMatrix, Tridiagonal, least_squares, solve_linear
from nasolve.linalg import _RANK_TOL, NonFiniteInput, _all_finite, _dot, _matvec


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        np.testing.assert_array_equal(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_linear(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.5, 1.0], rtol=0, atol=0)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), np.ones(2))

    def test_tiny_pivot_raises(self):
        A = np.array([[1e-40, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(A, np.ones(2))

    def test_shape_and_finiteness_errors(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.ones(3))
        with pytest.raises(ValueError):
            solve_linear(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.array([1.0, np.nan]))

    def test_non_finite_input_is_its_own_value_error(self):
        assert issubclass(NonFiniteInput, ValueError)
        with pytest.raises(NonFiniteInput):
            solve_linear(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(NonFiniteInput):
            solve_linear(np.eye(2), np.array([1.0, np.nan]))
        bands = (np.ones(2), np.array([4.0, np.nan, 4.0]), np.ones(2))
        with pytest.raises(NonFiniteInput):
            solve_linear(Tridiagonal(*bands), np.ones(3))
        for A, b in ((np.ones((2, 3)), np.ones(2)), (np.eye(2), np.ones(3))):
            with pytest.raises(ValueError) as info:
                solve_linear(A, b)
            assert not isinstance(info.value, NonFiniteInput)

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 1000])
    def test_bitwise_equal_to_lu_factor_lu_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            A = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
            x = solve_linear(A, b)
            assert x.tobytes() == ref.tobytes()

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        A0, b0 = A.copy(), b.copy()
        solve_linear(A, b)
        np.testing.assert_array_equal(A, A0)
        np.testing.assert_array_equal(b, b0)

    def test_fortran_inputs_not_modified_by_default(self):
        rng = np.random.default_rng(7)
        A = np.asfortranarray(rng.standard_normal((40, 40)))
        b = rng.standard_normal(40)
        A0, b0 = A.copy(order="F"), b.copy()
        solve_linear(A, b)
        assert A.flags.f_contiguous
        assert A.tobytes() == A0.tobytes() and b.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("n", [2, 40, 300])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_a_gives_bitwise_equal_x(self, n, order):
        rng = np.random.default_rng(n)
        A = np.array(rng.standard_normal((n, n)), order=order)
        b = rng.standard_normal(n)
        x = solve_linear(A, b)
        A_in = A.copy(order="K")
        x_in = solve_linear(A_in, b, overwrite_a=True)
        assert x_in.tobytes() == x.tobytes()
        # only the Fortran-ordered matrix is factored in its own buffer
        lu = scipy.linalg.lu_factor(A)[0]
        expected = lu if order == "F" else A
        assert A_in.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["C-ordered", "float32", "strided", "read-only"])
    def test_overwrite_a_spares_what_it_cannot_factor_in_place(self, kind):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        A = {
            "C-ordered": np.ascontiguousarray(M),
            "float32": np.asfortranarray(M, dtype=np.float32),
            "strided": np.asfortranarray(M)[::2, ::2],
            "read-only": np.asfortranarray(M),
        }[kind]
        A.flags.writeable = kind != "read-only"
        A0 = A.copy(order="K")
        x = solve_linear(A, np.ones(A.shape[0]), overwrite_a=True)
        assert A.tobytes() == A0.tobytes()
        assert x.tobytes() == solve_linear(A0, np.ones(A.shape[0])).tobytes()

    def test_overwrite_a_leaves_tridiagonal_bands(self):
        T = Tridiagonal(np.ones(3), np.full(4, 4.0), np.ones(3))
        bands = [band.copy() for band in (T.dl, T.d, T.du)]
        solve_linear(T, np.ones(4), overwrite_a=True)
        for band, band0 in zip((T.dl, T.d, T.du), bands):
            assert band.tobytes() == band0.tobytes()

    def test_lu_round_trip_well_conditioned(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A = rng.standard_normal((100, 100)) + 100.0 * np.eye(100)
            b = rng.standard_normal(100)
            x = solve_linear(A, b)
            assert np.max(np.abs(A @ x - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_relative_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((50, 50)) + 50.0 * np.eye(50)
        b = rng.standard_normal(50)
        x = solve_linear(A, b)
        rel = np.linalg.norm(A @ x - b) / (
            np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert rel <= 1e-12


def unit_floats(size):
    return arrays(np.float64, size, elements=st.floats(-1.0, 1.0))


@st.composite
def tridiagonal_systems(draw):
    """A well-conditioned Tridiagonal and a rhs.

    Diagonally dominant bands factor without row interchanges.  The other
    kind is nearly block diagonal in 2x2 blocks [[a, b], [c, e]] with
    |a|, |e| <= 0.5 < 1 <= |b|, |c| (|det| >= 0.75), coupled by entries of
    at most 0.05, so every block's first column needs a row interchange.
    """
    n = draw(st.integers(2, 40))
    dl, d, du, b = (draw(unit_floats(size)) for size in (n - 1, n, n - 1, n))
    if draw(st.booleans()):
        d = np.copysign(2.5 + np.abs(d), d)
    else:
        in_block = np.arange(n - 1) % 2 == 0
        dl = np.where(in_block, np.copysign(1.0 + np.abs(dl), dl), 0.05 * dl)
        du = np.where(in_block, np.copysign(1.0 + np.abs(du), du), 0.05 * du)
        d = 0.5 * d
        if n % 2:
            d[-1] = 2.0 + abs(d[-1])
    return Tridiagonal(dl, d, du), b


class TestTridiagonal:
    def test_dense_form_matches_diag_construction(self):
        rng = np.random.default_rng(7)
        dl, d, du = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(4)
        T = Tridiagonal(dl, d, du)
        expected = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
        np.testing.assert_array_equal(np.asarray(T), expected)
        assert T.shape == (5, 5)
        assert np.asarray(T, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError):
            np.array(T, copy=False)

    @settings(max_examples=200, deadline=None)
    @given(tridiagonal_systems())
    def test_matches_dense_solve(self, system):
        T, b = system
        x = solve_linear(T, b)
        ref = solve_linear(np.asarray(T), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0)

    def test_bands_not_modified(self):
        rng = np.random.default_rng(8)
        bands = [rng.standard_normal(9), 4.0 + rng.random(10), rng.standard_normal(9)]
        b = rng.standard_normal(10)
        saved = [a.copy() for a in bands] + [b.copy()]
        solve_linear(Tridiagonal(*bands), b)
        for a, a0 in zip(bands + [b], saved):
            np.testing.assert_array_equal(a, a0)

    def test_zero_pivot_raises(self):
        T = Tridiagonal([0.0], [0.0, 1.0], [0.0])
        with pytest.raises(SingularMatrix):
            solve_linear(T, np.ones(2))

    def test_zero_pivot_after_elimination_raises(self):
        # [[1, 1], [1, 1]]: the second pivot cancels to exactly zero
        with pytest.raises(SingularMatrix):
            solve_linear(Tridiagonal([1.0], [1.0, 1.0], [1.0]), np.ones(2))

    def test_tiny_pivot_raises(self):
        T = Tridiagonal([0.0], [1e-40, 1.0], [0.0])
        with pytest.raises(SingularMatrix):
            solve_linear(T, np.ones(2))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(Tridiagonal(np.zeros(2), np.zeros(3), np.zeros(2)), np.ones(3))

    @pytest.mark.parametrize("band", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_band_raises(self, band, bad):
        bands = [np.ones(2), 4.0 * np.ones(3), np.ones(2)]
        bands[band][0] = bad
        with pytest.raises(ValueError):
            solve_linear(Tridiagonal(*bands), np.ones(3))

    def test_non_finite_rhs_raises(self):
        T = Tridiagonal(np.ones(2), 4.0 * np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(T, np.array([1.0, np.inf, 1.0]))

    def test_rhs_shape_mismatch_raises(self):
        T = Tridiagonal(np.ones(2), 4.0 * np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(T, np.ones(4))

    @pytest.mark.parametrize(
        "bands",
        [
            (np.ones(2), np.ones(2), np.ones(2)),
            (np.ones(1), np.ones(3), np.ones(2)),
            (np.ones(0), np.ones(1), np.ones(0)),
            (np.ones(2), np.ones((3, 1)), np.ones(2)),
        ],
    )
    def test_band_shape_mismatch_raises(self, bands):
        with pytest.raises(ValueError):
            Tridiagonal(*bands)


class TestLeastSquares:
    def test_single_column_projection(self):
        F = np.array([[1.0], [-1.0]])
        g = least_squares(F, np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [0.5], rtol=0, atol=1e-15)

    def test_orthonormal_columns_exact(self):
        Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((10, 3)))
        coeffs = np.array([1.5, -2.0, 0.25])
        b = Q @ coeffs
        g = least_squares(Q, b)
        np.testing.assert_allclose(g, coeffs, atol=1e-12)
        assert np.linalg.norm(b - Q @ g) <= 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            F = rng.standard_normal((20, 3))
            b = rng.standard_normal(20)
            g = least_squares(F, b)
            g_ref = np.linalg.solve(F.T @ F, F.T @ b)
            assert np.max(np.abs(g - g_ref)) <= 1e-8

    def test_rank_deficient_drops_columns(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(10)
        F = np.column_stack([col, 2.0 * col, rng.standard_normal(10)])
        b = rng.standard_normal(10)
        g = least_squares(F, b)
        # one of the two dependent columns is dropped (coefficient exactly 0)
        assert g[0] == 0.0 or g[1] == 0.0
        # the fit still matches the best achievable residual
        best = np.linalg.lstsq(F, b, rcond=None)[1]
        achieved = np.linalg.norm(b - F @ g) ** 2
        assert achieved <= (best[0] if best.size else achieved) + 1e-12

    def test_zero_matrix_gives_zero_coefficients(self):
        g = least_squares(np.zeros((4, 2)), np.ones(4))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            least_squares(np.ones((3, 2)), np.ones(2))

    def test_optimality_under_perturbation(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        g = least_squares(F, b)
        base = np.linalg.norm(b - F @ g)
        for _ in range(100):
            delta = rng.standard_normal(4)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert np.linalg.norm(b - F @ (g + delta)) >= base - 1e-12


def scipy_least_squares(F, b):
    """The QR route through the scipy wrappers that ``least_squares`` replaced."""
    m = F.shape[1]
    Q, R, perm = scipy.linalg.qr(F, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = 0
    if diag[0] > 0.0:
        while rank < m and diag[rank] > _RANK_TOL * diag[0]:
            rank += 1
    g = np.zeros(m)
    if rank:
        y = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ b)
        g[perm[:rank]] = y
    return g


@st.composite
def mixing_problems(draw):
    """Tall F (n <= 60, m <= 5) at a random scale, some columns repeated
    (scaled) or zeroed so that the rank drops, and a rhs."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, min(n, 5)))
    F = draw(unit_floats((n, m))) * 10.0 ** draw(st.integers(-12, 12))
    for j in range(m):
        kind = draw(st.sampled_from(["free", "free", "copy", "zero"]))
        if kind == "copy" and j:
            F[:, j] = draw(st.sampled_from([1.0, -2.0, 1e-13])) * F[:, 0]
        elif kind == "zero":
            F[:, j] = 0.0
    if draw(st.booleans()):
        F = np.asfortranarray(F)
    return F, draw(unit_floats(n))


@settings(max_examples=500, deadline=None)
@given(mixing_problems())
def test_least_squares_equals_scipy_qr_route_bitwise(problem):
    F, b = problem
    assert least_squares(F, b).tobytes() == scipy_least_squares(F, b).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_least_squares_non_finite_input_raises(bad):
    F = np.ones((3, 2))
    F[1, 0] = bad
    with pytest.raises(NonFiniteInput):
        least_squares(F, np.ones(3))
    with pytest.raises(NonFiniteInput):
        least_squares(np.eye(3)[:, :2], np.array([1.0, bad, 0.0]))


# --- exactness of the O(1) checks in solve_linear ---------------------------

_REF_EPS = float(np.finfo(float).eps)


def reference_solve_linear(A, b):
    """``solve_linear`` with the NumPy checks it had before the BLAS screens:
    max|A| by ``np.abs(...).max()``, finiteness by ``np.isfinite``, the pivot
    test by ``np.abs(pivots).min()``."""
    b = np.asarray(b, dtype=float)
    if isinstance(A, Tridiagonal):
        entries = np.concatenate((A.dl, A.d, A.du))
    else:
        A = entries = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix shape {A.shape}")
    scale = float(np.abs(entries).max(initial=0.0))
    if not np.isfinite(scale) or not np.isfinite(b).all():
        raise NonFiniteInput("matrix or rhs contains non-finite entries")
    if scale == 0.0:
        raise SingularMatrix("matrix is identically zero")
    if isinstance(A, Tridiagonal):
        _, pivots, _, x, info = scipy.linalg.lapack.dgtsv(A.dl, A.d, A.du, b)
    else:
        lu, piv, info = scipy.linalg.lapack.dgetrf(A)
        pivots = lu.diagonal()
    smallest = float(np.abs(pivots).min())
    if info > 0 or smallest < _REF_EPS * scale:
        raise SingularMatrix(
            f"pivot {smallest:.3e} below eps*max|A| = {_REF_EPS * scale:.3e}"
        )
    if isinstance(A, Tridiagonal):
        return x
    return scipy.linalg.lapack.dgetrs(lu, piv, b)[0]


def outcome(f, *args):
    """The exception (type and message) or the result's bytes; any warning
    counts as an exception, so a new warning is a different outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", f(*args).tobytes()
        except Exception as exc:
            return type(exc).__name__, str(exc)


# NaN, infinities, entries whose squares overflow, subnormals, signed zeros,
# tiny values that make tiny pivots, and pairs of huge entries whose
# elimination overflows into inf or NaN pivots
SPECIAL = [
    np.nan, np.inf, -np.inf, 1e200, -1e200, 1.7e308, -1.7e308, 1e154,
    5e-324, -1e-310, 2.2e-308, 0.0, -0.0, 1e-40, 1e-300, 1.0, -1.0, 2.0,
]


@st.composite
def dense_systems(draw):
    n = draw(st.integers(1, 6))
    elements = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0),
                         st.floats(allow_nan=True, allow_infinity=True))
    A = draw(arrays(np.float64, (n, n), elements=elements))
    b = draw(arrays(np.float64, n, elements=elements))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        A = np.asfortranarray(A)
    elif layout == "strided":
        A = np.repeat(A, 2, axis=1)[:, ::2]
    return A, b


@st.composite
def tridiagonal_special_systems(draw):
    n = draw(st.integers(2, 8))
    elements = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
    dl, d, du, b = (draw(arrays(np.float64, size, elements=elements))
                    for size in (n - 1, n, n - 1, n))
    return Tridiagonal(dl, d, du), b


class TestChecksMatchReference:
    @settings(max_examples=600, deadline=None)
    @given(dense_systems())
    def test_dense(self, system):
        A, b = system
        assert outcome(solve_linear, A, b) == outcome(reference_solve_linear, A, b)

    @settings(max_examples=300, deadline=None)
    @given(tridiagonal_special_systems())
    def test_tridiagonal(self, system):
        T, b = system
        assert outcome(solve_linear, T, b) == outcome(reference_solve_linear, T, b)

    @pytest.mark.parametrize(
        "A",
        [
            [[1.0, 1e308], [1.0, -1e308]],           # elimination gives an inf pivot
            [[1.0, 1e308, 1e308], [1.0, -1e308, 1e308], [1.0, 1e308, -1e308]],
            [[1.0, 1e308, -1e308], [1.0, -1e308, 1e308], [1.0, 1e308, 1e308]],  # NaN
            [[1e-300, 0.0], [0.0, 1.0]],             # tiny pivot
            [[1e300, 0.0], [0.0, 1e-30]],            # tiny next to a huge scale
            [[5e-324, 0.0], [0.0, 5e-324]],          # subnormal scale: eps*scale is 0
            [[1e-200, 0.0], [0.0, 1e-200]],          # squares underflow to 0
            [[1e200, 1.0], [1.0, 1e200]],            # squares overflow
            [[-0.0, 0.0], [0.0, -0.0]],
            [[2.0, 1.0], [4.0, 2.0]],                # exactly singular
        ],
    )
    def test_edge_matrices(self, A):
        A = np.array(A)
        b = np.ones(len(A))
        assert outcome(solve_linear, A, b) == outcome(reference_solve_linear, A, b)

    def test_empty_matrix_is_singular(self):
        assert outcome(solve_linear, np.zeros((0, 0)), np.zeros(0)) == outcome(
            reference_solve_linear, np.zeros((0, 0)), np.zeros(0)
        )


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, st.integers(0, 40),
           elements=st.one_of(st.sampled_from(SPECIAL),
                              st.floats(allow_nan=True, allow_infinity=True))),
    st.integers(1, 3),
)
def test_finite_screen_equals_isfinite(v, stride):
    # the screen behind solve_linear's checks and solve's x and dx tests
    view = v[::stride]
    assert _all_finite(view) is bool(np.isfinite(view).all())


class TestProductLengths:
    """SciPy's ``ddot`` and ``dgemv`` read only a prefix of a longer vector,
    so each product helper checks its lengths itself."""

    @pytest.mark.parametrize("a, b", [
        (np.ones(2), np.array([1.0, 2.0, 3.0])),
        (np.ones(3), np.ones(2)),
        (np.ones(2), np.ones((2, 1))),
    ])
    def test_dot_rejects_vectors_of_two_shapes(self, a, b):
        with pytest.raises(ValueError, match="dot product of shapes"):
            _dot(a, b)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1)])
    def test_matvec_rejects_a_vector_of_the_wrong_length(self, shape):
        M = np.ones(shape)
        cols = shape[1]
        for v in (np.ones(cols - 1), np.ones(cols + 1), np.ones((cols, 1))):
            with pytest.raises(ValueError, match=f"expected a vector of length {cols}"):
                _matvec(M, v)
