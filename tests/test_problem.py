import math

import numpy as np
import pytest

from nasolve import (
    SolverConfig,
    Tridiagonal,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    problem_from_id,
    solve,
)
from oracle import check_jacobian


def terminal_pairwise_order(report):
    """log|w_last| / log|w_prev| over the last pair of sub-unit step norms."""
    norms = [rec.step_norm for rec in report.records if 0.0 < rec.step_norm < 1.0]
    assert len(norms) >= 2
    return math.log(norms[-1]) / math.log(norms[-2])


class TestSingularQuadratic:
    def test_residual_and_jacobian_values(self):
        p = make_singular_quadratic()
        np.testing.assert_array_equal(p.residual(np.array([1.0, 1.0])), [1.0, 1.0])
        np.testing.assert_array_equal(
            p.jacobian(np.array([1.0, 1.0])), [[2.0, 0.0], [0.0, 1.0]]
        )

    def test_root_and_null_direction(self):
        # the root 0, and (1, 0) spans the Jacobian's null space there
        p = make_singular_quadratic()
        np.testing.assert_array_equal(p.residual(np.zeros(2)), [0.0, 0.0])
        J = p.jacobian(np.zeros(2))
        np.testing.assert_array_equal(J @ np.array([1.0, 0.0]), [0.0, 0.0])

    def test_jacobian_at_root_rank_one(self):
        p = make_singular_quadratic()
        assert np.linalg.matrix_rank(p.jacobian(np.zeros(2))) == 1

    def test_newton_halves_null_component_exactly(self):
        # x <- x - f'(x)^-1 f(x) halves the first component at every step
        p = make_singular_quadratic()
        report = solve(p, [1.0, 1.0], SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        for rec in report.records:
            assert rec.x[0] == 2.0 ** (-rec.k)


class TestChandrasekhar:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_chandrasekhar(0.0, 10)
        with pytest.raises(ValueError):
            make_chandrasekhar(1.2, 10)
        with pytest.raises(ValueError):
            make_chandrasekhar(-0.5, 10)
        with pytest.raises(ValueError):
            make_chandrasekhar(0.5, 1)

    def test_small_c_limit_root_near_ones(self):
        # at c -> 0 the equation decouples and H = 1 solves it
        c = 1e-8
        p = make_chandrasekhar(c, 50)
        rnorm = np.linalg.norm(p.residual(np.ones(50)))
        assert rnorm <= np.sqrt(50) * c * 1.001

    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_jacobian_equals_eye_minus_scaled_kernel(self, n):
        c = 0.9
        p = make_chandrasekhar(c, n)
        mu = (np.arange(1, n + 1) - 0.5) / n
        A = (c / (2.0 * n)) * mu[:, None] / (mu[:, None] + mu[None, :])
        rng = np.random.default_rng(n)
        for H in (np.ones(n), 1.0 + 0.5 * rng.standard_normal(n)):
            d = 1.0 / (1.0 - A @ H)
            expected = np.eye(n) - (d * d)[:, None] * A
            J = p.jacobian(H)
            assert np.array_equal(J, expected)
            assert J.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_jacobian_is_fortran_ordered_to_the_sign_bit(self, n):
        p = make_chandrasekhar(1.0, n)
        mu = (np.arange(1, n + 1) - 0.5) / n
        A = (1.0 / (2.0 * n)) * mu[:, None] / (mu[:, None] + mu[None, :])
        # at H = 1e300 every d_i^2 underflows, so off the diagonal J is -0.0
        for H in (np.ones(n), np.full(n, 1e300)):
            d = 1.0 / (1.0 - A @ H)
            expected = -(d * d)[:, None] * A
            expected.flat[:: n + 1] += 1.0
            J = p.jacobian(H)
            assert J.dtype == np.float64 and J.flags.f_contiguous
            assert J.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(J), np.signbit(expected))
        assert np.signbit(J[~np.eye(n, dtype=bool)]).all()
        assert not J[~np.eye(n, dtype=bool)].any()

    def test_each_jacobian_is_a_fresh_array(self):
        p = make_chandrasekhar(1.0, 5)
        J1, J2 = p.jacobian(np.ones(5)), p.jacobian(np.ones(5))
        assert not np.shares_memory(J1, J2)

    def test_residual_rejects_wrong_length(self):
        p = make_chandrasekhar(1.0, 5)
        for H in (np.ones(4), np.ones(6), np.ones((5, 1))):
            with pytest.raises(ValueError, match="expected a vector of length 5"):
                p.residual(H)
            with pytest.raises(ValueError, match="expected a vector of length 5"):
                p.jacobian(H)

    def test_nonsingular_newton_terminal_order(self):
        # c = 0.5 is nonsingular: terminal convergence is quadratic-or-better
        p = make_chandrasekhar(0.5, 100)
        report = solve(p, np.ones(100), SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        assert terminal_pairwise_order(report) >= 1.8

    def test_singular_newton_linear_rate_half(self):
        # c = 1: Jacobian singular at the solution, step ratio tends to 1/2
        p = make_chandrasekhar(1.0, 100)
        report = solve(p, np.ones(100), SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        sn = np.array([rec.step_norm for rec in report.records])
        ratios = sn[1:] / sn[:-1]
        np.testing.assert_allclose(ratios[-5:], 0.5, atol=0.02)


class TestBratu1d:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_bratu_1d(-0.1, 10)
        with pytest.raises(ValueError):
            make_bratu_1d(1.0, 2)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_raises(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            make_bratu_1d(lam, 10)

    def test_lambda_zero_root_is_zero(self):
        p = make_bratu_1d(0.0, 20)
        np.testing.assert_array_equal(p.residual(np.zeros(20)), np.zeros(20))

    def test_jacobian_is_tridiagonal_three_point_stencil(self):
        n, lam = 6, 2.0
        u = np.linspace(-0.5, 0.5, n)
        J = make_bratu_1d(lam, n).jacobian(u)
        assert isinstance(J, Tridiagonal)
        h2 = (1.0 / (n + 1)) ** 2
        off = np.full(n - 1, 1.0 / h2)
        expected = (
            np.diag(-2.0 / h2 + lam * np.exp(u)) + np.diag(off, 1) + np.diag(off, -1)
        )
        np.testing.assert_array_equal(np.asarray(J), expected)

    def test_far_from_fold_newton_terminal_order(self):
        p = make_bratu_1d(1.0, 100)
        report = solve(p, np.zeros(100), SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        assert terminal_pairwise_order(report) >= 1.8


class TestCheckJacobian:
    def test_singular_quadratic_central_difference(self):
        p = make_singular_quadratic()
        assert check_jacobian(p, np.array([1.0, 1.0]), 1e-5) <= 1e-6

    def test_exact_for_quadratic_at_root(self):
        # central differences are exact for quadratics up to rounding
        p = make_singular_quadratic()
        assert check_jacobian(p, np.zeros(2), 1e-5) <= 1e-12

    def test_chandrasekhar(self):
        p = make_chandrasekhar(0.5, 10)
        assert check_jacobian(p, np.ones(10), 1e-6) <= 1e-5

    def test_rejects_nonpositive_step(self):
        p = make_singular_quadratic()
        with pytest.raises(ValueError):
            check_jacobian(p, np.ones(2), 0.0)

    def test_all_builtins_at_random_points(self):
        rng = np.random.default_rng(7)
        problems = [
            (make_singular_quadratic(), lambda: rng.uniform(-2, 2, 2)),
            (make_chandrasekhar(0.5, 20), lambda: 1.0 + 0.3 * rng.standard_normal(20)),
            (make_bratu_1d(1.0, 20), lambda: 0.2 * rng.standard_normal(20)),
        ]
        for p, draw in problems:
            for _ in range(10):
                assert check_jacobian(p, draw(), 1e-5) <= 1e-4


def test_declared_roots_have_tiny_residual():
    # the closed-form roots: 0 for singular_quadratic and Bratu at lambda = 0
    for p in (make_singular_quadratic(), make_bratu_1d(0.0, 10)):
        root = np.zeros(p.dimension)
        rnorm = np.linalg.norm(p.residual(root))
        assert rnorm <= 1e-10 * (1.0 + np.linalg.norm(root))


class TestRegistry:
    def test_ids(self):
        assert problem_from_id("singular_quadratic").dimension == 2
        assert problem_from_id("chandrasekhar", {"c": "1.0", "n": "30"}).dimension == 30
        assert problem_from_id("bratu1d", {"lambda": "2.0", "n": "15"}).dimension == 15

    def test_defaults(self):
        # the registry's defaults, seen through the residual bit for bit
        x = 1.0 + 0.1 * np.random.default_rng(0).standard_normal(100)
        for problem_id, made in (
            ("chandrasekhar", make_chandrasekhar(0.5, 100)),
            ("bratu1d", make_bratu_1d(1.0, 100)),
        ):
            p = problem_from_id(problem_id)
            assert p.dimension == made.dimension == 100
            assert p.residual(x).tobytes() == made.residual(x).tobytes()

    def test_unknown_id_and_params(self):
        with pytest.raises(ValueError):
            problem_from_id("poisson")
        with pytest.raises(ValueError):
            problem_from_id("bratu1d", {"mu": 1.0})

    def test_default_starts(self):
        np.testing.assert_array_equal(
            problem_from_id("singular_quadratic").default_start, [1.0, 1.0]
        )
        np.testing.assert_array_equal(
            problem_from_id("chandrasekhar", {"n": 5}).default_start, np.ones(5)
        )
        np.testing.assert_array_equal(
            problem_from_id("bratu1d", {"n": 5}).default_start, np.zeros(5)
        )
