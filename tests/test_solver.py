import collections
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nasolve.solver as solver_mod
from nasolve import (
    ArmijoConfig,
    ConvergenceReport,
    IterationRecord,
    NonlinearProblem,
    SafeguardDecision,
    SolverConfig,
    Tridiagonal,
    adaptive_gamma_safeguard,
    anderson_gamma_1,
    armijo_backtrack,
    gamma_safeguard,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    na_m_update,
    na_update,
    solve,
    solve_linear,
    step_gains,
)
from nasolve.harness import history_rows
from oracle import gamma_grid_oracle


def newton_direction(p, x):
    """The Newton step w solving f'(x) w = -f(x)."""
    return solve_linear(p.jacobian(x), -np.asarray(p.residual(x), dtype=float))


def gamma_1(w_next, w_prev):
    """``anderson_gamma_1`` from the two steps."""
    scale = np.linalg.norm(w_next) + np.linalg.norm(w_prev)
    return anderson_gamma_1(w_next, w_next - w_prev, scale)


class TestAndersonGamma1:
    def test_orthogonal_pair(self):
        assert gamma_1(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5

    def test_degenerate_equal_steps(self):
        w = np.array([0.3, -0.7])
        assert gamma_1(w, w.copy()) == 0.0

    def test_matches_wide_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            w_next = rng.standard_normal(3)
            w_prev = rng.standard_normal(3)
            gamma = gamma_1(w_next, w_prev)
            assert abs(gamma) < 10.0
            best = gamma_grid_oracle(w_next, w_prev, -10.0, 10.0, 1e-4)
            assert abs(gamma - best) <= 1e-4

    def test_parallel_steps_cancel_exactly(self):
        # w_next parallel to w_next - w_prev: the mixed step vanishes
        w_next = np.array([1.0, 0.0])
        w_prev = np.array([2.0, 0.0])
        gamma = gamma_1(w_next, w_prev)
        assert gamma == -1.0
        mixed = w_next - gamma * (w_next - w_prev)
        assert np.linalg.norm(mixed) == 0.0


class TestNaUpdate:
    def test_lambda_zero_is_newton_bitwise(self):
        rng = np.random.default_rng(12)
        x_k = rng.standard_normal(5)
        x_km1 = rng.standard_normal(5)
        w_next = rng.standard_normal(5)
        w_prev = rng.standard_normal(5)
        out = na_update(x_k, x_km1, w_next, w_prev, gamma=0.83, lam=0.0)
        np.testing.assert_array_equal(out, x_k + w_next)

    def test_full_mixing_telescopes_to_previous_newton_iterate(self):
        x_k = np.array([0.0, 0.0])
        x_km1 = np.array([1.0, 0.0])
        w_next = np.array([1.0, 0.0])
        w_prev = np.array([1.0, 0.0])
        out = na_update(x_k, x_km1, w_next, w_prev, gamma=1.0, lam=1.0)
        np.testing.assert_array_equal(out, x_km1 + w_prev)

    def test_hand_evaluated_update(self):
        # x_k + w_next - lam*gamma*(x_k - x_km1 + w_next - w_prev)
        # = (1,0) - 0.5*((0,0)-(1,0)+(1,0)-(1,0)) = (1.5, 0)
        out = na_update(
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            gamma=0.5,
            lam=1.0,
        )
        np.testing.assert_array_equal(out, [1.5, 0.0])

    def test_lambda_range_enforced(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            na_update(z, z, z, z, gamma=0.5, lam=1.5)


class TestNaMUpdate:
    def test_depth_one_matches_scalar_route(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x_km1, x_k = rng.standard_normal(4), rng.standard_normal(4)
            w_prev, w_next = rng.standard_normal(4), rng.standard_normal(4)
            x_m, gamma_m = na_m_update([x_km1, x_k], [w_prev, w_next], 1)
            gamma = gamma_1(w_next, w_prev)
            x_s = na_update(x_k, x_km1, w_next, w_prev, gamma, 1.0)
            scale = 1.0 + np.linalg.norm(x_s)
            assert np.linalg.norm(x_m - x_s) / scale <= 1e-14
            assert abs(gamma_m[0] - gamma) <= 1e-14 * (1.0 + abs(gamma))

    def test_window_clamped_to_available_history(self):
        rng = np.random.default_rng(14)
        xs = [rng.standard_normal(3) for _ in range(2)]
        ws = [rng.standard_normal(3) for _ in range(2)]
        _, gamma = na_m_update(xs, ws, m=5)
        assert gamma.shape == (1,)

    def test_window_clamped_to_dimension(self):
        # four differences of 2-vectors: only the two newest are mixed
        rng = np.random.default_rng(15)
        xs = [rng.standard_normal(2) for _ in range(5)]
        ws = [rng.standard_normal(2) for _ in range(5)]
        x_next, gamma = na_m_update(xs, ws, m=4)
        ref = na_m_update(xs[-3:], ws[-3:], m=2)
        assert gamma.shape == (2,)
        assert x_next.tobytes() == ref[0].tobytes()
        assert gamma.tobytes() == ref[1].tobytes()

    def test_solve_with_depth_above_dimension(self):
        # rejected linesearch steps keep the 2-D solve going past k = 2, so
        # the depth-3 window would hold three columns of length two
        p = make_singular_quadratic()
        cfg = SolverConfig(
            method="na", m=3, linesearch=ArmijoConfig(c1=0.5, max_backtracks=2)
        )
        report = solve(p, [1.0, 1.0], cfg)
        assert report.status == "converged"
        assert report.iterations >= 4
        assert all(len(rec.gamma) <= 2 for rec in report.records[1:])

    def test_gain_of_window_clamped_to_dimension(self):
        # where m_k = len(gamma) = n = 2 is below min(k, m), F holds the
        # differences of the three newest steps: theta = |w - F gamma| / |w|
        p = make_singular_quadratic()
        cfg = SolverConfig(
            method="na", m=3, linesearch=ArmijoConfig(c1=0.5, max_backtracks=2)
        )
        report = solve(p, [1.0, 1.0], cfg)
        ws = [rec.w for rec in report.records]
        clamped = 0
        for k, (rec, gains) in enumerate(zip(report.records, step_gains(report))):
            if k == 0:
                continue
            m_k = len(rec.gamma)
            F = np.stack([ws[k - j] - ws[k - j - 1] for j in range(m_k)], axis=1)
            theta = np.linalg.norm(rec.w - F @ rec.gamma) / np.linalg.norm(rec.w)
            assert gains[1:] == (theta, theta)
            clamped += m_k < min(k, cfg.m)
        assert clamped > 0

    def test_zero_gamma_gives_newton_iterate(self):
        # equal consecutive steps make F the zero matrix, so gamma = 0
        x_km1 = np.array([1.0, 2.0])
        x_k = np.array([0.5, 1.0])
        w = np.array([0.25, -0.5])
        x_next, gamma = na_m_update([x_km1, x_k], [w, w.copy()], 1)
        np.testing.assert_array_equal(gamma, [0.0])
        np.testing.assert_array_equal(x_next, x_k + w)
        norm = float(np.linalg.norm(w))
        report = ConvergenceReport(
            records=(
                IterationRecord(0, x_km1, w, 1.0, norm),
                IterationRecord(1, x_k, w.copy(), 1.0, norm, gamma),
            ),
            status="max_iter",
        )
        _, theta, theta_lam = step_gains(report)[1]
        assert theta == theta_lam == 1.0

    def test_needs_history(self):
        with pytest.raises(ValueError):
            na_m_update([np.zeros(2)], [np.zeros(2)], 1)


class TestGammaSafeguard:
    # with r = 0.5 the gate beta = r * eta is eta / 2
    def test_gamma_above_one_scales_to_newton(self):
        dec = gamma_safeguard(gamma=1.5, eta=0.5, r=0.5)
        assert dec.case == "gamma_zero_or_ge_one"
        assert dec.lambda_value == 0.0

    def test_ratio_branch_hand_value(self):
        # gamma=0.5, beta=0.25: |g|/|1-g| = 1 > 0.25, lambda = 0.25/(0.5*1.25)
        dec = gamma_safeguard(gamma=0.5, eta=0.5, r=0.5)
        assert dec.case == "ratio_exceeded"
        assert dec.lambda_value == pytest.approx(0.4, abs=1e-15)
        assert dec.lambda_value * 0.5 == pytest.approx(0.25 / 1.25, abs=1e-15)

    def test_ratio_branch_lambda_rounding_capped_at_one(self, check_decision):
        # the gate's formula rounds to 1.0000000000000002 here
        gamma, beta = 0.19229774911805858, 0.23807999656814868
        assert beta / (gamma * (beta + 1.0)) > 1.0
        dec = gamma_safeguard(gamma, eta=2.0 * beta, r=0.5)
        assert (dec.case, dec.lambda_value, dec.beta) == ("ratio_exceeded", 1.0, beta)
        check_decision(dec, 2.0 * beta)

    def test_pass_through(self):
        dec = gamma_safeguard(gamma=0.1, eta=1.0, r=0.5)
        assert dec.case == "pass_through"
        assert dec.lambda_value == 1.0

    def test_preconditions(self):
        for r in (-0.5, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"r must lie in \[0, 1\)"):
                gamma_safeguard(0.5, 0.5, r)
        for r in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"r_hat must lie in \(0, 1\)"):
                adaptive_gamma_safeguard(0.5, 0.5, r)

    def test_r_zero_closes_the_gate(self):
        dec = gamma_safeguard(0.3, 0.0, 0.0)
        assert (dec.lambda_value, dec.r_used, dec.beta) == (0.0, 0.0, 0.0)
        # eta = 0 follows an overflowed step norm: r_used = min(eta, r_hat) = 0
        dec = adaptive_gamma_safeguard(0.3, 0.0, 0.5)
        assert (dec.lambda_value, dec.r_used, dec.beta) == (0.0, 0.0, 0.0)


class TestAdaptiveGammaSafeguard:
    def test_eta_below_cap(self):
        dec = adaptive_gamma_safeguard(gamma=0.01, eta=0.2, r_hat=0.9)
        assert dec.r_used == pytest.approx(0.2, abs=1e-15)
        assert dec.beta == pytest.approx(0.04, abs=1e-15)

    def test_eta_above_one_records_beta_as_is(self):
        dec = adaptive_gamma_safeguard(gamma=-0.3, eta=2.0, r_hat=0.5)
        assert dec.r_used == 0.5
        assert dec.beta == pytest.approx(1.0, abs=1e-15)

    def test_gamma_at_least_one_always_zero(self):
        for eta in (0.1, 1.0, 5.0):
            dec = adaptive_gamma_safeguard(gamma=1.0, eta=eta, r_hat=0.5)
            assert dec.lambda_value == 0.0

    def test_adaptive_dominance(self):
        # r_used <= r_hat, hence beta_adaptive <= beta_fixed at equal eta
        rng = np.random.default_rng(15)
        for _ in range(100):
            w_next = rng.standard_normal(3)
            w_prev = rng.standard_normal(3)
            r_hat = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(-2, 2)
            eta = np.linalg.norm(w_next) / np.linalg.norm(w_prev)
            ada = adaptive_gamma_safeguard(gamma, eta, r_hat)
            fix = gamma_safeguard(gamma, eta, r_hat)
            assert ada.r_used <= r_hat
            assert ada.beta <= fix.beta + 1e-15


class TestArmijoBacktrack:
    def test_linear_problem_accepts_full_step(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        p = NonlinearProblem(
            residual=lambda x: A @ x - b,
            jacobian=lambda x: A,
            default_start=np.zeros(4),
        )
        x = np.zeros(4)
        d = newton_direction(p, x)
        t, ok, xt, _ = armijo_backtrack(
            p, x, d, c1=1e-4, shrink=0.5, max_backtracks=30, fnorm=np.linalg.norm(b)
        )
        assert ok and t == 1.0
        np.testing.assert_array_equal(xt, x + d)

    def test_given_residual_is_not_reevaluated(self):
        points = []

        def residual(x):
            points.append(float(x[0]))
            return np.array([x[0] ** 2])

        p = NonlinearProblem(
            residual=residual,
            jacobian=lambda x: np.array([[2.0 * x[0]]]),
            default_start=np.ones(1),
        )
        x, d = np.array([1.0]), np.array([10.0])
        t, ok, xt, ft = armijo_backtrack(p, x, d, 1e-4, 0.5, 3, 1.0)
        assert (t, ok) == (0.25, False)
        assert points == [11.0, 6.0, 3.5]  # trial points only
        # the last trial point and its residual come back for reuse
        assert (xt.tolist(), ft.tolist()) == ([3.5], [12.25])

    def test_zero_direction_rejected(self):
        p = make_singular_quadratic()
        with pytest.raises(ValueError):
            armijo_backtrack(p, np.ones(2), np.zeros(2), 1e-4, 0.5, 10, np.sqrt(2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_rejected(self, bad):
        p = make_singular_quadratic()
        with pytest.raises(ValueError, match="^direction must be finite and nonzero$"):
            armijo_backtrack(
                p, np.ones(2), np.array([1.0, bad]), 1e-4, 0.5, 10, np.sqrt(2.0)
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_first_trial_point_is_x_plus_direction_bitwise(self, data):
        n = data.draw(st.integers(1, 20))
        entries = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        x = data.draw(arrays(np.float64, n, elements=entries))
        d = data.draw(arrays(np.float64, n, elements=entries).filter(np.count_nonzero))
        p = NonlinearProblem(lambda v: v, lambda v: np.eye(n), x)
        with np.errstate(over="ignore"):
            _, _, xt, _ = armijo_backtrack(p, x, d, 1e-4, 0.5, 1, 1.0)
            assert xt.tobytes() == (x + 1.0 * d).tobytes()

    def test_scalar_quadratic_full_step(self):
        p = NonlinearProblem(
            residual=lambda x: np.array([x[0] ** 2]),
            jacobian=lambda x: np.array([[2.0 * x[0]]]),
            default_start=np.ones(1),
        )
        t, ok, _, _ = armijo_backtrack(
            p, np.array([1.0]), np.array([-0.5]), c1=1e-4, shrink=0.5,
            max_backtracks=30, fnorm=1.0,
        )
        assert ok and t == 1.0

    def test_ascent_direction_flagged(self):
        p = NonlinearProblem(
            residual=lambda x: np.array([x[0] ** 2]),
            jacobian=lambda x: np.array([[2.0 * x[0]]]),
            default_start=np.ones(1),
        )
        t, ok, _, _ = armijo_backtrack(
            p, np.array([1.0]), np.array([10.0]), c1=1e-4, shrink=0.5,
            max_backtracks=3, fnorm=1.0,
        )
        assert not ok
        assert t == 0.25  # last trial: shrink^(max_backtracks - 1)


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "broyden"},
            {"m": 0},
            {"method": "gna", "m": 2},
            {"r": 0.0},
            {"r": 1.0},
            {"r_hat": 1.5},
            {"activation": "never"},
            {"threshold": 0.0},
            {"switch_to_m1_at": 0.1},  # only valid for method na
            {"method": "na", "switch_to_m1_at": -1.0},
            {"tol": 0.0},
            {"max_iter": 0},
            {"divergence_cap": 0.0},
            {"method": "newton", "m": 3},  # m is na's depth
            {"activation": "asymptotic"},  # only gna/agna activate a safeguard
            {"method": "na", "m": 3, "activation": "asymptotic", "threshold": 1e-2},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolve:
    def test_newton_singular_rate(self):
        p = make_singular_quadratic()
        report = solve(p, [1.0, 1.0], SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        sn = np.array([rec.step_norm for rec in report.records])
        np.testing.assert_allclose((sn[1:] / sn[:-1])[-5:], 0.5, atol=0.02)

    def test_first_step_is_pure_newton(self):
        p = make_chandrasekhar(1.0, 20)
        report = solve(p, np.ones(20), SolverConfig(method="na", m=1))
        first = report.records[0]
        assert first.gamma is None and first.decision is None
        w = newton_direction(p, np.ones(20))
        np.testing.assert_array_equal(report.records[1].x, np.ones(20) + w)

    def test_na1_beats_newton_on_singular_quadratic(self):
        p = make_singular_quadratic()
        cfg_n = SolverConfig(method="newton", tol=1e-10)
        cfg_a = SolverConfig(method="na", m=1, tol=1e-10)
        rep_n = solve(p, p.default_start, cfg_n)
        rep_a = solve(p, p.default_start, cfg_a)
        assert rep_n.status == rep_a.status == "converged"
        assert rep_a.iterations < rep_n.iterations

    def test_agna_detects_nonsingular_problem(self):
        p = make_chandrasekhar(0.5, 100)
        report = solve(
            p, np.zeros(100), SolverConfig(method="agna", r_hat=0.5, tol=1e-12)
        )
        assert report.status == "converged"
        r_hist = [rec.decision.r_used for rec in report.records
                  if rec.decision is not None]
        assert len(r_hist) >= 3
        assert all(b < a for a, b in zip(r_hist[-3:], r_hist[-3 + 1:]))
        assert report.q_term is not None and report.q_term >= 1.7

    def test_agna_from_ones_r_used_decays(self):
        # all-ones starts so close to the c=0.5 solution that only two
        # safeguarded steps occur; both still show the adaptive decay
        p = make_chandrasekhar(0.5, 100)
        report = solve(p, np.ones(100), SolverConfig(method="agna", r_hat=0.5))
        assert report.status == "converged"
        r_hist = [rec.decision.r_used for rec in report.records
                  if rec.decision is not None]
        assert len(r_hist) == 2 and r_hist[1] < r_hist[0] < 1e-2
        norms = [rec.step_norm for rec in report.records if rec.step_norm < 1.0]
        assert np.log(norms[-1]) / np.log(norms[-2]) >= 1.7

    def test_depth_window_is_min_k_m(self):
        p = make_chandrasekhar(1.0, 30)
        report = solve(p, np.ones(30), SolverConfig(method="na", m=3))
        for rec in report.records[1:]:
            assert len(rec.gamma) == min(rec.k, 3)

    def test_asymptotic_activation_latches(self):
        p = make_chandrasekhar(1.0, 50)
        cfg = SolverConfig(method="agna", r_hat=0.5, activation="asymptotic",
                           threshold=1e-2)
        report = solve(p, np.ones(50), cfg)
        assert report.status == "converged"
        applied = [rec.decision is not None for rec in report.records[1:]]
        assert any(applied)
        first = applied.index(True)
        # all mixing steps before activation are plain NA, all after safeguarded
        assert all(not a for a in applied[:first])
        assert all(applied[first:])
        # the history names the plain NA steps not_applied
        cases = [row["decision"] for row in history_rows(report)[1:]]
        assert cases[:first] == ["not_applied"] * first
        assert "not_applied" not in cases[first:]
        # activation fires exactly when the step norm drops below the threshold
        norms = [rec.step_norm for rec in report.records[1:]]
        assert norms[first] < 1e-2
        assert all(n >= 1e-2 for n in norms[:first])

    def test_hybrid_switch_to_depth_one(self):
        p = make_chandrasekhar(1.0, 50)
        cfg = SolverConfig(method="na", m=3, switch_to_m1_at=1e-1, r_hat=0.9)
        report = solve(p, np.ones(50), cfg)
        assert report.status == "converged"
        switched = [rec for rec in report.records[1:] if rec.decision is not None]
        assert switched
        for rec in switched:
            assert np.isscalar(rec.gamma)
        k_switch = switched[0].k
        for rec in report.records[1:]:
            if rec.k < k_switch:
                assert len(np.atleast_1d(rec.gamma)) == min(rec.k, 3)
        cases = [row["decision"] for row in history_rows(report)[1:]]
        assert cases[: k_switch - 1] == ["not_applied"] * (k_switch - 1)

    def test_newton_columns_empty(self):
        p = make_singular_quadratic()
        report = solve(p, [1.0, 1.0], SolverConfig(method="newton"))
        for rec in report.records:
            assert rec.gamma is None and rec.decision is None
        for row in history_rows(report):
            assert row["lambda"] is None and row["r_used"] is None

    def test_singular_jacobian_status(self):
        p = make_singular_quadratic()
        report = solve(p, [0.0, 5.0], SolverConfig(method="newton"))
        assert report.status == "singular_jacobian"
        assert report.iterations == 0

    def test_diverged_on_overflow(self):
        p = make_bratu_1d(1.0, 10)
        report = solve(p, 800.0 * np.ones(10), SolverConfig(method="newton"))
        assert report.status == "diverged"

    @pytest.mark.parametrize("linesearch", [None, ArmijoConfig()])
    def test_diverged_on_overflowing_step(self, linesearch):
        # the Newton step -1e150 / 1e-200 overflows to -inf
        p = NonlinearProblem(
            residual=lambda x: np.array([1e150]),
            jacobian=lambda x: np.array([[1e-200]]),
            default_start=np.zeros(1),
        )
        cfg = SolverConfig(divergence_cap=1e300, linesearch=linesearch)
        report = solve(p, p.default_start, cfg)
        assert report.status == "diverged"
        assert report.iterations == 1
        assert report.records[0].ls_t is None

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="na", m=1),
            SolverConfig(method="na", m=2),
            SolverConfig(method="na", m=3, linesearch=ArmijoConfig()),
            SolverConfig(method="agna"),
        ],
        ids=["na1", "na2", "na3-linesearch", "agna"],
    )
    def test_diverged_on_overflowing_mixed_step(self, cfg):
        # one Newton step to x = 0, where the step -1e150 / 1e-200 overflows
        p = NonlinearProblem(
            residual=lambda x: np.array([1.0 if x[0] == 1.0 else 1e150]),
            jacobian=lambda x: np.array([[1.0 if x[0] == 1.0 else 1e-200]]),
            default_start=np.ones(1),
        )
        cfg = dataclasses.replace(cfg, divergence_cap=1e300)
        report = solve(p, p.default_start, cfg)
        assert report.status == "diverged"
        assert report.iterations == 2
        assert report.records[1].step_norm == np.inf

    @pytest.mark.parametrize("m", [2, 3])
    def test_overflowing_anderson_window_is_not_mixed(self, m):
        # The first two Newton steps, (1.5e308, -1) and (-1e308, 0), overflow
        # in norm and are taken unmixed; the third, (1, 0), is finite, and
        # the difference of the first two overflows in its window.
        big = 1.5e308

        def residual(x):
            if x[0] == 0.0:
                return np.array([-1.5e150, 1e-158 * x[1]])
            if x[0] == big:
                return np.array([1e150, 1e-158 * x[1]])
            return np.array([-1.0, x[1]])

        p = NonlinearProblem(
            residual=residual,
            jacobian=lambda x: 1e-158 * np.eye(2) if x[0] in (0.0, big) else np.eye(2),
            default_start=np.array([0.0, 1.0]),
        )
        cfg = SolverConfig(method="na", m=m, divergence_cap=np.inf, max_iter=5)
        report = solve(p, p.default_start, cfg)
        assert report.status == "max_iter"
        assert [rec.step_norm for rec in report.records[:2]] == [np.inf, np.inf]
        unmixed = report.records[2]
        assert unmixed.gamma is None and unmixed.decision is None
        # the step taken is the Newton step
        np.testing.assert_array_equal(report.records[3].x, unmixed.x + unmixed.w)
        assert report.records[3].gamma is not None

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="gna", max_iter=4),
            SolverConfig(method="agna", max_iter=4),
            SolverConfig(method="agna", activation="asymptotic", max_iter=4),
            SolverConfig(method="na", m=1, switch_to_m1_at=1.0, max_iter=4),
            SolverConfig(method="na", m=2, switch_to_m1_at=1.0, max_iter=4),
        ],
        ids=["gna", "agna", "agna-asymptotic", "na1-switch", "na2-switch"],
    )
    def test_step_after_an_overflowed_step_norm_is_newton(self, cfg):
        # The first step, 1e170, overflows in norm while x stays finite; the
        # next ratio eta = 1e-161 / inf is 0, so the adaptive gate r_used =
        # min(eta, r_hat) is 0, which closes it: lambda = 0, a Newton step.
        p = NonlinearProblem(
            residual=lambda x: np.array([-1.0 if x[0] < 1.0 else 1.0]),
            jacobian=lambda x: np.array([[1e-170 if x[0] < 1.0 else 1e161]]),
            default_start=np.zeros(1),
        )
        report = solve(p, p.default_start, cfg)
        assert report.status == "max_iter"
        assert report.records[0].step_norm == np.inf
        first = report.records[1]
        assert (step_gains(report)[1][0], first.decision.lambda_value) == (0.0, 0.0)
        np.testing.assert_array_equal(report.records[2].x, first.x + first.w)
        if cfg.method != "gna":
            assert first.decision.r_used == 0.0

    def test_error_state_restored_after_nested_solves(self):
        # a residual that runs an inner solve, on an outer solve that diverges
        inner = make_singular_quadratic()

        def residual(x):
            solve(inner, inner.default_start, SolverConfig(method="na", m=2))
            return np.exp(np.exp(x))

        p = NonlinearProblem(
            residual=residual,
            jacobian=lambda x: np.eye(1),
            default_start=np.full(1, 10.0),  # exp(exp(10)) overflows
        )
        with np.errstate(over="raise", invalid="raise"):
            report = solve(p, p.default_start, SolverConfig(method="na", m=2))
            assert report.status == "diverged"
            assert np.geterr()["over"] == np.geterr()["invalid"] == "raise"

    def test_diverged_on_non_finite_dense_jacobian(self):
        p = NonlinearProblem(
            residual=lambda x: x - 1.0,
            jacobian=lambda x: np.array([[1.0, np.inf], [0.0, 1.0]]),
            default_start=np.zeros(2),
        )
        report = solve(p, p.default_start, SolverConfig())
        assert report.status == "diverged"
        assert report.iterations == 0

    def test_malformed_jacobian_raises(self):
        p = NonlinearProblem(
            residual=lambda x: x - 1.0,
            jacobian=lambda x: np.eye(3),
            default_start=np.zeros(2),
        )
        with pytest.raises(ValueError, match=re.escape(
            "jacobian returned shape (3, 3), expected (2, 2)"
        )):
            solve(p, p.default_start, SolverConfig())

    def test_diverged_on_non_finite_tridiagonal_jacobian(self):
        p = NonlinearProblem(
            residual=lambda x: x - 1.0,
            jacobian=lambda x: Tridiagonal(np.ones(2), [np.nan, 1.0, 1.0], np.ones(2)),
            default_start=np.zeros(3),
        )
        report = solve(p, p.default_start, SolverConfig())
        assert report.status == "diverged"
        assert report.iterations == 0

    def test_diverged_on_cap(self):
        p = make_bratu_1d(1.0, 10)
        cfg = SolverConfig(method="newton", divergence_cap=1e2)
        report = solve(p, 10.0 * np.ones(10), cfg)
        assert report.status == "diverged"

    def test_max_iter_status(self):
        p = make_chandrasekhar(1.0, 20)
        report = solve(p, np.ones(20), SolverConfig(method="newton", max_iter=3))
        assert report.status == "max_iter"
        assert report.iterations == 3

    def test_converged_at_start(self):
        p = make_bratu_1d(0.0, 10)
        report = solve(p, np.zeros(10), SolverConfig(method="newton"))
        assert report.status == "converged"
        assert report.iterations == 0
        np.testing.assert_array_equal(report.x_final, np.zeros(10))

    def test_x0_shape_validated(self):
        p = make_singular_quadratic()
        with pytest.raises(ValueError):
            solve(p, np.ones(3), SolverConfig())

    def test_x_final_is_root(self):
        p = make_chandrasekhar(0.5, 30)
        report = solve(p, np.ones(30), SolverConfig(method="newton"))
        assert np.linalg.norm(p.residual(report.x_final)) <= 1e-10

    def test_linesearch_accepts_full_steps_near_solution(self):
        p = make_bratu_1d(1.0, 50)
        cfg = SolverConfig(method="newton", linesearch=ArmijoConfig())
        report = solve(p, np.zeros(50), cfg)
        assert report.status == "converged"
        assert all(rec.ls_t == 1.0 and rec.ls_ok for rec in report.records)

    @pytest.mark.parametrize("method", ["newton", "agna"])
    def test_linesearch_trial_residual_is_reused(self, method):
        calls = []
        base = make_bratu_1d(1.0, 20)

        def residual(x):
            calls.append(1)
            return base.residual(x)

        p = NonlinearProblem(residual, base.jacobian, np.zeros(20))
        cfg = SolverConfig(method=method, linesearch=ArmijoConfig())
        report = solve(p, p.default_start, cfg)
        assert report.status == "converged"
        assert all(rec.ls_t == 1.0 for rec in report.records)
        # f(x0), then one accepted trial per step; no loop top re-evaluates it
        assert len(calls) == 1 + report.iterations

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="newton"),
            SolverConfig(method="na", m=1),
            SolverConfig(method="na", m=2),
            SolverConfig(method="gna"),
            SolverConfig(method="agna"),
        ],
        ids=["newton", "na1", "na2", "gna", "agna"],
    )
    def test_linesearch_skips_a_step_lost_to_rounding(self, cfg):
        # the step -1e-3 is below half an ulp of 1e20, so x + w == x: the
        # direction is zero, no search runs, and the solve stalls
        p = NonlinearProblem(
            lambda x: np.array([1e-3]), lambda x: np.ones((1, 1)),
            np.array([1e20]),
        )
        cfg = dataclasses.replace(cfg, linesearch=ArmijoConfig(), max_iter=5)
        report = solve(p, p.default_start, cfg)
        assert report.status == "max_iter"
        assert report.iterations == 5
        assert all(rec.ls_t is None and rec.ls_ok for rec in report.records)
        assert report.x_final.tolist() == [1e20]

    @pytest.mark.parametrize("method", ["newton", "agna"])
    @pytest.mark.parametrize(
        "f, J", [([1.0], [[1e170]]), ([1e3, 1.0], [[1e200, 0.0], [0.0, 1e200]])],
        ids=["1d", "2d"],
    )
    def test_step_whose_squares_underflow_is_not_a_zero_step(self, method, f, J):
        # |w| = |f| / 1e170 or 1e200: every square of w underflows to 0.0, yet
        # the residual stays at |f| >= 1, so the solve has not converged
        f, J = np.array(f), np.array(J)
        n = len(f)
        p = NonlinearProblem(lambda x: f, lambda x: J.copy(), np.zeros(n))
        report = solve(p, p.default_start, SolverConfig(method=method))
        assert report.status == "max_iter"
        assert report.iterations == 200
        expected = math.hypot(*np.linalg.solve(J, f))
        for rec in report.records:
            assert rec.step_norm == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("method", ["newton", "agna"])
    def test_each_linesearch_tests_its_direction_once(self, method, monkeypatch):
        tested = []
        all_finite = solver_mod._all_finite

        def counted(v):
            tested.append(v)
            return all_finite(v)

        monkeypatch.setattr(solver_mod, "_all_finite", counted)
        p = make_chandrasekhar(1.0, 20)
        cfg = SolverConfig(method=method, linesearch=ArmijoConfig())
        report = solve(p, p.default_start, cfg)
        assert report.status == "converged"
        # each iterate once at the loop top, each search direction once
        assert len(tested) == 2 * report.iterations + 1

    def test_weighted_norm_hook(self):
        # the norm |v|_W = |L^T v| with W = L L^T = diag(4, 1) is the
        # Euclidean norm in y = L^T x: g(y) = L^T f(L^-T y), J_g = L^T J L^-T
        p = make_singular_quadratic()
        lt, lt_inv = np.diag([2.0, 1.0]), np.diag([0.5, 1.0])
        scaled = NonlinearProblem(
            lambda y: lt @ p.residual(lt_inv @ y),
            lambda y: lt @ p.jacobian(lt_inv @ y) @ lt_inv,
            lt @ p.default_start,
        )
        report = solve(scaled, scaled.default_start, SolverConfig(method="newton"))
        # first Newton step is (-0.5, -1): weighted norm sqrt(4*0.25 + 1)
        assert report.records[0].step_norm == pytest.approx(np.sqrt(2.0))
        assert report.status == "converged"
        # Newton is affine covariant: the iterates map back to the plain ones
        plain = solve(p, p.default_start, SolverConfig(method="newton"))
        for rec, ref in zip(report.records, plain.records):
            np.testing.assert_allclose(lt_inv @ rec.x, ref.x, rtol=1e-14)


@pytest.fixture(scope="module")
def safeguarded_reports():
    runs = []
    p1 = make_singular_quadratic()
    p2 = make_chandrasekhar(1.0, 50)
    for p, x0 in ((p1, p1.default_start), (p2, p2.default_start)):
        for cfg in (
            SolverConfig(method="gna", r=0.5),
            SolverConfig(method="agna", r_hat=0.5),
            SolverConfig(method="agna", r_hat=0.9, activation="asymptotic"),
        ):
            runs.append(solve(p, x0, cfg))
    return runs


class TestSafeguardInvariants:
    def test_scaled_gamma_bounds(self, safeguarded_reports):
        checked = 0
        for report in safeguarded_reports:
            assert report.status == "converged"
            for rec, (eta, _, _) in zip(report.records, step_gains(report)):
                d = rec.decision
                if d is None or eta is None or eta >= 1.0:
                    continue
                lg = abs(d.lambda_value * rec.gamma)
                if d.case == "pass_through":
                    assert lg <= d.beta / (1.0 - d.beta) + 1e-12
                    checked += 1
                elif d.case == "ratio_exceeded":
                    sign = 1.0 if rec.gamma > 0 else -1.0
                    assert lg == pytest.approx(
                        d.beta / (1.0 + sign * d.beta), abs=1e-12
                    )
                    checked += 1
        assert checked > 0

    def test_lambda_in_unit_interval_and_sign(self, safeguarded_reports):
        for report in safeguarded_reports:
            for rec in report.records:
                if rec.decision is None:
                    continue
                lam = rec.decision.lambda_value
                assert 0.0 <= lam <= 1.0
                if lam > 0.0 and rec.gamma != 0.0:
                    assert np.sign(lam * rec.gamma) == np.sign(rec.gamma)

    def test_gain_bounded_by_one(self, safeguarded_reports):
        for report in safeguarded_reports:
            for _, theta, theta_lam in step_gains(report):
                if theta is not None:
                    assert theta <= 1.0 + 1e-12
                    assert theta <= theta_lam + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_norm_helper_equals_numpy_norm_bitwise(data):
    # with entries below about 1e-162 the squares sum below the smallest
    # normal float, where they may have underflowed
    entries = data.draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-160, 1e-160)
    ]))
    v = data.draw(arrays(np.float64, st.integers(1, 300), elements=entries))
    with np.errstate(over="ignore"):
        squares = v.dot(v)
        ref = np.linalg.norm(v)
        got = solver_mod._norm(v)
    assert type(got) is float
    if squares >= np.finfo(float).tiny:
        assert np.float64(got).tobytes() == ref.tobytes()
    else:
        # np.linalg.norm reads 0.0 where every square underflows
        assert (got > 0.0) == bool(np.count_nonzero(v))
        exact = math.hypot(*v)
        assert abs(got - exact) <= 4 * math.ulp(exact)


def _numpy_gamma_1(w_next, d, scale):
    """``anderson_gamma_1`` in NumPy products, the formula it reproduces."""
    dd = float(d @ d)
    if math.sqrt(dd) <= np.finfo(float).eps * scale:
        return 0.0
    return float((d @ w_next) / dd)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gamma_1_equals_numpy_formula_bitwise(data):
    n = data.draw(st.integers(1, 300))
    # with tiny entries d . w_next underflows, to -0.0 when it is negative
    entries = data.draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-160, 1e-160)
    ]))
    steps = arrays(np.float64, n, elements=entries)
    w_next, w_prev = data.draw(steps), data.draw(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        d = w_next - w_prev
        scale = solver_mod._norm(w_next) + solver_mod._norm(w_prev)
        ref = _numpy_gamma_1(w_next, d, scale)
        got = anderson_gamma_1(w_next, d, scale)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matvec_helper_equals_numpy_matmul_bitwise(data):
    long, short = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 4))
    # with tiny entries the products underflow, to -0.0 when they are negative
    entries = data.draw(
        st.sampled_from([st.floats(-1e100, 1e100), st.floats(-1e-170, 1e-170)])
    )
    layout = data.draw(st.sampled_from(["C", "transposed", "one row"]))
    if layout == "C":
        # n-by-m_k difference matrices, as na_m_update and step_gains pass
        M = data.draw(arrays(np.float64, (long, short), elements=entries))
    elif layout == "transposed":
        # Q[:, :rank].T of a Fortran-ordered Q, as least_squares passes
        Q = data.draw(arrays(np.float64, (long, short + 1), elements=entries))
        M = np.asfortranarray(Q)[:, :short].T
    else:
        M = data.draw(arrays(np.float64, (1, long), elements=entries))
    v = data.draw(arrays(np.float64, M.shape[1], elements=entries))
    got = solver_mod._matvec(M, v)
    assert got.dtype == np.float64 and got.shape == (M.shape[0],)
    assert got.tobytes() == (M @ v).tobytes()


class TestNewtonReduction:
    def test_forced_lambda_zero_reproduces_newton_bitwise(self, monkeypatch):
        zero = SafeguardDecision(case="gamma_zero_or_ge_one", lambda_value=0.0)
        for name in ("gamma_safeguard", "adaptive_gamma_safeguard"):
            monkeypatch.setattr(solver_mod, name, lambda *a, **k: zero)
        for p in (make_singular_quadratic(), make_chandrasekhar(1.0, 30)):
            ref = solve(p, p.default_start, SolverConfig(method="newton"))
            for method in ("gna", "agna"):
                rep = solve(p, p.default_start, SolverConfig(method=method))
                assert rep.status == ref.status
                assert rep.iterations == ref.iterations
                for a, b in zip(rep.records, ref.records):
                    assert np.array_equal(a.x, b.x)
                assert np.array_equal(rep.x_final, ref.x_final)


def manual_na_m_history(p, x0, m, tol=1e-10, max_iter=200):
    """Drive the generic-depth update directly (independent of solve)."""
    xs = [np.asarray(x0, dtype=float)]
    ws = []
    x = xs[0]
    for _ in range(max_iter):
        if np.linalg.norm(p.residual(x)) <= tol:
            break
        w = newton_direction(p, x)
        if not ws:
            x = x + w
        else:
            x, _ = na_m_update(xs, ws + [w], m)
        ws.append(w)
        xs.append(x)
    return xs


class TestNaDepthOneEquivalence:
    def test_matrix_route_matches_scalar_route_histories(self):
        problems = (
            make_singular_quadratic(),
            make_chandrasekhar(1.0, 30),
            make_bratu_1d(1.0, 30),
        )
        for p in problems:
            rep = solve(p, p.default_start, SolverConfig(method="na", m=1))
            assert rep.status == "converged"
            xs = manual_na_m_history(p, p.default_start, m=1)
            assert len(xs) == rep.iterations + 1
            for rec, x_ref in zip(rep.records, xs):
                scale = 1.0 + np.linalg.norm(x_ref)
                assert np.linalg.norm(rec.x - x_ref) / scale <= 1e-12


def bare_record(**fields):
    return IterationRecord(
        k=0, x=np.zeros(2), w=np.ones(2), residual_norm=1.0, step_norm=2.0, **fields
    )


class TestRecordTypes:
    def test_keyword_construction_with_defaults(self):
        rec = bare_record()
        assert (rec.k, rec.residual_norm, rec.step_norm) == (0, 1.0, 2.0)
        optional = ("gamma", "decision", "ls_t")
        assert all(getattr(rec, name) is None for name in optional)
        # the step ratio and the gains are derived, not stored
        assert len(rec._fields) == 9
        assert not {"eta", "theta", "theta_lambda"} & set(rec._fields)
        assert rec.ls_ok is True
        d = SafeguardDecision(case="pass_through", lambda_value=1.0)
        assert d == ("pass_through", 1.0, None, None)
        assert bare_record(decision=d).decision is d
        # a mixing step that no safeguard ran on holds no decision; its
        # history row reads not_applied, with lambda, r_used and beta empty
        mixed = IterationRecord(1, np.ones(2), np.ones(2), 1.0, 2.0, gamma=0.5)
        assert mixed.decision is None
        row = history_rows(ConvergenceReport((rec, mixed), "max_iter"))[1]
        assert (row["decision"], row["lambda"], row["r_used"], row["beta"]) == (
            "not_applied", None, None, None
        )

    def test_safeguard_fields_read_from_decision(self):
        d = SafeguardDecision("ratio_exceeded", 0.25, r_used=0.4, beta=0.2)
        rec = bare_record(decision=d)
        assert (d.lambda_value, d.r_used, d.beta) == (0.25, 0.4, 0.2)
        assert rec.decision is d
        assert "lam" not in rec._fields
        with pytest.raises(TypeError):
            bare_record(lam=0.25)

    def test_missing_required_field_raises(self):
        with pytest.raises(TypeError):
            IterationRecord(k=0, x=np.zeros(2))
        with pytest.raises(TypeError):
            SafeguardDecision(case="pass_through")

    def test_attributes_cannot_be_set(self):
        rec = bare_record()
        d = SafeguardDecision(case="pass_through", lambda_value=1.0)
        for obj in (rec, d):
            for name in (*obj._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0.5)
        assert rec.decision is None and d.lambda_value == 1.0

    def test_records_of_a_solve_hold_no_instance_dict(self):
        p = make_singular_quadratic()
        report = solve(p, p.default_start, SolverConfig(method="agna"))
        decisions = [rec.decision for rec in report.records if rec.decision is not None]
        assert decisions
        for obj in (*report.records, *decisions, bare_record()):
            assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="gna"),
            SolverConfig(method="agna", linesearch=ArmijoConfig()),
            SolverConfig(method="na", m=3, switch_to_m1_at=1e-3),
        ],
        ids=["gna", "agna-linesearch", "na3-switch"],
    )
    def test_solve_records_pass_public_construction(self, cfg, check_decision):
        # rebuilding each record by keyword must not change it, and each
        # decision solve() built must hold the decision invariant
        p = make_chandrasekhar(1.0, 10)
        report = solve(p, p.default_start, cfg)
        for rec, (eta, _, _) in zip(report.records, step_gains(report)):
            again = IterationRecord(**rec._asdict())
            assert all(a is b for a, b in zip(again, rec))
            if rec.decision is not None:
                check_decision(rec.decision, eta)
                # only a depth-1 mixing step is safeguarded
                assert np.isscalar(rec.gamma)


MALFORMED_RESIDUALS = {
    "column": lambda f: f.reshape(-1, 1),
    "too_long": lambda f: np.append(f, 0.0),
    "scalar": lambda f: f[0],
}


@pytest.mark.parametrize("malform", MALFORMED_RESIDUALS)
@pytest.mark.parametrize("where", ["start", "loop_top", "linesearch"])
def test_wrong_shape_residual_raises_where_returned(malform, where):
    base = make_singular_quadratic()
    calls = []

    def residual(x):
        calls.append(1)
        f = base.residual(x)
        good = where in ("loop_top", "linesearch") and len(calls) == 1
        return f if good else MALFORMED_RESIDUALS[malform](f)

    p = NonlinearProblem(residual, base.jacobian, np.ones(2))
    cfg = {
        "start": SolverConfig(),
        "loop_top": SolverConfig(method="agna"),
        "linesearch": SolverConfig(method="agna", linesearch=ArmijoConfig()),
    }[where]
    shape = np.shape(MALFORMED_RESIDUALS[malform](np.ones(2)))
    message = f"residual returned shape {shape}, expected (2,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(p, p.default_start, cfg)
    # raised by the first malformed residual, before any further evaluation
    assert len(calls) == (1 if where == "start" else 2)


MALFORMED_JACOBIANS = {
    "non_square": lambda x: np.ones((2, 3)),
    "one_column": lambda x: np.ones((2, 1)),
    "vector": lambda x: np.ones(2),
    "scalar": lambda x: 2.0,
    "tridiagonal": lambda x: Tridiagonal(np.ones(2), np.ones(3), np.ones(2)),
}


@pytest.mark.parametrize("malform", MALFORMED_JACOBIANS)
def test_wrong_shape_jacobian_raises(malform):
    jacobian = MALFORMED_JACOBIANS[malform]
    p = NonlinearProblem(lambda x: x - 1.0, jacobian, np.zeros(2))
    message = f"jacobian returned shape {np.shape(jacobian(None))}, expected (2, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(p, p.default_start, SolverConfig())


KERNELS = (
    "anderson_gamma_1",
    "na_update",
    "na_m_update",
    "gamma_safeguard",
    "adaptive_gamma_safeguard",
    "armijo_backtrack",
)


@pytest.mark.parametrize(
    "cfg, called",
    [
        (
            SolverConfig(method="gna"),
            {"anderson_gamma_1", "gamma_safeguard", "na_update"},
        ),
        (
            SolverConfig(method="agna"),
            {"anderson_gamma_1", "adaptive_gamma_safeguard", "gamma_safeguard",
             "na_update"},
        ),
        (SolverConfig(method="na", m=1), {"anderson_gamma_1", "na_update"}),
        (SolverConfig(method="na", m=3), {"na_m_update"}),
        (SolverConfig(linesearch=ArmijoConfig()), {"armijo_backtrack"}),
    ],
    ids=["gna", "agna", "na1", "na3", "newton-linesearch"],
)
def test_solve_calls_the_public_kernels(cfg, called, monkeypatch):
    # each step formula has one definition, and solve() is its caller
    calls = collections.Counter()

    def spy(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in KERNELS:
        monkeypatch.setattr(solver_mod, name, spy(name, getattr(solver_mod, name)))
    p = make_chandrasekhar(1.0, 20)
    report = solve(p, p.default_start, cfg)
    assert report.status == "converged"
    assert set(calls) == called
    mixing_steps = report.iterations - 1
    for name in called - {"armijo_backtrack"}:
        assert calls[name] == mixing_steps, name
    assert calls["armijo_backtrack"] in (0, report.iterations)


STATUSES = ("converged", "diverged", "singular_jacobian", "max_iter")


@st.composite
def solve_cases(draw):
    kind = draw(st.sampled_from(["singular_quadratic", "chandrasekhar", "bratu1d"]))
    if kind == "singular_quadratic":
        p = make_singular_quadratic()
    elif kind == "chandrasekhar":
        p = make_chandrasekhar(draw(st.floats(0.05, 1.0)), draw(st.integers(2, 20)))
    else:
        p = make_bratu_1d(draw(st.floats(0.0, 4.0)), draw(st.integers(3, 20)))
    scale = draw(st.sampled_from([1.0, 1e3, 1e150, 1e300]))
    x0 = draw(arrays(np.float64, p.dimension, elements=st.floats(-scale, scale)))
    method = draw(st.sampled_from(["newton", "na", "gna", "agna"]))
    kwargs = {"method": method, "max_iter": draw(st.integers(1, 40))}
    if method == "na":
        kwargs["m"] = draw(st.integers(1, 4))
        if draw(st.booleans()):
            kwargs["switch_to_m1_at"] = draw(st.sampled_from([1e-1, 1e-3]))
    if method in ("gna", "agna"):
        kwargs["activation"] = draw(st.sampled_from(["always", "asymptotic"]))
        kwargs["r"] = kwargs["r_hat"] = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        kwargs["linesearch"] = ArmijoConfig(
            c1=draw(st.sampled_from([1e-4, 0.5])),
            max_backtracks=draw(st.integers(1, 8)),
        )
    return p, x0, SolverConfig(**kwargs)


@settings(max_examples=200, deadline=None)
@given(case=solve_cases())
def test_solve_reports_a_status_and_consistent_records(case, check_decision):
    p, x0, cfg = case
    with warnings.catch_warnings():
        # a start far from the root may divide by zero in the residual
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve(p, x0, cfg)
    assert report.status in STATUSES
    assert report.iterations == len(report.records) <= cfg.max_iter
    assert [rec.k for rec in report.records] == list(range(report.iterations))
    for rec, (eta, _, _) in zip(report.records, step_gains(report)):
        if rec.decision is not None:
            assert 0.0 <= rec.decision.lambda_value <= 1.0
            check_decision(rec.decision, eta)


@pytest.mark.parametrize("order", ["C", "F-read-only"])
def test_cached_jacobian_is_left_unchanged(order):
    rng = np.random.default_rng(5)
    J = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    if order != "C":
        J = np.asfortranarray(J)
        J.flags.writeable = False
    J0 = J.copy(order="K")
    target = np.linspace(-1.0, 1.0, 6)
    p = NonlinearProblem(  # chord-like: every jacobian call returns the one J
        residual=lambda x: J @ (x - target) + 0.1 * (x - target) ** 3,
        jacobian=lambda x: J,
        default_start=np.zeros(6),
    )
    report = solve(p, p.default_start, SolverConfig(method="na", m=2))
    assert report.status == "converged" and report.iterations > 2
    assert J.tobytes() == J0.tobytes()


@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(method="newton"), SolverConfig(method="agna"),
     SolverConfig(method="na", m=3)],
    ids=["newton", "agna", "na3"],
)
def test_dense_solve_holds_one_jacobian(cfg):
    # Each step owns the Jacobian it factors: the LU overwrites it, and it is
    # freed before the next one is built.  Holding two n-by-n matrices (or
    # factoring a copy) would put the peak above 2 n^2 doubles.
    n = 300
    p = make_chandrasekhar(1.0, n)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        report = solve(p, p.default_start, cfg)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert report.status == "converged"
    assert peak < 1.6 * n * n * 8
