import numpy as np
import pytest

from nasolve import anderson_gamma_1, gamma_safeguard
from nasolve.harness import fold_sweep
from oracle import gamma_grid_oracle, safeguard_case_oracle


class TestGammaGridOracle:
    def test_known_minimizer(self):
        best = gamma_grid_oracle(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), -2.0, 2.0, 1e-4
        )
        assert abs(best - 0.5) <= 1e-4

    def test_degenerate_ties_break_to_smallest_gamma(self):
        w = np.array([0.4, -0.2])
        best = gamma_grid_oracle(w, w.copy(), -2.0, 2.0, 1e-4)
        assert abs(best) <= 1e-4

    def test_tracks_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            w_next = rng.standard_normal(4)
            w_prev = rng.standard_normal(4)
            scale = np.linalg.norm(w_next) + np.linalg.norm(w_prev)
            gamma = anderson_gamma_1(w_next, w_next - w_prev, scale)
            best = gamma_grid_oracle(w_next, w_prev, gamma - 1.0, gamma + 1.0, 1e-4)
            assert abs(best - gamma) <= 1e-4

    def test_validation(self):
        w = np.ones(2)
        with pytest.raises(ValueError):
            gamma_grid_oracle(w, w, 1.0, -1.0, 1e-4)
        with pytest.raises(ValueError):
            gamma_grid_oracle(w, w, -1.0, 1.0, 0.0)


class TestSafeguardCaseOracle:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_zero_or_large_gamma(self, gamma):
        assert safeguard_case_oracle(gamma, 0.25) == 0.0

    def test_negative_gamma_hand_value(self):
        # |g|/|1-g| = 1/3 > 1/4: lambda = 0.25/(-0.5*(0.25-1)) = 2/3
        lam = safeguard_case_oracle(-0.5, 0.25)
        assert lam == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert abs(lam * -0.5) == pytest.approx(0.25 / 0.75, abs=1e-15)

    def test_positive_gamma_hand_value(self):
        assert safeguard_case_oracle(0.5, 0.25) == pytest.approx(0.4, abs=1e-15)

    def test_pass_through(self):
        assert safeguard_case_oracle(0.1, 0.5) == 1.0

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            safeguard_case_oracle(0.5, 0.0)

    def test_differential_against_solver(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            beta = rng.uniform(1e-6, 1.0 - 1e-6)
            gamma = rng.uniform(-3.0, 3.0)
            # the gate r * eta is beta exactly
            dec = gamma_safeguard(gamma, eta=2.0 * beta, r=0.5)
            assert abs(dec.lambda_value - safeguard_case_oracle(gamma, beta)) <= 1e-14


class TestFoldSweep:
    def test_sweep_ending_before_failure_returns_end(self):
        assert fold_sweep(30, 0.5, 1.0, 0.25) == 1.0

    def test_start_beyond_fold_returns_none(self):
        assert fold_sweep(30, 5.0, 5.5, 0.25) is None

    def test_coarse_fold_location(self):
        lam = fold_sweep(100, 3.3, 3.6, 0.05)
        assert lam == pytest.approx(3.5, abs=0.051)

    def test_step_validated(self):
        with pytest.raises(ValueError):
            fold_sweep(30, 1.0, 2.0, 0.0)
