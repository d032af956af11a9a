import dataclasses
import statistics

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nasolve import (
    ConvergenceReport,
    IterationRecord,
    NonlinearProblem,
    SolverConfig,
    make_chandrasekhar,
    solve,
    step_gains,
)
from nasolve.diagnostics import _step_orders
from nasolve.harness import history_rows


def _report(step_norms):
    """A report whose records differ only in their step norms."""
    x = np.zeros(1)
    records = tuple(IterationRecord(k, x, x, 1.0, s) for k, s in enumerate(step_norms))
    return ConvergenceReport(records, "max_iter")


class TestQTerm:
    """The per-pair q = log(b) / log(a) of ``_step_orders`` and ``q_term``."""

    def test_exact_quadratic_sequence(self):
        norms = [2.0**-1, 2.0**-2, 2.0**-4, 2.0**-8]
        np.testing.assert_allclose(_step_orders(norms), [2.0, 2.0, 2.0], atol=1e-13)
        assert _report(norms).q_term == pytest.approx(2.0, abs=1e-13)

    def test_geometric_ratio_half(self):
        norms = [2.0**-k for k in range(1, 7)]
        qs = _step_orders(norms)
        np.testing.assert_allclose(qs, [(k + 1) / k for k in range(1, 6)], atol=1e-13)
        q_term = _report(norms).q_term
        assert q_term == pytest.approx(1.25, abs=1e-13)
        assert q_term < 1.3

    def test_constant_norms(self):
        assert _step_orders([0.5, 0.5, 0.5]) == [1.0, 1.0]
        assert _report([0.5, 0.5, 0.5]).q_term == 1.0

    def test_too_few_eligible_is_none(self):
        # too few norms below 1 is no error: the order is undefined, None
        assert _step_orders([0.5, 0.25]) == [2.0]
        assert _report([0.5, 0.25]).q_term is None
        assert _step_orders([3.0, 2.0, 0.5, 0.25]) == [None, None, 2.0]
        assert _report([3.0, 2.0, 0.5, 0.25]).q_term is None
        # three norms below 1, but no consecutive pair of them
        norms = [0.5, 2.0, 0.5, 2.0, 0.5]
        assert _step_orders(norms) == [None] * 4
        assert _report(norms).q_term is None

    def test_pairs_straddling_one_are_skipped(self):
        qs = _step_orders([2.0, 0.5, 0.25, 0.125])
        assert qs[0] is None  # (2.0, 0.5) is ineligible
        assert len([q for q in qs if q is not None]) == 2

    def test_doubly_exponential_property(self):
        for a in (0.5, 0.3, 0.9):
            norms = [a ** (2**k) for k in range(6)]
            np.testing.assert_allclose(_step_orders(norms), 2.0, atol=1e-12)
            assert _report(norms).q_term == pytest.approx(2.0, abs=1e-12)


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=4.0, exclude_min=True),
            st.sampled_from([0.5, 1.0]),
        ),
        max_size=10,
    )
)
def test_q_term_is_the_median_of_the_last_three_q_cells(step_norms):
    report = _report(step_norms)
    qs = [row["q"] for row in history_rows(report) if row["q"] is not None]
    if sum(s < 1.0 for s in step_norms) >= 3 and qs:
        assert report.q_term == statistics.median(qs[-3:])
    else:
        assert report.q_term is None


class TestStepGains:
    def test_na_gains_bounded_and_dominated(self):
        p = make_chandrasekhar(1.0, 50)
        for cfg in (SolverConfig(method="na", m=1),
                    SolverConfig(method="agna", r_hat=0.5)):
            report = solve(p, np.ones(50), cfg)
            # the mixing steps: theta is None on the others
            pairs = [(t, tl) for _, t, tl in step_gains(report) if t is not None]
            theta, theta_lam = map(np.array, zip(*pairs))
            assert len(theta) >= 1
            assert np.all(theta <= 1.0 + 1e-12)
            assert np.all(theta <= theta_lam + 1e-12)

    def test_unscaled_step_has_unit_scaled_gain(self):
        # a gamma_zero_or_ge_one decision means lambda*gamma = 0: theta_lambda = 1
        p = make_chandrasekhar(1.0, 50)
        # f = exp has no root: every Newton step is -1, so gamma = 0
        exp = NonlinearProblem(np.exp, lambda x: np.exp(x)[:, None], np.zeros(1))
        cfg = SolverConfig(method="agna", r_hat=0.5)
        reports = (
            solve(p, np.ones(50), cfg),
            solve(exp, np.zeros(1), dataclasses.replace(cfg, max_iter=5)),
        )
        zeroed = [
            theta_lam
            for report in reports
            for rec, (_, _, theta_lam) in zip(report.records, step_gains(report))
            if rec.decision is not None and rec.decision.case == "gamma_zero_or_ge_one"
        ]
        assert len(zeroed) == 4
        for theta_lam in zeroed:
            assert theta_lam == pytest.approx(1.0, abs=1e-15)


class TestReportProperties:
    def test_r_used_decays_and_q_term_is_superlinear(self):
        p = make_chandrasekhar(0.5, 100)
        report = solve(p, np.zeros(100), SolverConfig(method="agna", r_hat=0.1,
                                                      tol=1e-12))
        assert report.status == "converged"
        r_hist = [rec.decision.r_used for rec in report.records
                  if rec.decision is not None]
        assert len(r_hist) == report.iterations - 1
        assert r_hist[-1] <= 1e-2 * 0.1
        assert all(b < a for a, b in zip(r_hist, r_hist[1:]))
        assert report.q_term is not None and report.q_term >= 1.7

    def test_q_term_none_on_short_run(self):
        p = make_chandrasekhar(0.5, 100)
        report = solve(p, np.ones(100), SolverConfig(method="newton"))
        assert report.q_term is None
