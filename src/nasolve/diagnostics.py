"""Post-hoc analysis of solver runs.

Convergence-order estimation from step norms, and step ratios and
optimization gains derived from the records.  All functions here are pure
over immutable reports and safe for concurrent use.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .linalg import _difference_matrix, _matvec, _norm

__all__ = [
    "ConvergenceReport",
    "step_gains",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Full history of a solve plus its termination status.

    ``status`` is one of ``converged``, ``diverged``, ``singular_jacobian``
    or ``max_iter``.  ``records`` holds one IterationRecord per step taken;
    ``x_final`` is the iterate at termination (the approximate root when
    ``status == "converged"``).  Reports are immutable once returned.
    """

    records: tuple
    status: str
    x_final: np.ndarray | None = None

    @property
    def iterations(self):
        """Number of steps taken, ``len(records)``."""
        return len(self.records)

    @property
    def q_term(self):
        """Terminal convergence order: the median of the last three (or fewer)
        values of the history's ``q`` column, q = log(b) / log(a) for
        consecutive step norms a, b both below 1.  None when fewer than 3 step
        norms lie below 1 or no pair does."""
        norms = [rec.step_norm for rec in self.records]
        qs = [q for q in _step_orders(norms) if q is not None]
        below = sum(norm < 1.0 for norm in norms)
        return statistics.median(qs[-3:]) if below >= 3 and qs else None


def _step_orders(norms):
    """q = log(b) / log(a) for each consecutive pair a, b of step norms,
    None unless both lie in (0, 1): the log-ratio is meaningless there."""
    return [
        math.log(b) / math.log(a) if 0.0 < a < 1.0 and 0.0 < b < 1.0 else None
        for a, b in zip(norms, norms[1:])
    ]


def _ratio(a, b):
    """a / b for floats, with the IEEE inf or NaN where b is 0."""
    return a / b if b else float(np.float64(a) / b)


def step_gains(report):
    """Per record, the step ratio and optimization gains (eta, theta, theta_lambda).

    ``eta`` = |w_k| / |w_{k-1}| is the ratio of consecutive step norms, None
    on the first record.  ``theta`` = |w - F gamma| / |w| is how much the
    mixing coefficient gamma shrinks the Newton step w, ``theta_lambda`` the
    same ratio for the safeguarded lambda * gamma; both are None without a
    gamma.  At depth 1 (a float gamma) F is w - w_prev and lambda is
    ``decision.lambda_value``, 1 without a decision.  At depth m (a vector
    of length m_k) F holds the differences of the m_k+1 newest steps, newest
    first, theta_lambda = theta, and theta is 0 for a zero step.  The float
    arithmetic is that of the step loop, so the values are those the step's
    own norms give to the bit; a zero divisor gives inf or NaN, not an error.
    """
    records = report.records
    gains = []
    prev = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, rec in enumerate(records):
            w, norm, gamma = rec.w, rec.step_norm, rec.gamma
            eta = None if prev is None else _ratio(norm, prev.step_norm)
            theta = theta_lam = None
            if isinstance(gamma, np.ndarray):
                m_k = len(gamma)
                if m_k > i:
                    raise ValueError(f"record {i} mixes {m_k} earlier steps")
                F = _difference_matrix([r.w for r in records[i - m_k:i + 1]], m_k)
                theta = theta_lam = (
                    _norm(w - _matvec(F, gamma)) / norm if norm > 0.0 else 0.0
                )
            elif gamma is not None:
                d = w - prev.w
                theta = _ratio(_norm(w - gamma * d), norm)
                lam = 1.0 if rec.decision is None else rec.decision.lambda_value
                theta_lam = (
                    theta if lam == 1.0 else _ratio(_norm(w - (lam * gamma) * d), norm)
                )
            gains.append((eta, theta, theta_lam))
            prev = rec
    return gains
