"""Independent brute-force verifiers used by the tests.

Everything here is deliberately written as a separate code path from the
solver fast paths (no shared helpers for the safeguard formula), so
differential tests catch transcription errors in the case logic.
"""

import numpy as np

__all__ = ["check_jacobian", "gamma_grid_oracle", "safeguard_case_oracle"]


def gamma_grid_oracle(w_next, w_prev, lo, hi, step):
    """Grid-search minimizer of |w_next - gamma*(w_next - w_prev)|.

    Evaluates the objective at lo, lo+step, ... and returns the best grid
    point.  Exact ties (e.g. w_prev == w_next, where every gamma ties) are
    broken toward the smallest |gamma|.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not step > 0.0:
        raise ValueError("grid step must be positive")
    w_next = np.asarray(w_next, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    npts = int(np.floor((hi - lo) / step + 1e-9)) + 1
    grid = lo + step * np.arange(npts)
    d = w_next - w_prev
    vals = np.linalg.norm(w_next[None, :] - grid[:, None] * d[None, :], axis=1)
    best = vals.min()
    tied = vals == best
    idx = int(np.argmin(np.where(tied, np.abs(grid), np.inf)))
    return float(grid[idx])


def safeguard_case_oracle(gamma, beta):
    """Safeguard scaling lambda by literal case enumeration.

    Re-implemented independently of ``solver.gamma_safeguard`` for
    differential testing: given the gate beta > 0, returns 0 when gamma is
    0 or at least 1, the ratio-branch value when |gamma|/|1-gamma| exceeds
    beta, and 1 otherwise.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if gamma == 0.0 or gamma >= 1.0:
        return 0.0
    if abs(gamma) / abs(1.0 - gamma) > beta:
        if gamma > 0.0:
            return beta / (gamma * (beta + 1.0))
        return beta / (gamma * (beta - 1.0))
    return 1.0


def check_jacobian(p, x, h):
    """Max column-wise discrepancy between analytic and central-difference Jacobian.

    Returns ``max_j || (f(x + h e_j) - f(x - h e_j)) / 2h - f'(x) e_j ||_inf``.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    J = np.asarray(p.jacobian(x), dtype=float)
    worst = 0.0
    for j in range(p.dimension):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (np.asarray(p.residual(xp)) - np.asarray(p.residual(xm))) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - J[:, j]))))
    return worst
