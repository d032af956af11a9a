"""Stepping engines: Newton, Newton-Anderson, and safeguarded variants.

Four methods are provided through one ``solve`` entry point:

* ``newton``   -- plain Newton iteration.
* ``na``       -- depth-m Anderson-accelerated Newton.  Each step mixes the
  last m+1 Newton steps through a small least-squares problem; for m = 1 the
  mixing coefficient has the scalar closed form implemented in
  ``anderson_gamma_1``.
* ``gna``      -- Newton-Anderson(1) with fixed safeguarding: the Anderson
  correction is scaled by lambda in [0, 1] so the combined step stays within
  a gate beta = r * |w_next| / |w_prev| of a pure Newton step.
* ``agna``     -- the adaptive variant: r is replaced per iteration by
  r_used = min(eta, r_hat) with eta = |w_next| / |w_prev|, so safeguarding
  tightens automatically as the solve converges and quadratic convergence is
  recovered on nonsingular problems.

Safeguarding is only defined for depth m = 1.  ``switch_to_m1_at`` supports
the hybrid strategy of running NA(m) in the preasymptotic phase and dropping
to adaptively safeguarded depth 1 once steps become small.

A solve is strictly sequential; solver state is confined to one run, so
multiple solves over shared (immutable) problems may run concurrently.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import ConvergenceReport
from .linalg import (
    _EPS,
    NonFiniteInput,
    SingularMatrix,
    _all_finite,
    _difference_matrix,
    _dot,
    _matvec,
    _norm,
    least_squares,
    solve_linear,
)

__all__ = [
    "METHODS",
    "ACTIVATIONS",
    "ArmijoConfig",
    "SolverConfig",
    "SafeguardDecision",
    "IterationRecord",
    "anderson_gamma_1",
    "na_update",
    "na_m_update",
    "gamma_safeguard",
    "adaptive_gamma_safeguard",
    "armijo_backtrack",
    "solve",
]

METHODS = ("newton", "na", "gna", "agna")
ACTIVATIONS = ("always", "asymptotic")


def _check_count(name, value):
    """ValueError unless ``value`` is an integer (NumPy's too) of at least 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class ArmijoConfig:
    """Backtracking linesearch on the merit function 0.5*|f|^2."""

    c1: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 30

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must lie in (0, 1), got {self.shrink}")
        _check_count("max_backtracks", self.max_backtracks)


@dataclass(frozen=True)
class SolverConfig:
    """Method selection and stopping control for ``solve``.

    ``activation`` controls when safeguarding applies for gna/agna:
    ``always`` safeguards every mixing step, ``asymptotic`` runs plain
    NA(1) until the step norm first drops below ``threshold`` and
    safeguards from then on.  ``switch_to_m1_at`` applies
    to method ``na`` only: NA(m) runs until the step norm drops below the
    given value, after which the solve continues as adaptively safeguarded
    depth-1 Newton-Anderson with parameter ``r_hat``.  A setting that its
    method would ignore raises ``ValueError``: ``m != 1`` or
    ``switch_to_m1_at`` unless the method is na, ``activation="asymptotic"``
    unless it is gna or agna.
    """

    method: str = "newton"
    m: int = 1
    r: float = 0.5
    r_hat: float = 0.5
    activation: str = "always"
    threshold: float = 1e-1
    switch_to_m1_at: float | None = None
    tol: float = 1e-10
    max_iter: int = 200
    divergence_cap: float = 1e12
    linesearch: ArmijoConfig | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        _check_count("depth m", self.m)
        if self.method != "na" and self.m != 1:
            raise ValueError(f"method {self.method!r} runs at depth m = 1 only")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if not 0.0 < self.r_hat < 1.0:
            raise ValueError(f"r_hat must lie in (0, 1), got {self.r_hat}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from {ACTIVATIONS}"
            )
        if self.activation == "asymptotic" and self.method not in ("gna", "agna"):
            raise ValueError("activation 'asymptotic' applies to gna and agna only")
        if not self.threshold > 0.0:
            raise ValueError("activation threshold must be positive")
        if self.switch_to_m1_at is not None:
            if self.method != "na":
                raise ValueError("switch_to_m1_at applies to method 'na' only")
            if not self.switch_to_m1_at > 0.0:
                raise ValueError("switch_to_m1_at must be positive")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        _check_count("max_iter", self.max_iter)
        if not self.divergence_cap > 0.0:
            raise ValueError("divergence_cap must be positive")


class SafeguardDecision(NamedTuple):
    """Which safeguard case fired, its scaling lambda and gate beta = r_used * eta.

    Cases: ``gamma_zero_or_ge_one`` (lambda = 0, pure Newton step),
    ``ratio_exceeded`` (lambda scaled so |lambda*gamma| hits the gate), and
    ``pass_through`` (lambda = 1, full Anderson step).

    An immutable named tuple: fields are read by name, assigning one raises
    ``AttributeError``, and an instance holds no ``__dict__``.
    ``gamma_safeguard`` builds every decision; ``diagnostics.step_gains``
    reports the step ratio eta.
    """

    case: str
    lambda_value: float
    r_used: float | None = None
    beta: float | None = None


class IterationRecord(NamedTuple):
    """One step of a solve: the iterate x_k, the Newton step w_{k+1}, and
    the mixing coefficient and safeguard decision when the method produced
    them (None otherwise; without a decision lambda is 1).  The step ratio
    eta and the optimization gains theta and theta_lambda follow from the
    records; ``diagnostics.step_gains`` derives them.

    An immutable named tuple: fields are read by name, assigning one raises
    ``AttributeError``, and an instance holds no ``__dict__``.
    """

    k: int
    x: np.ndarray
    w: np.ndarray
    residual_norm: float
    step_norm: float
    gamma: float | np.ndarray | None = None
    decision: SafeguardDecision | None = None
    ls_t: float | None = None
    ls_ok: bool = True


def anderson_gamma_1(w_next, d, scale):
    """Scalar depth-1 mixing coefficient d.w_next / |d|^2, d = w_next - w_prev.

    This is the unconstrained minimizer of |w_next - gamma*d| over float
    arrays.  ``scale`` is |w_next| + |w_prev|: when |d| <= eps * scale (steps
    equal to machine precision) it is defined as 0, a pure Newton step.
    Raises ValueError unless w_next and d have one shape, whatever |d| is.
    """
    dd, dw = _dot(d, d), _dot(d, w_next)
    return 0.0 if math.sqrt(dd) <= _EPS * scale else dw / dd


def na_update(x_k, x_km1, w_next, w_prev, gamma, lam):
    """Depth-1 Anderson update of the iterate with safeguard scaling lam.

    Returns ``x_k + w_next - lam*gamma*((x_k + w_next) - (x_km1 + w_prev))``
    for float arrays.  The algebraic form guarantees that lam*gamma == 0
    reproduces the Newton iterate x_k + w_next bitwise.  Raises ValueError
    unless the four arrays have one shape, so that none is broadcast.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not x_k.shape == x_km1.shape == w_next.shape == w_prev.shape:
        shapes = (x_k.shape, x_km1.shape, w_next.shape, w_prev.shape)
        raise ValueError(f"x_k, x_km1, w_next and w_prev have shapes {shapes}")
    xn = x_k + w_next
    return xn - (lam * gamma) * (xn - (x_km1 + w_prev))


def na_m_update(iterates, steps, m):
    """Depth-m Anderson update from iterate/step histories.

    ``iterates`` holds float arrays x_{k-j}, ..., x_k (most recent last) and
    ``steps`` the corresponding Newton steps up to w_{k+1}.  The window is
    clamped to m_k = min(k, m, n) columns, n the dimension (with more
    columns than rows the least-squares problem has no unique minimizer, so
    only the n newest differences are used): difference matrices F (steps) and
    E (iterates) are assembled newest-first, gamma solves the least-squares
    problem min |w_{k+1} - F gamma|, and the update is
    x_k + w_{k+1} - (E + F) gamma.  Returns ``(next iterate, gamma vector)``.
    Raises ValueError unless every iterate and step has one shape.
    """
    _check_count("depth m", m)
    if len(steps) < 2 or len(iterates) < 2:
        raise ValueError("need at least one prior iterate and step")
    w_next = steps[-1]
    for v in (*iterates, *steps):
        if v.shape != w_next.shape:
            raise ValueError(f"iterate or step of shape {v.shape}, not {w_next.shape}")
    m_k = min(m, len(steps) - 1, len(iterates) - 1, len(w_next))
    F = _difference_matrix(steps, m_k)
    E = _difference_matrix(iterates, m_k)
    gamma = least_squares(F, w_next)
    return iterates[-1] + w_next - _matvec(E + F, gamma), gamma


def gamma_safeguard(gamma, eta, r):
    """Safeguard decision for mixing coefficient gamma, gate beta = r * eta.

    eta = |w_next| / |w_prev| is the ratio of consecutive Newton step norms
    and r lies in [0, 1).  Scales the mixing coefficient by lambda: lambda =
    0 when gamma is 0 or at least 1; lambda = beta / (gamma * (beta +
    sign(gamma))) when |gamma| / |1 - gamma| exceeds beta; lambda = 1
    otherwise.  r = 0 closes the gate: lambda = 0, a pure Newton step.
    """
    # a NaN r passes: it is the step ratio of a non-finite step, which diverges
    if r < 0.0 or r >= 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    beta = r * eta
    # Branch order follows the safeguarding scheme literally: the
    # gamma == 0 / gamma >= 1 test comes first, so sign(gamma) below is
    # only ever taken for gamma != 0.
    if gamma == 0.0 or gamma >= 1.0:
        case, lam = "gamma_zero_or_ge_one", 0.0
    elif abs(gamma) / abs(1.0 - gamma) > beta:
        sign = 1.0 if gamma > 0.0 else -1.0
        # below 1 in exact arithmetic; rounding in beta + sign can exceed it
        case, lam = "ratio_exceeded", min(beta / (gamma * (beta + sign)), 1.0)
    else:
        case, lam = "pass_through", 1.0
    return SafeguardDecision(case, lam, r, beta)


def adaptive_gamma_safeguard(gamma, eta, r_hat):
    """Adaptive safeguard: ``gamma_safeguard`` with r_used = min(eta, r_hat).

    Only the gate adapts.  Since r_used <= r_hat this safeguards at least as
    strictly as the fixed scheme at equal eta; eta = 0 (a step norm that
    overflowed before this one) closes the gate.
    """
    if not 0.0 < r_hat < 1.0:
        raise ValueError(f"r_hat must lie in (0, 1), got {r_hat}")
    return gamma_safeguard(gamma, eta, min(eta, r_hat))


class _UnusableDirection(ValueError):
    """``armijo_backtrack`` was given a zero or non-finite direction; ``solve``
    takes that as the answer to whether to search at all."""


def armijo_backtrack(p, x, direction, c1, shrink, max_backtracks, fnorm):
    """Backtracking linesearch on 0.5*|f|^2 along the float array ``direction``.

    Tries t = 1, shrink, shrink^2, ... (at most ``max_backtracks`` trials) for
    the first t with 0.5*|f(x + t d)|^2 <= 0.5*|f(x)|^2 - c1 * t * |f(x)|^2,
    given ``fnorm`` = |f(x)|.  Returns ``(t, accepted, x_t, f_t)``: the step
    length, whether it was accepted, the trial point x + t*d and its
    residual.  When no trial is accepted the last trial is returned with
    ``accepted = False`` so the caller can flag the record.  Raises
    ``ValueError`` on a zero or non-finite direction.
    """
    if not (_all_finite(direction) and np.count_nonzero(direction)):
        raise _UnusableDirection("direction must be finite and nonzero")
    fn2 = fnorm**2
    t = 1.0
    xt = ft = None
    for i in range(max_backtracks):
        if i:
            t *= shrink
        # the first trial skips the product 1.0 * d, which is d bit for bit
        xt = x + t * direction if i else x + direction
        ft = _residual(p, xt)
        # a non-finite ft gives an inf or NaN ft . ft, which fails the test
        if 0.5 * _dot(ft, ft) <= 0.5 * fn2 - c1 * t * fn2:
            return t, True, xt, ft
    return t, False, xt, ft


def _residual(p, x):
    """``p.residual(x)`` as a C-contiguous float array, the layout on which
    ``_norm`` equals ``np.linalg.norm``; ValueError unless it has the shape
    of x, so a malformed residual fails where it is returned."""
    f = np.asarray(p.residual(x), dtype=float, order="C")
    if f.shape != x.shape:
        raise ValueError(f"residual returned shape {f.shape}, expected {x.shape}")
    return f


def solve(p, x0, cfg):
    """Iterate on problem ``p`` from ``x0`` according to ``cfg``.

    The first iterate is always a pure Newton step; mixing starts at the
    second step.  The residual norm is checked before stepping, so the
    report's records hold exactly the steps taken.  Numerical failures are
    reported through ``ConvergenceReport.status`` (``converged``,
    ``diverged``, ``singular_jacobian``, ``max_iter``); only malformed
    inputs raise.  ``solve`` owns each dense Jacobian ``p.jacobian`` returns
    and may factor it in place (see ``NonlinearProblem``).
    """
    # the one copy of x0: every later iterate and step is a fresh array that
    # is never mutated, so records share them instead of copying
    x = np.array(x0, dtype=float)
    if x.shape != (p.dimension,):
        raise ValueError(
            f"x0 has shape {x.shape}, problem dimension is {p.dimension}"
        )

    records = []  # records[j] holds x_j, w_{j+1} and |w_{j+1}|
    # One latch: from the first step norm below latch_below on, every
    # mixing step is a safeguarded depth-1 step.  na latches at
    # switch_to_m1_at (never without one: no norm is below 0), gna/agna
    # with asymptotic activation at the threshold, and gna/agna otherwise
    # from the start.
    if cfg.method == "na":
        latch_below = 0.0 if cfg.switch_to_m1_at is None else cfg.switch_to_m1_at
    elif cfg.activation == "asymptotic":
        latch_below = cfg.threshold
    else:
        latch_below = math.inf
    latched = latch_below == math.inf
    f = None  # f(x), unless still to be evaluated

    # A diverging iterate overflows; the non-finite values that result end
    # the solve through its tests, so the warnings are not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if f is None:
                f = _residual(p, x)
            # the norm is non-finite exactly when f is (or |f| overflows)
            rnorm = _norm(f)
            if not (_all_finite(x) and rnorm < cfg.divergence_cap):
                status = "diverged"
                break
            if rnorm <= cfg.tol:
                status = "converged"
                break
            if len(records) >= cfg.max_iter:
                status = "max_iter"
                break
            J = p.jacobian(x)
            try:
                # J is used once: a Fortran-ordered J is factored in place
                w = solve_linear(J, -f, overwrite_a=True)
            except SingularMatrix:
                status = "singular_jacobian"
                break
            except NonFiniteInput:
                # the rhs -f is finite here, so the Jacobian is not
                status = "diverged"
                break
            except ValueError:
                # solve_linear rejects every J that is not n-by-n; name the source
                if np.shape(J) != x.shape * 2:
                    raise ValueError(
                        f"jacobian returned shape {np.shape(J)}, expected {x.shape * 2}"
                    ) from None
                raise
            # drop the factored J, so that it is freed before the next
            # p.jacobian call allocates its successor
            del J
            step_norm = _norm(w)
            if step_norm == 0.0:
                # zero step with nonzero residual: solved to machine level
                status = "converged"
                break

            if step_norm < latch_below:
                latched = True

            gamma = decision = None
            if not records or cfg.method == "newton":
                x_next = x + w
            elif cfg.m > 1 and not latched:  # na; gna/agna have m = 1
                x_next = None
                if math.isfinite(step_norm):
                    window = records[-cfg.m:]
                    iterates = [rec.x for rec in window] + [x]
                    steps = [rec.w for rec in window] + [w]
                    try:
                        x_next, gamma = na_m_update(iterates, steps, cfg.m)
                    except NonFiniteInput:
                        pass  # two earlier steps' difference overflows
                if x_next is None:
                    # a step whose norm overflows, or a window whose
                    # differences overflow, is not mixed; when the step is
                    # non-finite, the loop top reports diverged
                    x_next = x + w
            else:
                prev = records[-1]
                gamma = anderson_gamma_1(w, w - prev.w, step_norm + prev.step_norm)
                lam = 1.0
                if latched:
                    eta = step_norm / prev.step_norm
                    if cfg.method == "gna":
                        decision = gamma_safeguard(gamma, eta, cfg.r)
                    else:  # agna, or na after the switch
                        decision = adaptive_gamma_safeguard(gamma, eta, cfg.r_hat)
                    lam = decision.lambda_value
                x_next = na_update(x, prev.x, w, prev.w, gamma, lam)

            ls_t = f_next = None
            ls_ok = True
            if cfg.linesearch is not None:
                ls = cfg.linesearch
                try:
                    ls_t, ls_ok, x_next, f_next = armijo_backtrack(
                        p, x, x_next - x, ls.c1, ls.shrink, ls.max_backtracks, rnorm
                    )
                except _UnusableDirection:
                    # a zero step is not searched; a non-finite one is left
                    # to the divergence test at the loop top
                    pass

            records.append(IterationRecord(
                len(records), x, w, rnorm, step_norm, gamma, decision, ls_t, ls_ok
            ))
            x, f = x_next, f_next

    return ConvergenceReport(records=tuple(records), status=status, x_final=x)
