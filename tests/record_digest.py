"""Bitwise fingerprint of solver output over a fixed set of solves.

Prints one sha256 per group of solves and one over all of them.  Each solve
contributes every field of every IterationRecord (and of its
SafeguardDecision), the status, the iteration count and ``x_final``, or the
type and message of the exception it raised.  Each record enters as the 15
values of RECORD_ATTRS: its own fields; ``eta``, ``theta`` and
``theta_lambda`` as ``nasolve.diagnostics.step_gains`` derives them; and
``lam``, ``r_used`` and ``beta`` read from the decision (None without one).
A decision enters as the five values of DECISION_ATTRS: its four fields
and the record's ``eta`` from ``step_gains``.  A mixing step that holds no
decision enters with the decision ``("not_applied", 1.0, None, None,
None)``.  Both enter under the type name ``SafeguardDecision``.  Floats and
arrays enter as their bytes and type names, so two checkouts print the same
digests exactly when their solves agree bit for bit.  Use it to show that a
refactor leaves every number unchanged:

    PYTHONPATH=src python tests/record_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tests/record_digest.py

The script reads only the public API, by attribute name.  The micro_2x2
starts come from ``bench/workloads.py`` of the checkout the script lives
in.  Pytest does not collect this file; ``test_record_digest.py``
imports it and digests every group but the micro_2x2 ones, so a change to
the API it reads shows in the test suite.
"""

import os

# one BLAS thread, so that dense products sum in a fixed order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import nasolve  # noqa: E402
from nasolve import (  # noqa: E402
    ArmijoConfig,
    NonlinearProblem,
    SolverConfig,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    solve,
    step_gains,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

RECORD_ATTRS = (
    "k", "x", "w", "residual_norm", "step_norm", "gamma", "lam", "eta", "r_used",
    "beta", "theta", "theta_lambda", "decision", "ls_t", "ls_ok",
)
DECISION_ATTRS = ("case", "lambda_value", "eta", "r_used", "beta")
DERIVED_ATTRS = ("eta", "theta", "theta_lambda")
# record attribute -> the decision field it is read from
SAFEGUARD_ATTRS = {"lam": "lambda_value", "r_used": "r_used", "beta": "beta"}
# a decision as digested: its fields with the step ratio eta among them
DigestedDecision = collections.namedtuple(
    "SafeguardDecision", DECISION_ATTRS, defaults=(None, None, None)
)


def _feed(h, value):
    """Hash a value with its type, so 1.0, np.float64(1.0) and 1 differ."""
    h.update(type(value).__name__.encode() + b":")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(struct.pack("<d", value))
    elif isinstance(value, (bool, int, str, np.integer, np.bool_)) or value is None:
        h.update(repr(value).encode())
    elif hasattr(value, "lambda_value"):
        for name in DECISION_ATTRS:
            _feed(h, getattr(value, name))
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")
    h.update(b";")


def _feed_solve(h, p, x0, cfg):
    try:
        report = solve(p, x0, cfg)
    except Exception as exc:  # a raised error is part of the behaviour
        _feed(h, f"raised {type(exc).__name__}: {exc}")
        return
    _feed(h, report.status)
    _feed(h, report.iterations)
    _feed(h, report.x_final)
    for rec, derived in zip(report.records, _derived(report)):
        for name in RECORD_ATTRS:
            _feed(h, derived[name] if name in derived else getattr(rec, name))


def _derived(report):
    """Per record, the RECORD_ATTRS values the record type does not hold."""
    rows = []
    for rec, gains in zip(report.records, step_gains(report)):
        row = dict(zip(DERIVED_ATTRS, gains))
        d = rec.decision
        for name, field in SAFEGUARD_ATTRS.items():
            row[name] = None if d is None else getattr(d, field)
        if d is not None:
            row["decision"] = DigestedDecision(
                d.case, d.lambda_value, row["eta"], d.r_used, d.beta
            )
        elif rec.gamma is not None:
            row["decision"] = DigestedDecision("not_applied", 1.0)
        rows.append(row)
    return rows


MATRIX_CONFIGS = (
    SolverConfig(method="newton"),
    SolverConfig(method="newton", tol=1e-8),
    SolverConfig(method="newton", linesearch=ArmijoConfig()),
    SolverConfig(method="na", m=1),
    SolverConfig(method="na", m=2),
    SolverConfig(method="na", m=3),
    SolverConfig(method="na", m=3, switch_to_m1_at=1e-3),
    SolverConfig(method="gna", r=0.1),
    SolverConfig(method="gna", r=0.5),
    SolverConfig(method="gna", r=0.9),
    SolverConfig(method="agna", r_hat=0.1),
    SolverConfig(method="agna", r_hat=0.5),
    SolverConfig(method="agna", r_hat=0.9),
    SolverConfig(method="agna", r_hat=0.9, activation="asymptotic"),
)


def _overflow_problems():
    """Problems whose steps overflow, from the solver tests."""
    big = 1.5e308
    return (
        NonlinearProblem(
            lambda x: np.array([1e150]),
            lambda x: np.array([[1e-200]]), np.zeros(1),
        ),
        NonlinearProblem(
            lambda x: np.array([1.0 if x[0] == 1.0 else 1e150]),
            lambda x: np.array([[1.0 if x[0] == 1.0 else 1e-200]]), np.ones(1),
        ),
        NonlinearProblem(
            lambda x: np.array([-big if x[0] == 0.0 else big]),
            lambda x: np.eye(1), np.zeros(1),
        ),
    )


def _overflow_window_problem():
    """A 2-D problem whose first two steps overflow in norm and in their
    difference, so that a later depth-2 or depth-3 Anderson window does too."""
    big = 1.5e308

    def residual(x):
        if x[0] == 0.0:
            return np.array([-1.5e150, 1e-158 * x[1]])
        if x[0] == big:
            return np.array([1e150, 1e-158 * x[1]])
        return np.array([-1.0, x[1]])

    def jacobian(x):
        return 1e-158 * np.eye(2) if x[0] in (0.0, big) else np.eye(2)

    return NonlinearProblem(residual, jacobian, np.array([0.0, 1.0]))


EDGE_METHODS = (
    SolverConfig(method="newton"),
    SolverConfig(method="na", m=1),
    SolverConfig(method="na", m=2),
    SolverConfig(method="gna"),
    SolverConfig(method="agna"),
)


def _linesearch_edge_jobs():
    """Each method under Armijo on the directions the linesearch treats
    apart: a step lost to rounding (x + w == x, a zero direction), steps
    that overflow, and searches that use up ``max_backtracks``."""
    lost = NonlinearProblem(
        lambda x: np.array([1e-3]), lambda x: np.ones((1, 1)),
        np.array([1e20]),
    )
    # Newton overshoots arctan from 10; t = 1/8 is the first accepted step
    arctan = NonlinearProblem(
        np.arctan, lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
        np.array([10.0]),
    )
    ls, short = ArmijoConfig(), ArmijoConfig(max_backtracks=3)
    jobs = []
    for cfg in EDGE_METHODS:
        jobs.append((lost, lost.default_start,
                     dataclasses.replace(cfg, linesearch=ls, max_iter=5)))
        # the first overflows on the Newton step, the second on the next step
        for p in _overflow_problems()[:2]:
            jobs.append((p, p.default_start,
                         dataclasses.replace(cfg, linesearch=ls, divergence_cap=np.inf)))
        jobs.append((arctan, arctan.default_start,
                     dataclasses.replace(cfg, linesearch=short, max_iter=30)))
    return jobs


def groups():
    """(name, [(problem, x0, cfg), ...]) for every group of solves."""
    sq = make_singular_quadratic()
    for seed in (1, 2, 3):
        inp = workloads.micro_inputs(np.random.default_rng(seed), False)
        yield f"micro_2x2 seed {seed}", [
            (sq, x0, cfg) for x0 in inp["starts"] for cfg in inp["configs"]
        ]

    matrix = (sq, make_chandrasekhar(1.0, 40), make_bratu_1d(1.0, 40))
    yield f"3 problems x {len(MATRIX_CONFIGS)} configs", [
        (p, p.default_start, cfg) for p in matrix for cfg in MATRIX_CONFIGS
    ]

    # n = 300 factors with LAPACK's blocked LU; the groups above stop at 40
    ch300 = make_chandrasekhar(1.0, 300)
    yield "chandrasekhar c=1 n=300", [
        (ch300, ch300.default_start, cfg)
        for cfg in (
            SolverConfig(method="newton"),
            SolverConfig(method="agna"),
            SolverConfig(method="na", m=3),
        )
    ]

    bratu3 = make_bratu_1d(3.0, 20)
    kicked = bratu3.default_start.copy()
    kicked[5] = 5.0  # makes the linesearch backtrack
    ch = make_chandrasekhar(1.0, 20)
    ls = ArmijoConfig()
    tight = ArmijoConfig(c1=0.5, max_backtracks=2)
    yield "linesearch, depth, switch, activation, max_iter", [
        (bratu3, kicked, SolverConfig(method="agna", linesearch=ls)),
        (bratu3, kicked, SolverConfig(method="newton", linesearch=ls)),
        (bratu3, kicked, SolverConfig(method="na", m=2, linesearch=ls)),
        (bratu3, kicked, SolverConfig(method="na", m=3, linesearch=ls)),
        (bratu3, kicked, SolverConfig(method="gna", linesearch=tight)),
        (sq, np.ones(2), SolverConfig(method="na", m=3, linesearch=tight)),
        (ch, ch.default_start, SolverConfig(method="na", m=2)),
        (ch, ch.default_start,
         SolverConfig(method="na", m=3, switch_to_m1_at=1e-1, r_hat=0.9)),
        (ch, ch.default_start,
         SolverConfig(method="agna", activation="asymptotic", threshold=1e-2)),
        (ch, ch.default_start, SolverConfig(method="gna", activation="asymptotic")),
        (ch, ch.default_start, SolverConfig(method="agna", max_iter=3)),
        (ch, ch.default_start, SolverConfig(method="na", m=3, max_iter=4)),
        (make_chandrasekhar(0.5, 100), np.zeros(100),
         SolverConfig(method="agna", r_hat=0.1, tol=1e-12)),
        (sq, np.array([0.0, 5.0]), SolverConfig()),  # singular Jacobian
    ]

    jobs = [(make_bratu_1d(1.0, 10), np.full(10, 800.0), SolverConfig(method=method))
            for method in ("newton", "na", "agna")]
    jobs.append((make_bratu_1d(1.0, 10), np.full(10, 10.0),
                 SolverConfig(method="agna", divergence_cap=1e2)))
    for p in _overflow_problems():
        for cfg in (
            SolverConfig(),
            SolverConfig(linesearch=ls),
            SolverConfig(method="na", m=1),
            SolverConfig(method="na", m=2),
            SolverConfig(method="na", m=3, linesearch=ls),
            SolverConfig(method="agna"),
        ):
            cfg = dataclasses.replace(cfg, divergence_cap=np.inf)
            jobs.append((p, p.default_start, cfg))
    yield "overflow and divergence", jobs

    window = _overflow_window_problem()
    yield "overflowing Anderson window", [
        (window, window.default_start,
         SolverConfig(method="na", m=m, divergence_cap=np.inf, max_iter=5))
        for m in (1, 2, 3)
    ]

    yield "linesearch edge directions", _linesearch_edge_jobs()


def main():
    total = hashlib.sha256()
    count = 0
    with warnings.catch_warnings():
        # far starts divide by zero in residuals; the values are what counts
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, jobs in groups():
            h = hashlib.sha256()
            for p, x0, cfg in jobs:
                _feed_solve(h, p, x0, cfg)
            count += len(jobs)
            total.update(h.digest())
            print(f"{h.hexdigest()}  {len(jobs):5d} solves  {name}")
    where = Path(nasolve.__file__).parent
    print(f"{total.hexdigest()}  {count:5d} solves  all (nasolve from {where})")


if __name__ == "__main__":
    main()
