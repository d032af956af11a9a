"""Pinned convergence histories: every experiment must rerun byte-identically.

Each experiment below is rerun through ``run_experiment`` and its files are
compared byte for byte with the copies under ``tests/golden/<name>/``.  A
change to any solver number or to the output format shows up here.

After a deliberate format or numerical change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py [name ...]

which rewrites the named experiments, or all of them when no name is given.
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from nasolve import ArmijoConfig, SolverConfig, harness, step_gains
from nasolve.harness import ExperimentSpec, run_experiment

GOLDEN = Path(__file__).parent / "golden"

FIVE_METHODS = (
    SolverConfig(method="newton"),
    SolverConfig(method="na", m=1),
    SolverConfig(method="na", m=3),
    SolverConfig(method="gna", r=0.5),
    SolverConfig(method="agna", r_hat=0.5),
)
CHANDRASEKHAR_C1 = {"c": 1.0, "n": 20}

EXPERIMENTS = {
    "singular_quadratic": dict(problem="singular_quadratic", configs=FIVE_METHODS),
    "chandrasekhar": dict(
        problem="chandrasekhar", params=CHANDRASEKHAR_C1, configs=FIVE_METHODS
    ),
    "bratu1d": dict(
        problem="bratu1d", params={"lambda": 3.0, "n": 20}, configs=FIVE_METHODS
    ),
    "agna_asymptotic": dict(
        problem="chandrasekhar",
        params=CHANDRASEKHAR_C1,
        configs=(SolverConfig(method="agna", r_hat=0.5, activation="asymptotic"),),
    ),
    "na_m3_switch": dict(
        problem="chandrasekhar",
        params=CHANDRASEKHAR_C1,
        configs=(SolverConfig(method="na", m=3, switch_to_m1_at=1e-3),),
    ),
    "bratu_warm_sweep": dict(
        problem="bratu1d",
        params={"n": 20},
        configs=(SolverConfig(method="newton"),),
        x0="zero",
        sweep=("lambda", 3.40, 3.52, 0.02),
        warm_start=True,
    ),
    # this start makes the linesearch backtrack (t = 0.5, 0.25)
    "armijo": dict(
        problem="bratu1d",
        params={"lambda": 3.0, "n": 20},
        configs=(SolverConfig(method="agna", r_hat=0.5, linesearch=ArmijoConfig()),),
        x0="perturbed:5:5",
    ),
    "json": dict(
        problem="chandrasekhar",
        params={"n": 20},
        configs=(SolverConfig(method="na", m=1), SolverConfig(method="agna")),
        sweep=("c", 0.9, 1.0, 0.05),
        fmt="json",
    ),
}


def _run(name, outdir):
    return run_experiment(ExperimentSpec(output=str(outdir), **EXPERIMENTS[name]))


def _assert_matches_golden(name, written):
    expected = GOLDEN / name
    assert sorted(p.name for p in written) == sorted(
        p.name for p in expected.iterdir()
    )
    for path in written:
        assert path.read_bytes() == (expected / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_rerun_matches_golden(name, tmp_path):
    _assert_matches_golden(name, _run(name, tmp_path)[1])


# the same experiments as the command lines a user types
CLI_EXPERIMENTS = {
    "agna_asymptotic": "solve --problem chandrasekhar --param c=1.0 --param n=20 "
    "--method agna --rhat 0.5 --activation asymptotic",
    "na_m3_switch": "solve --problem chandrasekhar --param c=1.0 --param n=20 "
    "--method na --m 3 --switch-to-m1-at 1e-3",
    "bratu_warm_sweep": "sweep --problem bratu1d --param n=20 --method newton "
    "--x0 zero --sweep lambda:3.40:3.52:0.02 --warm-start",
    "armijo": "solve --problem bratu1d --param lambda=3.0 --param n=20 --method agna "
    "--rhat 0.5 --linesearch armijo --x0 perturbed:5:5",
    "json": "sweep --problem chandrasekhar --param n=20 --method na --method agna "
    "--sweep c:0.9:1.0:0.05 --format json",
}


@pytest.mark.parametrize("name", sorted(CLI_EXPERIMENTS))
def test_cli_reproduces_golden(name, tmp_path, capsys):
    assert harness.main([*CLI_EXPERIMENTS[name].split(), "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    _assert_matches_golden(name, list(tmp_path.iterdir()))


RECORD_FLOATS = ("residual_norm", "step_norm", "gamma", "ls_t")
# lambda, r_used and beta are read from the decision
DECISION_FLOATS = ("lambda_value", "r_used", "beta")


def _reports(name, outdir, monkeypatch):
    """Every report of the solves that experiment ``name`` runs."""
    reports, solve = [], harness.solve

    def solve_and_keep(*args):
        reports.append(solve(*args))
        return reports[-1]

    monkeypatch.setattr(harness, "solve", solve_and_keep)
    _run(name, outdir)
    return reports


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_record_floats_are_python_floats(name, tmp_path, monkeypatch):
    checked = 0
    for report in _reports(name, tmp_path, monkeypatch):
        # eta, theta and theta_lambda as step_gains derives them
        for rec, gains in zip(report.records, step_gains(report)):
            values = [getattr(rec, f) for f in RECORD_FLOATS] + list(gains)
            if rec.decision is not None:
                values += [getattr(rec.decision, f) for f in DECISION_FLOATS]
            for value in values:
                if value is not None and not isinstance(value, np.ndarray):
                    assert type(value) is float, (name, rec.k, value)
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_decisions_hold_their_invariant(name, tmp_path, monkeypatch, check_decision):
    for report in _reports(name, tmp_path, monkeypatch):
        for rec, (eta, _, _) in zip(report.records, step_gains(report)):
            if rec.decision is not None:
                check_decision(rec.decision, eta)


def regenerate(names=()):
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        raise SystemExit(f"unknown experiments {unknown}; choose from {sorted(EXPERIMENTS)}")
    for name in names or EXPERIMENTS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        _run(name, GOLDEN / name)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
