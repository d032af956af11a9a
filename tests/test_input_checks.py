"""Malformed input is rejected where it is given, with a message naming it.

One test per input check of the library and the CLI that the rest of the
suite does not reach, plus the CLI's handling of values it cannot parse.
Needs only pytest, so it also runs against the oldest supported NumPy and
SciPy.
"""

import dataclasses

import numpy as np
import pytest

from nasolve import (
    ArmijoConfig,
    ConvergenceReport,
    IterationRecord,
    NonlinearProblem,
    SolverConfig,
    anderson_gamma_1,
    least_squares,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    na_m_update,
    na_update,
    problem_from_id,
    solve,
    step_gains,
)
from nasolve import harness
from nasolve.harness import ExperimentSpec, fold_sweep, main


def _quadratic(**fields):
    """``singular_quadratic`` with some of its fields replaced, checked anew."""
    return dataclasses.replace(make_singular_quadratic(), **fields)


class TestNonlinearProblem:
    # the dimension is the length of default_start, a non-empty vector
    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match=r"\(0,\) is not a non-empty vector"):
            _quadratic(default_start=np.zeros(0))

    def test_default_start_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"\(2, 1\) is not a non-empty vector"):
            _quadratic(default_start=np.ones((2, 1)))

    def test_dimension_follows_the_start(self):
        p = _quadratic(default_start=np.ones(3))
        assert p.dimension == 3
        # the residual of singular_quadratic has length 2 whatever the start
        message = r"residual returned shape \(2,\), expected \(3,\)"
        with pytest.raises(ValueError, match=message):
            solve(p, p.default_start, SolverConfig())


@pytest.mark.parametrize("name", ["c1", "shrink"])
@pytest.mark.parametrize("value", [0.0, 1.0])
def test_armijo_fraction_outside_the_open_unit_interval(name, value):
    with pytest.raises(ValueError, match=f"{name} must lie in \\(0, 1\\)"):
        ArmijoConfig(**{name: value})


def test_least_squares_needs_a_matrix():
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        least_squares(np.ones(3), np.ones(3))


def test_anderson_gamma_1_needs_steps_of_one_shape():
    # ddot would meet only a prefix of the longer w_next, and give 3.0; a d
    # of norm 0, where the coefficient is 0, is rejected all the same
    for d in (np.ones(2), np.zeros(2)):
        with pytest.raises(ValueError, match=r"shapes \(2,\) and \(3,\)"):
            anderson_gamma_1(np.array([1.0, 5.0, 7.0]), d, 1.0)


@pytest.mark.parametrize("short", range(4))
def test_na_update_needs_arrays_of_one_shape(short):
    # a length-1 x_k, x_km1, w_next or w_prev would broadcast to length 2
    arrays = [np.ones(2)] * 4
    arrays[short] = np.ones(1)
    with pytest.raises(ValueError, match=r"have shapes \(.*\(1,\)"):
        na_update(*arrays, 0.5, 1.0)


@pytest.mark.parametrize("history, index", [("iterates", 0), ("iterates", 1), ("steps", 0)])
def test_na_m_update_needs_vectors_of_one_shape(history, index):
    # a length-1 vector would broadcast to length 2 in a difference or a sum
    vectors = {"iterates": [np.ones(2), np.ones(2)], "steps": [np.ones(2), 2 * np.ones(2)]}
    vectors[history][index] = np.ones(1)
    with pytest.raises(ValueError, match=r"of shape \(1,\), not \(2,\)"):
        na_m_update(vectors["iterates"], vectors["steps"], 1)


def test_step_gains_rejects_a_window_longer_than_the_history():
    w = np.ones(2)
    records = (
        IterationRecord(0, np.zeros(2), w, 1.0, 1.0),
        # a depth-2 gamma on the second record: only one step precedes it
        IterationRecord(1, w, w, 1.0, 1.0, gamma=np.array([0.5, 0.5])),
    )
    with pytest.raises(ValueError, match="record 1 mixes 2 earlier steps"):
        step_gains(ConvergenceReport(records, "max_iter"))


def _scalar_problem(residual, jacobian):
    return NonlinearProblem(residual, jacobian, np.zeros(1))


def test_solve_reraises_the_linear_solver_error_on_a_square_jacobian():
    # the right shape, so the error is solve_linear's own
    p = _scalar_problem(lambda x: x - 1.0, lambda x: np.array([["a"]]))
    with pytest.raises(ValueError, match="could not convert string to float"):
        solve(p, np.zeros(1), SolverConfig())


def test_step_that_underflows_to_zero_ends_the_solve():
    # w = -1e-150 / 1e300 underflows to zero while |f| = 1e-150 > tol; the
    # status is pinned as it is.  (With f = 1e-300 the residual test,
    # |f| <= tol, ends the solve first.)
    p = _scalar_problem(
        lambda x: np.array([1e-150]), lambda x: np.array([[1e300]], order="F")
    )
    report = solve(p, np.zeros(1), SolverConfig(tol=1e-200))
    assert (report.status, report.iterations) == ("converged", 0)


class TestSweepPointCount:
    def test_spec_rejects_a_non_finite_count(self):
        with pytest.raises(ValueError, match="sweep 'lambda' has a non-finite point count"):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", 3.0, 3.6, 1e-320))

    def test_fold_sweep_rejects_a_non_finite_count(self):
        with pytest.raises(ValueError, match="non-finite point count"):
            fold_sweep(30, 3.0, 3.6, 1e-320)

    def test_cli_sweep_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--problem", "bratu1d", "--param", "n=10",
                   "--sweep", "lambda:3.0:3.6:1e-320", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: sweep 'lambda' has a non-finite point count\n"
        )
        assert not out.exists()

    def test_cli_verify_fold_exits_one(self, capsys):
        assert main(["verify", "fold", "--n", "30", "--step", "1e-320"]) == 1
        assert "non-finite point count" in capsys.readouterr().err

    def test_spec_rejects_a_count_above_the_bound(self):
        # 6e11 cells: the pre-pass alone would build problems for days
        with pytest.raises(ValueError, match="600000000001 points; at most 1000000"):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", 3.0, 3.6, 1e-12))
        with pytest.raises(ValueError, match="1000001 points"):
            ExperimentSpec(problem="bratu1d", sweep=("n", 0.0, 1e6, 1.0))
        ExperimentSpec(problem="bratu1d", sweep=("n", 1.0, 1e6, 1.0))

    def test_cli_sweep_above_the_bound_exits_one_and_writes_nothing(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main(["sweep", "--problem", "bratu1d", "--sweep", "lambda:3:3.6:1e-12",
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: sweep 'lambda' has 600000000001 points; at most 1000000 are allowed\n"
        )
        assert not out.exists()


def _cli_error(tmp_path, capsys, *argv):
    """Run ``nasolve solve --problem bratu1d`` with ``argv`` added; expect
    exit 1, no output directory, and return the error line."""
    out = tmp_path / "out"
    rc = main(["solve", "--problem", "bratu1d", *argv, "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--param", "n", "bad --param 'n'; expected K=V"),
        ("--param", "lambda=abc", "bratu1d parameter lambda must be a number, got 'abc'"),
        ("--linesearch", "wolfe", "bad --linesearch 'wolfe'"),
        ("--linesearch", "armijo:0.1:0.5", "bad --linesearch 'armijo:0.1:0.5'"),
        ("--linesearch", "armijo:0.1:0.5:2.5", "bad --linesearch 'armijo:0.1:0.5:2.5'"),
        ("--linesearch", "armijo:abc:0.5:3", "bad --linesearch 'armijo:abc:0.5:3'"),
        ("--x0", "perturbed:1:abc", "bad x0 selector 'perturbed:1:abc'"),
        ("--x0", "perturbed:a:1", "bad x0 selector 'perturbed:a:1'"),
    ],
)
def test_cli_value_errors_name_their_flag(flag, value, message, tmp_path, capsys):
    assert _cli_error(tmp_path, capsys, flag, value).startswith(f"error: {message}")


@pytest.mark.parametrize("sweep", ["lambda:3.0:3.6", "lambda:3.0:3.6:abc"])
def test_cli_sweep_errors_name_their_flag(sweep, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sweep", "--problem", "bratu1d", "--sweep", sweep, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: bad --sweep {sweep!r}")
    assert not out.exists()


def test_library_parameter_errors_name_the_parameter():
    with pytest.raises(ValueError, match="chandrasekhar parameter c must be a number"):
        problem_from_id("chandrasekhar", {"c": "abc"})


def test_cli_accepts_an_integral_float_grid_size(tmp_path, capsys):
    # make_bratu_1d(1.0, 50.0) accepts it, so --param n=50.0 does too
    assert problem_from_id("bratu1d", {"n": "50.0"}).dimension == 50
    rc = main(["solve", "--problem", "bratu1d", "--param", "n=50.0",
               "--output", str(tmp_path / "out")])
    assert rc == 0
    assert ",newton,converged," in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["bratu1d", "chandrasekhar"])
@pytest.mark.parametrize("n", ["inf", "-inf", "nan", "1e300"])
def test_cli_rejects_a_grid_size_no_array_can_have(problem, n, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--problem", problem, "--param", f"n={n}", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: grid size must be an integer up to")
    assert not out.exists()


@pytest.mark.parametrize("make", [make_bratu_1d, make_chandrasekhar])
@pytest.mark.parametrize("n", [10**400, float("inf")], ids=["10**400", "inf"])
def test_library_rejects_a_grid_size_no_array_can_have(make, n):
    # 10**400 is beyond float range: int(n) works, float(n) would overflow
    with pytest.raises(ValueError, match="grid size must be an integer up to"):
        make(1.0, n)


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 7.28 EiB for an array"),
         "Unable to allocate 7.28 EiB for an array"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_cli_reports_a_grid_no_machine_can_hold(exc, message, tmp_path, capsys,
                                                 monkeypatch):
    # stands in for a grid size that _grid_size accepts but that no allocation
    # can satisfy; a real allocation that size could take the machine's memory
    def out_of_memory(name, params):
        raise exc

    monkeypatch.setattr(harness, "problem_from_id", out_of_memory)
    out = tmp_path / "out"
    rc = main(["solve", "--problem", "bratu1d", "--param", "n=10**18",
               "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("inside", [False, True], ids=["file", "path_under_file"])
def test_cli_output_naming_a_file_exits_one(inside, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"kept\n")
    out = taken / "out" if inside else taken
    rc = main(["solve", "--problem", "singular_quadratic", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_bytes() == b"kept\n"
    assert list(tmp_path.iterdir()) == [taken]
