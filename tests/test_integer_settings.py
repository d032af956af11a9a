"""Integer settings are checked when they are set.

A depth, an iteration or backtrack limit, or a grid size that is not an
integer is rejected with ``ValueError`` where it is given; Python and NumPy
integers, and the numeric strings the CLI passes as problem parameters, are
accepted.  Needs only pytest, so it also runs against the oldest supported
NumPy and SciPy.
"""

import numpy as np
import pytest

import nasolve

NON_INTEGRAL = {
    "m": lambda: nasolve.SolverConfig(method="na", m=2.5),
    "max_iter": lambda: nasolve.SolverConfig(max_iter=3.5),
    "max_backtracks": lambda: nasolve.ArmijoConfig(max_backtracks=2.5),
    "m-numpy-float": lambda: nasolve.SolverConfig(method="na", m=np.float64(2.0)),
    "bratu-n": lambda: nasolve.make_bratu_1d(1.0, 50.5),
    "chandrasekhar-n": lambda: nasolve.make_chandrasekhar(0.5, 10.9),
    "param-n": lambda: nasolve.problem_from_id("bratu1d", {"n": 50.5}),
    # with a history longer than m, a depth of 2.5 reached range() as a float
    "na_m_update-m": lambda: nasolve.na_m_update(
        [np.full(3, float(i)) for i in range(4)],
        [np.eye(3)[i % 3] for i in range(4)],
        2.5,
    ),
}


@pytest.mark.parametrize("build", NON_INTEGRAL.values(), ids=NON_INTEGRAL)
def test_non_integral_setting_is_rejected(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_numpy_integers_are_accepted_and_solve_as_ints():
    def run(integer):
        cfg = nasolve.SolverConfig(
            method="na",
            m=integer(2),
            max_iter=integer(3),
            linesearch=nasolve.ArmijoConfig(max_backtracks=integer(4)),
        )
        p = nasolve.make_chandrasekhar(1.0, integer(10))
        return nasolve.solve(p, p.default_start, cfg)

    expected = run(int)
    # the depth-2 window is used at the last step
    assert (expected.status, expected.iterations) == ("max_iter", 3)
    assert len(expected.records[-1].gamma) == 2
    for integer in (np.int64, np.int32, np.int16):
        report = run(integer)
        assert report.iterations == 3
        for rec, ref in zip(report.records, expected.records):
            np.testing.assert_array_equal(rec.x, ref.x)


def test_grid_size_strings_and_integral_values_are_accepted():
    assert nasolve.problem_from_id("bratu1d", {"n": "20"}).dimension == 20
    assert nasolve.problem_from_id("chandrasekhar", {"n": "12"}).dimension == 12
    # a sweep over n passes its grid values as floats
    assert nasolve.make_bratu_1d(1.0, 10.0).dimension == 10
    assert nasolve.make_chandrasekhar(0.5, np.int64(10)).dimension == 10
    with pytest.raises(ValueError):
        nasolve.problem_from_id("bratu1d", {"n": "50.5"})
