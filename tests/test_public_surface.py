"""The package's public names: each stated once, in its module's ``__all__``.

Needs only pytest, so it also runs against the oldest supported NumPy and
SciPy.
"""

import dataclasses

import pytest

import nasolve
from nasolve import diagnostics, linalg, problem, solver

MODULES = (diagnostics, linalg, problem, solver)


def test_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert nasolve.__all__ == names
    assert len(set(names)) == len(names)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nasolve, name) is getattr(module, name)


def test_removed_names_are_gone():
    assert not hasattr(nasolve, "finite_difference_jacobian")
    # the gains are read from step_gains
    assert not hasattr(nasolve, "gain_history")
    assert not hasattr(diagnostics, "gain_history")
    assert not hasattr(problem, "finite_difference_jacobian")
    assert not hasattr(nasolve.ConvergenceReport, "step_norms")
    fields = [f.name for f in dataclasses.fields(nasolve.GroundTruth)]
    assert fields == ["root", "null_vector"]
    # safeguard facts are read from rec.decision, which is None unless a
    # safeguard ran
    for name in ("lam", "r_used", "beta"):
        assert not hasattr(nasolve.IterationRecord, name)
    assert not hasattr(solver, "_NOT_APPLIED")
    # an undefined order is None, and missing ground truth a ValueError
    for name in (
        "OrderUndefined",
        "MissingGroundTruth",
        "null_space_gamma",
        "quasi_restart_count",
    ):
        assert not hasattr(nasolve, name)
        assert not hasattr(diagnostics, name)


def test_jacobian_is_required():
    p = nasolve.make_singular_quadratic()
    with pytest.raises(ValueError, match="a Jacobian is required"):
        nasolve.NonlinearProblem(
            name="no_jacobian",
            dimension=2,
            residual=p.residual,
            jacobian=None,
            default_start=p.default_start,
        )
