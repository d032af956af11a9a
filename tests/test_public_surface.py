"""The package's public names: each stated once, in its module's ``__all__``;
each field of an input type read by the package; and ``nasolve.linalg`` as
the one module that computes a product.

Needs only pytest, so it also runs against the oldest supported NumPy and
SciPy.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import nasolve
from nasolve import diagnostics, harness, linalg, problem, solver

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
    # q_term is the one order estimate; r is read from rec.decision
    assert not hasattr(nasolve, "estimate_order")
    assert not hasattr(diagnostics, "estimate_order")
    assert not hasattr(nasolve.ConvergenceReport, "r_history")
    # ground truth had no reader outside the tests
    for name in ("GroundTruth", "decompose_errors"):
        assert not hasattr(nasolve, name)
    assert not hasattr(problem, "GroundTruth")
    assert not hasattr(diagnostics, "decompose_errors")
    # a problem is its residual, Jacobian and start; the dimension is the
    # start's length
    fields = [f.name for f in dataclasses.fields(nasolve.NonlinearProblem)]
    assert fields == ["residual", "jacobian", "default_start"]
    # a decision's step ratio eta is read from step_gains
    assert nasolve.SafeguardDecision._fields == ("case", "lambda_value", "r_used", "beta")
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
            residual=p.residual,
            jacobian=None,
            default_start=p.default_start,
        )


SOURCES = sorted(Path(nasolve.__file__).parent.glob("*.py"))
# the fields of these are set by the caller; those of the output types
# (records, decisions, report) are for the caller to read
INPUT_TYPES = (
    problem.NonlinearProblem,
    solver.SolverConfig,
    solver.ArmijoConfig,
    harness.ExperimentSpec,
    linalg.Tridiagonal,
)


@pytest.mark.parametrize("cls", INPUT_TYPES, ids=lambda cls: cls.__name__)
def test_every_input_field_is_read_by_the_package(cls):
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        own = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.ClassDef) and top.name == cls.__name__
            for node in ast.walk(top)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in own
        }
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == []


def _product_sites(tree):
    """``(line, what)`` for each ``@``, ``.dot(`` call, ``<module>.linalg``
    attribute or absolute import of a ``linalg`` module in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                yield node.lineno, ".dot("
        elif isinstance(node, ast.Attribute):
            if node.attr == "linalg":
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``from .linalg import ...`` is relative (level 1) and allowed
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if getattr(node, "level", 0) == 0 and any("linalg" in n for n in names):
                yield node.lineno, ast.unparse(node)


def test_only_linalg_binds_blas_and_computes_products():
    for module in (diagnostics, harness, problem, solver):
        assert not hasattr(module, "blas"), module.__name__
        assert not hasattr(module, "lapack"), module.__name__
    found = [
        (path.name, *site)
        for path in SOURCES
        if path.name != "linalg.py"
        for site in _product_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
