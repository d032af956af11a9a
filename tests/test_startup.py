"""Start-up: ``import nasolve`` binds SciPy's BLAS/LAPACK without ``scipy.linalg``.

The check runs in a fresh interpreter, since this process has imported
``scipy.linalg`` already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nasolve
from nasolve.linalg import _load_scipy_linalg_module

FRESH_PROCESS = textwrap.dedent("""
    import sys

    import nasolve
    import nasolve.harness

    heavy = [name for name in ("scipy.linalg", "numpy.f2py") if name in sys.modules]
    assert not heavy, f"import nasolve loaded {heavy}"
    argv = "verify fold --n 30 --start 3.0 --end 3.6 --step 0.05".split()
    assert nasolve.harness.main(argv) == 0

    # a later import of scipy.linalg runs its own init over the same kernels
    import scipy.linalg
    from nasolve.linalg import blas, lapack

    assert scipy.linalg.blas.dgemv is blas.dgemv
    assert scipy.linalg.lapack.dgetrf is lapack.dgetrf
""")


def test_import_leaves_scipy_linalg_and_f2py_unloaded():
    src = str(Path(nasolve.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_missing_module_raises_import_error_naming_it():
    with pytest.raises(ImportError, match="scipy.linalg._no_such_module"):
        _load_scipy_linalg_module("_no_such_module")
