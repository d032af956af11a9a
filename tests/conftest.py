import ctypes
import struct
from pathlib import Path

import pytest

DECISION_CASES = ("gamma_zero_or_ge_one", "ratio_exceeded", "pass_through")


def _check_decision(dec, eta):
    """Assert the invariant of a ``SafeguardDecision`` that ``solve`` built.

    The case is one of the three; lambda lies in [0, 1], is 0 for
    ``gamma_zero_or_ge_one`` and 1 for ``pass_through``; the gate is
    ``beta = r_used * eta`` to the bit, for the step ratio ``eta`` that
    ``step_gains`` reports for the record.  A record without a decision is
    not passed here.
    """
    assert dec.case in DECISION_CASES, dec
    assert 0.0 <= dec.lambda_value <= 1.0, dec
    if dec.case == "gamma_zero_or_ge_one":
        assert dec.lambda_value == 0.0, dec
    elif dec.case == "pass_through":
        assert dec.lambda_value == 1.0, dec
    gate = dec.r_used * eta
    assert struct.pack("<d", dec.beta) == struct.pack("<d", gate), dec


@pytest.fixture(scope="session")
def check_decision():
    """The ``SafeguardDecision`` invariant check, as a callable."""
    return _check_decision


def _openblas_query(lib, name, restype):
    """``scipy_openblas_<name>`` of a loaded OpenBLAS, with or without the
    ``64_`` suffix of the 64-bit-integer build; "unknown" without either."""
    for suffix in ("", "64_"):
        func = getattr(lib, f"scipy_openblas_{name}{suffix}", None)
        if func is not None:
            func.argtypes, func.restype = [], restype
            value = func()
            return value.decode() if isinstance(value, bytes) else value
    return "unknown"


def _openblas_builds():
    """``{library: (core, config, threads)}`` for each OpenBLAS in this process.

    NumPy's and SciPy's OpenBLAS are loaded first (SciPy's through
    ``nasolve.linalg``), then found in ``/proc/self/maps`` and asked through
    ctypes, as ``bench/run.py`` asks them.  A library is named by its
    directory and file, so NumPy's reads ``numpy.libs/...`` and SciPy's
    ``scipy.libs/...`` when both come from the wheels.
    """
    try:
        import numpy  # noqa: F401
        import nasolve.linalg  # noqa: F401
    except ImportError:
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    builds = {}
    for path in map(Path, paths):
        lib = ctypes.CDLL(str(path))
        builds[f"{path.parent.name}/{path.name}"] = (
            _openblas_query(lib, "get_corename", ctypes.c_char_p),
            _openblas_query(lib, "get_config", ctypes.c_char_p),
            _openblas_query(lib, "get_num_threads", ctypes.c_int),
        )
    return builds


def _numpy_x86_v4():
    """Whether NumPy's AVX-512 (``X86_V4``) loops are on, such as the
    ``np.exp`` loop that ``bratu1d`` runs; "unknown" where NumPy does not
    say.  ``NPY_DISABLE_CPU_FEATURES`` can switch them off."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    return __cpu_features__.get("X86_V4", "unknown")


def pytest_report_header(config):
    """One line per OpenBLAS, the kernel family that ran the goldens, and
    one for NumPy's SIMD dispatch."""
    builds = _openblas_builds()
    lines = [
        f"openblas {lib}: core {core}, {threads} threads, config {cfg}"
        for lib, (core, cfg, threads) in builds.items()
    ] or ["openblas: unknown (none found in /proc/self/maps)"]
    return lines + [f"numpy dispatch: X86_V4 (AVX-512) loops {_numpy_x86_v4()}"]


AVX512_CORES = ("SkylakeX", "Cooperlake", "SapphireRapids")


@pytest.fixture(scope="session")
def pinned_machine_class():
    """Skip, naming the cause, unless this process runs the machine class
    that the exact figures of the digest pin and the iteration gate were
    taken on: SciPy's OpenBLAS on AVX-512 kernels, which every solve runs
    on, and NumPy's AVX-512 (``X86_V4``) loops, such as ``bratu1d``'s
    ``np.exp``.  Other classes move the bits, and with them an iteration
    count (ROADMAP.md, item 1)."""
    cores = [core for lib, (core, _, _) in _openblas_builds().items()
             if lib.startswith("scipy")]
    core = cores[0] if cores else "unknown"
    if core not in AVX512_CORES:
        pytest.skip(f"pinned on AVX-512 kernels; SciPy's OpenBLAS runs {core}")
    x86_v4 = _numpy_x86_v4()
    if x86_v4 is not True:
        pytest.skip(
            f"pinned on NumPy's X86_V4 (AVX-512) loops; NumPy's dispatch "
            f"reports X86_V4 {x86_v4}"
        )
