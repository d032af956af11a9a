"""The benchmark's four workloads: seeded inputs, one timed pass, output checks.

A *pass* runs a workload's whole input set once and returns a ``PassResult``.
Only the solve loop is timed; the checks run afterwards on the stored
results, against freshly built problems, and never trust the solver's own
``status``.  A failed check or an exception raised by the program counts as
one failed operation and never aborts the pass.

Every workload calls the program through an ``api`` object with two
attributes, ``solve`` (``nasolve.solve``) and ``main``
(``nasolve.harness.main``), so the traced run can substitute wrapped
versions without the untraced run depending on any internal name.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import nasolve
from nasolve import ArmijoConfig, SolverConfig

# Where cli_sweep writes its files: inside the benchmark's own directory, so
# a run touches nothing outside its checkout.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class PassResult:
    wall_ns: int
    solve_ns: dict            # config -> one sample per solve (per sweep cell in cli_sweep)
    iterations: int           # exact, read from the program's reports/summaries
    attempted: int
    failed: int
    messages: list = field(default_factory=list)  # one line per failure
    files_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float           # percentile reported as solve_tail_ms
    inputs: object            # (rng, smoke) -> inputs
    run: object               # (api, inputs) -> PassResult
    warm: object              # (api, inputs) -> None; first-call warm-up


def _residual_norm(problem, x):
    return float(np.linalg.norm(problem.residual(np.asarray(x, dtype=float))))


def _timed_solves(solve, jobs):
    """Run ``solve(*job)`` for each job; exceptions become the result."""
    results = []
    samples = []
    for job in jobs:
        t = perf_counter_ns()
        try:
            out = solve(*job)
        except Exception as exc:  # counted as a failure by the caller
            out = exc
        samples.append(perf_counter_ns() - t)
        results.append(out)
    return results, samples


def _by_config(samples, configs):
    """Samples of jobs ordered config-minor, grouped per config index."""
    return {c: samples[c::configs] for c in range(configs)}


def _check_reports(results, tols, fresh, failures):
    """Independent check: ||f(x_final)|| <= tol on a freshly built problem."""
    iterations = 0
    for i, (rep, tol) in enumerate(zip(results, tols)):
        if isinstance(rep, Exception):
            failures.append(f"op {i}: {type(rep).__name__}: {rep}")
            continue
        iterations += rep.iterations
        rn = _residual_norm(fresh(i), rep.x_final)
        if not rn <= tol:
            failures.append(f"op {i}: ||f(x_final)|| = {rn:.3e} > tol {tol:.1e}")
    return iterations


# --- micro_2x2 -------------------------------------------------------------

def _micro_configs():
    armijo = ArmijoConfig()
    return (
        SolverConfig(method="newton"),
        SolverConfig(method="na", m=1),
        SolverConfig(method="na", m=2),
        SolverConfig(method="na", m=2, switch_to_m1_at=1e-2),
        SolverConfig(method="gna"),
        SolverConfig(method="agna"),
        SolverConfig(method="agna", activation="asymptotic"),
        SolverConfig(method="agna", linesearch=armijo),
        SolverConfig(method="newton", linesearch=armijo),
    )


def micro_inputs(rng, smoke):
    # One start per cell of a grid over the start region, jittered inside its
    # cell: 2 signs x 10 x 11 = 220 starts x 9 configs = 1980 solves.  agna
    # 'asymptotic' needs 3 iterations from about 48 % of the region and 8-12
    # from the rest; with independent uniform starts that split crossed one
    # half from seed to seed, and the config's median solve jumped with it.
    # |x1| is kept away from 0: at x1 = 0 the Jacobian diag(2 x1, 1) is
    # exactly singular, a start no solver can take a step from.
    rows, cols = (1, 1) if smoke else (10, 11)
    i, j = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    starts = []
    for sign in (-1.0, 1.0):
        u, v = rng.uniform(size=(2, rows, cols))
        x1 = sign * (0.1 + (i + u) * 1.9 / rows)
        x2 = -2.0 + (j + v) * 4.0 / cols
        starts.append(np.column_stack([x1.ravel(), x2.ravel()]))
    return {"starts": np.vstack(starts), "configs": _micro_configs()}


def micro_run(api, inp):
    problem = nasolve.make_singular_quadratic()
    jobs = [(problem, x0, cfg) for x0 in inp["starts"] for cfg in inp["configs"]]
    t0 = perf_counter_ns()
    results, samples = _timed_solves(api.solve, jobs)
    wall = perf_counter_ns() - t0
    failures = []
    fresh = nasolve.make_singular_quadratic()
    iterations = _check_reports(
        results, [cfg.tol for _, _, cfg in jobs], lambda i: fresh, failures
    )
    return PassResult(wall, _by_config(samples, len(inp["configs"])), iterations,
                      len(jobs), len(failures), failures)


def micro_warm(api, inp):
    problem = nasolve.make_singular_quadratic()
    for cfg in inp["configs"]:
        api.solve(problem, problem.default_start, cfg)


# --- fold_sweep ------------------------------------------------------------

FOLD_STEP = 1e-3
FOLD_MAX_SOLVES = 2000  # guard: the fold of n=200 is reached after ~515


def fold_inputs(rng, smoke):
    if smoke:
        # the discrete fold of n=10 lies at 3.498-3.499; start close to it
        n, start, bracket = 10, 3.45, (3.49, 3.505)
    else:
        # the discrete fold of n=200 lies at 3.513-3.514 (continuum: 3.5138)
        n, start, bracket = 200, 3.0, (3.505, 3.52)
    return {
        "n": n,
        "lam0": start + float(rng.uniform(0.0, FOLD_STEP)),
        "bracket": bracket,
        "cfg": SolverConfig(method="newton", tol=1e-10, max_iter=50),
    }


def fold_run(api, inp):
    n, lam0, cfg = inp["n"], inp["lam0"], inp["cfg"]
    lams, results, samples = [], [], []
    u = np.zeros(n)
    t0 = perf_counter_ns()
    for i in range(FOLD_MAX_SOLVES):
        lam = lam0 + i * FOLD_STEP
        problem = nasolve.make_bratu_1d(lam, n)
        (rep,), (dt,) = _timed_solves(api.solve, [(problem, u, cfg)])
        lams.append(lam)
        results.append(rep)
        samples.append(dt)
        if isinstance(rep, Exception) or rep.status != "converged":
            break
        u = rep.x_final
    wall = perf_counter_ns() - t0

    # Every solve but the last must solve its problem; the last one, where the
    # sweep stopped, is correct when it stopped at the fold.
    failures = []
    fresh = lambda i: nasolve.make_bratu_1d(lams[i], n)
    iterations = _check_reports(
        results[:-1], [cfg.tol] * (len(results) - 1), fresh, failures
    )
    last = results[-1]
    if isinstance(last, Exception):
        failures.append(f"last solve: {type(last).__name__}: {last}")
    else:
        iterations += last.iterations
        lo, hi = inp["bracket"]
        fold = lams[-2] if len(lams) > 1 else None
        if fold is None or not lo <= fold <= hi:
            failures.append(f"fold at {fold}, outside [{lo}, {hi}]")
    return PassResult(wall, {0: samples}, iterations, len(results), len(failures),
                      failures)


def fold_warm(api, inp):
    problem = nasolve.make_bratu_1d(inp["lam0"], inp["n"])
    api.solve(problem, problem.default_start, inp["cfg"])


# --- chandrasekhar_c1 ------------------------------------------------------

def _chandra_configs():
    return (
        SolverConfig(method="newton"),
        SolverConfig(method="agna"),
        SolverConfig(method="na", m=3),
    )


def chandra_inputs(rng, smoke):
    n = 10 if smoke else 1000
    x0 = 1.0 + rng.uniform(-0.01, 0.01, size=n)
    return {"n": n, "x0": x0, "configs": _chandra_configs()}


def chandra_run(api, inp):
    problem = nasolve.make_chandrasekhar(1.0, inp["n"])
    jobs = [(problem, inp["x0"], cfg) for cfg in inp["configs"]]
    t0 = perf_counter_ns()
    results, samples = _timed_solves(api.solve, jobs)
    wall = perf_counter_ns() - t0
    failures = []
    fresh = nasolve.make_chandrasekhar(1.0, inp["n"])
    iterations = _check_reports(
        results, [cfg.tol for _, _, cfg in jobs], lambda i: fresh, failures
    )
    return PassResult(wall, _by_config(samples, len(inp["configs"])), iterations,
                      len(jobs), len(failures), failures)


def chandra_warm(api, inp):
    problem = nasolve.make_chandrasekhar(1.0, inp["n"])
    problem.jacobian(problem.residual(inp["x0"]))
    # the solver's code paths, at a size whose cost is negligible
    small = nasolve.make_chandrasekhar(1.0, 50)
    for cfg in inp["configs"]:
        api.solve(small, small.default_start, cfg)


# --- cli_sweep -------------------------------------------------------------

CLI_END = 3.5


def cli_inputs(rng, smoke):
    step = 0.05 if smoke else 2e-3
    start = 3.0 + float(rng.uniform(0.0, step))
    n = 10 if smoke else 50
    return {"start": start, "step": step, "n": n}


def _cli_argv(inp, fmt, outdir, end=CLI_END):
    return [
        "sweep", "--problem", "bratu1d", "--param", f"n={inp['n']}", "--warm-start",
        "--method", "newton", "--method", "na", "--m", "3",
        "--method", "gna", "--method", "agna",
        "--sweep", f"lambda:{inp['start']!r}:{end!r}:{inp['step']!r}",
        "--format", fmt, "--output", str(outdir),
    ]


CLI_METHODS = 4


def _cli_cells(inp):
    points = int(math.floor((CLI_END - inp["start"]) / inp["step"] + 1e-9)) + 1
    return points * CLI_METHODS


class _OpenClock:
    """Audit hook stamping every file opened under ``prefix``.

    It times sweep cells from outside the program: the CLI writes one history
    file per cell, so the interval between two opens is one cell's work.
    """

    def __init__(self):
        self.prefix = None
        self.stamps = []

    def __call__(self, event, args):
        if event == "open" and self.prefix is not None:
            path = args[0]
            if isinstance(path, os.PathLike):
                path = os.fspath(path)
            if isinstance(path, str) and path.startswith(self.prefix):
                self.stamps.append(perf_counter_ns())


_open_clock = None  # an audit hook cannot be removed: one serves the process


def _clock():
    global _open_clock
    if _open_clock is None:
        _open_clock = _OpenClock()
        sys.addaudithook(_open_clock)
    return _open_clock


def _run_cli(main, argv, outdir):
    clock = _clock()
    clock.prefix = str(outdir) + "/"
    clock.stamps = []
    sink = io.StringIO()
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception as exc:  # counted as a failure by the caller
        code = exc
    t1 = perf_counter_ns()
    clock.prefix = None
    bounds = [t0] + clock.stamps
    return code, t1 - t0, [b - a for a, b in zip(bounds, bounds[1:])]


def _read_table(path, fmt):
    """(header, rows): CSV rows as lists of fields, JSON rows as objects."""
    with open(path, newline="") as fh:
        if fmt == "csv":
            header, *rows = list(csv.reader(fh))
            return header, rows
        rows = json.load(fh)
        return (list(rows[0]) if rows else []), rows


def _parses(header, rows, columns):
    if header != list(columns):
        return False
    return all(
        len(r) == len(columns) if isinstance(r, list) else list(r) == list(columns)
        for r in rows
    )


def _check_cli(code, outdir, fmt, cells, columns):
    """Return (failed cells, messages, iterations, files written)."""
    files = sorted(outdir.iterdir()) if outdir.is_dir() else []
    if isinstance(code, Exception) or code != 0:
        return cells, [f"{fmt}: exit {code!r}"], 0, len(files)
    problems = []
    if len(files) != cells + 1:
        problems.append(f"{fmt}: {len(files)} files for {cells} cells")
    summary = outdir / f"summary.{fmt}"
    try:
        header, rows = _read_table(summary, fmt)
        if fmt == "csv":
            rows = [dict(zip(header, row)) for row in rows]
        iterations = sum(int(row["iterations"]) for row in rows)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return cells, problems + [f"{fmt}: summary unreadable: {exc!r}"], 0, len(files)
    bad = sum(1 for row in rows if row.get("status") != "converged")
    bad += max(0, cells - len(rows))
    for path in files:
        if path == summary:
            continue
        try:
            ok = _parses(*_read_table(path, fmt), columns)
        except (OSError, ValueError):
            ok = False
        if not ok:
            bad += 1
            problems.append(f"{fmt}: history {path.name} does not parse")
    if bad:
        problems.append(f"{fmt}: {bad} cell(s) not converged or unreadable")
    failed = min(cells, bad + (1 if len(files) != cells + 1 else 0))
    return failed, problems, iterations, len(files)


def cli_run(api, inp):
    from nasolve.harness import CSV_COLUMNS

    cells = _cli_cells(inp)
    OUT_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        wall = 0
        samples = {}
        runs = []
        for fmt in ("csv", "json"):
            outdir = root / fmt
            code, dt, cell_ns = _run_cli(api.main, _cli_argv(inp, fmt, outdir), outdir)
            wall += dt
            # cells run sweep-point-major, method-minor; the last open is the summary
            for method, ns in _by_config(cell_ns[:cells], CLI_METHODS).items():
                samples[fmt, method] = ns
            runs.append((code, outdir, fmt))
        failures, iterations, written, failed = [], 0, 0, 0
        for code, outdir, fmt in runs:
            f, problems, it, nfiles = _check_cli(code, outdir, fmt, cells, CSV_COLUMNS)
            failed += f
            failures += problems
            iterations += it
            written += nfiles
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return PassResult(wall, samples, iterations, 2 * cells, failed, failures, written)


def cli_warm(api, inp):
    OUT_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="warm-", dir=OUT_DIR))
    try:
        for fmt in ("csv", "json"):
            # one sweep point: every method once, both emitters
            argv = _cli_argv(inp, fmt, root / fmt, end=inp["start"])
            with contextlib.redirect_stdout(io.StringIO()):
                api.main(argv)
    finally:
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("micro_2x2", 99.0, micro_inputs, micro_run, micro_warm),
        Workload("fold_sweep", 98.0, fold_inputs, fold_run, fold_warm),
        # Three methods per pass give a three-mode distribution; p75 stays
        # inside the slowest method's mode for any number of passes >= 3.
        Workload("chandrasekhar_c1", 75.0, chandra_inputs, chandra_run, chandra_warm),
        # About 1 % of cells absorb a full garbage collection, so p99 sits on
        # the edge of that group and jumps between runs; p98 does not.
        Workload("cli_sweep", 98.0, cli_inputs, cli_run, cli_warm),
    )
}
