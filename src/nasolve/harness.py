"""CLI front end and machine-readable convergence-history output.

Subcommands: ``solve`` (one or more configurations on one problem, optionally
over a parameter grid; ``compare`` and ``sweep`` are other names for it) and
``verify fold`` (locate the Bratu fold by continuation).
Histories and summaries are emitted as plot-ready CSV or JSON with floats
printed as their shortest exact repr, so identical experiment specs produce
byte-identical output.

Exit codes: 0 success, 1 usage error, 2 when every cell of an experiment
failed to converge.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import _step_orders, step_gains
from .problem import PROBLEM_IDS, problem_from_id
from .solver import (
    ACTIVATIONS,
    METHODS,
    ArmijoConfig,
    SolverConfig,
    solve,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentSpec",
    "config_label",
    "emit_history",
    "run_experiment",
    "fold_sweep",
    "main",
]

CSV_COLUMNS = (
    "k",
    "residual_norm",
    "step_norm",
    "gamma",
    "lambda",
    "eta",
    "r_used",
    "beta",
    "theta",
    "theta_lambda",
    "decision",
    "q",
)

SUMMARY_COLUMNS = ("param", "config", "status", "iterations", "q_term")

FORMATS = ("csv", "json")
X0_CHOICES = ("zero", "ones", "default")
X0_USAGE = " | ".join(X0_CHOICES + ("perturbed:IDX:VAL",))
LINESEARCH_USAGE = "none|armijo[:C1:SHRINK:MAXBT]"
# a larger grid runs for days; ``verify fold --step 1e-6`` has 600,001 points
MAX_SWEEP_POINTS = 10**6


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem, configurations to compare, and output.

    ``x0`` selects the initial iterate: ``zero``, ``ones``, ``default``
    (the problem's documented built-in start), or ``perturbed:IDX:VAL``
    which takes the built-in start with entry IDX set to VAL.  ``sweep``
    is an optional (parameter name, start, end, step) grid of at most
    MAX_SWEEP_POINTS points; each cell is cold-started from the same initial
    iterate unless ``warm_start`` is set, in which case cells are
    warm-started from the previous converged solution (natural continuation).
    """

    problem: str
    params: dict = field(default_factory=dict)
    configs: tuple = (SolverConfig(),)
    x0: str = "default"
    sweep: tuple | None = None
    fmt: str = "csv"
    output: str = "out"
    warm_start: bool = False

    def __post_init__(self):
        if not self.configs:
            raise ValueError("at least one solver configuration is required")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.sweep is not None:
            _, start, end, step = self.sweep
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError("sweep start and end must be finite")
            if not step > 0.0:
                raise ValueError("sweep step must be positive")
            if not start <= end:
                raise ValueError("sweep start must not exceed end")
            _sweep_points(self.sweep)
        _parse_x0_selector(self.x0)


def _sweep_points(sweep):
    """Point count of a ``(name, start, end, step)`` grid; ValueError when it
    is not finite or exceeds MAX_SWEEP_POINTS."""
    name, start, end, step = sweep
    span = (end - start) / step
    if not math.isfinite(span):
        raise ValueError(f"sweep {name!r} has a non-finite point count")
    npts = int(math.floor(span + 1e-9)) + 1
    if npts > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep {name!r} has {npts} points; at most {MAX_SWEEP_POINTS} are allowed"
        )
    return npts


def _parse_x0_selector(selector):
    if selector in X0_CHOICES:
        return selector, None, None
    if selector.startswith("perturbed:"):
        try:
            _, idx, val = selector.split(":")
            return "perturbed", int(idx), float(val)
        except ValueError:
            pass
    raise ValueError(f"bad x0 selector {selector!r}; use {X0_USAGE}")


def initial_iterate(problem, selector):
    """Resolve an initial-iterate selector against a problem."""
    kind, idx, val = _parse_x0_selector(selector)
    if kind == "zero":
        return np.zeros(problem.dimension)
    if kind == "ones":
        return np.ones(problem.dimension)
    if kind == "default":
        return problem.default_start.copy()
    x0 = problem.default_start.copy()
    if not 0 <= idx < problem.dimension:
        raise ValueError(f"perturbation index {idx} out of range")
    x0[idx] = val
    return x0


def config_label(cfg):
    """Short deterministic label for a configuration, used in file names."""
    if cfg.method == "newton":
        base = "newton"
    elif cfg.method == "na":
        base = f"na_m{cfg.m}"
        if cfg.switch_to_m1_at is not None:
            base += f"_sw{cfg.switch_to_m1_at:g}"
    elif cfg.method == "gna":
        base = f"gna_r{cfg.r:g}"
    else:
        base = f"agna_rhat{cfg.r_hat:g}"
    if cfg.activation == "asymptotic":
        base += f"_asym{cfg.threshold:g}"
    if cfg.linesearch is not None:
        base += "_ls"
    return base


def _finite(value):
    """Plain float, or None when missing or non-finite (empty field / null)."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def history_rows(report):
    """Per-iteration rows matching CSV_COLUMNS.

    Floats are plain Python floats; missing and non-finite values are None.
    eta, theta and theta_lambda come from ``step_gains``.  The decision is
    ``not_applied`` on a mixing step that no safeguard ran on.
    """
    rows = []
    qs = [None] + _step_orders([rec.step_norm for rec in report.records])
    for rec, q, gains in zip(report.records, qs, step_gains(report)):
        eta, theta, theta_lam = gains
        gamma = rec.gamma
        if isinstance(gamma, np.ndarray):
            gamma = [_finite(g) for g in gamma]
        else:
            gamma = _finite(gamma)
        d = rec.decision
        if d is None:
            lam = r_used = beta = None
            # a mixing step that no safeguard ran on
            case = None if rec.gamma is None else "not_applied"
        else:
            lam, r_used, beta, case = d.lambda_value, d.r_used, d.beta, d.case
        values = (rec.k, _finite(rec.residual_norm), _finite(rec.step_norm), gamma,
                  *map(_finite, (lam, eta, r_used, beta, theta, theta_lam)), case, q)
        rows.append(dict(zip(CSV_COLUMNS, values, strict=True)))
    return rows


def _joined(values):
    return ";".join("" if v is None else repr(v) for v in values)


def _table(rows, columns, fmt):
    """Serialize rows to CSV or JSON bytes.

    Each row is a dict holding exactly ``columns`` in order, with plain
    values and None for missing ones (an empty CSV field, JSON null).  A
    list value is semicolon-joined in CSV and a JSON array.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        cells = (map(row.__getitem__, columns) for row in rows)
        writer.writerows(
            [_joined(v) if type(v) is list else v for v in values] for values in cells
        )
        return buf.getvalue().encode()
    if fmt == "json":
        if not rows:
            return b"[]\n"
        return ("[\n  " + ",\n  ".join(map(json.dumps, rows)) + "\n]\n").encode()
    raise ValueError(f"format must be csv or json, got {fmt!r}")


def emit_history(report, fmt="csv"):
    """Serialize a convergence history to CSV or JSON bytes.

    CSV columns follow CSV_COLUMNS in order, with missing values as empty
    fields and the depth-m gamma vector semicolon-joined.  JSON mirrors the
    field names 1:1 (one object per iteration, missing values as null).
    Floats are printed as their shortest exact repr.
    """
    return _table(history_rows(report), CSV_COLUMNS, fmt)


def _cells(spec):
    """Yield ``(sweep value, problem)`` for each sweep cell, in order."""
    if spec.sweep is None:
        yield None, problem_from_id(spec.problem, spec.params)
        return
    name, start, end, step = spec.sweep
    for i in range(_sweep_points(spec.sweep)):
        value = start + i * step
        yield value, problem_from_id(spec.problem, {**spec.params, name: value})


def _cell_reports(spec):
    """Solve the (sweep value x config) cells of ``spec`` in order, lazily.

    Yields ``(i, value, j, cfg, report)`` for sweep cell i and config j.
    """
    warm = {}
    for i, (value, problem) in enumerate(_cells(spec)):
        for j, cfg in enumerate(spec.configs):
            x0 = warm.get(j)
            if x0 is None:
                x0 = initial_iterate(problem, spec.x0)
            report = solve(problem, x0, cfg)
            if spec.warm_start and report.status == "converged":
                warm[j] = report.x_final
            yield i, value, j, cfg, report


def _experiment_files(spec):
    """What an experiment writes, solving its cells lazily and in order.

    Yields ``(file name, bytes, status)`` for each cell's history, then the
    summary's ``(name, bytes, None)``.  The sweep index is zero-padded to the
    grid's width, at least 3 digits, so sorted names follow cell order.
    """
    fmt = spec.fmt
    points = 1 if spec.sweep is None else _sweep_points(spec.sweep)
    width = max(3, len(str(points - 1)))
    summary = []
    for i, value, j, cfg, report in _cell_reports(spec):
        label = config_label(cfg)
        row = (value, label, report.status, report.iterations, _finite(report.q_term))
        summary.append(dict(zip(SUMMARY_COLUMNS, row, strict=True)))
        name = f"history_p{i:0{width}d}_c{j}_{label}.{fmt}"
        yield name, emit_history(report, fmt), report.status
    yield f"summary.{fmt}", _table(summary, SUMMARY_COLUMNS, fmt), None


def run_experiment(spec):
    """Run every (sweep value x config) cell of an experiment.

    Writes one history file per cell plus a summary table (status,
    iterations, q_term) under ``spec.output``.  Cells run in a fixed order
    and all floats are printed as their shortest exact repr, so identical
    specs produce byte-identical files.  Per-cell solver failures are
    recorded in the summary, not fatal.

    Every cell's problem and initial iterate are built first, so a rejected
    parameter in any cell raises ``ValueError`` before anything is written.

    Returns ``(exit_code, written_paths)`` with exit code 0 on success and
    2 when no cell converged.
    """
    for _, problem in _cells(spec):
        initial_iterate(problem, spec.x0)
    outdir = Path(spec.output)
    outdir.mkdir(parents=True, exist_ok=True)
    written, statuses = [], set()
    for name, data, status in _experiment_files(spec):
        path = outdir / name
        path.write_bytes(data)
        written.append(path)
        statuses.add(status)
    return (0 if "converged" in statuses else 2), written


def fold_sweep(n, lam_start, lam_end, lam_step):
    """Natural-parameter continuation locating the Bratu fold.

    Runs the warm-started ``bratu1d`` Newton sweep of ``run_experiment``
    (lambda from ``lam_start`` to ``lam_end`` in steps of ``lam_step``, the
    first solve from the default iterate) until a cell fails to converge
    within 50 iterations at ``SolverConfig``'s default ``tol``.  Returns the
    last converged lambda, or None when no solve converged.
    """
    spec = ExperimentSpec(
        problem="bratu1d",
        params={"n": n},
        configs=(SolverConfig(method="newton", max_iter=50),),
        sweep=("lambda", lam_start, lam_end, lam_step),
        warm_start=True,
    )
    last = None
    for _, lam, _, _, report in _cell_reports(spec):
        if report.status != "converged":
            break
        last = float(lam)
    return last


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"bad --param {pair!r}; expected K=V")
        params[key] = value
    return params


def _parse_linesearch(text):
    if text == "none":
        return None
    head, *parts = text.split(":")
    values = None
    if head == "armijo" and len(parts) in (0, 3):
        try:
            # C1, SHRINK and MAXBT; none keeps ArmijoConfig's defaults
            values = [kind(v) for kind, v in zip((float, float, int), parts)]
        except ValueError:
            pass
    if values is None:
        raise ValueError(f"bad --linesearch {text!r}; expected {LINESEARCH_USAGE}")
    return ArmijoConfig(*values)


def _configs_from_args(args):
    methods = args.method or [SolverConfig.method]
    linesearch = _parse_linesearch(args.linesearch)
    return tuple(
        SolverConfig(
            method=method,
            m=args.m if method == "na" else 1,
            r=args.r,
            r_hat=args.rhat,
            activation=args.activation if method in ("gna", "agna") else "always",
            threshold=args.threshold,
            switch_to_m1_at=args.switch_to_m1_at if method == "na" else None,
            tol=args.tol,
            max_iter=args.max_iter,
            linesearch=linesearch,
        )
        for method in methods
    )


def _parse_sweep(text):
    name, *bounds = text.split(":")
    try:
        start, end, step = map(float, bounds)
    except ValueError:
        raise ValueError(f"bad --sweep {text!r}; expected NAME:START:END:STEP") from None
    return name, start, end, step


def _cmd_experiment(args):
    """solve, compare or sweep: build the experiment, run it, print the summary.

    Without ``--sweep`` there is one cell, so ``--warm-start`` changes nothing.
    """
    spec = ExperimentSpec(
        problem=args.problem,
        params=_parse_params(args.param),
        configs=_configs_from_args(args),
        x0=args.x0,
        sweep=None if args.sweep is None else _parse_sweep(args.sweep),
        fmt=args.format,
        output=args.output,
        warm_start=args.warm_start,
    )
    code, written = run_experiment(spec)
    print(written[-1].read_bytes().decode(), end="")
    print(f"wrote {len(written)} file(s) under {spec.output}")
    if code == 2:
        print("no cell converged", file=sys.stderr)
    return code


def _cmd_verify(args):
    """verify fold: the last lambda at which the warm-started sweep converged."""
    lam = fold_sweep(args.n, args.start, args.end, args.step)
    print(f"last converged lambda: {lam!r}")
    return 0 if lam is not None else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nasolve",
        description="Newton / Newton-Anderson solver benchmark harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cmd = subs.add_parser(
        "solve", aliases=["compare", "sweep"], help="run methods on a problem or grid"
    )
    cmd.set_defaults(run=_cmd_experiment)
    # each default is the library's; a dataclass keeps it as a class attribute
    cfg, spec = SolverConfig, ExperimentSpec
    cmd.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    cmd.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="problem parameter, e.g. c=0.5 or n=100 (repeatable)",
    )
    cmd.add_argument(
        "--method",
        action="append",
        default=[],
        choices=METHODS,
        help="solver method (repeatable)",
    )
    cmd.add_argument("--m", type=int, default=cfg.m, help="Anderson depth (method na)")
    cmd.add_argument("--r", type=float, default=cfg.r, help="fixed safeguard parameter (gna)")
    cmd.add_argument(
        "--rhat", type=float, default=cfg.r_hat, help="adaptive safeguard cap (agna)"
    )
    cmd.add_argument("--activation", choices=ACTIVATIONS, default=cfg.activation)
    cmd.add_argument(
        "--threshold",
        type=float,
        default=cfg.threshold,
        help="step-norm threshold for asymptotic activation",
    )
    cmd.add_argument(
        "--switch-to-m1-at",
        type=float,
        default=cfg.switch_to_m1_at,
        help="step-norm threshold at which NA(m) drops to safeguarded depth 1",
    )
    cmd.add_argument("--tol", type=float, default=cfg.tol)
    cmd.add_argument("--max-iter", type=int, default=cfg.max_iter)
    cmd.add_argument(
        "--linesearch",
        default="none",
        metavar=LINESEARCH_USAGE,
        help="optional Armijo backtracking on the composite step",
    )
    cmd.add_argument("--x0", default=spec.x0, help=f"initial iterate: {X0_USAGE}")
    cmd.add_argument("--output", default=spec.output, help="output directory")
    cmd.add_argument("--format", choices=FORMATS, default=spec.fmt)
    cmd.add_argument("--sweep", metavar="NAME:START:END:STEP", help="parameter grid")
    cmd.add_argument(
        "--warm-start",
        action="store_true",
        help="warm-start each cell from the previous converged solution",
    )

    p_ver = subs.add_parser("verify", help="locate the Bratu fold by continuation")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("check", choices=("fold",))
    p_ver.add_argument("--step", type=float, default=1e-4)
    p_ver.add_argument("--n", type=int, default=200)
    p_ver.add_argument("--start", type=float, default=3.0)
    p_ver.add_argument("--end", type=float, default=3.6)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
