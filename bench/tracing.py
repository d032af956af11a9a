"""Spans around the calls into each nasolve layer, for the traced run.

The tracer wraps, from outside the program, the user-supplied problem
callables and the names the ``solver`` and ``harness`` modules resolve at
call time.  Each wrapped call is a span; a span's self time is its duration
minus the durations of its child spans.  Counters are taken at the same
boundaries.  Aggregates cover every traced pass; raw spans are kept in
memory for the first traced pass only (up to ``KEEP_SPANS``) and written
out at the end.  A name missing from the program is reported as absent.
"""

import copy
import math
from collections import defaultdict
from time import perf_counter_ns

import nasolve
from nasolve import diagnostics, harness, solver

SOLVE = "solver.solve"

# The layers that run inside solve().  Consistency check: their self times
# plus solver.self_s must add up to the summed solve spans.  Both sides are
# sums of the same integer nanosecond readings, so the tolerance only absorbs
# float rounding; a larger gap means a layer ran outside solve() or a span
# inside it is not one of these layers.
IN_SOLVE = (
    "problem.residual",
    "problem.jacobian",
    "linalg.solve_linear",
    "linalg.least_squares",
    "solver.linesearch",
    SOLVE,
)
CONSISTENCY_RTOL = 1e-9

KEEP_SPANS = 50_000  # raw spans written out, from the first traced pass

# layer -> (module, attribute) it is wrapped at; problem callables are
# wrapped per solve call and are always present.
PATCHES = {
    "linalg.solve_linear": (solver, "solve_linear"),
    "linalg.least_squares": (solver, "least_squares"),
    "solver.linesearch": (solver, "armijo_backtrack"),
    "harness.solve": (harness, "solve"),
    "harness.emit_history": (harness, "emit_history"),
    "harness.run_experiment": (harness, "run_experiment"),
    "diagnostics.q_term": (diagnostics.ConvergenceReport, "q_term"),
}


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []            # (id, parent id, name, start ns, end ns, root id)
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.reset()

    def reset(self):
        """Start a new pass: zero every aggregate."""
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_ns = 0            # summed durations of spans with no parent

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            # frame: child ns, span id, root span id (the request)
            frame = [0, self._next_id, parent[2] if parent else self._next_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SingularMatrix":
                    self.counts["linalg.solve_linear.singular"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[0]
                self.total_ns[name] += dur
                if parent is None:
                    self.root_ns += dur
                else:
                    parent[0] += dur
                if self.recording and len(self.spans) < KEEP_SPANS:
                    self.spans.append((frame[1], parent and parent[1], name,
                                       start, end, frame[2]))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- what gets wrapped ---------------------------------------------------

    def traced_problem(self, p):
        """A copy of problem ``p`` whose callables are spans."""
        q = copy.copy(p)  # a frozen dataclass: copy without re-validating
        object.__setattr__(q, "residual", self.wrap("problem.residual", p.residual))
        object.__setattr__(
            q, "jacobian", self.wrap("problem.jacobian", p.jacobian, self._jacobian_mb)
        )
        return q

    def solve_wrapper(self, solve):
        inner = self.wrap(SOLVE, solve, self._report)

        def traced_solve(p, *args, **kwargs):
            return inner(self.traced_problem(p), *args, **kwargs)

        return traced_solve

    def _jacobian_mb(self, result, args, kwargs):
        n = len(args[0])
        self.counts["problem.jacobian.mb"] += n * n * 8 / 1e6

    def _report(self, report, args, kwargs):
        self.counts["solver.iterations"] += report.iterations
        self.counts["solver.safeguard.applied"] += sum(
            1
            for rec in report.records
            if rec.decision is not None and rec.decision.case != "not_applied"
        )

    def _solve_linear(self, result, args, kwargs):
        n = len(args[1] if len(args) > 1 else kwargs["b"])
        self.counts["linalg.solve_linear.gflop"] += (2.0 / 3.0 * n**3 + 2.0 * n**2) / 1e9

    def _linesearch(self, result, args, kwargs):
        t = result[0]
        shrink = args[4] if len(args) > 4 else kwargs["shrink"]
        self.counts["solver.linesearch.backtracks"] += round(math.log(t) / math.log(shrink))

    def _emitted(self, result, args, kwargs):
        self.counts["harness.emit_history.mb"] += len(result) / 1e6

    def install(self):
        """Wrap every name in PATCHES that the program still has."""
        after = {
            "linalg.solve_linear": self._solve_linear,
            "solver.linesearch": self._linesearch,
            "harness.emit_history": self._emitted,
        }
        for layer, (owner, attr) in PATCHES.items():
            original = owner.__dict__.get(attr)
            if original is None:
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            if layer == "harness.solve":
                wrapped = self.solve_wrapper(original)
            elif isinstance(original, property):
                wrapped = property(self.wrap(layer, original.fget))
            else:
                wrapped = self.wrap(layer, original, after.get(layer))
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def consistency_error(self):
        """Relative gap between summed solve spans and the self times inside."""
        total = self.total_ns[SOLVE]
        if total == 0:
            return 0.0
        inside = sum(self.self_ns[name] for name in IN_SOLVE)
        return abs(total - inside) / total

    def layer_metrics(self, files_written):
        """Per-layer metrics of the pass just traced (see BENCHMARK.json)."""
        c, k = self.calls, self.counts

        def sec(name):
            return self.self_ns[name] / 1e9

        iters = k["solver.iterations"]
        sl_s, sl_calls = sec("linalg.solve_linear"), c["linalg.solve_linear"]
        gflop = k["linalg.solve_linear.gflop"]
        return {
            "problem.residual.calls": c["problem.residual"],
            "problem.residual.self_s": sec("problem.residual"),
            "problem.residual.per_iter": c["problem.residual"] / iters if iters else 0.0,
            "problem.jacobian.calls": c["problem.jacobian"],
            "problem.jacobian.self_s": sec("problem.jacobian"),
            "problem.jacobian.mb": k["problem.jacobian.mb"],
            "linalg.solve_linear.calls": sl_calls,
            "linalg.solve_linear.self_s": sl_s,
            "linalg.solve_linear.us_per_call": sl_s / sl_calls * 1e6 if sl_calls else 0.0,
            "linalg.solve_linear.gflop": gflop,
            "linalg.solve_linear.gflop_per_s": gflop / sl_s if sl_s else 0.0,
            "linalg.solve_linear.singular": k["linalg.solve_linear.singular"],
            "linalg.least_squares.calls": c["linalg.least_squares"],
            "linalg.least_squares.self_s": sec("linalg.least_squares"),
            "solver.solve.calls": c[SOLVE],
            "solver.iterations": iters,
            "solver.self_s": sec(SOLVE),
            "solver.self_us_per_iter": sec(SOLVE) / iters * 1e6 if iters else 0.0,
            "solver.linesearch.calls": c["solver.linesearch"],
            "solver.linesearch.backtracks": k["solver.linesearch.backtracks"],
            "solver.linesearch.self_s": sec("solver.linesearch"),
            "solver.safeguard.applied": k["solver.safeguard.applied"],
            "diagnostics.q_term.calls": c["diagnostics.q_term"],
            "diagnostics.q_term.self_s": sec("diagnostics.q_term"),
            "harness.run_experiment.self_s": sec("harness.run_experiment"),
            "harness.emit_history.calls": c["harness.emit_history"],
            "harness.emit_history.self_s": sec("harness.emit_history"),
            "harness.emit_history.mb": k["harness.emit_history.mb"],
            "harness.files_written": files_written,
        }

    def absent_metrics(self, names):
        """Metric names that belong to a layer the program no longer has."""
        gone = [layer for layer in self.absent if layer != "harness.solve"]
        return [n for n in names if any(n.startswith(layer + ".") for layer in gone)]


def traced_api(tracer):
    """The api object of the traced run (see workloads.py)."""
    from types import SimpleNamespace

    return SimpleNamespace(
        solve=tracer.solve_wrapper(nasolve.solve),
        main=tracer.wrap("harness.main", harness.main),
    )
