"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import csv
import io
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import nasolve.solver as solver_mod
from nasolve import (
    ArmijoConfig,
    SafeguardDecision,
    SolverConfig,
    anderson_gamma_1,
    gamma_safeguard,
    make_bratu_1d,
    make_chandrasekhar,
    make_singular_quadratic,
    na_m_update,
    solve,
    solve_linear,
    step_gains,
)
from nasolve.harness import (
    ExperimentSpec,
    _cell_reports,
    emit_history,
    fold_sweep,
    run_experiment,
)
from oracle import gamma_grid_oracle, safeguard_case_oracle


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def matrix_problems():
    sq = make_singular_quadratic()
    ch = make_chandrasekhar(1.0, 80)
    br = make_bratu_1d(1.0, 80)
    return [(p, p.default_start) for p in (sq, ch, br)]


def matrix_configs():
    return [
        SolverConfig(method="newton", tol=1e-10),
        SolverConfig(method="newton", tol=1e-8),
        SolverConfig(method="newton", linesearch=ArmijoConfig()),
        SolverConfig(method="na", m=1),
        SolverConfig(method="na", m=2),
        SolverConfig(method="na", m=3),
        SolverConfig(method="gna", r=0.1),
        SolverConfig(method="gna", r=0.5),
        SolverConfig(method="gna", r=0.9),
        SolverConfig(method="agna", r_hat=0.1),
        SolverConfig(method="agna", r_hat=0.5),
        SolverConfig(method="agna", r_hat=0.9),
        SolverConfig(method="agna", r_hat=0.9, activation="asymptotic"),
    ]


@pytest.fixture(scope="module")
def matrix_reports():
    reports = []
    for p, x0 in matrix_problems():
        for cfg in matrix_configs():
            reports.append((p, cfg, solve(p, x0, cfg)))
    return reports


def test_criterion_1_safeguard_bounds(matrix_reports):
    desc = "scaled-gamma bounds hold on every safeguarded iteration"
    with criterion(1, desc):
        checked = 0
        converged = 0
        for _, _, report in matrix_reports:
            if report.status != "converged":
                continue
            converged += 1
            for rec, (eta, _, _) in zip(report.records, step_gains(report)):
                d = rec.decision
                if d is None or eta is None or eta >= 1.0:
                    continue
                lg = abs(d.lambda_value * rec.gamma)
                case = d.case
                if case == "pass_through":
                    assert lg <= d.beta / (1.0 - d.beta) + 1e-12
                    checked += 1
                elif case == "ratio_exceeded":
                    sign = 1.0 if rec.gamma > 0 else -1.0
                    bound = d.beta / (1.0 + sign * d.beta)
                    assert abs(lg - bound) <= 1e-12
                    checked += 1
        assert converged >= 30
        assert checked > 100


def test_criterion_2_gamma_optimality(matrix_reports):
    desc = "depth-1 mixing coefficient is the least-squares minimizer"
    with criterion(2, desc):
        rng = np.random.default_rng(100)
        for trial in range(1000):
            w_next = rng.standard_normal(3)
            w_prev = rng.standard_normal(3)
            d = w_next - w_prev
            scale = np.linalg.norm(w_next) + np.linalg.norm(w_prev)
            gamma = anderson_gamma_1(w_next, d, scale)
            closed = float(d @ w_next) / float(d @ d)
            assert abs(gamma - closed) <= 1e-14 * (1.0 + abs(closed))
            best = gamma_grid_oracle(
                w_next, w_prev, gamma - 1.0, gamma + 1.0, 1e-4
            )
            assert abs(gamma - best) <= 1e-4 + 1e-12
            if trial < 25 and abs(gamma) < 9.5:
                wide = gamma_grid_oracle(w_next, w_prev, -10.0, 10.0, 1e-3)
                assert abs(gamma - wide) <= 1e-3 + 1e-12
        for _, _, report in matrix_reports:
            for _, theta, _ in step_gains(report):
                if theta is not None:
                    assert theta <= 1.0 + 1e-12


def test_criterion_3_differential_safeguard():
    desc = "safeguard case logic matches the independent oracle on 1e5 pairs"
    with criterion(3, desc):
        rng = np.random.default_rng(101)
        betas = rng.uniform(1e-9, 1.0 - 1e-9, size=100_000)
        gammas = rng.uniform(-3.0, 3.0, size=100_000)
        for beta, gamma in zip(betas, gammas):
            # the gate r * eta is beta exactly
            dec = gamma_safeguard(gamma, eta=2.0 * beta, r=0.5)
            assert abs(dec.lambda_value - safeguard_case_oracle(gamma, beta)) <= 1e-14


def test_criterion_4_singular_linear_rate():
    desc = "Newton on the singular quadratic halves step and null error"
    with criterion(4, desc):
        p = make_singular_quadratic()
        report = solve(p, [1.0, 1.0], SolverConfig(method="newton", tol=1e-10))
        assert report.status == "converged"
        sn = np.array([rec.step_norm for rec in report.records])
        ratios = (sn[1:] / sn[:-1])[-5:]
        assert np.all(np.abs(ratios - 0.5) <= 0.02)
        # the root is 0 and (1, 0) spans the null space: the null error is |x_1|
        pn = np.array([abs(rec.x[0]) for rec in report.records])
        null_ratios = (pn[1:] / pn[:-1])[-5:]
        assert np.all(np.abs(null_ratios - 0.5) <= 0.02)


def test_criterion_5_acceleration_on_singular_problems():
    desc = "NA(1) and agna(0.5) beat Newton on both singular problems"
    with criterion(5, desc):
        for name, p in (
            ("singular_quadratic", make_singular_quadratic()),
            ("chandrasekhar", make_chandrasekhar(1.0, 100)),
        ):
            counts = {}
            for method, kwargs in (
                ("newton", {}),
                ("na", {"m": 1}),
                ("agna", {"r_hat": 0.5}),
            ):
                cfg = SolverConfig(method=method, tol=1e-10, **kwargs)
                report = solve(p, p.default_start, cfg)
                assert report.status == "converged"
                counts[method] = report.iterations
            print(f"  {name}: {counts}")
            assert counts["na"] < counts["newton"]
            assert counts["agna"] < counts["newton"]


def test_criterion_6_nonsingular_detection():
    desc = "agna recovers quadratic order and drives r to zero on nonsingular runs"
    with criterion(6, desc):
        x = np.arange(1, 101) / 101.0
        cases = [
            ("chandrasekhar", make_chandrasekhar(0.5, 100), np.zeros(100), 1e-12),
            ("bratu1d", make_bratu_1d(1.0, 100), -3.0 * np.sin(np.pi * x), 1e-11),
        ]
        for name, p, x0, tol in cases:
            na_rep = solve(p, x0, SolverConfig(method="na", m=1, tol=tol))
            print(f"  {name}: NA(1) q_term={na_rep.q_term} (recorded, not asserted)")
            # every eta is below 0.1, so r_hat binds only at 0.01
            for r_hat in (0.01, 0.1, 0.5, 0.9):
                cfg = SolverConfig(method="agna", r_hat=r_hat, tol=tol)
                report = solve(p, x0, cfg)
                assert report.status == "converged"
                assert report.q_term is not None and report.q_term >= 1.7
                r_hist = [rec.decision.r_used for rec in report.records
                          if rec.decision is not None]
                assert len(r_hist) >= 2
                assert r_hist[-1] <= 1e-2 * r_hat
                tail = r_hist[-min(3, len(r_hist)):]
                assert all(b < a for a, b in zip(tail, tail[1:]))
                if r_hat == 0.01:
                    print(f"  {name}: r_hat=0.01 q_term={report.q_term}")
                    assert any(r == r_hat for r in r_hist)


def test_criterion_7_newton_reduction_and_depth_one_identity(monkeypatch):
    desc = "forced lambda*gamma = 0 is bitwise Newton; NA(m=1) matches NA(1)"
    with criterion(7, desc):
        zero = SafeguardDecision(case="gamma_zero_or_ge_one", lambda_value=0.0)
        problems = (
            make_singular_quadratic(),
            make_chandrasekhar(1.0, 50),
            make_bratu_1d(1.0, 50),
        )
        with monkeypatch.context() as mp:
            mp.setattr(solver_mod, "gamma_safeguard", lambda *a, **k: zero)
            mp.setattr(solver_mod, "adaptive_gamma_safeguard", lambda *a, **k: zero)
            for p in problems:
                ref = solve(p, p.default_start, SolverConfig(method="newton"))
                for method in ("gna", "agna"):
                    rep = solve(p, p.default_start, SolverConfig(method=method))
                    assert rep.iterations == ref.iterations
                    for a, b in zip(rep.records, ref.records):
                        assert np.array_equal(a.x, b.x)
                    assert np.array_equal(rep.x_final, ref.x_final)
        for p in problems:
            rep = solve(p, p.default_start, SolverConfig(method="na", m=1))
            x = p.default_start.copy()
            xs, ws = [x], []
            for _ in range(rep.iterations):
                w = solve_linear(p.jacobian(x), -p.residual(x))
                if not ws:
                    x = x + w
                else:
                    x, _ = na_m_update(xs, ws + [w], 1)
                ws.append(w)
                xs.append(x)
            for rec, x_ref in zip(rep.records, xs):
                scale = 1.0 + np.linalg.norm(x_ref)
                assert np.linalg.norm(rec.x - x_ref) / scale <= 1e-12


def test_criterion_8_depth_behavior(tmp_path):
    desc = "some NA depth converges at least as far up the fold as Newton"
    with criterion(8, desc):
        configs = [SolverConfig(method="newton")] + [
            SolverConfig(method="na", m=m) for m in (1, 2, 3, 4, 5)
        ]
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"n": 100},
            configs=tuple(configs),
            x0="zero",
            sweep=("lambda", 3.0, 3.52, 0.01),
            output=str(tmp_path / "depth"),
        )
        code, files = run_experiment(spec)
        assert code == 0
        onsets = {}
        for line in files[-1].read_text().splitlines()[1:]:
            param, config, status, _, _ = line.split(",")
            if status == "converged":
                lam = float(param)
                onsets[config] = max(onsets.get(config, -np.inf), lam)
        print(f"  onsets: { {k: round(v, 3) for k, v in sorted(onsets.items())} }")
        newton_onset = onsets["newton"]
        assert any(
            onsets[f"na_m{m}"] >= newton_onset for m in (1, 2, 3, 4, 5)
        )


def test_criterion_9_fold_localization():
    desc = "continuation locates the fold in [3.51, 3.52], stable under step halving"
    with criterion(9, desc):
        lam_a = fold_sweep(200, 3.0, 3.6, 1e-3)
        lam_b = fold_sweep(200, 3.0, 3.6, 5e-4)
        print(f"  fold: step 1e-3 -> {lam_a}, step 5e-4 -> {lam_b}")
        assert lam_a is not None and 3.51 <= lam_a <= 3.52
        assert lam_b is not None and 3.51 <= lam_b <= 3.52
        assert abs(lam_a - lam_b) <= 2e-3


def test_criterion_10_determinism_and_io(tmp_path):
    desc = "byte-identical reruns and shortest exact repr float round trips"
    with criterion(10, desc):
        def spec_for(outdir, fmt):
            return ExperimentSpec(
                problem="chandrasekhar",
                params={"n": 50},
                configs=(
                    SolverConfig(method="newton"),
                    SolverConfig(method="agna", r_hat=0.5),
                ),
                sweep=("c", 0.5, 1.0, 0.25),
                fmt=fmt,
                output=str(outdir),
            )

        for fmt in ("csv", "json"):
            _, files_a = run_experiment(spec_for(tmp_path / f"a_{fmt}", fmt))
            _, files_b = run_experiment(spec_for(tmp_path / f"b_{fmt}", fmt))
            assert [f.name for f in files_a] == [f.name for f in files_b]
            for fa, fb in zip(files_a, files_b):
                assert fa.read_bytes() == fb.read_bytes()

        p = make_chandrasekhar(1.0, 50)
        report = solve(p, p.default_start, SolverConfig(method="agna", r_hat=0.5))
        csv_rows = list(csv.DictReader(io.StringIO(emit_history(report, "csv").decode())))
        # parse_float=str keeps the text of every JSON float field
        json_rows = json.loads(emit_history(report, "json").decode(), parse_float=str)
        assert len(csv_rows) == len(json_rows) == report.iterations
        rows = zip(csv_rows, json_rows, report.records, step_gains(report))
        for csv_row, json_row, rec, (eta, theta, theta_lam) in rows:
            d = rec.decision
            lam, r_used, beta = (
                (None,) * 3 if d is None else (d.lambda_value, d.r_used, d.beta)
            )
            for key, value in (
                ("residual_norm", rec.residual_norm),
                ("step_norm", rec.step_norm),
                ("lambda", lam),
                ("eta", eta),
                ("r_used", r_used),
                ("beta", beta),
                ("theta", theta),
                ("theta_lambda", theta_lam),
            ):
                if value is not None:
                    for text in (csv_row[key], json_row[key]):
                        assert text == repr(float(value))
                        assert float(text) == value


def test_criterion_11_strategies_on_a_continuation():
    desc = "the three strategies beat Newton and NA(1) on warm sweeps to the fold"
    with criterion(11, desc):
        configs = {
            "newton": SolverConfig(method="newton"),
            "na_m1": SolverConfig(method="na", m=1),
            "na_m3": SolverConfig(method="na", m=3),
            "agna_always": SolverConfig(method="agna"),
            "agna_asymptotic": SolverConfig(method="agna", activation="asymptotic"),
            "na_m3_switch": SolverConfig(method="na", m=3, switch_to_m1_at=0.1),
        }
        names = list(configs)
        strategies = ("agna_always", "agna_asymptotic", "na_m3_switch")
        sweeps = [
            ("bratu1d", {"n": 50}, ("lambda", 3.40, 3.51, 0.005)),
            ("bratu1d", {"n": 100}, ("lambda", 3.40, 3.51, 0.001)),
            ("bratu1d", {"n": 200}, ("lambda", 3.40, 3.51, 0.002)),
            ("chandrasekhar", {"n": 100}, ("c", 0.9, 1.0, 0.005)),
        ]
        for problem, params, sweep in sweeps:
            spec = ExperimentSpec(
                problem=problem,
                params=params,
                configs=tuple(configs.values()),
                sweep=sweep,
                warm_start=True,
            )
            totals = dict.fromkeys(configs, 0)
            for _, _, j, _, report in _cell_reports(spec):
                assert report.status == "converged"
                totals[names[j]] += report.iterations
            print(f"  {problem} {params} {sweep}: {totals}")
            for name in strategies:
                margins = {ref: totals[ref] - totals[name] for ref in ("newton", "na_m1")}
                print(f"    {name}: fewer iterations than {margins}")
                assert min(margins.values()) > 0


def safeguarded_rate(r):
    """The steady step ratio rho of NA(1) with the gate r * eta at a singular
    root with a one-dimensional null space: the root in (0, 1/2) of
    2 r rho^2 - 2 rho + (1 - r) = 0.  Newton's step there is -e/2, so the
    mixing coefficient is rho / (rho - 1) and the safeguard scales it to the
    gate."""
    return (1.0 - math.sqrt(1.0 - 2.0 * r * (1.0 - r))) / (2.0 * r)


def test_criterion_12_safeguard_rate_on_singular_problems():
    desc = "gna and agna converge at the closed-form rate on both singular problems"
    with criterion(12, desc):
        # agna gates with min(eta, r_hat): from r_hat >= r* on, the gate is
        # eta itself and the rate is r*, the root of 2 rho^2 + 2 rho - 1 = 0
        r_star = (math.sqrt(3.0) - 1.0) / 2.0
        cases = [
            *((SolverConfig(method="gna", r=r, tol=1e-12), safeguarded_rate(r))
              for r in (0.1, 0.3, 0.5, 0.7)),
            *((SolverConfig(method="agna", r_hat=r, tol=1e-12), safeguarded_rate(r))
              for r in (0.1, 0.3)),
            *((SolverConfig(method="agna", r_hat=r, tol=1e-12), r_star)
              for r in (0.5, 0.9)),
        ]
        # faster than Newton's 1/2 for every r_hat
        assert all(rate < 0.5 for cfg, rate in cases if cfg.method == "agna")
        problems = [("singular_quadratic", make_singular_quadratic())]
        problems += [("chandrasekhar", make_chandrasekhar(1.0, n)) for n in (20, 100, 400)]
        for name, p in problems:
            worst = 0.0
            for cfg, rate in cases:
                report = solve(p, p.default_start, cfg)
                assert report.status == "converged"
                sn = np.array([rec.step_norm for rec in report.records])
                deviation = np.abs((sn[1:] / sn[:-1])[-3:] - rate)
                assert len(deviation) == 3 and np.all(deviation <= 1e-3)
                worst = max(worst, float(deviation.max()))
            print(f"  {name} n={p.dimension}: worst tail deviation {worst:.1e}")
