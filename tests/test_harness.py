import ast
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nasolve import (
    ConvergenceReport,
    IterationRecord,
    SolverConfig,
    harness,
    make_chandrasekhar,
    make_singular_quadratic,
    solve,
    step_gains,
)
from nasolve.harness import (
    CSV_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentSpec,
    config_label,
    emit_history,
    fold_sweep,
    history_rows,
    initial_iterate,
    main,
    run_experiment,
)


@pytest.fixture(scope="module")
def newton_report():
    p = make_singular_quadratic()
    return solve(p, p.default_start, SolverConfig(method="newton", tol=1e-10))


@pytest.fixture(scope="module")
def agna_report():
    p = make_chandrasekhar(1.0, 50)
    return solve(p, p.default_start, SolverConfig(method="agna", r_hat=0.5))


class TestEmitHistory:
    def test_csv_header_and_line_count(self, newton_report):
        text = emit_history(newton_report, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == newton_report.iterations + 1

    def test_newton_mixing_columns_empty(self, newton_report):
        lines = emit_history(newton_report, "csv").decode().splitlines()
        idx = {c: i for i, c in enumerate(CSV_COLUMNS)}
        for line in lines[1:]:
            cells = line.split(",")
            for col in ("gamma", "lambda", "r_used", "beta", "decision"):
                assert cells[idx[col]] == ""

    def test_known_q_column_value(self, newton_report):
        # step norms on the singular quadratic halve exactly from k=1 on,
        # so row k=2 carries q = log(2^-3)/log(2^-2) = 1.5
        rows = history_rows(newton_report)
        assert rows[0]["q"] is None
        assert rows[2]["q"] == pytest.approx(1.5, abs=1e-12)

    def test_agna_columns_present(self, agna_report):
        rows = history_rows(agna_report)
        mixing = [r for r in rows if r["decision"] is not None]
        assert mixing
        for row in mixing:
            assert row["lambda"] is not None
            assert row["r_used"] is not None
            assert row["beta"] is not None

    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="na", m=1),
            SolverConfig(method="na", m=3),
            SolverConfig(method="agna", activation="asymptotic", threshold=1e-2),
        ],
        ids=["na1", "na3", "agna-asymptotic"],
    )
    def test_unsafeguarded_mixing_steps_hold_no_decision(self, cfg):
        p = make_chandrasekhar(1.0, 50)
        report = solve(p, p.default_start, cfg)
        end = report.iterations
        if cfg.method == "agna":
            # safeguarding starts at the first step norm below the threshold
            end = next(
                rec.k for rec in report.records if rec.step_norm < cfg.threshold
            )
        unsafeguarded = report.records[1:end]
        assert unsafeguarded
        csv_rows = list(csv.DictReader(io.StringIO(emit_history(report).decode())))
        rows = history_rows(report)
        for rec in unsafeguarded:
            assert rec.gamma is not None and rec.decision is None
            row = rows[rec.k]
            assert (row["decision"], row["lambda"], row["r_used"], row["beta"]) == (
                "not_applied", None, None, None
            )
            text = csv_rows[rec.k]
            assert (text["decision"], text["lambda"], text["r_used"], text["beta"]) == (
                "not_applied", "", "", ""
            )

    def test_json_round_trip_exact(self, agna_report):
        data = json.loads(emit_history(agna_report, "json").decode())
        assert len(data) == agna_report.iterations
        gains = step_gains(agna_report)
        for row, rec, (eta, _, _) in zip(data, agna_report.records, gains):
            assert row["k"] == rec.k
            assert row["residual_norm"] == rec.residual_norm
            assert row["step_norm"] == rec.step_norm
            d = rec.decision
            if d is not None:
                assert row["lambda"] == d.lambda_value
                assert row["eta"] == eta
                assert row["beta"] == d.beta

    def test_json_mirrors_csv_fields(self, agna_report):
        data = json.loads(emit_history(agna_report, "json").decode())
        assert set(data[0]) == set(CSV_COLUMNS)

    def test_gamma_vector_semicolon_joined(self):
        p = make_chandrasekhar(1.0, 30)
        report = solve(p, p.default_start, SolverConfig(method="na", m=3))
        lines = emit_history(report, "csv").decode().splitlines()
        idx = list(CSV_COLUMNS).index("gamma")
        cells = lines[4].split(",")  # k=3 mixes three columns
        assert len(cells[idx].split(";")) == 3

    def test_bad_format_rejected(self, newton_report):
        with pytest.raises(ValueError):
            emit_history(newton_report, "yaml")

    def test_non_finite_values_are_missing(self):
        # the last record follows a zero step norm, so its eta = inf / 0 is
        # inf, and its NaN gamma entry makes theta NaN
        records = tuple(
            IterationRecord(
                k=k, x=np.zeros(2), w=np.ones(2), residual_norm=1.0, step_norm=norm
            )
            for k, norm in enumerate((1.0, 0.0))
        ) + (
            IterationRecord(
                k=2,
                x=np.zeros(2),
                w=np.ones(2),
                residual_norm=1.0,
                step_norm=np.inf,
                gamma=np.array([np.nan, 0.5]),
            ),
        )
        report = ConvergenceReport(records=records, status="diverged")
        eta, theta, _ = step_gains(report)[2]
        assert eta == np.inf and math.isnan(theta)
        line = emit_history(report, "csv").decode().splitlines()[3]
        cells = dict(zip(CSV_COLUMNS, line.split(",")))
        assert cells["residual_norm"] == "1.0"
        assert cells["step_norm"] == cells["eta"] == cells["theta"] == ""
        assert cells["gamma"] == ";0.5"

        def reject(token):
            raise AssertionError(f"non-finite JSON token {token}")

        text = emit_history(report, "json").decode()
        row = json.loads(text, parse_constant=reject)[2]
        assert row["step_norm"] is row["eta"] is row["theta"] is None
        assert row["gamma"] == [None, 0.5]

    def test_empty_history(self):
        report = ConvergenceReport(records=(), status="converged")
        assert emit_history(report, "json") == b"[]\n"
        assert emit_history(report, "csv") == (",".join(CSV_COLUMNS) + "\n").encode()


class TestInitialIterate:
    def test_selectors(self):
        p = make_singular_quadratic()
        np.testing.assert_array_equal(initial_iterate(p, "zero"), [0.0, 0.0])
        np.testing.assert_array_equal(initial_iterate(p, "ones"), [1.0, 1.0])
        np.testing.assert_array_equal(initial_iterate(p, "default"), [1.0, 1.0])
        np.testing.assert_array_equal(
            initial_iterate(p, "perturbed:1:50"), [1.0, 50.0]
        )

    def test_bad_selector(self):
        p = make_singular_quadratic()
        with pytest.raises(ValueError):
            initial_iterate(p, "random")
        with pytest.raises(ValueError):
            initial_iterate(p, "perturbed:7:1.0")


class TestExperimentSpecValidation:
    def test_needs_configs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="bratu1d", configs=())

    def test_bad_format(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="bratu1d", fmt="yaml")

    def test_bad_sweep(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", 3.0, 2.0, 0.1))
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", 3.0, math.inf, 0.1))
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", -math.inf, 3.0, 0.1))
        with pytest.raises(ValueError):
            ExperimentSpec(problem="bratu1d", sweep=("lambda", 1.0, 2.0, 0.0))


class TestRunExperiment:
    def test_single_cell_layout(self, tmp_path):
        spec = ExperimentSpec(
            problem="singular_quadratic",
            configs=(SolverConfig(method="na", m=1),),
            output=str(tmp_path / "single"),
        )
        code, files = run_experiment(spec)
        assert code == 0
        assert len(files) == 2  # one history block + summary
        assert files[-1].name == "summary.csv"

    @pytest.mark.parametrize(
        "fmt, history, summary_row",
        [
            ("csv", (",".join(CSV_COLUMNS) + "\n").encode(), ",newton,converged,0,"),
            (
                "json",
                b"[]\n",
                '{"param": null, "config": "newton", "status": "converged", '
                '"iterations": 0, "q_term": null}',
            ),
        ],
    )
    def test_empty_history_and_missing_q_term(
        self, tmp_path, fmt, history, summary_row
    ):
        # started at the root: no steps, so no q_term and no sweep parameter
        spec = ExperimentSpec(
            problem="singular_quadratic", x0="zero", fmt=fmt, output=str(tmp_path)
        )
        code, (hist, summary) = run_experiment(spec)
        assert code == 0
        assert hist.read_bytes() == history
        assert summary.read_text().splitlines()[1].strip() == summary_row

    @pytest.mark.parametrize(
        "end, first, last",
        [(0.999, "p000", "p999"), (1.0, "p0000", "p1000")],
        ids=["1000-points", "1001-points"],
    )
    def test_sorted_names_follow_cell_order(self, end, first, last, tmp_path):
        # the point index is padded to the grid's width, at least 3 digits
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"n": 3},
            sweep=("lambda", 0.0, end, 0.001),
            output=str(tmp_path),
        )
        code, files = run_experiment(spec)
        names = [path.name for path in files[:-1]]
        assert code == 0
        assert names == sorted(names)
        assert names[0] == f"history_{first}_c0_newton.csv"
        assert names[-1] == f"history_{last}_c0_newton.csv"

    def test_determinism_byte_identical(self, tmp_path):
        def make(outdir):
            return ExperimentSpec(
                problem="chandrasekhar",
                params={"n": 40},
                configs=(
                    SolverConfig(method="newton"),
                    SolverConfig(method="agna", r_hat=0.5),
                ),
                sweep=("c", 0.5, 1.0, 0.25),
                fmt="json",
                output=str(outdir),
            )

        _, files_a = run_experiment(make(tmp_path / "a"))
        _, files_b = run_experiment(make(tmp_path / "b"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_compare_on_singular_chandrasekhar(self, tmp_path):
        spec = ExperimentSpec(
            problem="chandrasekhar",
            params={"c": 1.0, "n": 100},
            configs=(
                SolverConfig(method="newton"),
                SolverConfig(method="na", m=1),
                SolverConfig(method="agna", r_hat=0.5),
            ),
            output=str(tmp_path / "cmp"),
        )
        code, files = run_experiment(spec)
        assert code == 0
        rows = [
            line.split(",")
            for line in files[-1].read_text().splitlines()[1:]
        ]
        iters = {row[1]: int(row[3]) for row in rows}
        statuses = {row[1]: row[2] for row in rows}
        assert all(s == "converged" for s in statuses.values())
        assert iters["na_m1"] <= iters["newton"]
        assert iters["agna_rhat0.5"] <= iters["newton"]

    def test_sweep_divergence_onsets(self, tmp_path):
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"n": 100},
            configs=(
                SolverConfig(method="newton"),
                SolverConfig(method="na", m=1),
                SolverConfig(method="agna", r_hat=0.5),
            ),
            x0="zero",
            sweep=("lambda", 3.0, 3.6, 0.05),
            output=str(tmp_path / "sweep"),
        )
        code, files = run_experiment(spec)
        assert code == 0
        onsets = {}
        for line in files[-1].read_text().splitlines()[1:]:
            param, config, status, _, _ = line.split(",")
            if status == "converged":
                onsets[config] = float(param)
        assert onsets["na_m1"] >= onsets["newton"]
        assert onsets["agna_rhat0.5"] >= onsets["newton"]

    def test_all_cells_failed_exit_code(self, tmp_path):
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"lambda": 3.6, "n": 20},
            configs=(SolverConfig(method="newton", max_iter=50),),
            x0="zero",
            output=str(tmp_path / "fail"),
        )
        code, _ = run_experiment(spec)
        assert code == 2

    def test_statuses_partition_known_set(self, tmp_path):
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"n": 30},
            configs=(SolverConfig(method="newton", max_iter=40),),
            x0="zero",
            sweep=("lambda", 3.3, 3.7, 0.1),
            output=str(tmp_path / "statuses"),
        )
        _, files = run_experiment(spec)
        allowed = {"converged", "diverged", "singular_jacobian", "max_iter"}
        for line in files[-1].read_text().splitlines()[1:]:
            assert line.split(",")[2] in allowed

    def test_warm_start_extends_sweep(self, tmp_path):
        cold = ExperimentSpec(
            problem="bratu1d",
            params={"n": 50},
            configs=(SolverConfig(method="newton"),),
            x0="zero",
            sweep=("lambda", 3.45, 3.51, 0.01),
            output=str(tmp_path / "warm"),
            warm_start=True,
        )
        code, files = run_experiment(cold)
        assert code == 0
        statuses = [
            line.split(",")[2] for line in files[-1].read_text().splitlines()[1:]
        ]
        assert statuses.count("converged") >= 6

    def test_fold_sweep_stops_at_first_failed_warm_cell(self, tmp_path):
        spec = ExperimentSpec(
            problem="bratu1d",
            params={"n": 30},
            configs=(SolverConfig(method="newton", max_iter=50),),
            sweep=("lambda", 3.3, 3.7, 0.05),
            output=str(tmp_path / "fold"),
            warm_start=True,
        )
        _, files = run_experiment(spec)
        rows = [line.split(",") for line in files[-1].read_text().splitlines()[1:]]
        first_failed = next(i for i, row in enumerate(rows) if row[2] != "converged")
        assert first_failed > 0
        expected = float(rows[first_failed - 1][0])
        assert fold_sweep(30, 3.3, 3.7, 0.05) == expected


def test_no_column_name_is_restated():
    # a history or summary column is named only in CSV_COLUMNS/SUMMARY_COLUMNS:
    # no dict display keys a row by it and no subscript reads it back
    columns = set(CSV_COLUMNS) | set(SUMMARY_COLUMNS)
    path = Path(harness.__file__)
    restated = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        else:
            continue
        restated += [
            (key.lineno, key.value)
            for key in keys
            if isinstance(key, ast.Constant) and key.value in columns
        ]
    assert restated == []


class TestConfigLabel:
    def test_labels_distinguish_methods(self):
        labels = {
            config_label(SolverConfig(method="newton")),
            config_label(SolverConfig(method="na", m=3)),
            config_label(SolverConfig(method="gna", r=0.1)),
            config_label(SolverConfig(method="agna", r_hat=0.9)),
            config_label(
                SolverConfig(method="agna", r_hat=0.9, activation="asymptotic")
            ),
        }
        assert len(labels) == 5


class TestCli:
    def test_solve_roundtrip(self, tmp_path, capsys):
        rc = main([
            "solve", "--problem", "chandrasekhar", "--param", "c=1.0",
            "--param", "n=50", "--method", "agna", "--rhat", "0.5",
            "--output", str(tmp_path / "cli"), "--format", "json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "agna_rhat0.5" in out
        assert (tmp_path / "cli" / "summary.json").exists()

    def test_solve_runs_several_methods(self, tmp_path, capsys):
        rc = main([
            "solve", "--problem", "bratu1d", "--method", "newton",
            "--method", "agna", "--output", str(tmp_path / "x"),
        ])
        assert rc == 0
        assert sorted(p.name for p in (tmp_path / "x").iterdir()) == [
            "history_p000_c0_newton.csv",
            "history_p000_c1_agna_rhat0.5.csv",
            "summary.csv",
        ]
        assert capsys.readouterr().out.endswith("wrote 3 file(s) under "
                                                f"{tmp_path / 'x'}\n")

    @pytest.mark.parametrize(
        "flags, nfiles",
        [
            (["--problem", "chandrasekhar", "--param", "c=1.0", "--param", "n=20"], 2),
            (["--problem", "chandrasekhar", "--param", "c=1.0", "--param", "n=20",
              "--method", "newton", "--method", "na", "--method", "agna"], 4),
            # 7 grid cells x 2 methods, plus the summary
            (["--problem", "bratu1d", "--param", "n=20", "--method", "newton",
              "--method", "agna", "--sweep", "lambda:3.40:3.52:0.02", "--warm-start"], 15),
        ],
        ids=["default", "three", "sweep"],
    )
    def test_compare_is_solve(self, flags, nfiles, tmp_path, capsys):
        names = ("solve", "compare", "sweep")
        for command in names:
            assert main([command, *flags, "--output", str(tmp_path / command)]) == 0
        assert capsys.readouterr().out.count("wrote ") == 3
        solved = sorted((tmp_path / "solve").iterdir())
        assert len(solved) == nfiles
        for command in names[1:]:
            assert [p.name for p in solved] == sorted(
                p.name for p in (tmp_path / command).iterdir()
            )
            for path in solved:
                assert path.read_bytes() == (tmp_path / command / path.name).read_bytes()

    def test_method_settings_reach_only_their_method(self, tmp_path):
        # --m reaches na and --activation gna/agna only, so one command line
        # mixes them; SolverConfig would reject either setting elsewhere
        rc = main([
            "solve", "--problem", "chandrasekhar", "--param", "n=10",
            "--method", "newton", "--method", "na", "--method", "agna",
            "--m", "3", "--activation", "asymptotic", "--output", str(tmp_path),
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "history_p000_c0_newton.csv",
            "history_p000_c1_na_m3.csv",
            "history_p000_c2_agna_rhat0.5_asym0.1.csv",
            "summary.csv",
        ]

    def test_usage_error_exit_code(self):
        assert main(["solve", "--problem", "unknown"]) == 1
        assert main(["frobnicate"]) == 1

    def test_all_failed_exit_code(self, tmp_path):
        rc = main([
            "solve", "--problem", "bratu1d", "--param", "lambda=3.6",
            "--param", "n=20", "--x0", "zero", "--max-iter", "50",
            "--output", str(tmp_path / "fail"),
        ])
        assert rc == 2

    def test_verify_fold_prints_last_converged_lambda(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "fold", "--n", "30", "--start", "3.0", "--end", "3.6",
                "--step", "0.05"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "last converged lambda: 3.5\n"
        assert list(tmp_path.iterdir()) == []  # it writes no files

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "safeguard"],
            ["verify", "gamma-grid"],
            *(["verify", "fold", flag, "1"]
              for flag in ("--gamma", "--beta", "--trials", "--seed")),
        ],
        ids=["safeguard", "gamma-grid", "gamma", "beta", "trials", "seed"],
    )
    def test_removed_verify_checks_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_bratu_lambda_is_usage_error(self, lam, tmp_path, capsys):
        rc = main([
            "solve", "--problem", "bratu1d", "--param", f"lambda={lam}",
            "--param", "n=10", "--output", str(tmp_path / "bad"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: lambda must be finite and nonnegative, got {float(lam)}\n"
        )
        assert not (tmp_path / "bad").exists()

    def test_rejected_last_sweep_cell_writes_nothing(self, tmp_path, capsys):
        # the last cell's c is 0.9 + 2 * 0.1 = 1.1000000000000001, outside (0, 1]
        rc = main([
            "sweep", "--problem", "chandrasekhar", "--param", "n=10",
            "--sweep", "c:0.9:1.1:0.1", "--output", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: c must lie in (0, 1]")
        assert not (tmp_path / "out").exists()

    def test_verify_fold_rejects_non_finite_end(self, capsys):
        assert main(["verify", "fold", "--n", "30", "--end", "inf"]) == 1
        assert capsys.readouterr().err.startswith("error: sweep start and end")

    def test_sweep_rejects_non_finite_bound(self, tmp_path, capsys):
        rc = main([
            "sweep", "--problem", "bratu1d", "--sweep", "lambda:3:inf:0.1",
            "--output", str(tmp_path / "inf"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: sweep start and end")
        assert not (tmp_path / "inf").exists()

    def test_sweep_cli(self, tmp_path):
        rc = main([
            "sweep", "--problem", "bratu1d", "--param", "n=30",
            "--sweep", "lambda:0.5:1.0:0.25", "--method", "newton",
            "--method", "na", "--m", "2",
            "--output", str(tmp_path / "sw"),
        ])
        assert rc == 0
        summary = (tmp_path / "sw" / "summary.csv").read_text()
        assert summary.count("converged") == 6

    def test_linesearch_flag(self, tmp_path):
        rc = main([
            "solve", "--problem", "bratu1d", "--param", "n=30",
            "--method", "newton", "--linesearch", "armijo:1e-4:0.5:20",
            "--output", str(tmp_path / "ls"),
        ])
        assert rc == 0
