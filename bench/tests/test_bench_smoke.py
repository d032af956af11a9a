"""Smoke test of the benchmark itself, at tiny sizes and without timing asserts.

It checks the output contract of ``bench/run.py`` (the last stdout line and
the metric names and units of BENCHMARK.json), that the trace consistency
check passes and can fail, that a broken program shows up as failed
operations rather than aborting a pass, and that the benchmark refuses to
run without the program's source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_line_matches_benchmark_json(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        detail = BENCH / "out" / f"BENCH_{workload}_seed3_trace1.json"
        info = json.loads(detail.read_text())
        assert info["consistency"]["ok"] and info["absent"] == []
        assert info["spans"]["count"] > 0


def test_misclassified_span_fails_consistency_check(monkeypatch, capsys):
    # problem.residual runs inside solve(); dropped from the layers the check
    # counts, its time is unaccounted for and the run must not be correct
    import run
    import tracing

    in_solve = tuple(n for n in tracing.IN_SOLVE if n != "problem.residual")
    monkeypatch.setattr(tracing, "IN_SOLVE", in_solve)
    run.main(["--workload", "micro_2x2", "--seed", "4", "--seconds", "0",
              "--trace", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    out = _run(tmp_path, "--workload", "micro_2x2", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _raise(*args):
    raise RuntimeError("broken program")


def _no_progress(problem, x0, cfg):
    # claims success without moving: only the independent check can tell
    return SimpleNamespace(status="converged", iterations=1, x_final=np.asarray(x0),
                           records=())


@pytest.mark.parametrize("solve", [_raise, _no_progress])
def test_broken_solver_counts_as_failures(solve):
    rng = np.random.default_rng(0)
    api = SimpleNamespace(solve=solve, main=None)
    micro = workloads.micro_run(api, workloads.micro_inputs(rng, True))
    assert micro.failed == micro.attempted > 1
    chandra = workloads.chandra_run(api, workloads.chandra_inputs(rng, True))
    assert chandra.failed == chandra.attempted == 3
    # the sweep never stops at a fold; it runs into its guard instead
    fold = workloads.fold_run(api, workloads.fold_inputs(rng, True))
    assert fold.failed >= 1


def test_cli_without_output_counts_every_cell_failed():
    inp = workloads.cli_inputs(np.random.default_rng(0), True)
    result = workloads.cli_run(SimpleNamespace(main=lambda argv: 0), inp)
    assert result.failed == result.attempted > 0
    result = workloads.cli_run(SimpleNamespace(main=_raise), inp)
    assert result.failed == result.attempted
