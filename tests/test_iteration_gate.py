"""The benchmark's workloads keep their seed-1 iteration counts.

Each workload of ``bench/workloads.py`` runs one pass over the inputs that
``python3 bench/run.py --seed 1`` generates, and its independent output
checks, here at the default BLAS thread count.  A changed count is a change
of behaviour, not of speed (ROADMAP.md, item 1), so a perf change that moves
one fails here.  The counts are pinned on one machine class, as the digest
pin is; cli_sweep reads 5,336 on Haswell and Nehalem kernels.
"""

import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import nasolve
from nasolve import harness

# bench/ is not a package: import its module as bench/run.py does
with mock.patch.object(sys, "path", [str(Path(__file__).resolve().parents[1] / "bench"),
                                     *sys.path]):
    import workloads

SEED_1_ITERATIONS = {
    "micro_2x2": 18_826,
    "fold_sweep": 1_204,
    "chandrasekhar_c1": 41,
    "cli_sweep": 5_338,
}


@pytest.mark.parametrize("name", SEED_1_ITERATIONS)
def test_seed_1_pass_keeps_its_iteration_count(
    name, pinned_machine_class, tmp_path, monkeypatch
):
    # cli_sweep writes its files here, not under bench/out
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(np.random.default_rng(1), False)
    result = workload.run(SimpleNamespace(solve=nasolve.solve, main=harness.main), inputs)
    assert result.failed == 0, result.messages
    assert result.iterations == SEED_1_ITERATIONS[name]
