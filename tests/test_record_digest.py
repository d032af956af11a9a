"""``record_digest.py`` keeps running against the current API.

Pytest does not collect the digest script itself, so a renamed config field
or record attribute would only show when someone runs it by hand.  This
module builds every group, digests all but the micro_2x2 ones, and compares
the groups that no BLAS thread count moves with their digests on AVX-512
OpenBLAS kernels and NumPy's AVX-512 loops.
"""

import hashlib
import importlib.util
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

# The groups whose dense solves all stay below n = 142, from where the BLAS
# thread count can change the bits of an LU, and whose vectors stay within
# the 10,000 entries above which it changes those of a ``ddot`` (ROADMAP.md,
# item 1), as ``PYTHONPATH=src python tests/record_digest.py`` prints them on
# SkylakeX kernels.  "chandrasekhar c=1 n=300" is left out: under pytest
# nasolve runs at the default thread count, not the script's one thread.
PINNED = {
    "3 problems x 14 configs":
        "5254c145890c22a92163537dd2ba062bf712e500691b14faff6f35012fecd212",
    "linesearch, depth, switch, activation, max_iter":
        "503e208a47c5b4e5f8a4ae3bf9d4452dba52f10b4a8b9285e9653f0e4916ef96",
    "overflow and divergence":
        "b71ab62c0f603c8cdc4e2255f03caf6ec081aa8faa67d234f89577532c15b86f",
    "overflowing Anderson window":
        "aa9a55e41fec8bf123c67a77b3f651136cc15eb53897672d22587b24a711f166",
    "linesearch edge directions":
        "47ec76863208cd583f041d33b513640075b9280bc7563edf1415a8d8bdb008dd",
}


def _load_record_digest():
    path = Path(__file__).with_name("record_digest.py")
    spec = importlib.util.spec_from_file_location("record_digest", path)
    module = importlib.util.module_from_spec(spec)
    # the script pins BLAS threads in os.environ and puts bench/ on sys.path
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digested():
    """The groups, the digest of each but the micro_2x2 ones, and every
    ``(problem, config, exception)`` that a solve raised."""
    rd = _load_record_digest()
    groups = list(rd.groups())
    raised = []
    original = rd.solve

    def solve(p, x0, cfg):
        try:
            return original(p, x0, cfg)
        except Exception as exc:
            raised.append((p, cfg, exc))
            raise

    digests = {}
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(rd, "solve", solve)
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, jobs in groups:
            if name.startswith("micro_2x2"):
                continue
            h = hashlib.sha256()
            for p, x0, cfg in jobs:
                rd._feed_solve(h, p, x0, cfg)
            digests[name] = h.hexdigest()
    return groups, digests, raised


def test_record_digest_builds_and_digests_its_groups(digested):
    groups, digests, raised = digested
    assert len(groups) == 9
    assert all(jobs for _, jobs in groups)
    assert len(digests) == 6
    # every numerical failure in these groups comes back as a status
    assert raised == []


def test_thread_count_independent_groups_keep_their_digests(digested, pinned_machine_class):
    _, digests, _ = digested
    assert {name: digests[name] for name in PINNED} == PINNED
