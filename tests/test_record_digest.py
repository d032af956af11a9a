"""``record_digest.py`` keeps running against the current API.

Pytest does not collect the digest script itself, so a renamed config field
or record attribute would only show when someone runs it by hand.  This
test builds every group and digests all but the micro_2x2 ones.
"""

import hashlib
import importlib.util
import os
import sys
import warnings
from pathlib import Path
from unittest import mock


def _load_record_digest():
    path = Path(__file__).with_name("record_digest.py")
    spec = importlib.util.spec_from_file_location("record_digest", path)
    module = importlib.util.module_from_spec(spec)
    # the script pins BLAS threads in os.environ and puts bench/ on sys.path
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


def test_record_digest_builds_and_digests_its_groups(monkeypatch):
    rd = _load_record_digest()
    groups = list(rd.groups())
    assert len(groups) == 9
    assert all(jobs for _, jobs in groups)

    raised = []
    original = rd.solve

    def solve(p, x0, cfg):
        try:
            return original(p, x0, cfg)
        except Exception as exc:
            raised.append((p.name, cfg, exc))
            raise

    monkeypatch.setattr(rd, "solve", solve)
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, jobs in groups:
            if name.startswith("micro_2x2"):
                continue
            h = hashlib.sha256()
            for p, x0, cfg in jobs:
                rd._feed_solve(h, p, x0, cfg)
            digests[name] = h.hexdigest()
    assert len(digests) == 6
    # every numerical failure in these groups comes back as a status
    assert raised == []
