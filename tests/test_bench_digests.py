"""The benchmark's result digests, pinned.

Each workload of ``perfbench/run.py``, run with ``--seed 3 --tiny``,
hashes the verdict records of its tasks into one sha256 digest.  A change
to the library that keeps every output bit-identical keeps these digests;
one that moves a digest changed what some check returns.  A ``[benchmark]``
revision that changes the workloads updates the pins, as it does
``SWEEP_PINS`` in test_reps.py.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGEST_PINS = {
    "relation-sweep": "445866ec8187e4eedf272a7ac6eb883c14730253fe87f7d3ac61d8e67041f4d1",
    "patch-conjugation": "777e75020e0c63c3e95d1a55cd0dcb8fca03970b1a1d151240c5146da8938f5a",
    "symbols-rings": "0461f5d2070c5b06f4fa417476e072932c5682ac8e6762751806f15d8ea80f8b",
}


@pytest.mark.parametrize("workload", list(DIGEST_PINS))
def test_tiny_run_digest_is_pinned(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = [line.split("sha256:")[1] for line in proc.stdout.splitlines()
               if line.startswith("digest")]
    assert digests == [DIGEST_PINS[workload]]
