"""The benchmark's self-test as a tier-1 check.

``bench/run.py --self-test`` runs a tiny mix of every workload against the
benchmark's own oracles (the witness closed forms, the L1/L3 digests pinned
in ``bench/pins.json``, the CLI goldens) and checks that corrupted answers
are caught, so every engine change meets those oracles too.  It writes
nothing to the tree.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"self_test": "pass"}'
