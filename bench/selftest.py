"""Self-test of the harness: every workload's tiny mix must pass, the same
mix with one corrupted answer must fail, and the pinned L1/L3 enumerations
must agree with backward membership.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import icgram
import oracles as orc
from run import ROOT, measure
from workloads import PINS


def main(workloads) -> int:
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as work:
        for name, cls in workloads.items():
            w = cls(1, True, Path(work))
            w.setup()
            w.prepare()
            clean = measure(w, cycles=1)
            corrupted = measure(w, cycles=1, corrupt=True)
            print(f"{name}: tiny cycle {clean.attempted} ops, {clean.failed} "
                  f"failed, wrong={clean.wrong!r}; corrupted -> {corrupted.wrong!r}")
            if clean.wrong:
                problems.append(f"{name}: tiny mix gave a wrong answer")
            if not corrupted.wrong:
                problems.append(f"{name}: a corrupted answer went unnoticed")
    rng = random.Random(0)
    for cid, n, bound in (("L1", None, 8), ("L3", 1, 6)):
        g = icgram.build_witness(cid, n).grammar
        words = icgram.enumerate_ic(g, bound)
        label = cid if n is None else f"{cid}({n})"
        if list(orc.words_digest(words)) != PINS["enumerate"][f"{label}@{bound}"]:
            problems.append(f"{label}@{bound}: enumeration does not match its pin")
        try:
            orc.cross_check(icgram, g, words, bound, rng)
        except orc.WrongAnswer as e:
            problems.append(f"{label}@{bound}: {e}")
    for p in problems:
        print("SELF-TEST FAILED:", p)
    print(json.dumps({"self_test": "pass" if not problems else "fail"}))
    return 1 if problems else 0
