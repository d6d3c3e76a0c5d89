"""Write ``pins.json``: the reference answers that have no closed form.

    python3 bench/pin.py

* word count and digest of every L1 and L3 enumeration the workloads use
  (and of L3(2) @ 8); those up to length 10 are cross-checked once with
  ``member_ic`` on every enumerated word and on 300 words outside the
  enumeration;
* one pinned random DFA per size and alphabet for ``classify-random``, with
  its verdicts.

Regenerate only when a reviewed change is meant to alter these answers.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import icgram  # noqa: E402
import oracles as orc  # noqa: E402

ENUMERATIONS = (("L1", None, (8, 12, 15, 16)), ("L3", 1, (6, 10, 12)), ("L3", 2, (7, 8)))
PIN_SEED = 20240817


def main() -> None:
    rng = random.Random(PIN_SEED)
    pins = {"enumerate": {}, "classify": []}
    for cid, n, bounds in ENUMERATIONS:
        g = icgram.build_witness(cid, n).grammar
        for bound in bounds:
            words = icgram.enumerate_ic(g, bound)
            if bound <= 10:
                orc.cross_check(icgram, g, words, bound, rng)
            label = cid if n is None else f"{cid}({n})"
            pins["enumerate"][f"{label}@{bound}"] = list(orc.words_digest(words))
    for size in (6, 12, 24, 48):
        for k in (2, 3):
            delta, accepting = orc.random_table(rng, size, k)
            u = icgram.Alphabet(tuple("abc"[:k]))
            d = icgram.Dfa(tuple(range(size)), u,
                           {(q, a): delta[q][i] for q in range(size)
                            for i, a in enumerate(u)}, 0, frozenset(accepting))
            report = icgram.classify(d, u)
            pins["classify"].append({
                "n": size, "k": k, "table": [delta, accepting],
                "verdicts": {str(lab): str(v) for lab, v in report.verdicts.items()
                             if str(lab) in orc.DFA_FAMILIES}})
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    main()
