"""Byte-exact regression goldens for user-visible text output.

Each golden file under ``tests/goldens/`` is compared against a freshly
rendered copy.  Regenerate after an intentional format change with

    cd tests && python3 -c "import test_goldens; test_goldens.regenerate()"

and review the diff like any other code change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icgram.automata import regex_to_dfa
from icgram.contextual import enumerate_ic
from icgram.ctxformat import format_contextual
from icgram.hierarchy import hierarchy
from icgram.regex import parse_regex
from icgram.subregular import classify
from icgram.witnesses import build_witness, check_witness
from icgram.words import Alphabet, sort_words, word_to_text

GOLDEN_DIR = Path(__file__).parent / "goldens"

_ENUMERATIONS = (("L1", None, 8), ("L2", None, 8), ("L4", 1, 11),
                 ("L6", 2, 10), ("L7", 2, 6))
_CLASSIFICATIONS = (("(aa)*", "a", "aa-star"), ("b*c", "bc", "b-star-c"),
                    ("(ab)*", "ab", "ab-star"))


def _render_all() -> dict:
    out = {}
    for cid, n, max_len in _ENUMERATIONS:
        case = build_witness(cid, n)
        alpha = case.grammar.alphabet
        words = sort_words(enumerate_ic(case.grammar, max_len), alpha)
        tag = cid.lower() + (f"_n{n}" if n is not None else "")
        out[f"enumerate_{tag}_maxlen{max_len}.words"] = \
            "".join(word_to_text(w, alpha) + "\n" for w in words)
    for rx, alpha_text, slug in _CLASSIFICATIONS:
        u = Alphabet.from_text(alpha_text)
        r = parse_regex(rx, u)
        report = classify(regex_to_dfa(r, u), u, source_regex=r,
                          language_name=rx)
        out[f"classify_{slug}.txt"] = report.to_text()
    for scope in ("subregular", "merged"):
        out[f"hierarchy_{scope}.txt"] = hierarchy(scope).to_text()
    for cid in ("L1", "L2"):
        out[f"export_{cid.lower()}.ctx"] = \
            format_contextual(build_witness(cid).grammar)
    out["witness_run_all_maxlen6.txt"] = "\n".join(
        check_witness(build_witness(cid), 6).to_text()
        for cid in ("L1", "L2", "L3", "L4", "L6", "L7"))
    return out


_CACHE = None


def _rendered() -> dict:
    global _CACHE
    if _CACHE is None:
        _CACHE = _render_all()
    return _CACHE


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _rendered().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text)} bytes)")


@pytest.mark.parametrize("name", sorted(_rendered()))
def test_golden(name):
    fresh = _rendered()[name]
    stored = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert fresh == stored, f"{name} drifted from its golden copy"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_goldens_do_not_depend_on_string_hashing(seed):
    """Every golden renders the same under two fixed hash seeds, not only
    under the one this process drew."""
    here = Path(__file__).resolve().parent
    script = ("import json, sys, test_goldens; "
              "json.dump(test_goldens._rendered(), sys.stdout)")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    fresh = json.loads(proc.stdout)
    assert sorted(fresh) == sorted(_rendered())
    for name, text in fresh.items():
        stored = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert text == stored, f"{name} drifted under PYTHONHASHSEED={seed}"
