"""Digests that pin "same behaviour": one function per named recipe.

Each recipe runs a fixed, seeded workload through the public API and
returns the sha256 hex digest of its answers.  How the answers are written
out is fixed here in code, so a change that must keep behaviour cites a
recipe by name and compares digests.  ``tests/test_digests.py`` pins the
values.  To print them all:

    PYTHONPATH=src python tests/digests.py
"""

import hashlib
import json
import random

from conftest import REGEX_CHARS, random_dfa, random_regex
from icgram.automata import dfa_to_table, minimize, regex_to_dfa, regex_to_nfa
from icgram.contextual import derive_step, enumerate_ic, member_trace
from icgram.errors import (AlphabetMismatchError, ResourceLimitError,
                           TextFormatError)
from icgram.families import FAMILY_ORDER, SearchCaps, reg_z, rl_p, rl_v
from icgram.monoid import monoid_elements
from icgram.regex import format_regex, is_union_free_syntax, parse_regex
from icgram.resources import bounded_min_grammar
from icgram.rlgrammar import grammar_to_text
from icgram.subregular import classify, selection_in_family
from icgram.witnesses import _N_RANGE, WITNESS_IDS, build_witness
from icgram.words import Alphabet, sort_words, word_to_text

# (case, n, bound): the enumerations that bench/workloads.py times as the
# ic-enumerate workload
ENUMERATIONS = (("L1", None, 12), ("L1", None, 15), ("L2", None, 60),
                ("L2", None, 160), ("L3", 1, 6), ("L3", 1, 10),
                ("L4", 1, 20), ("L4", 1, 36), ("L6", 2, 40), ("L6", 2, 160),
                ("L7", 2, 8), ("L7", 2, 10), ("L3", 2, 7))


def classify_digest() -> str:
    """``classify`` on 1,200 random DFAs from ``random.Random(7)``: per DFA
    n = randint(1, 24) states, then the first k = randint(1, 3) letters of
    ``abc``, then ``conftest.random_dfa``; each is classified at monoid caps
    3 and 10,000, and each report is fed as its ``to_text()`` followed by
    ``json.dumps(to_json_dict(), sort_keys=True)``."""
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(1200):
        n = rng.randint(1, 24)
        u = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
        d = random_dfa(rng, n, u)
        for cap in (3, 10_000):
            report = classify(d, u, monoid_cap=cap)
            h.update(report.to_text().encode())
            h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest()


def engine_digest() -> str:
    """The derivation engine, forwards and backwards.

    First the ``enumerate_ic`` set of each of ``ENUMERATIONS``, shortlex
    sorted and rendered one word a line.  Then, per witness grammar, on
    words drawn from ``random.Random(22)``: eight members of length <= 10
    from its first enumeration, a one-deletion and a one-transposition
    neighbour of each, and four random words of length <= 8.  Each word is fed with its ``derive_step``
    steps and its ``member_trace`` (``none`` when it has none); a step is
    written as its pair index, its infix start and length, its context and
    its target."""
    h = hashlib.sha256()

    def feed(label, lines):
        h.update((label + "\n" + "".join(x + "\n" for x in lines)).encode())

    grammars, members = {}, {}
    for cid, n, bound in ENUMERATIONS:
        g = grammars.setdefault((cid, n), build_witness(cid, n).grammar)
        words = sort_words(enumerate_ic(g, bound), g.alphabet)
        feed(f"enumerate {cid} {n} {bound}",
             [word_to_text(w, g.alphabet) for w in words])
        members.setdefault((cid, n), [w for w in words if len(w) <= 10])

    rng = random.Random(22)
    for (cid, n), g in grammars.items():
        def text(w):
            return word_to_text(w, g.alphabet)

        def step(s):
            return (f"{s.pair_index} {len(s.x1)} {len(s.x2)} "
                    f"{text(s.context.left)} {text(s.context.right)} "
                    f"{text(s.target)}")

        for w in _probe_words(rng, members[cid, n], g.alphabet.symbols):
            feed(f"derive {cid} {n} {text(w)}",
                 [step(s) for s in derive_step(g, w)])
            trace = member_trace(g, w)
            feed(f"trace {cid} {n} {text(w)}",
                 ["none"] if trace is None
                 else [text(trace[0].source) if trace else text(w)]
                 + [step(s) for s in trace])
    return h.hexdigest()


def _probe_words(rng, members, symbols):
    for w in rng.sample(members, min(8, len(members))):
        yield w
        if w:
            i = rng.randrange(len(w))
            yield w[:i] + w[i + 1:]
        if len(w) > 1:
            i = rng.randrange(len(w) - 1)
            yield w[:i] + (w[i + 1], w[i]) + w[i + 2:]
    for _ in range(4):
        yield tuple(rng.choice(symbols) for _ in range(rng.randint(0, 8)))


# the labels of selection_in_family_digest: every plain family, and bounds
SELECTION_LABELS = FAMILY_ORDER + (rl_v(1), rl_v(2), rl_p(1), rl_p(2),
                                   rl_p(3), reg_z(1), reg_z(2), reg_z(3))


def selection_in_family_digest() -> str:
    """``selection_in_family`` on the main grammar and every variant of
    each witness case, at each ``n`` of its range, for each of
    ``SELECTION_LABELS``, under ``SearchCaps(max_candidates=3000)`` and the
    same with ``monoid_cap=3``.  Each answer is fed as a line of the case,
    grammar, label and monoid cap with the overall verdict, then a line of
    index, verdict and note per pair."""
    h = hashlib.sha256()
    for cid in WITNESS_IDS:
        low, high = _N_RANGE.get(cid, (None, None))
        for n in (None,) if low is None else range(low, high + 1):
            case = build_witness(cid, n)
            for key, g in (("main", case.grammar),) + case.variants:
                for label in SELECTION_LABELS:
                    for cap in (10_000, 3):
                        caps = SearchCaps(max_candidates=3000, monoid_cap=cap)
                        res = selection_in_family(g, label, caps=caps)
                        h.update(f"{case.label} {key} {label} {cap} "
                                 f"{res.overall}\n".encode())
                        for pv in res.per_pair:
                            h.update(f"  {pv.pair_index} {pv.verdict} "
                                     f"{pv.note}\n".encode())
    return h.hexdigest()


def monoid_digest() -> str:
    """``monoid_elements`` of the minimal DFAs of 400 random DFAs from
    ``random.Random(12)``: per DFA n = randint(1, 8) states over the first
    k = randint(1, 3) letters of ``abc``, then ``conftest.random_dfa``,
    walked at cap 500.  Each element is fed as its transformation and its
    word, one line each; a walk that hits the cap ends with ``capped``."""
    rng = random.Random(12)
    h = hashlib.sha256()
    for _ in range(400):
        n = rng.randint(1, 8)
        u = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
        dm = minimize(random_dfa(rng, n, u))
        h.update(f"dfa {len(dm.states)}\n".encode())
        try:
            for t, y in monoid_elements(dm, 500):
                h.update(f"{t} {word_to_text(y, u)}\n".encode())
        except ResourceLimitError:
            h.update(b"capped\n")
    return h.hexdigest()


def regex_digest() -> str:
    """The regex layer on input from ``random.Random(26)``.

    First 3,000 strings of length randint(0, 12) over
    ``conftest.REGEX_CHARS``, each fed as its ``repr`` and what
    ``parse_regex`` over ``ab`` makes of it: the ``format_regex`` of its
    tree, or the error text with line and column.  Then 1,500 trees ``conftest.random_regex(rng, 6)``, each fed as
    its ``format_regex`` and ``is_union_free_syntax``, then over the
    alphabet ``a b xy`` either the alphabet error (for a tree with ``z``)
    or the sorted transitions and accepting set of ``regex_to_nfa``, and
    ``dfa_to_table`` of the minimal DFA of ``regex_to_dfa``."""
    rng = random.Random(26)
    h = hashlib.sha256()
    ab = Alphabet(("a", "b"))
    for _ in range(3000):
        text = "".join(rng.choice(REGEX_CHARS)
                       for _ in range(rng.randint(0, 12)))
        try:
            answer = format_regex(parse_regex(text, ab))
        except TextFormatError as e:
            answer = f"error {e}"
        h.update(f"{text!r} {answer}\n".encode())
    u = Alphabet(("a", "b", "xy"))
    for _ in range(1500):
        r = random_regex(rng, 6)
        h.update(f"{format_regex(r)} {is_union_free_syntax(r)}\n".encode())
        try:
            nfa = regex_to_nfa(r, u)
        except AlphabetMismatchError as e:
            h.update(f"error {e}\n".encode())
            continue
        moves = sorted((q, a, sorted(ps)) for (q, a), ps in nfa.transitions.items())
        h.update(f"{moves} {sorted(nfa.accepting)}\n".encode())
        h.update(dfa_to_table(minimize(regex_to_dfa(r, u))).encode())
    return h.hexdigest()


def measure_digest() -> str:
    """``bounded_min_grammar`` of both kinds on 60 random DFAs from
    ``random.Random(31)``, each with n = randint(1, 4) states over ``ab``
    (``conftest.random_dfa``), under ``SearchCaps(max_candidates=20_000)``;
    then on the DFA of every selection pair of the main grammar and every
    variant of each witness case, at each ``n`` of its range, under
    ``SearchCaps(max_candidates=3000)``.  Each measure is fed as a line of
    kind, lower, upper, exact and note, then the ``grammar_to_text`` of its
    certificate."""
    h = hashlib.sha256()

    def feed(d, caps):
        for kind in ("nonterminals", "rules"):
            m = bounded_min_grammar(d, kind, caps)
            h.update(f"{m.kind} {m.lower} {m.upper} {m.exact} {m.note}\n"
                     f"{grammar_to_text(m.certificate)}".encode())

    rng = random.Random(31)
    ab = Alphabet(("a", "b"))
    for _ in range(60):
        feed(random_dfa(rng, rng.randint(1, 4), ab),
             SearchCaps(max_candidates=20_000))
    for cid in WITNESS_IDS:
        low, high = _N_RANGE.get(cid, (None, None))
        for n in (None,) if low is None else range(low, high + 1):
            case = build_witness(cid, n)
            for _, g in (("main", case.grammar),) + case.variants:
                for pair in g.pairs:
                    feed(pair.dfa, SearchCaps(max_candidates=3000))
    return h.hexdigest()


RECIPES = {"classify": classify_digest, "engine": engine_digest,
           "selection_in_family": selection_in_family_digest,
           "monoid": monoid_digest, "regex": regex_digest,
           "measure": measure_digest}

if __name__ == "__main__":
    for name, recipe in RECIPES.items():
        print(name, recipe())
