"""Acceptance gate: one test per criterion, one PASS line per criterion.

Each test prints ``PASS criterion N: <what was checked>`` after its
assertions hold and enforces its own wall-clock budget.  Run with ``-s``
to see the lines as they appear.
"""

import itertools
import random
import sys
import time

from conftest import random_dfa

from icgram.automata import Dfa, complement, shortest_accepted
from icgram.contextual import (Context, ContextualGrammar, SelectionPair,
                               derive_step, enumerate_ic, member_ic,
                               split_definite_selection,
                               split_finite_selection)
from icgram.regex import parse_regex
from icgram.hierarchy import hierarchy
from icgram.subregular import COMB, MON, Verdict, classify, selection_in_family
from icgram.witnesses import WITNESS_IDS, build_witness, closed_form
from icgram.words import Alphabet, sort_words

_ALPHABETS = (Alphabet.of("a"), Alphabet.of("a", "b"), Alphabet.of("a", "b", "c"))


def _report(n: int, detail: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s (budget {limit}s)"
    print(f"PASS criterion {n}: {detail}  [{elapsed:.2f}s < {limit:.0f}s]",
          file=sys.stderr)


def test_criterion_1_fixture_positive_claims_certified():
    t0 = time.perf_counter()
    checked = 0
    for cid in WITNESS_IDS:
        case = build_witness(cid)
        for family, key in case.positive:
            res = selection_in_family(case.grammar_named(key), family)
            assert res.overall is Verdict.YES, \
                f"{case.label}: {family} not certified ({res.per_pair})"
            checked += 1
    _report(1, f"{checked} positive family claims across "
               f"{len(WITNESS_IDS)} fixture cases", t0, 10.0)


def test_criterion_2_closed_forms_match_enumeration():
    t0 = time.perf_counter()
    for wid, n in (("L2", None), ("L4", 1), ("L6", 2), ("L7", 2)):
        t_case = time.perf_counter()
        case = build_witness(wid, n)
        assert closed_form(wid, 8, n) == enumerate_ic(case.grammar, 8), case.label
        assert time.perf_counter() - t_case < 10.0, case.label
    _report(2, "closed forms of L2, L4(1), L6(2), L7(2) equal "
               "enumeration at max_len 8", t0, 10.0)


def test_criterion_3_member_agrees_with_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(3)
    exhaustive = sampled = 0
    for cid in WITNESS_IDS:
        g = build_witness(cid).grammar
        lang = enumerate_ic(g, 8)
        syms = g.alphabet.symbols
        if len(syms) <= 3:
            for length in range(9):
                for w in itertools.product(syms, repeat=length):
                    assert member_ic(g, w) == (w in lang), (cid, w)
                    exhaustive += 1
        else:
            for _ in range(100_000):
                w = tuple(syms[rng.randrange(len(syms))]
                          for _ in range(rng.randrange(0, 9)))
                assert member_ic(g, w) == (w in lang), (cid, w)
                sampled += 1
    _report(3, f"member = enumerate on {exhaustive} exhaustive + "
               f"{sampled} sampled words up to length 8", t0, 60.0)


def test_criterion_4_random_dfas_respect_implications():
    t0 = time.perf_counter()
    rng = random.Random(4)
    trials = 1000
    table = hierarchy("subregular", 2)
    for _ in range(trials):
        u = _ALPHABETS[rng.randrange(3)]
        d = random_dfa(rng, rng.randrange(1, 7), u)
        rep = classify(d, u, monoid_cap=50_000)
        for x, y in itertools.product(rep.verdicts, repeat=2):
            assert not (rep.verdicts[x] is Verdict.YES
                        and rep.verdicts[y] is Verdict.NO
                        and table.reachable(x, y)), (x, y, d)
        if rep.verdicts[COMB] is Verdict.YES:
            assert rep.min_state_count <= 2, d
    _report(4, f"zero implication violations over {trials} random DFAs "
               f"(<= 6 states, |U| <= 3); combinational implies <= 2 states",
            t0, 60.0)


def test_criterion_5_splitting_constructions():
    t0 = time.perf_counter()
    # finite selections become one singleton pair per word
    l2 = build_witness("L2").grammar
    split = split_finite_selection(l2)
    assert enumerate_ic(split, 8) == enumerate_ic(l2, 8)
    for pair in split.pairs:
        cert = pair.source_grammar
        assert cert is not None
        assert len(cert.nonterminals) == 1
        assert len(cert.rules) <= 1  # at most one rule per selected word

    # a definite selection becomes a finite pair plus a suffix pair
    u = Alphabet.of("a", "b", "c", "d")
    sel = Alphabet.of("a", "b", "c")
    pair = SelectionPair.from_regex(sel, parse_regex("ab|(a|b|c)*c", sel),
                                    (Context(("d",), ("d",)),))
    g = ContextualGrammar(u, (("a", "b"), ("c",)), (pair,))
    split = split_definite_selection(g, [([("a", "b")], [("c",)])])
    assert enumerate_ic(split, 8) == enumerate_ic(g, 8)
    for pair in split.pairs:
        cert = pair.source_grammar
        assert cert is not None
        assert len(cert.nonterminals) == 1
    _report(5, "finite and definite splits preserve the language at "
               "max_len 8 with one-nonterminal certificates", t0, 10.0)


def test_criterion_6_one_state_automata_are_trivial():
    t0 = time.perf_counter()
    seen = 0
    for u in _ALPHABETS:
        for accepting in (frozenset(), frozenset({0})):
            d = Dfa((0,), u, {(0, a): 0 for a in u}, 0, accepting)
            is_empty = shortest_accepted(d) is None
            is_universal = shortest_accepted(complement(d)) is None
            assert is_empty != is_universal
            rep = classify(d, u)
            assert (rep.verdicts[MON] is Verdict.YES) == is_universal
            seen += 1
    _report(6, f"all {seen} one-state complete automata over |U| <= 3 "
               f"accept the empty or the full language", t0, 1.0)


def test_criterion_7_context_reapplication_pumps_arithmetically():
    t0 = time.perf_counter()
    rng = random.Random(7)
    cases = {cid: build_witness(cid).grammar for cid in WITNESS_IDS}
    pools = {cid: sort_words(enumerate_ic(g, 7), g.alphabet)
             for cid, g in cases.items()}
    ids = sorted(cases)
    samples = attempts = 0
    while samples < 100:
        attempts += 1
        assert attempts < 2000, "could not find 100 derivable samples"
        cid = ids[rng.randrange(len(ids))]
        g = cases[cid]
        pool = pools[cid]
        w = pool[rng.randrange(len(pool))]
        steps = derive_step(g, w)
        if not steps:
            continue
        s = steps[rng.randrange(len(steps))]
        u, v = s.context.left, s.context.right
        grow = len(u) + len(v)
        x1, x2, x3 = s.x1, s.x2, s.x3
        step = s
        for k in range(1, 5):
            assert step.target == x1 + u + x2 + v + x3
            assert len(step.target) == len(w) + k * grow
            x1, x3 = x1 + u, v + x3
            if k == 4:
                break
            matches = [t for t in derive_step(g, step.target)
                       if (t.x1, t.x2, t.x3, t.pair_index, t.context)
                       == (x1, x2, x3, s.pair_index, s.context)]
            assert len(matches) == 1, (cid, w, k)
            step = matches[0]
        samples += 1
    _report(7, f"100 sampled derivation steps re-apply at the same "
               f"occurrence with arithmetic growth up to k=4", t0, 10.0)


def test_criterion_8_handpicked_members_of_l1():
    t0 = time.perf_counter()
    g = build_witness("L1").grammar
    for k in (1, 2):
        w = tuple("d" + "a" * (2 * k) + "e" + "b" * (2 * k) + "c" + "ab" * (2 * k))
        assert member_ic(g, w), w
    odd = tuple("d" + "a" * 3 + "e" + "b" * 3 + "c" + "ab" * 3)
    assert not member_ic(g, odd), odd
    _report(8, "accepts d a^2k e b^2k c (ab)^2k for k=1,2 and rejects "
               "the odd variant", t0, 30.0)
