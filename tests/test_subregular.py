import inspect
import itertools
import random
import re
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subregular_oracle as oracle
from automata_oracle import word_set_dfa
from conftest import random_dfa
from icgram import automata, subregular
from icgram.automata import (Dfa, accepts, complement, dfa_to_table, equivalent,
                             language_is_finite, minimize, regex_to_dfa)
from icgram.contextual import Context, ContextualGrammar, SelectionPair
from icgram.errors import (InternalConsistencyError, ResourceLimitError,
                           UndecidedError)
from icgram.families import SearchCaps
from icgram.hierarchy import hierarchy
from icgram.regex import parse_regex
from icgram.resources import measure
from icgram.subregular import (CIRC, COMB, COMM, DEF, FIN, MON, NC, NIL, ORD,
                               PS, REG, SUF, UF, Evidence,
                               Verdict, classify, is_circular,
                               is_combinational, is_commutative, is_definite,
                               is_finite, is_monoidal, is_nilpotent,
                               is_noncounting, is_ordered,
                               is_power_separating, is_suffix_closed,
                               parse_family_label, rl_p, rl_v, reg_z,
                               selection_in_family, union_free_syntax, _Analysis,
                               _check_definite, _check_finite, _suffix_pairs)
from icgram.words import Alphabet

UA = Alphabet.of("a")
UAB = Alphabet.of("a", "b")
UBC = Alphabet.of("b", "c")


def _dfa(text, u):
    return regex_to_dfa(parse_regex(text, u), u)


def _report(text, u, cap=10_000):
    return classify(_dfa(text, u), u, source_regex=parse_regex(text, u),
                    language_name=text, monoid_cap=cap)


# --- frozen full classifications -------------------------------------------

def test_classification_even_a():
    rep = _report("(aa)*", UA)
    want = {MON: "no", FIN: "no", NIL: "no", COMB: "no", DEF: "no",
            SUF: "no", ORD: "no", COMM: "yes", CIRC: "yes", NC: "no",
            PS: "no", UF: "yes", REG: "yes"}
    assert {k: str(v) for k, v in rep.verdicts.items()} == \
        {k: v for k, v in want.items()}
    assert rep.min_state_count == 2


def test_classification_bstar_c():
    rep = _report("b*c", UBC)
    want = {MON: "no", FIN: "no", NIL: "no", COMB: "no", DEF: "no",
            SUF: "no", ORD: "yes", COMM: "no", CIRC: "no", NC: "yes",
            PS: "yes", UF: "yes", REG: "yes"}
    assert {k: str(v) for k, v in rep.verdicts.items()} == \
        {k: v for k, v in want.items()}
    assert rep.min_state_count == 3


# --- one yes and one no per family, with witness verification --------------

def test_monoidal():
    assert is_monoidal(_dfa("(a|b)*", UAB), UAB)
    d = _dfa("a*", UAB)
    assert not is_monoidal(d, UAB)
    rep = _report("a*", UAB)
    (w,) = rep.evidence[MON].words
    assert not accepts(d, w)


def test_finite():
    assert is_finite(_dfa("ab|ba|()", UAB), UAB)
    d = _dfa("a*", UAB)
    assert not is_finite(d, UAB)
    w1, w2 = _report("a*", UAB).evidence[FIN].words
    assert accepts(d, w1) and accepts(d, w2) and len(w1) < len(w2)


def test_finiteness_of_one_long_word_needs_no_recursion():
    # a trie of 1,502 states, deeper than the interpreter's recursion limit
    d = word_set_dfa([("a", "b") * 750], UAB)
    assert language_is_finite(d)
    ok, ev = _check_finite(_Analysis(minimize(d)))
    assert ok and ev.note == "finite; longest word has length 1500"


def test_nilpotent_finite_and_cofinite():
    assert is_nilpotent(_dfa("ab|b", UAB), UAB)
    # complement of a finite set (here: of the empty word alone)
    assert is_nilpotent(_dfa("(a|b)(a|b)*", UAB), UAB)
    d = _dfa("(aa)*", UA)
    assert not is_nilpotent(d, UA)
    w1, w2 = _report("(aa)*", UA).evidence[NIL].words
    assert accepts(d, w1) and not accepts(d, w2)


def _random_minimal_dfas(seed, count=1200):
    """Minimal DFAs of random automata with 1-24 states and 1-3 letters."""
    rng = random.Random(seed)
    for _ in range(count):
        u = Alphabet(("a", "b", "c")[:rng.randrange(1, 4)])
        yield minimize(random_dfa(rng, rng.randrange(1, 25), u))


def test_complement_of_a_minimal_dfa_needs_no_minimize():
    """NIL analyses ``complement(dm)`` as it is: complementing keeps a
    minimal DFA minimal and its breadth-first numbering canonical."""
    for dm in _random_minimal_dfas(31, 1500):
        assert minimize(complement(dm)) == complement(dm), dfa_to_table(dm)


def test_combinational():
    assert is_combinational(_dfa("(a|b)*a", UAB), UAB)
    assert is_combinational(_dfa("(a|b)*(a|b)", UAB), UAB)
    assert not is_combinational(_dfa("a*", UAB), UAB)
    assert not is_combinational(_dfa("(aa)*", UA), UA)


def test_definite():
    # A ∪ U*B with A = {b}, B = {a}
    assert is_definite(_dfa("(a|b)*a|b", UAB), UAB)
    assert is_definite(_dfa("ab", UAB), UAB)  # finite => definite
    d = _dfa("b*c", UBC)
    assert not is_definite(d, UBC)
    ev = _report("b*c", UBC).evidence[DEF]
    w1, w2 = ev.words
    assert accepts(d, w1) != accepts(d, w2)
    # the two words end in the same suffix of the stated length, at least
    # as long as the minimal automaton has states
    k = int(re.search(r"shared suffix of length (\d+)", ev.note).group(1))
    assert k >= measure(d, "states").upper
    assert min(len(w1), len(w2)) >= k and w1[-k:] == w2[-k:]


def _definite_cases(rng, count):
    """Minimal DFAs of random automata (1-24 states, 1-3 letters), and of
    random finite languages and their complements, which are definite."""
    for _ in range(count):
        u = Alphabet(("a", "b", "c")[:rng.randrange(1, 4)])
        yield u, minimize(random_dfa(rng, rng.randrange(1, 25), u))
    for _ in range(count // 4):
        u = Alphabet(("a", "b", "c")[:rng.randrange(1, 4)])
        letters = tuple(u)
        words = [tuple(letters[rng.randrange(len(letters))]
                       for _ in range(rng.randrange(0, 9)))
                 for _ in range(rng.randrange(1, 5))]
        d = word_set_dfa(words, u)
        yield u, minimize(d)
        yield u, minimize(complement(d))


def test_definite_matches_the_fixpoint_oracle():
    """The one-pass pair-graph check gives the suffix-pair fixpoint's exact
    verdict, evidence and bound."""
    rng = random.Random(9)
    verdicts = []
    for u, dm in _definite_cases(rng, 1200):
        got = _check_definite(_Analysis(dm))
        assert got == oracle._check_definite(dm), dfa_to_table(dm)
        assert _suffix_pairs(dm)[0] == oracle._definite_bound(dm)
        verdicts.append(got[0])
    assert 100 < sum(verdicts) < len(verdicts) - 100


def _long_word(k, changed=None):
    w = list(("a", "b") * k)
    if changed is not None:
        w[changed] = "b" if w[changed] == "a" else "a"
    return tuple(w)


@pytest.mark.parametrize("word", [_long_word(100), _long_word(100, 57), ()],
                         ids=["abab", "one-letter-changed", "empty-word"])
def test_definite_bound_of_one_word_is_its_length_plus_one(word, monkeypatch):
    passes = []
    pair_pass = subregular._suffix_pairs
    monkeypatch.setattr(subregular, "_suffix_pairs",
                        lambda dm: passes.append(dm) or pair_pass(dm))
    rep = classify(word_set_dfa([word], UAB), UAB)
    assert passes == [minimize(word_set_dfa([word], UAB))]
    k = len(word) + 1
    assert rep.evidence[DEF].note == \
        f"membership depends only on the last {k} symbols"
    assert rep.verdicts[ORD] is Verdict.YES
    if word:
        # the minimal automaton of one long word admits no monotone order
        assert f"depends only on the last {k} symbols" in rep.evidence[ORD].note


def test_suffix_closed():
    assert is_suffix_closed(_dfa("a*", UAB), UAB)
    assert is_suffix_closed(_dfa("(a|b)*", UAB), UAB)
    d = _dfa("b*c", UBC)
    assert not is_suffix_closed(d, UBC)
    w, suf = _report("b*c", UBC).evidence[SUF].words
    assert accepts(d, w) and not accepts(d, suf)
    assert len(suf) <= len(w) and (len(suf) == 0 or w[-len(suf):] == suf)


def test_ordered():
    assert is_ordered(_dfa("b*c", UBC), UBC)
    assert is_ordered(_dfa("a*b*", UAB), UAB)
    assert not is_ordered(_dfa("(aa)*", UA), UA)
    # ordered quantifies over *some* accepting automaton: these two are
    # definite, hence ordered, although their minimal automata admit no
    # monotone order at all
    assert is_ordered(_dfa("ab", UAB), UAB)
    assert is_ordered(_dfa("a|(a|b)(a|b)*b", UAB), UAB)
    # aperiodic, not definite, minimal automaton unorderable: the tool
    # refuses to guess either way
    with pytest.raises(UndecidedError):
        is_ordered(_dfa("(ab)*", UAB), UAB)
    # (aa)* is unorderable and not definite, and its counter a lies past cap 1
    with pytest.raises(UndecidedError, match="monoid cap"):
        is_ordered(_dfa("(aa)*", UA), UA, monoid_cap=1)
    rep = _report("(ab)*", UAB)
    assert rep.verdicts[ORD] is Verdict.UNKNOWN


def _window_dfa(dm, k):
    """Automaton tracking the last ``k`` symbols (shorter words unpadded)."""
    letters = list(dm.alphabet)
    start = (None,) * k
    states, frontier, delta = {start}, [start], {}
    while frontier:
        win = frontier.pop()
        for s in letters:
            nxt = (s,) + win[:-1]
            delta[(win, s)] = nxt
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)

    def chain_key(win):
        return tuple(-1 if s is None else letters.index(s) for s in win)

    def window_word(win):
        return tuple(reversed([s for s in win if s is not None]))

    chain = sorted(states, key=chain_key)
    accepting = frozenset(w for w in chain if accepts(dm, window_word(w)))
    return Dfa(tuple(chain), dm.alphabet, delta, start, accepting), chain


@pytest.mark.parametrize("rx", ["ab", "a|(a|b)(a|b)*b", "(a|b)*a|b", "ab|b|()"])
def test_definite_yields_orderable_window_automaton(rx):
    """Certify the definite => ordered step by explicit construction."""
    d = minimize(_dfa(rx, UAB))
    rep = _report(rx, UAB)
    assert rep.verdicts[DEF] is Verdict.YES
    assert rep.verdicts[ORD] is Verdict.YES
    m = re.search(r"last (\d+) symbols", rep.evidence[DEF].note)
    k = int(m.group(1))
    win, chain = _window_dfa(d, k)
    assert equivalent(win, d)
    pos = {q: i for i, q in enumerate(chain)}
    for s in UAB:
        images = [pos[win.delta[(q, s)]] for q in chain]
        assert images == sorted(images), s


def _monotone_dfa(n, seed=3):
    """A minimal DFA with ``n`` states that is monotone by construction:
    letter a shifts up to the top state, letter b is a random non-decreasing
    map, and the accepting set is random; drawn until no state merges."""
    rng = random.Random(seed)
    while True:
        b = sorted(rng.randrange(n) for _ in range(n))
        delta = {(q, s): t for q in range(n)
                 for s, t in (("a", min(q + 1, n - 1)), ("b", b[q]))}
        accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
        d = Dfa(tuple(range(n)), UAB, delta, 0, accepting)
        dm = minimize(d)
        if len(dm.states) == n:
            return dm


def _is_monotone(dm, chain):
    pos = {q: i for i, q in enumerate(chain)}
    return all(pos[dm.delta[(p, s)]] <= pos[dm.delta[(q, s)]]
               for p, q in zip(chain, chain[1:]) for s in dm.alphabet)


def _order_or_cap(search, dm):
    try:
        return search(dm)
    except ResourceLimitError as e:
        return "cap", e.reached


def test_order_search_matches_the_set_oracle(monkeypatch):
    """The bitset search returns the set-based search's chain, or None,
    and with a small node cap both stop at the same node or neither does.
    The capped runs skip the monotone family, where the set-based search
    takes seconds per run."""
    cases = list(_random_minimal_dfas(41))
    monotone = [_monotone_dfa(n) for n in (60, 100, 140)]
    found = set()
    for dm in cases + monotone:
        want = oracle.search_monotone_order(dm)
        assert subregular._search_monotone_order(dm) == want, dfa_to_table(dm)
        found.add(want is not None)
    assert found == {True, False}
    capped = 0
    for cap in (1, 2, 3):
        monkeypatch.setattr(subregular, "_ORDER_SEARCH_CAP", cap)
        for dm in cases:
            want = _order_or_cap(oracle.search_monotone_order, dm)
            got = _order_or_cap(subregular._search_monotone_order, dm)
            assert got == want, (cap, dfa_to_table(dm))
            capped += isinstance(want, tuple)  # chains are lists
    assert capped > 0


def test_a_capped_order_search_says_so_in_every_ord_note(monkeypatch):
    """A state-order search that hits its cap proved nothing, so a yes
    backed by the definite bound, and an unknown, say that the search was
    capped rather than that no monotone order exists; uncapped, both
    languages have one."""
    assert _report("(a|b)*ab", UAB).evidence[ORD].note == \
        "monotone state order: 0 < 2 < 1"
    monkeypatch.setattr(subregular, "_ORDER_SEARCH_CAP", 0)
    rep = _report("(a|b)*ab", UAB)
    assert rep.verdicts[ORD] is Verdict.YES
    assert rep.evidence[ORD].note == (
        "the state-order search hit its cap, but membership depends only on "
        "the last 2 symbols and the last-2-symbols automaton does")
    rep = _report("b*a*", UAB)
    assert rep.verdicts[ORD] is Verdict.UNKNOWN
    assert rep.evidence[ORD].note == (
        "the state-order search hit its cap; the language is neither definite "
        "nor repetition-counting, and orderability of a larger accepting "
        "automaton is not decided here")


def test_order_search_depth_is_not_bounded_by_the_call_stack():
    """The search keeps its own stack: on the 302-state minimal DFA of
    {a^i b : i < 300} it finds an order with only 100 frames to spare."""
    dm = minimize(word_set_dfa([("a",) * i + ("b",) for i in range(300)], UAB))
    assert len(dm.states) == 302
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        chain = subregular._search_monotone_order(dm)
    finally:
        sys.setrecursionlimit(limit)
    assert chain is not None and _is_monotone(dm, chain)


def test_order_search_agrees_with_brute_force():
    """On minimal DFAs of at most six states, an order is found exactly when
    some permutation of the states makes every letter monotone, and every
    order found does."""
    seen = 0
    for dm in _random_minimal_dfas(42):
        if len(dm.states) > 6:
            continue
        chain = subregular._search_monotone_order(dm)
        exists = any(_is_monotone(dm, perm)
                     for perm in itertools.permutations(dm.states))
        assert (chain is not None) == exists, dfa_to_table(dm)
        assert chain is None or _is_monotone(dm, chain), dfa_to_table(dm)
        seen += 1
    assert seen > 100


def test_commutative():
    assert is_commutative(_dfa("(aa)*", UA), UA)
    assert is_commutative(_dfa("a*ba*", UAB), UAB)
    d = _dfa("ab", UAB)
    assert not is_commutative(d, UAB)
    w1, w2 = _report("ab", UAB).evidence[COMM].words
    assert sorted(w1) == sorted(w2) and accepts(d, w1) != accepts(d, w2)


def test_circular():
    assert is_circular(_dfa("(aa)*", UA), UA)
    assert is_circular(_dfa("(ab)*|(ba)*", UAB), UAB)
    d = _dfa("ab", UAB)
    assert not is_circular(d, UAB)
    w1, w2 = _report("ab", UAB).evidence[CIRC].words
    # w2 is a rotation of w1 with a different verdict
    assert accepts(d, w1) != accepts(d, w2)
    assert any(w1[i:] + w1[:i] == w2 for i in range(max(len(w1), 1)))


def test_noncounting():
    assert is_noncounting(_dfa("b*c", UBC), UBC)
    # its aperiodic monoid has 4 elements: a yes needs all of them
    with pytest.raises(UndecidedError, match="monoid cap"):
        is_noncounting(_dfa("b*c", UBC), UBC, monoid_cap=2)
    assert is_noncounting(_dfa("(ab)*", UAB), UAB)
    d = _dfa("(aa)*", UA)
    assert not is_noncounting(d, UA)
    w1, w2 = _report("(aa)*", UA).evidence[NC].words
    assert accepts(d, w1) != accepts(d, w2)


def test_noncounting_exponent_is_the_first_cyclic_power():
    """The witness exponent read off the shrinking image is the first power
    of the counter on its cycle, as the walk over the period finds it."""
    exponents = set()
    for dm in _random_minimal_dfas(20, 600):
        an = _Analysis(dm)
        verdict, ev = an.decide(NC)
        if verdict is not Verdict.NO:
            continue
        k0 = oracle.first_cyclic_power(an.counter[0])
        assert f"(exponents {k0} vs {k0 + 1})" in ev.note, dfa_to_table(dm)
        w1, w2 = ev.words
        assert accepts(dm, w1) != accepts(dm, w2), dfa_to_table(dm)
        exponents.add(k0)
    assert exponents >= {1, 2, 3, 4, 5}, exponents


def _coprime_cycles_dfa(n):
    """``a`` permutes the states in cycles of the first primes 2, 3, 5, ...
    (their lengths sum to ``n``), ``b`` is the n-cycle, 0 accepts.  The
    period of ``a`` is the product of those primes."""
    lengths, p = [], 2
    while sum(lengths) < n:
        if all(p % q for q in lengths):
            lengths.append(p)
        p += 1
    assert sum(lengths) == n
    delta, start = {}, 0
    for length in lengths:
        for i in range(length):
            delta[(start + i, "a")] = start + (i + 1) % length
        start += length
    delta.update({(q, "b"): (q + 1) % n for q in range(n)})
    return Dfa(tuple(range(n)), UAB, delta, 0, frozenset([0]))


@pytest.mark.parametrize("n", [100, 197])
def test_noncounting_does_not_walk_the_period_of_a_counter(n):
    """The period of ``a`` is 223,092,870 at 100 states and about 7.4e12
    at 197, so a walk over it cannot finish; the image-size loop stops at
    the first power."""
    d = _coprime_cycles_dfa(n)
    rep = classify(d, UAB)
    assert rep.min_state_count == n
    assert rep.verdicts[NC] is Verdict.NO
    ev = rep.evidence[NC]
    assert "repetitions of a (exponents 1 vs 2)" in ev.note
    assert ev.words == (("a",), ("a", "a"))
    assert accepts(d, ev.words[1]) and not accepts(d, ev.words[0])


def test_power_separating():
    assert is_power_separating(_dfa("b*c", UBC), UBC)
    with pytest.raises(UndecidedError, match="monoid cap"):
        is_power_separating(_dfa("b*c", UBC), UBC, monoid_cap=2)
    # separates powers even though it counts: one b then an even number of a
    assert is_power_separating(_dfa("b(aa)*", UAB), UAB)
    assert not is_noncounting(_dfa("b(aa)*", UAB), UAB)
    d = _dfa("(aa)*", UA)
    assert not is_power_separating(d, UA)
    w1, w2 = _report("(aa)*", UA).evidence[PS].words
    assert accepts(d, w1) != accepts(d, w2)


def test_power_separating_matches_its_own_walk():
    """PS, resuming NC's walk at NC's first counter, gives the stand-alone
    walk's exact verdict and evidence, whether NC or PS is decided first."""
    seen = set()
    for dm in _random_minimal_dfas(12):
        for cap in (3, 10_000):
            want = oracle.check_power_separating(dm, cap)
            nc_first = _Analysis(dm, cap)
            nc_first.decide(NC)
            for an in (_Analysis(dm, cap), nc_first):
                assert an.decide(PS) == want, (cap, dfa_to_table(dm))
            seen.add((want[0], nc_first.decide(NC)[0]))
    # every case of the resumption shows up: NC yes, NC no with PS either
    # way, and the cap hit before any counter
    assert seen >= {(Verdict.YES, Verdict.YES), (Verdict.YES, Verdict.NO),
                    (Verdict.NO, Verdict.NO),
                    (Verdict.UNKNOWN, Verdict.UNKNOWN)}, seen


def test_large_random_dfa_gets_decided_counters(rng):
    """The counter search stops at the first counter, so a 24-state automaton
    whose whole monoid is far beyond the default cap is still decided."""
    u = Alphabet.of("a", "b", "c")
    d = random_dfa(rng, 24, u)
    rep = classify(d, u)
    dm = minimize(d)
    for label in (NC, PS, ORD):
        assert rep.verdicts[label] is Verdict.NO, label
        w1, w2 = rep.evidence[label].words
        assert accepts(dm, w1) != accepts(dm, w2), label


def test_union_free_is_syntactic():
    assert union_free_syntax(parse_regex("a*b", UAB)) is Verdict.YES
    assert union_free_syntax(parse_regex("a|b", UAB)) is Verdict.UNKNOWN


# --- label plumbing ---------------------------------------------------------

def test_parse_family_label():
    assert parse_family_label("ORD") == ORD
    assert parse_family_label("RL_V(2)") == rl_v(2)
    assert parse_family_label("RL_P(4)") == rl_p(4)
    assert parse_family_label("REG_Z(1)") == reg_z(1)
    with pytest.raises(Exception):
        parse_family_label("NOPE")
    with pytest.raises(Exception):
        parse_family_label("RL_V(0)")


def test_labels_are_values():
    assert str(rl_v(2)) == "RL_V(2)"
    assert rl_v(2) == rl_v(2)
    assert rl_v(2) != rl_v(3)
    assert str(MON) == "MON"


# --- structural implications on random automata ----------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
def test_implications_hold_on_random_dfas(seed, n_states, n_letters):
    rng = random.Random(seed)
    u = Alphabet(("a", "b", "c")[:n_letters])
    d = random_dfa(rng, n_states, u)
    rep = classify(d, u, monoid_cap=50_000)
    table = hierarchy("subregular", 2)
    for src, dst in itertools.product(rep.verdicts, repeat=2):
        if rep.verdicts[src] is Verdict.YES and rep.verdicts[dst] is Verdict.NO:
            assert not table.reachable(src, dst), (src, dst)
    if rep.verdicts[COMB] is Verdict.YES:
        assert rep.min_state_count <= 2
    if rep.verdicts[MON] is Verdict.YES:
        assert rep.min_state_count == 1


def test_cross_check_catches_a_decider_that_breaks_an_inclusion(monkeypatch):
    """DEF answering no on a finite language contradicts FIN -> NIL -> DEF."""
    monkeypatch.setitem(subregular._CHECKS, DEF,
                        lambda an: (False, Evidence("patched")))
    with pytest.raises(InternalConsistencyError, match="FIN holds but DEF"):
        classify(_dfa("ab", UAB), UAB)


def test_cross_check_reads_the_state_count_as_reg_z(monkeypatch):
    """MON answering yes on {ε}, whose minimal DFA has two states, breaks
    MON -> REG_Z(1); every other family MON reaches holds on {ε}."""
    monkeypatch.setitem(subregular._CHECKS, MON,
                        lambda an: (True, Evidence("patched")))
    with pytest.raises(InternalConsistencyError,
                       match=re.escape("MON holds but REG_Z(1) does not")):
        classify(_dfa("()", UA), UA)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_classification_invariant_under_renaming(seed, n_states):
    rng = random.Random(seed)
    d = random_dfa(rng, n_states, UAB)
    perm = rng.sample(range(n_states), n_states)
    renamed = type(d)(
        tuple(perm[q] for q in d.states), d.alphabet,
        {(perm[q], a): perm[t] for (q, a), t in d.delta.items()},
        perm[d.initial], frozenset(perm[q] for q in d.accepting))
    r1 = classify(d, UAB, monoid_cap=50_000)
    r2 = classify(renamed, UAB, monoid_cap=50_000)
    assert r1.verdicts == r2.verdicts
    assert {k: e.words for k, e in r1.evidence.items()} == \
        {k: e.words for k, e in r2.evidence.items()}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_no_witnesses_are_honest(seed, n_states):
    """Every 'no' verdict carries words; where the relation is checkable
    generically (same alphabet, differing acceptance for pairs), it holds."""
    rng = random.Random(seed)
    d = random_dfa(rng, n_states, UAB)
    rep = classify(d, UAB, monoid_cap=50_000)
    dm = minimize(d)
    for label in (SUF, ORD, COMM, CIRC, DEF, NC, PS):
        if rep.verdicts[label] is Verdict.NO:
            ev = rep.evidence[label]
            assert len(ev.words) == 2, label
            w1, w2 = ev.words
            assert accepts(dm, w1) != accepts(dm, w2), label
    if rep.verdicts[MON] is Verdict.NO:
        (w,) = rep.evidence[MON].words
        assert not accepts(dm, w)


# --- one dispatch: the entry points agree, and each search runs once -------

_PREDICATES = {MON: is_monoidal, FIN: is_finite, NIL: is_nilpotent,
               COMB: is_combinational, DEF: is_definite, SUF: is_suffix_closed,
               ORD: is_ordered, COMM: is_commutative, CIRC: is_circular,
               NC: is_noncounting, PS: is_power_separating}


def test_predicates_classify_and_selection_family_agree():
    """Each predicate, ``classify`` and ``selection_in_family`` on a one-pair
    grammar give the same verdict and note, family by family and cap by cap;
    an ``UndecidedError`` reads as UNKNOWN and carries the classify note."""
    rng = random.Random(23)
    undecided = 0
    for _ in range(60):
        u = Alphabet(("a", "b", "c")[:rng.randrange(1, 4)])
        d = random_dfa(rng, rng.randrange(1, 9), u)
        a = tuple(u)[0]
        g = ContextualGrammar(u, ((a,),), (
            SelectionPair.from_dfa(d, (Context((a,), ()),)),))
        for cap in (3, 50, 10_000):
            rep = classify(d, u, monoid_cap=cap)
            for label, holds in _PREDICATES.items():
                note = rep.evidence[label].note
                kw = {"monoid_cap": cap} if label in (ORD, NC, PS) else {}
                try:
                    got = Verdict.YES if holds(d, u, **kw) else Verdict.NO
                except UndecidedError as e:
                    got = Verdict.UNKNOWN
                    assert str(e) == note, (label, cap)
                    undecided += 1
                assert got is rep.verdicts[label], (label, cap, dfa_to_table(d))
                (pv,) = selection_in_family(
                    g, label, caps=SearchCaps(monoid_cap=cap)).per_pair
                assert (pv.verdict, pv.note) == (got, note), (label, cap)
    assert undecided > 0


def test_classify_runs_each_shared_search_once(monkeypatch):
    """One ``classify`` minimizes once, builds the pair graph once and walks
    the transition monoid once, for NC and PS together; it walks the access
    tree and finds the distances into acceptance at most once per automaton
    that it analyses: the minimal DFA, plus its complement when NIL needs
    it."""
    calls = {name: [] for name in ("minimize", "_suffix_pairs",
                                   "_distance_to_accepting", "monoid_elements")}
    for name, seen in calls.items():
        def spy(d, *args, real=getattr(subregular, name), seen=seen):
            seen.append(d)
            return real(d, *args)
        for module in (subregular, automata):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    calls["tree"] = []  # the analysis's access tree, a cached property
    tree = cached_property(lambda an, real=subregular._Analysis.tree.func:
                           calls["tree"].append(an.dm) or real(an))
    tree.__set_name__(subregular._Analysis, "tree")
    monkeypatch.setattr(subregular._Analysis, "tree", tree)
    rng = random.Random(11)
    cases = [(_dfa("(aa)*", UA), UA)] + [
        (random_dfa(rng, rng.randrange(1, 9), UAB), UAB) for _ in range(40)]
    for i, (d, u) in enumerate(cases):
        for seen in calls.values():
            seen.clear()
        classify(d, u)
        dm = minimize(d)
        assert calls["minimize"] == [d]
        assert calls["_suffix_pairs"] == [dm]
        assert calls["monoid_elements"] == [dm]
        for name in ("tree", "_distance_to_accepting"):
            seen = calls[name]
            assert all(seen.count(x) == 1 for x in seen), name
            assert all(x in (dm, complement(dm)) for x in seen), name
            if i == 0:  # (aa)* is infinite and not cofinite: NIL analysed both
                assert seen == [dm, complement(dm)], name
