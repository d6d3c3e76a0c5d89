import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextual_oracle as oracle
from conftest import all_words, random_dfa
from icgram import contextual
from icgram.automata import Dfa
from icgram.contextual import (DEFAULT_FRONTIER_CAP, Context,
                               ContextualGrammar, SelectionPair, _derivation,
                               _predecessor_steps, derive_step, enumerate_ic,
                               ensure_valid, member_ic, member_trace,
                               split_definite_selection,
                               split_finite_selection, validate)
from icgram.ctxformat import format_contextual
from icgram.errors import (AlphabetMismatchError, DecompositionMismatchError,
                           InvalidGrammarError, NonFiniteSelectionError,
                           ResourceLimitError)
from icgram.regex import Literal, Star, alt, parse_regex, seq
from icgram.families import SearchCaps
from icgram.subregular import Verdict, parse_family_label, selection_in_family
from icgram.witnesses import build_witness, closed_form
from icgram.words import Alphabet, word_from_text, word_to_text

UAB = Alphabet.of("a", "b")


@pytest.fixture(scope="module")
def l1():
    return build_witness("L1").grammar


@pytest.fixture(scope="module")
def l2():
    return build_witness("L2").grammar


# --- single steps -----------------------------------------------------------

def test_first_steps_are_annotated_and_deterministic(l1):
    steps = derive_step(l1, ("c",))
    assert [str(s) for s in steps] == [
        "c => abcab  [pair 1, (ab, ab), infix c]",
        "c => dec  [pair 2, (d, e), infix @]",
        "c => cde  [pair 2, (d, e), infix @]",
    ]
    assert steps == derive_step(l1, ("c",))


def test_step_anatomy_holds_everywhere(l1, l2):
    for g, w in ((l1, ("a", "b", "c", "a", "b")), (l2, ("a", "b"))):
        for s in derive_step(g, w):
            assert s.source == w
            assert s.x1 + s.x2 + s.x3 == w
            assert s.target == s.x1 + s.context.left + s.x2 + s.context.right + s.x3
            assert g.pairs[s.pair_index].selects(s.x2)
            assert len(s.target) > len(s.source)  # contexts are never empty


def test_successors_of_l2_axiom(l2):
    got = {word_to_text(s.target) for s in derive_step(l2, ("a", "b"))}
    assert got == {"acbc", "cabc"}


def test_selection_respects_its_subalphabet(l1):
    # pair 1 selects within {b, c} only: no infix may straddle other letters
    for s in derive_step(l1, word_from_text("abcab", l1.alphabet)):
        if s.pair_index == 0:
            assert set(s.x2) <= {"b", "c"}


def test_foreign_symbols_rejected(l2):
    for call in (derive_step, member_ic, member_trace):
        with pytest.raises(AlphabetMismatchError,
                           match=r"^symbol 'z' not in alphabet \{a b c\}$"):
            call(l2, ("a", "z"))


# --- enumeration and membership ----------------------------------------------

def test_enumeration_counts_frozen(l1, l2):
    assert len(enumerate_ic(l2, 6)) == 9
    assert len(enumerate_ic(l2, 8)) == 14
    assert len(enumerate_ic(l1, 8)) == 29
    assert len(enumerate_ic(l1, 11)) == 363


def test_membership_frozen_cases(l1):
    yes = ["c", "abcab", "aabbcabab", "daaebbcabab"]
    no = ["", "ab", "dcabab", "abcabab"]
    for t in yes:
        assert member_ic(l1, word_from_text(t, l1.alphabet)), t
    for t in no:
        assert not member_ic(l1, word_from_text(t, l1.alphabet)), t


def test_member_trace_replays_as_forward_steps(l1):
    w = word_from_text("daaebbcabab", l1.alphabet)
    trace = member_trace(l1, w)
    assert trace is not None and len(trace) == 3
    assert trace[0].source in l1.axioms
    for a, b in zip(trace, trace[1:]):
        assert a.target == b.source
    assert trace[-1].target == w
    for s in trace:
        assert s in derive_step(l1, s.source)
    assert member_trace(l1, ("c",)) == ()  # axioms get the empty trace
    assert member_trace(l1, ("a",)) is None


def test_long_member_needs_no_recursion():
    # one inverse step per block: 1,499 steps deep, past the recursion limit
    g = build_witness("L6", 2).grammar
    w = ("a1", "a2") * 1500
    assert member_ic(g, w)
    trace = member_trace(g, w)
    assert len(trace) == 1499
    assert trace[0].source in g.axioms and trace[-1].target == w


def test_membership_search_cap():
    # the backward search explores at most frontier_cap words, the input
    # included, and keeps only those that failed; this non-member has
    # L4(1)'s Parikh residue (an even count of a's, 3 b's), so only the
    # search can reject it
    g = build_witness("L4", 1).grammar
    w = tuple("aaaababaaba")
    assert not member_ic(g, w) and member_trace(g, w) is None
    for search in (member_ic, member_trace):
        with pytest.raises(ResourceLimitError) as e:
            search(g, w, frontier_cap=5)
        assert (e.value.cap, e.value.reached) == (5, 6)
    # 4 b's: rejected by the residue before any search, whatever the cap
    w = tuple("ababababa")
    assert not member_ic(g, w, frontier_cap=5)
    assert member_trace(g, w, frontier_cap=5) is None


def test_membership_search_expands_each_failed_word_once(monkeypatch):
    # a word met again has failed already, so it is not expanded again;
    # without that memo the traces stay the same but the work blows up
    g = build_witness("L4", 1).grammar
    w = tuple("aaaababaaba")
    expanded = []

    def recording(c, s):
        expanded.append(s)
        return _predecessor_steps(c, s)

    monkeypatch.setattr(contextual, "_predecessor_steps", recording)
    assert not member_ic(g, w)
    explored = len(expanded)
    assert len(set(expanded)) == explored == 6
    # every explored word is expanded, and the one past the cap is counted
    # in ``reached`` but refused before its expansion
    assert not member_ic(g, w, frontier_cap=explored)
    for cap in (3, explored - 1):
        expanded.clear()
        with pytest.raises(ResourceLimitError) as e:
            member_ic(g, w, frontier_cap=cap)
        assert (e.value.cap, e.value.reached) == (cap, cap + 1)
        assert len(expanded) == len(set(expanded)) == cap


def _search(derivation, g, w, cap):
    """The path of ``derivation`` with contexts as (left, right) pairs,
    None, or the (cap, reached) of the cap it hit."""
    try:
        path = derivation(g, w, cap)
    except ResourceLimitError as e:
        return e.cap, e.reached
    if path is None:
        return None
    return [(p, k, (ctx.left, ctx.right), i, j) for p, k, ctx, i, j in path]


def test_membership_search_matches_the_search_that_kept_every_word():
    # same chains, same misses and the same cap count as the search that
    # kept every explored word, on members, their one-deletion and
    # one-transposition neighbours, and random words
    checks = capped = 0
    for case_id, n, bound in (("L1", None, 10), ("L2", None, 20), ("L3", 1, 8),
                              ("L3", 2, 6), ("L4", 1, 24), ("L6", 2, 30),
                              ("L7", 2, 6)):
        g = build_witness(case_id, n).grammar
        rng = random.Random(f"{case_id}{n}")
        members = sorted(enumerate_ic(g, bound))
        words = set(rng.sample(members, min(40, len(members))))
        for w in list(words):
            words |= {w[:k] + w[k + 1:] for k in range(len(w))}
            words |= {w[:k] + w[k + 1:k + 2] + w[k:k + 1] + w[k + 2:]
                      for k in range(len(w) - 1)}
        symbols = g.alphabet.symbols
        words |= {tuple(rng.choice(symbols) for _ in range(rng.randint(0, bound)))
                  for _ in range(100)}
        for w in sorted(words):
            for cap in (3, 10, 50, DEFAULT_FRONTIER_CAP):
                got = _search(_derivation, g, w, cap)
                assert got == _search(oracle._derivation, g, w, cap), \
                    (case_id, n, word_to_text(w), cap)
                checks += 1
                capped += isinstance(got, tuple)
    assert checks > 10_000 and capped > 1_000, (checks, capped)


def test_parikh_residue_rejects_without_a_search():
    # one step adds the Parikh vector of a context; each of these words
    # leaves its grammar's residue class, so no search runs, whatever the cap
    l6 = build_witness("L6", 2).grammar
    w = ("a1", "a2") * 600
    w = w[:400] + w[401:]  # one deletion a third of the way in
    assert len(w) == 1199 and not member_ic(l6, w, frontier_cap=1)
    # L7(2) has the odd axioms a1 and a2, but no step applies to them, so
    # their residue is no extendable axiom's and odd lengths are rejected
    l7 = build_witness("L7", 2).grammar
    w = ("a1", "a2", "a2") * 6 + ("a1",)
    assert len(w) == 19 and not member_ic(l7, w, frontier_cap=1)
    assert member_trace(l7, w, frontier_cap=1) is None


def test_enumeration_cap(l1):
    # the forward closure keeps at most frontier_cap of its 363 words
    with pytest.raises(ResourceLimitError) as e:
        enumerate_ic(l1, 11, frontier_cap=5)
    assert (e.value.cap, e.value.reached) == (5, 6)


def test_enumeration_cap_counts_the_axioms():
    # L7(2) has 7 axioms within the bound, and no step fits in 2 symbols
    with pytest.raises(ResourceLimitError) as e:
        enumerate_ic(build_witness("L7", 2).grammar, 2, frontier_cap=3)
    assert (e.value.cap, e.value.reached) == (3, 7)


def test_enumeration_of_l1_at_15(l1):
    # the word count and digest pinned for L1@15: the words shortest first,
    # then by symbols, one a line with their symbols joined by spaces
    words = sorted(enumerate_ic(l1, 15), key=lambda w: (len(w), w))
    text = "\n".join(" ".join(w) for w in words)
    assert (len(words), hashlib.sha256(text.encode()).hexdigest()[:16]) == \
        (5317, "af451ada397294c0")


def test_enumeration_of_l2_at_160_is_its_closed_form(l2):
    assert enumerate_ic(l2, 160) == closed_form("L2", 160)


def test_enumeration_keeps_nothing_per_length_of_the_bound():
    # no pair selects anything, so the closure is the axioms at any bound
    pair = SelectionPair.from_regex(UAB, parse_regex("∅", UAB),
                                    (Context(("a",), ()),))
    g = ContextualGrammar(UAB, (("a",), ("b", "a")), (pair,))
    assert enumerate_ic(g, 10**12) == {("a",), ("b", "a")}


def test_member_agrees_with_enumeration_on_l2(l2):
    lang = enumerate_ic(l2, 6)
    for w in all_words(l2.alphabet, 6):
        assert member_ic(l2, w) == (w in lang), word_to_text(w)


# --- validation ---------------------------------------------------------------

def test_validate_reports_every_problem():
    sel = Alphabet.of("a")
    pair_ok = SelectionPair.from_regex(sel, parse_regex("a*", sel),
                                       (Context(("a",), ()),))
    bad = ContextualGrammar(
        UAB,
        (("a", "z"),),
        (pair_ok,
         SelectionPair.from_regex(sel, parse_regex("a", sel), ()),
         SelectionPair.from_regex(sel, parse_regex("a", sel),
                                  (Context((), ()), Context(("q",), ())))))
    problems = validate(bad)
    text = "\n".join(str(p) for p in problems)
    assert "axiom 1" in text and "'z'" in text
    assert "pair 2: pair has no contexts" in text
    assert "pair 3, context 1: empty context" in text
    assert "pair 3, context 2" in text and "'q'" in text
    with pytest.raises(InvalidGrammarError) as err:
        ensure_valid(bad)
    assert len(err.value.diagnostics) == len(problems) >= 4


def test_engine_rejects_an_invalid_grammar_on_every_call():
    # compiling validates, and a cached_property does not cache the raise
    sel = Alphabet.of("a")
    pair = SelectionPair.from_regex(sel, parse_regex("a", sel),
                                    (Context(("a",), ()),))
    bad = ContextualGrammar(UAB, (("a", "z"),), (pair,))
    for call in (lambda: member_ic(bad, ("a",)),
                 lambda: derive_step(bad, ("a",)),
                 lambda: enumerate_ic(bad, 3)):
        for _ in range(2):
            with pytest.raises(InvalidGrammarError, match="axiom 1"):
                call()


def test_validate_subalphabet_mismatch():
    outside = Alphabet.of("a", "q")
    pair = SelectionPair.from_regex(outside, parse_regex("a", outside),
                                    (Context(("a",), ()),))
    g = ContextualGrammar(UAB, (("a",),), (pair,))
    problems = validate(g)
    assert any("not a subset" in p.message for p in problems)


def test_valid_grammar_has_no_diagnostics(l1, l2):
    assert validate(l1) == [] and validate(l2) == []


# --- splitting constructions ---------------------------------------------------

def test_split_finite_preserves_language_with_singleton_certificates(l2):
    split = split_finite_selection(l2)
    assert enumerate_ic(split, 8) == enumerate_ic(l2, 8)
    # {ab, b} becomes two pairs, each a one-nonterminal, one-rule grammar
    assert len(split.pairs) == 2
    for pair in split.pairs:
        g = pair.source_grammar
        assert g is not None
        assert len(g.nonterminals) == 1 and len(g.rules) == 1


def test_split_finite_rejects_infinite_selection(l1):
    with pytest.raises(NonFiniteSelectionError):
        split_finite_selection(l1)


def _definite_fixture():
    u = Alphabet.of("a", "b", "c", "d")
    sel = Alphabet.of("a", "b", "c")
    pair = SelectionPair.from_regex(sel, parse_regex("ab|(a|b|c)*c", sel),
                                    (Context(("d",), ("d",)),))
    return ContextualGrammar(u, (("a", "b"), ("c",)), (pair,))


def test_split_definite_preserves_language():
    g = _definite_fixture()
    split = split_definite_selection(g, [([("a", "b")], [("c",)])])
    assert len(split.pairs) == 2
    assert enumerate_ic(split, 8) == enumerate_ic(g, 8)
    finite, suffix = split.pairs
    assert finite.source_grammar is not None
    assert len(finite.source_grammar.nonterminals) == 1
    assert suffix.source_grammar is not None
    assert len(suffix.source_grammar.nonterminals) == 1
    # the suffix pair really selects U*B
    assert suffix.selects(("b", "b", "c")) and not suffix.selects(("a", "b"))


def test_split_definite_verifies_the_decomposition():
    g = _definite_fixture()
    with pytest.raises(DecompositionMismatchError):
        split_definite_selection(g, [([("a", "b")], [("b",)])])
    with pytest.raises(DecompositionMismatchError):
        split_definite_selection(g, [])


def test_certificate_start_is_named_apart_from_every_symbol():
    """The one nonterminal of a word-set or suffix certificate is the
    shortest run of ``S`` that no selection symbol starts with."""
    u = Alphabet.of("Sa", "b")
    sel = alt([Literal("Sa"), seq([Star(alt([Literal("Sa"), Literal("b")])),
                                   Literal("b")])])
    g = ContextualGrammar(u, (("b",),), (SelectionPair.from_regex(
        u, sel, (Context(("Sa",), ()),)),))
    split = split_definite_selection(g, [([("Sa",)], [("b",)])])
    assert [p.source_grammar.start for p in split.pairs] == ["SS", "SS"]
    assert enumerate_ic(split, 4) == enumerate_ic(g, 4)
    assert SelectionPair.from_words(Alphabet.of("S", "SSx"), [("S",)],
                                    ()).source_grammar.start == "SSS"


# --- selection families ---------------------------------------------------------

def test_selection_in_family_per_pair(l1):
    res = selection_in_family(l1, parse_family_label("RL_V(1)"))
    assert res.overall is Verdict.YES
    assert [pv.verdict for pv in res.per_pair] == [Verdict.YES, Verdict.YES]
    res2 = selection_in_family(l1, parse_family_label("PS"))
    assert res2.overall is Verdict.NO
    assert any(pv.verdict is Verdict.NO for pv in res2.per_pair)


def test_selection_in_family_cap_note_matches_classify(l1):
    res = selection_in_family(l1, parse_family_label("NC"),
                              caps=SearchCaps(monoid_cap=2))
    assert res.per_pair[0].verdict is Verdict.UNKNOWN
    assert res.per_pair[0].note == \
        "monoid cap exceeded (cap 2); undecided at this cap"


def test_selection_in_family_ord_is_three_valued():
    sel = Alphabet.of("a", "b")
    pair = SelectionPair.from_regex(sel, parse_regex("(ab)*", sel),
                                    (Context(("a",), ()),))
    g = ContextualGrammar(UAB, (("a",),), (pair,))
    res = selection_in_family(g, parse_family_label("ORD"))
    assert res.overall is Verdict.UNKNOWN
    assert "monotone" in res.per_pair[0].note


# --- randomized agreement -------------------------------------------------------

_SELECTIONS = ["b", "ab|b", "a*", "(a|b)*b", "ab", "b*a", "()|a"]
_CONTEXTS = [("a", ""), ("", "b"), ("a", "b"), ("ab", "")]
_AXIOMS = [(), ("a",), ("b", "a"), ("a", "b", "b")]


_GRAMMAR_PARTS = (
    st.lists(st.sampled_from(_SELECTIONS), min_size=1, max_size=2),
    st.lists(st.sampled_from(_CONTEXTS), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(_AXIOMS), min_size=1, max_size=2, unique=True))

# the grammar alphabet has a multi-character symbol foreign to every
# selection (declared over {a, b}); "∅" selects nothing, "()|a" selects ε
UABC = Alphabet.of("a", "b", "c1")
_FOREIGN_PARTS = (
    st.lists(st.sampled_from(["b", "a*", "(a|b)*b", "∅", "()|a"]),
             min_size=1, max_size=2),
    st.lists(st.sampled_from([(("c1",), ()), ((), ("c1",)), (("a",), ("c1",)),
                              (("c1", "b"), ()), (("a",), ("b",))]),
             min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from([(), ("c1",), ("a", "c1", "b"), ("b", "c1")]),
             min_size=1, max_size=2, unique=True))


def _grammar(sels, ctxs, axioms, alphabet=UAB) -> ContextualGrammar:
    contexts = tuple(Context(tuple(l), tuple(r)) for l, r in ctxs)
    pairs = tuple(SelectionPair.from_regex(UAB, parse_regex(s, UAB), contexts)
                  for s in sels)
    return ContextualGrammar(alphabet, tuple(axioms), pairs)


@settings(max_examples=100, deadline=None)
@given(*_GRAMMAR_PARTS)
def test_enumeration_and_membership_agree(sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms)
    lang = enumerate_ic(g, 6)
    for w in all_words(UAB, 6):
        assert member_ic(g, w) == (w in lang), word_to_text(w)


def _matches_the_plain_oracle(g, words):
    # same steps, same inverse steps, same traces, all in the same order;
    # the inverse step runs on encoded words, so its input is encoded and
    # its predecessors decoded through the grammar's compiled form
    c = g._compiled
    for w in words:
        assert derive_step(g, w) == tuple(oracle._steps_unchecked(g, w))
        assert [(c.decode(p), *rest)
                for p, *rest in _predecessor_steps(c, c.encode(w))] == [
            (pred, s.pair_index, s.context, len(s.x1), len(s.x1 + s.x2))
            for pred, s in oracle._predecessor_steps(g, w)]
        assert member_trace(g, w) == oracle._member_rec(g, w, {})


@settings(max_examples=40, deadline=None)
@given(*_GRAMMAR_PARTS)
def test_engine_matches_the_plain_oracle(sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms)
    _matches_the_plain_oracle(g, sorted(set(all_words(UAB, 5))
                                        | enumerate_ic(g, 8)))


@settings(max_examples=40, deadline=None)
@given(*_FOREIGN_PARTS)
def test_engine_matches_the_plain_oracle_on_foreign_symbols(sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms, UABC)
    _matches_the_plain_oracle(g, sorted(set(all_words(UABC, 4))
                                        | enumerate_ic(g, 7)))


def _passes_the_residue_filter(g, words):
    # the filter in member_ic must never reject a derivable word
    c = g._compiled
    for w in words:
        s = c.encode(w)
        assert s in c.axioms or c.residue(s) in c.residues, word_to_text(w)


@settings(max_examples=200, deadline=None)
@given(*_GRAMMAR_PARTS)
def test_derivable_words_pass_the_residue_filter(sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms)
    _passes_the_residue_filter(g, enumerate_ic(g, 8))


@settings(max_examples=200, deadline=None)
@given(*_FOREIGN_PARTS)
def test_derivable_words_pass_the_residue_filter_on_foreign_symbols(
        sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms, UABC)
    _passes_the_residue_filter(g, enumerate_ic(g, 7))


@settings(max_examples=100, deadline=None)
@given(*_GRAMMAR_PARTS)
def test_enumeration_matches_the_plain_oracle(sels, ctxs, axioms):
    g = _grammar(sels, ctxs, axioms)
    assert enumerate_ic(g, 8) == oracle._enumerate_plain(g, 8)


@settings(max_examples=100, deadline=None)
@given(*_FOREIGN_PARTS)
def test_enumeration_matches_the_plain_oracle_on_foreign_symbols(sels, ctxs,
                                                                 axioms):
    g = _grammar(sels, ctxs, axioms, UABC)
    assert enumerate_ic(g, 7) == oracle._enumerate_plain(g, 7)


# more selections that accept the empty word or keep their language after a
# leading letter (a*, b*a, a*ba*, a*b*), and contexts whose left side is
# empty or a power of one letter, each pair with its own contexts
_SEEDED_SELECTIONS = _SELECTIONS + ["a*b*", "(ab)*", "a*ba*", "b(a|b)*",
                                    "(aa)*", "a|()"]
_SEEDED_CONTEXTS = _CONTEXTS + [("aa", "a"), ("", "a"), ("b", "b")]


def _seeded_grammars(count=600, seed=11, selections=_SEEDED_SELECTIONS,
                     contexts=_SEEDED_CONTEXTS, axioms=_AXIOMS, most=2):
    rng = random.Random(seed)
    for _ in range(count):
        pairs = tuple(SelectionPair.from_regex(
            UAB, parse_regex(rng.choice(selections), UAB),
            tuple(Context(tuple(l), tuple(r)) for l, r
                  in rng.sample(contexts, rng.randint(1, 3))))
            for _ in range(rng.randint(1, 3)))
        yield ContextualGrammar(UAB, tuple(rng.sample(axioms, rng.randint(1, most))),
                                pairs)


def _padded(rng, d):
    """``d`` with every state split in two equivalent copies that the
    transitions pick at random, and one unreachable state."""
    states = [(q, k) for q in d.states for k in (0, 1)] + ["unreachable"]
    delta = {(s, a): (d.delta[(q, a)], rng.randrange(2))
             for s in states for a in d.alphabet
             for q in [d.initial if s == "unreachable" else s[0]]}
    return Dfa(tuple(states), d.alphabet, delta, (d.initial, 0),
               frozenset(s for s in states[:-1] if s[0] in d.accepting))


def _rows_language(rows, acc, longest):
    """The encoded words of length <= longest that the rows accept."""
    out, layer = set(), [("", 0)] if rows else []
    for _ in range(longest + 1):
        out |= {s for s, q in layer if acc[q]}
        layer = [(s + a, t) for s, q in layer for a, t in rows[q].items()]
    return out


def test_compiled_pairs_match_the_compiler_on_the_dfa_as_given():
    # the engine compiles the minimal DFA; the oracle walks the DFA as
    # given, here padded with equivalent and unreachable states
    rng = random.Random(11)
    subs = [Alphabet(tuple(x)) for x in ("a", "b", "c", "ab", "ac", "bc", "abc")]
    dfas = []
    for _ in range(500):
        d = random_dfa(rng, rng.randint(1, 8), rng.choice(subs))
        dfas += [d, _padded(rng, d)]
    for u in subs:
        for accepting in (frozenset(), frozenset({0})):  # empty and full
            one = Dfa((0,), u, {(0, a): 0 for a in u}, 0, accepting)
            dfas += [one, _padded(rng, one)]
    counts = {"slides": 0, "empty": 0}
    for d in dfas:
        pair = SelectionPair.from_dfa(d, (Context(("a",), ("b", "c")),))
        c = ContextualGrammar(Alphabet.of("a", "b", "c"), ((),), (pair,))._compiled
        rows, acc, _, contexts, loops = c.pairs[0]
        ref_rows, ref_acc, _, ref_contexts, ref_slides = oracle.compile_pair(c, pair)
        assert [list(r) for r in rows[:1]] == [list(r) for r in ref_rows[:1]]
        assert acc[:1] == ref_acc[:1]
        slides = loops[0] if loops else ""
        assert slides == "".join(ref_slides) and contexts == ref_contexts
        assert _rows_language(rows, acc, 5) == _rows_language(ref_rows, ref_acc, 5)
        counts["slides"] += bool(slides)
        counts["empty"] += not rows
    assert counts["slides"] > 300 and counts["empty"] > 150, counts


def test_enumeration_matches_the_plain_oracle_on_seeded_grammars():
    # the closure skips insertions that repeat a word; the plain closure
    # tries every step
    for g in _seeded_grammars():
        assert enumerate_ic(g, 6) == oracle._enumerate_plain(g, 6), \
            format_contextual(g)


# single-character symbols are their own codes: these mean something in a
# character class, and "\x00" is the first character a separator could be
_OWN_CODES = Alphabet.of("-", "]", "^", "\\", "\x00")


def _renamed(g, names):
    """``g``, a grammar over {a, b}, over ``_OWN_CODES`` instead, with a
    and b renamed as ``names``; the other three symbols are foreign to it."""
    to = dict(zip("ab", names))
    word = lambda w: tuple(to[x] for x in w)
    pairs = []
    for pair in g.pairs:
        d = pair.dfa
        d = Dfa(d.states, Alphabet(word(d.alphabet.symbols)),
                {(q, to[x]): t for (q, x), t in d.delta.items()}, d.initial,
                d.accepting)
        pairs.append(SelectionPair.from_dfa(d, tuple(
            Context(word(ctx.left), word(ctx.right)) for ctx in pair.contexts)))
    return ContextualGrammar(_OWN_CODES, tuple(map(word, g.axioms)), tuple(pairs))


def test_enumeration_matches_the_plain_oracle_on_symbols_that_are_their_own_codes():
    # each length's words are scanned joined by a separator, a character
    # that is no symbol; the empty axiom and several axioms of one length
    # put more than one word in a length from the start
    axioms = [(), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "a", "b")]
    for k, names in enumerate([("^", "-"), ("]", "\\"), ("\x00", "^"),
                               ("-", "\x00"), ("\\", "]")]):
        for g in _seeded_grammars(60, k, axioms=axioms, most=4):
            h = _renamed(g, names)
            assert h._compiled.code == {x: x for x in _OWN_CODES}
            assert enumerate_ic(h, 6) == oracle._enumerate_plain(h, 6), \
                (names, format_contextual(g))


def test_single_character_symbols_are_their_own_codes():
    # else the k-th symbol is chr(k); either way the separator is no code
    plain = ContextualGrammar(_OWN_CODES, ((), ("^", "\x00")), ())._compiled
    wide = ContextualGrammar(Alphabet.of("a", "b1", "-"), (("b1",),), ())._compiled
    assert plain.code == {x: x for x in _OWN_CODES}
    assert wide.code == {"a": "\x00", "b1": "\x01", "-": "\x02"}
    for c in (plain, wide):
        assert c.sep not in c.symbol
        for w in all_words(c.alphabet, 3):
            assert c.decode(c.encode(w)) == w


# selections that accept x c whenever they accept x, for c = a or for both
# letters, and b(ab)*, which can read on after an accepted x without
# accepting x a; contexts whose right side is empty or a power of one
# letter, next to two-sided ones; contexts with different right letters
# often share a scan (an empty left side slides at every code)
_RIGHT_SELECTIONS = ["a*", "ba*", "a*b*", "(a|b)*", "a*ba*", "b(ab)*"]
_RIGHT_CONTEXTS = [("", "a"), ("", "aa"), ("", "b"), ("a", ""), ("b", ""),
                   ("a", "a"), ("b", "aa"), ("ab", "b"), ("a", "ba"),
                   ("ba", "ab")]


def test_enumeration_matches_the_plain_oracle_on_right_slides():
    # the closure skips an infix that the selection also takes one symbol
    # further right when every context's right side in its scan commutes
    # with that symbol
    for g in _seeded_grammars(120, 19, _RIGHT_SELECTIONS, _RIGHT_CONTEXTS):
        assert enumerate_ic(g, 7) == oracle._enumerate_plain(g, 7), \
            format_contextual(g)


# long runs of self-loops at rejecting states (a*ba*a*ba* before its second
# b, b(aa)*b between its b's) and at accepting ones (a*ba*a*ba* after its
# second b, (a|b)*ba* after its last b); one-sided contexts whose right sides
# are periodic or rotations of each other, next to two-sided ones
_LOOP_SELECTIONS = ["a*ba*a*ba*", "b(aa)*b", "(a|b)*ba*"]
_POINT_CONTEXTS = [("", "ab"), ("", "ba"), ("", "abab"), ("", "aa"), ("", "b"),
                   ("a", "a"), ("b", "aa"), ("ab", "b")]
_RUN_AXIOMS = [("a",) * 4, tuple("aabaaa"), tuple("baaab"), tuple("abab"), ()]


def test_engine_matches_the_plain_oracle_on_self_loops_and_one_sided_contexts():
    # the scan jumps a run of codes that loop at a state taking no end
    # inside it, and a one-sided context inserts once per end, skipping an
    # end where a period of v or a rotation in its group gives the word
    # further left
    rng = random.Random(29)
    for g in _seeded_grammars(160, 29, _LOOP_SELECTIONS, _POINT_CONTEXTS,
                              _RUN_AXIOMS):
        lang = enumerate_ic(g, 9)
        assert lang == oracle._enumerate_plain(g, 9), format_contextual(g)
        for w in rng.sample(sorted(lang), min(8, len(lang))):
            assert derive_step(g, w) == tuple(oracle._steps_unchecked(g, w))


def test_enumeration_meets_the_closed_forms_at_the_bench_bounds():
    # the operations whose scans jump self-loops (L4) or insert once per end
    # (L6, L7): a skip rule that drops a word fails here
    for case_id, n, bounds in (("L4", 1, (20, 36)), ("L6", 2, (40, 160)),
                               ("L7", 2, (8, 10))):
        g = build_witness(case_id, n).grammar
        for bound in bounds:
            assert enumerate_ic(g, bound) == closed_form(case_id, bound, n), \
                (case_id, bound)


@pytest.mark.parametrize("case_id, bound", [("L7", 10), ("L6", 160)])
def test_enumeration_cap_counts_words_on_one_sided_contexts(case_id, bound):
    # the cap counts new words, not the candidates of the ends taken
    g = build_witness(case_id, 2).grammar
    words = enumerate_ic(g, bound)
    with pytest.raises(ResourceLimitError) as e:
        enumerate_ic(g, bound, frontier_cap=len(words) - 1)
    assert (e.value.cap, e.value.reached) == (len(words) - 1, len(words))
    assert enumerate_ic(g, bound, frontier_cap=len(words)) == words


def test_engine_matches_the_plain_oracle_on_a_wide_alphabet():
    # symbol k is encoded as chr(k), so on 120 symbols the selection's first
    # letters include the codes "-", "\", "]" and "^", which mean something
    # inside a character class; "^" first would negate an unescaped class
    wide = Alphabet(tuple(f"s{k}" for k in range(120)))
    s = wide.symbols
    first = [s[k] for k in (94, 44, 45, 92, 93, 46, 100)]
    declared = Alphabet.of(*first, s[1])
    words = [(x,) for x in first] + [(x, y) for x in first for y in (s[1], s[93])]
    contexts = (Context((s[0],), ()), Context((), (s[93],)),
                Context((s[45],), (s[94],)))
    g = ContextualGrammar(wide, ((s[92],), (s[1], s[94], s[45])),
                          (SelectionPair.from_words(declared, words, contexts),))
    rows = g._compiled.pairs[0][0]
    assert {s[ord(code)] for code in rows[0]} == set(first)
    lang = enumerate_ic(g, 7)
    assert lang == oracle._enumerate_plain(g, 7) and len(lang) > 50
    letters = first + [s[0], s[1], s[2], s[119]]
    rng = random.Random(120)
    probes = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
              for _ in range(200)]
    for w in sorted(lang) + probes:
        assert derive_step(g, w) == tuple(oracle._steps_unchecked(g, w))


@pytest.mark.parametrize("case_id, n, longest", [
    ("L2", None, 24), ("L3", 1, 20), ("L4", 1, 24), ("L6", 2, 24),
    ("L7", 2, 14)])
def test_engine_matches_the_plain_oracle_on_witnesses(case_id, n, longest):
    # more contexts per pair (four on L7) and longer selections (several
    # states on L4) than the random grammars have: members grown by seeded
    # random steps, and every word one deletion away from them
    g = build_witness(case_id, n).grammar
    rng = random.Random(case_id)
    words = []
    for length in (longest // 3, 2 * longest // 3, longest):
        w = rng.choice([a for a in g.axioms if derive_step(g, a)])
        while len(w) < length:
            w = rng.choice(derive_step(g, w)).target
        words += [w] + [w[:k] + w[k + 1:] for k in range(len(w))]
    _matches_the_plain_oracle(g, words)
