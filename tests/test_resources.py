import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlgrammar_oracle
from conftest import random_dfa, run_cli
from icgram import automata, resources, rlgrammar
from icgram.automata import equivalent, minimize, nfa_to_dfa, regex_to_dfa
from icgram.regex import parse_regex
from icgram.resources import (KINDS, ResourceMeasure, SearchCaps,
                              bounded_min_grammar, count_resources,
                              dfa_to_grammar, measure)
from icgram.rlgrammar import RightLinearGrammar, Rule, grammar_to_nfa
from icgram.words import EMPTY_WORD, Alphabet
from rlgrammar_oracle import bounded_words, matches_by_listing

UA = Alphabet.of("a")
UAB = Alphabet.of("a", "b")
UBC = Alphabet.of("b", "c")


def _dfa(text, u):
    return regex_to_dfa(parse_regex(text, u), u)


def _grammar_language(g):
    return minimize(nfa_to_dfa(grammar_to_nfa(g)))


def _states(text, u):
    m = measure(_dfa(text, u), "states")
    return m.lower, m.upper


def test_min_states_counts_the_sink():
    assert _states("(a|b)*", UAB) == (1, 1)
    assert _states("(aa)*", UA) == (2, 2)
    # b*c needs start, accept and a dead state once complete
    assert _states("b*c", UBC) == (3, 3)
    assert _states("(b*c)(b*c)*", UBC) == (2, 2)


def test_count_resources_as_written():
    g = RightLinearGrammar(
        ("S", "T"), UAB,
        (Rule("S", ("a",), "T"), Rule("T", ("b",), None),
         Rule("T", EMPTY_WORD, None)), "S")
    assert count_resources(g) == (2, 3)


def test_dfa_to_grammar_preserves_language():
    for rx, u in (("b*c", UBC), ("(aa)*", UA), ("ab|ba", UAB)):
        d = _dfa(rx, u)
        g = dfa_to_grammar(d)
        assert equivalent(_grammar_language(g), minimize(d))


def test_measure_states_is_exact_with_dfa_certificate():
    m = measure(_dfa("b*c", UBC), "states")
    assert (m.kind, m.lower, m.upper, m.exact) == ("states", 3, 3, True)
    assert equivalent(m.certificate, minimize(_dfa("b*c", UBC)))


def test_bstar_c_one_nonterminal_suffices():
    m = bounded_min_grammar(_dfa("b*c", UBC), "nonterminals")
    assert m.exact and m.upper == 1
    g = m.certificate
    assert len(g.nonterminals) == 1
    assert equivalent(_grammar_language(g), minimize(_dfa("b*c", UBC)))


def test_bstar_c_needs_exactly_two_rules():
    # one right-linear rule generates at most one word, so 2 is a real minimum
    m = bounded_min_grammar(_dfa("b*c", UBC), "rules")
    assert m.exact and m.upper == 2
    assert len(m.certificate.rules) == 2
    assert equivalent(_grammar_language(m.certificate),
                      minimize(_dfa("b*c", UBC)))


def test_the_empty_language_needs_no_rules():
    """A grammar with no rules generates ∅, so ∅ measures 0 rules (and
    still 1 nonterminal, the start symbol)."""
    d = _dfa("∅", UAB)
    m = bounded_min_grammar(d, "rules")
    assert m.exact and m.upper == 0
    assert count_resources(m.certificate)[1] == 0
    assert bounded_words(m.certificate, 6) == set()
    assert count_resources(RightLinearGrammar(("S",), UAB, (), "S")) == (1, 0)
    m = bounded_min_grammar(d, "nonterminals")
    assert m.exact and m.upper == 1
    code, out = run_cli(["measure", "--regex", "∅", "--alphabet", "ab"])
    assert code == 0 and "\nrules: 0 (exact)" in out


def test_the_empty_language_needs_no_rules_when_the_search_is_capped():
    """With no candidate tried, the rules of ∅ still range from 0: the
    canonical automaton grammar has no erasing rule, so it generates
    nothing, and neither does the grammar with no rules."""
    code, out = run_cli(["measure", "--regex", "∅", "--alphabet", "ab",
                         "--caps", "max_candidates=0"])
    assert code == 0
    assert out.splitlines()[3].startswith(
        "rules: in [0, 2]  # candidate budget exhausted")


def test_no_nonterminals_gives_the_fallback_interval():
    """With ``max_nonterminals=0`` neither search has a level to try, so
    both report the canonical automaton grammar's bounds."""
    code, out = run_cli(["measure", "--regex", "a", "--alphabet", "ab",
                         "--caps", "max_nonterminals=0"])
    assert code == 0
    assert "\nnonterminals: in [1, 3]  # no certificate within caps" in out
    assert "\nrules: in [1, 7]  # no certificate within caps" in out


def test_one_nonterminal_is_exact_when_the_search_is_capped():
    """Every grammar has a start symbol, so a language whose canonical
    automaton grammar has one nonterminal needs exactly one, even when the
    search runs out of candidates first."""
    d = _dfa("(a|b)*", UAB)
    m = measure(d, "nonterminals", SearchCaps(max_candidates=5))
    assert m.exact and m.upper == 1 and m.certificate == dfa_to_grammar(d)
    code, out = run_cli(["measure", "--regex", "(a|b)*", "--alphabet", "ab",
                         "--caps", "max_candidates=5"])
    lines = out.splitlines()
    assert code == 0 and lines[2] == ("nonterminals: 1 (exact)  # the canonical "
                                      "automaton grammar has one nonterminal")
    assert lines[3].startswith("rules: in [1, 3]  # candidate budget exhausted")


def test_no_nonterminals_leaves_a_rules_family_undecided():
    code, out = run_cli(["classify", "--regex", "a", "--alphabet", "ab",
                         "--family", "RL_P(3)",
                         "--caps", "max_nonterminals=0"])
    assert code == 3
    assert out.startswith("RL_P(3): unknown  # no small enough grammar")


def test_a_grammar_search_minimizes_once(monkeypatch):
    """Only the fallback grammar minimizes ``d``; candidates are confirmed
    by equivalence with ``d`` as given."""
    calls = []
    real = automata.minimize

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(automata, "minimize", counting)
    monkeypatch.setattr(resources, "minimize", counting)
    m = measure(_dfa("(ab)*", UAB), "rules")
    assert m.exact and m.upper == 2
    assert len(calls) == 1


def test_a_grammar_search_builds_only_its_certificate(monkeypatch):
    """Candidates are walked as rule tuples: the search validates two
    grammars, the fallback and the hit, not one per candidate tested."""
    d = _dfa("(ab)*", UAB)
    fallback, built = dfa_to_grammar(d), []
    monkeypatch.setattr(RightLinearGrammar, "__post_init__",
                        lambda g: built.append(g))
    m = measure(d, "rules")
    assert m.exact and m.upper == 2
    assert built == [fallback, m.certificate]


def test_the_search_lists_no_words(monkeypatch):
    """Each candidate is checked by one walk of its product with ``d``, so
    neither the language's words nor a candidate's are listed, and
    ``frontier_cap`` does not bound the search: over five letters it
    answers, and at a frontier cap of 10 it still finds the 3-rule grammar."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grammar search listed words")

    monkeypatch.setattr(automata, "enumerate_regular", refuse)
    assert not hasattr(resources, "enumerate_regular")
    assert not hasattr(resources, "bounded_words")
    assert not hasattr(rlgrammar, "bounded_words")
    code, out = run_cli(["measure", "--regex", "(a|b|x|y|z)*",
                         "--alphabet", "abxyz"])
    lines = out.splitlines()
    assert code == 0 and lines[2].startswith("nonterminals: 1 (exact)  # ")
    assert lines[3].startswith("rules: in [1, 6]  # candidate budget exhausted")
    code, out = run_cli(["measure", "--regex", "(a|b)*", "--alphabet", "ab",
                         "--caps", "frontier_cap=10"])
    assert code == 0 and out.splitlines()[3].startswith("rules: 3 (exact)  # ")


def _random_candidate(rng, alphabet):
    """A grammar on S, T, U whose rules are drawn with unit rules, erasing
    rules and words of up to three letters; a successor may have no rules."""
    nts = ("S", "T", "U")
    rules = []
    for _ in range(rng.randint(0, 5)):
        word = tuple(rng.choice(alphabet.symbols)
                     for _ in range(rng.choice((0, 0, 1, 1, 2, 3))))
        rules.append(Rule(rng.choice(nts), word,
                          rng.choice((None,) + nts)))
    return RightLinearGrammar(nts, alphabet, tuple(rules), "S")


def test_the_product_walk_agrees_with_listing_and_equivalence():
    """``_matches`` against the two-stage check it replaced: on 1,500 seeded
    candidates, each checked against a random DFA with 1 to 4 states, its
    own language and its own language with one state's acceptance flipped.
    The first candidate reaches its erasing rule through two unit rules
    listed in the order of the chain, the longest chain over three
    nonterminals."""
    rng = random.Random(15)
    ab = Alphabet.of("a", "b")
    chain = RightLinearGrammar(
        ("S", "T", "U"), ab, (Rule("S", EMPTY_WORD, "T"),
                              Rule("T", EMPTY_WORD, "U"),
                              Rule("U", EMPTY_WORD, None)), "S")
    seen, hits = set(), 0
    for n in range(1500):
        c = _random_candidate(rng, ab) if n else chain
        own = nfa_to_dfa(rlgrammar_oracle.grammar_to_nfa(c))
        flipped = own.accepting ^ {rng.choice(own.states)}
        near = automata.Dfa(own.states, ab, own.delta, own.initial, flipped)
        for d in (random_dfa(rng, rng.randint(1, 4), ab), own, near):
            expected = matches_by_listing(c, d, 4)
            assert resources._matches(c.nonterminals, c.rules, d) == expected, \
                rlgrammar.grammar_to_text(c)
            hits += expected
        lhs = {r.lhs for r in c.rules}
        for r in c.rules:
            seen.add("erasing" if r.erasing else "unit" if not r.word
                     else f"word {len(r.word)}")
            if r.successor is not None and r.successor not in lhs:
                seen.add("successor without rules")
        if any(not r.word and r.successor is not None
               and Rule(r.successor, EMPTY_WORD, r.lhs) in c.rules
               for r in c.rules):
            seen.add("unit cycle")
    assert seen >= {"erasing", "unit", "unit cycle", "word 2", "word 3",
                    "successor without rules"}
    assert hits >= 1500  # each candidate generates its own language


def test_even_a_rules():
    m = bounded_min_grammar(_dfa("(aa)*", UA), "rules")
    assert m.exact and m.upper == 2
    assert equivalent(_grammar_language(m.certificate),
                      minimize(_dfa("(aa)*", UA)))


def test_interval_when_no_certificate_fits_the_caps():
    # every word of length exactly three: at most 3 terminals per rule and
    # at most 4 rules cannot cover all eight words from one start symbol
    d = _dfa("(a|b)(a|b)(a|b)", UAB)
    m = bounded_min_grammar(d, "rules")
    assert not m.exact
    assert m.lower == 1
    assert m.upper == len(m.certificate.rules)
    assert equivalent(_grammar_language(m.certificate), minimize(d))


def test_tight_caps_report_an_interval_with_the_fallback_grammar():
    caps = SearchCaps(max_nonterminals=1, max_rules=1, max_candidates=2_000)
    m = bounded_min_grammar(_dfa("b*c", UBC), "rules", caps)
    assert not m.exact
    assert "caps" in m.note or "budget" in m.note
    assert equivalent(_grammar_language(m.certificate),
                      minimize(_dfa("b*c", UBC)))


@pytest.mark.parametrize("rhs", [16, 40])
def test_no_rule_universe_is_built_past_the_budget(rhs, monkeypatch):
    """The search counts a level's candidates before it builds that level's
    rule universe: with right-hand sides up to 16 or 40 letters the first
    level is over the budget, so no universe is built at all."""
    built = []

    def spy(nts, terminals, max_rhs_len, real=resources._rule_universe):
        built.append(len(nts))
        return real(nts, terminals, max_rhs_len)

    monkeypatch.setattr(resources, "_rule_universe", spy)
    bounded_min_grammar(_dfa("b*c", UBC), "nonterminals")
    assert built, "the spy sees a search within the budget"
    built.clear()
    for kind, upper in (("nonterminals", 3), ("rules", 7)):
        m = measure(_dfa("b*c", UBC), kind, SearchCaps(max_rhs_len=rhs))
        assert (m.lower, m.upper, m.exact) == (1, upper, False)
        assert m.note.startswith("candidate budget exhausted")
    assert built == []


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        bounded_min_grammar(_dfa("a", UA), "glyphs")
    assert set(KINDS) == {"states", "nonterminals", "rules"}


def test_measure_dispatch_covers_all_kinds():
    d = _dfa("ab", UAB)
    for kind in KINDS:
        m = measure(d, kind, SearchCaps(max_candidates=50_000))
        assert isinstance(m, ResourceMeasure) and m.kind == kind
        assert 1 <= m.lower <= m.upper


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["a", "ab", "a*", "ab|b", "(aa)*", "a*b", "b|()"]))
def test_certificates_always_generate_the_language(rx):
    d = _dfa(rx, UAB)
    caps = SearchCaps(max_nonterminals=2, max_rules=3, max_candidates=20_000)
    for kind in ("nonterminals", "rules"):
        m = bounded_min_grammar(d, kind, caps)
        assert equivalent(_grammar_language(m.certificate), minimize(d))
        if m.exact:
            have = count_resources(m.certificate)
            assert have[0 if kind == "nonterminals" else 1] == m.upper
