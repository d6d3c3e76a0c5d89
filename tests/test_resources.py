import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from icgram import automata, resources
from icgram.automata import equivalent, minimize, nfa_to_dfa, regex_to_dfa
from icgram.regex import parse_regex
from icgram.resources import (KINDS, ResourceMeasure, SearchCaps,
                              bounded_min_grammar, count_resources,
                              dfa_to_grammar, measure)
from icgram.rlgrammar import (RightLinearGrammar, Rule, bounded_words,
                              grammar_to_nfa)
from icgram.words import EMPTY_WORD, Alphabet

UA = Alphabet.of("a")
UAB = Alphabet.of("a", "b")
UBC = Alphabet.of("b", "c")


def _dfa(text, u):
    return regex_to_dfa(parse_regex(text, u), u)


def _grammar_language(g):
    return minimize(nfa_to_dfa(grammar_to_nfa(g)))


def test_min_states_counts_the_sink():
    assert measure(_dfa("(a|b)*", UAB), "states").value == 1
    assert measure(_dfa("(aa)*", UA), "states").value == 2
    # b*c needs start, accept and a dead state once complete
    assert measure(_dfa("b*c", UBC), "states").value == 3
    assert measure(_dfa("(b*c)(b*c)*", UBC), "states").value == 2


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
    assert m.value == 3
    assert equivalent(m.certificate, minimize(_dfa("b*c", UBC)))


def test_bstar_c_one_nonterminal_suffices():
    m = bounded_min_grammar(_dfa("b*c", UBC), "nonterminals")
    assert m.exact and m.value == 1
    g = m.certificate
    assert len(g.nonterminals) == 1
    assert equivalent(_grammar_language(g), minimize(_dfa("b*c", UBC)))


def test_bstar_c_needs_exactly_two_rules():
    # one right-linear rule generates at most one word, so 2 is a real minimum
    m = bounded_min_grammar(_dfa("b*c", UBC), "rules")
    assert m.exact and m.value == 2
    assert len(m.certificate.rules) == 2
    assert equivalent(_grammar_language(m.certificate),
                      minimize(_dfa("b*c", UBC)))


def test_the_empty_language_needs_no_rules():
    """A grammar with no rules generates ∅, so ∅ measures 0 rules (and
    still 1 nonterminal, the start symbol)."""
    d = _dfa("∅", UAB)
    m = bounded_min_grammar(d, "rules")
    assert m.exact and m.value == 0
    assert count_resources(m.certificate)[1] == 0
    assert bounded_words(m.certificate, 6) == set()
    assert count_resources(RightLinearGrammar(("S",), UAB, (), "S")) == (1, 0)
    assert bounded_min_grammar(d, "nonterminals").value == 1
    code, out = run_cli(["measure", "--regex", "∅", "--alphabet", "ab"])
    assert code == 0 and "\nrules: 0 (exact)" in out


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
    assert m.exact and m.value == 1 and m.certificate == dfa_to_grammar(d)
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
    assert m.exact and m.value == 2
    assert len(calls) == 1


def test_the_target_words_come_from_the_automaton(monkeypatch):
    """The search lists the words up to ``check_len`` on ``d`` itself, within
    ``frontier_cap``; the fallback grammar, which derives every form through
    its sink nonterminal, is never walked."""
    d = _dfa("()", Alphabet.of(*"abxyz"))
    walked = []

    def recording(g, max_len):
        walked.append(g)
        return bounded_words(g, max_len)

    monkeypatch.setattr(resources, "bounded_words", recording)
    m = measure(d, "rules", SearchCaps(max_candidates=100))
    assert m.certificate == dfa_to_grammar(d) and m.upper == 11
    assert walked and dfa_to_grammar(d) not in walked
    code, _ = run_cli(["measure", "--regex", "(a|b)*", "--alphabet", "ab",
                       "--caps", "check_len=4,frontier_cap=10"])
    assert code == 3


def test_even_a_rules():
    m = bounded_min_grammar(_dfa("(aa)*", UA), "rules")
    assert m.exact and m.value == 2
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
    with pytest.raises(ValueError):
        m.value


def test_tight_caps_report_an_interval_with_the_fallback_grammar():
    caps = SearchCaps(max_nonterminals=1, max_rules=1, check_len=6,
                      max_candidates=2_000)
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
    caps = SearchCaps(max_nonterminals=2, max_rules=3, check_len=6,
                      max_candidates=20_000)
    for kind in ("nonterminals", "rules"):
        m = bounded_min_grammar(d, kind, caps)
        assert equivalent(_grammar_language(m.certificate), minimize(d))
        if m.exact:
            have = count_resources(m.certificate)
            assert have[0 if kind == "nonterminals" else 1] == m.value
