import pytest

from icgram.contextual import enumerate_ic
from icgram.errors import IcgramError
from icgram.witnesses import (WITNESS_IDS, build_witness, check_witness,
                              closed_form)
from icgram.words import word_to_text

ALL_PARAMS = [("L1", None), ("L2", None),
              ("L3", 1), ("L3", 2), ("L3", 3),
              ("L4", 1), ("L4", 2), ("L4", 3),
              ("L6", 2), ("L6", 3),
              ("L7", 2), ("L7", 3)]


@pytest.mark.parametrize("wid,n", ALL_PARAMS)
def test_every_witness_case_passes(wid, n):
    case = build_witness(wid, n)
    report = check_witness(case)
    assert report.ok, report.to_text()
    assert report.to_text().strip().endswith("PASS")


def test_report_lists_each_claim():
    report = check_witness(build_witness("L2"))
    text = report.to_text()
    assert text.startswith("witness L2\n")
    assert "  ok  " in text and "FAIL" not in text
    names = [r.name for r in report.results]
    assert any("closed form" in s for s in names)
    assert any("variant" in s for s in names)
    assert len(names) == len(set(names))


# --- closed forms against the engine and by hand ----------------------------

def test_closed_form_l2_matches_enumeration_and_examples():
    case = build_witness("L2")
    assert closed_form("L2", 8) == enumerate_ic(case.grammar, 8)
    lang6 = {word_to_text(w) for w in closed_form("L2", 6)}
    assert lang6 == {"ab", "ba", "acbc", "cabc", "cbca",
                     "accbcc", "cacbcc", "ccabcc", "ccbcca"}


def test_closed_form_l4_matches_enumeration():
    for n in (1, 2):
        case = build_witness("L4", n)
        assert closed_form("L4", 10, n) == enumerate_ic(case.grammar, 10)
    # below the axiom (ab)^3 a nothing exists; one (a, a) insertion above it
    assert {word_to_text(w) for w in closed_form("L4", 7, 1)} == {"abababa"}
    assert {word_to_text(w) for w in closed_form("L4", 9, 1)} == \
        {"abababa", "aababaaba", "abaababaa"}


def test_closed_form_l6_matches_enumeration():
    for n in (2, 3):
        case = build_witness("L6", n)
        assert closed_form("L6", 9, n) == enumerate_ic(case.grammar, 9)
    # the indexed alphabet carries one letter per position: a1, a2, ...
    case = build_witness("L6", 2)
    assert case.grammar.alphabet.symbols == ("a1", "a2")
    words = closed_form("L6", 8, 2)
    assert ("a1", "a2") in words  # the base block itself
    assert {word_to_text(w) for w in words} == {
        "a1",
        "a2",
        "a1.a2",
        "a1.a2.a1.a2",
        "a1.a2.a1.a2.a1.a2",
        "a1.a2.a1.a2.a1.a2.a1.a2",
    }


def test_closed_form_l7_matches_enumeration():
    for n in (2, 3):
        case = build_witness("L7", n)
        assert closed_form("L7", 6, n) == enumerate_ic(case.grammar, 6)
    assert () in closed_form("L7", 6, 2)


def test_l1_and_l3_have_no_closed_form():
    with pytest.raises(IcgramError):
        closed_form("L1", 8)
    with pytest.raises(IcgramError):
        closed_form("L3", 8, 1)


# --- construction error paths ------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: build_witness("L3", 9), "L3 takes n in 1..3, got 9"),
    (lambda: closed_form("L4", 8, n=9), "L4 takes n in 1..3, got 9"),
    (lambda: closed_form("L2", 8, n=1), "L2 takes no parameter"),
], ids=["build-L3", "closed-L4", "closed-L2"])
def test_parameter_errors_name_the_case_and_range(call, message):
    with pytest.raises(IcgramError) as e:
        call()
    assert str(e.value) == message


def test_unknown_or_out_of_range_cases_rejected():
    with pytest.raises(IcgramError) as e:
        build_witness("L5")
    assert "L5" in str(e.value) and "available" in str(e.value)
    with pytest.raises(IcgramError):
        build_witness("L1", 2)          # takes no parameter
    with pytest.raises(IcgramError):
        build_witness("L6", 1)          # needs n >= 2
    with pytest.raises(IcgramError):
        build_witness("L3", 4)          # above the tabulated range
    with pytest.raises(IcgramError):
        closed_form("L4", 8, 0)


def test_case_labels_and_variant_lookup():
    case = build_witness("L4", 2)
    assert case.label == "L4(n=2)"
    assert build_witness("L1").label == "L1"
    assert case.grammar_named("main") is case.grammar
    l1 = build_witness("L1")
    alt = l1.grammar_named("two-state")
    assert alt is not l1.grammar
    assert enumerate_ic(alt, 8) == enumerate_ic(l1.grammar, 8)
    with pytest.raises(KeyError):
        case.grammar_named("nope")


def test_positive_and_negative_claims_are_disjoint():
    for wid in WITNESS_IDS:
        case = build_witness(wid)
        pos = {label for label, _ in case.positive}
        assert pos.isdisjoint(set(case.negative))
