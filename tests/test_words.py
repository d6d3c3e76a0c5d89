import pytest
from hypothesis import given
from hypothesis import strategies as st

from icgram.errors import AlphabetMismatchError
from conftest import all_words
from icgram.words import (EMPTY_WORD, Alphabet, fresh_prefix, shortlex_key,
                          sort_words, word_from_text, word_to_text)


def test_alphabet_from_text_forms():
    assert Alphabet.from_text("abc").symbols == ("a", "b", "c")
    assert Alphabet.from_text("a b c").symbols == ("a", "b", "c")
    assert Alphabet.from_text("a1.b1").symbols == ("a1", "b1")
    assert Alphabet.from_text("a1 b1").symbols == ("a1", "b1")


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of("a*b")


def test_word_text_round_trip_single_char():
    u = Alphabet.of("a", "b")
    assert word_to_text(EMPTY_WORD, u) == "@"
    assert word_from_text("@", u) == EMPTY_WORD
    assert word_from_text("abba", u) == ("a", "b", "b", "a")
    assert word_to_text(("a", "b"), u) == "ab"


def test_word_text_round_trip_multi_char():
    u = Alphabet.of("a1", "b1")
    assert word_to_text(("a1", "b1"), u) == "a1.b1"
    assert word_from_text("a1.b1", u) == ("a1", "b1")


def test_word_from_text_checks_alphabet():
    with pytest.raises(AlphabetMismatchError):
        word_from_text("abz", Alphabet.of("a", "b"))


def test_shortlex_ordering():
    u = Alphabet.of("b", "a")  # declared order, not ASCII
    words = [("a",), ("b",), ("b", "a"), EMPTY_WORD, ("a", "b")]
    assert sort_words(words, u) == [
        EMPTY_WORD, ("b",), ("a",), ("b", "a"), ("a", "b")]


def test_all_words_counts_and_order():
    u = Alphabet.of("a", "b")
    ws = list(all_words(u, 3))
    assert len(ws) == 1 + 2 + 4 + 8
    assert ws == sort_words(ws, u)


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12))
def test_round_trip_any_word(symbols):
    u = Alphabet.of("a", "b", "c")
    w = tuple(symbols)
    assert word_from_text(word_to_text(w, u), u) == w


@given(st.lists(st.sampled_from(["up", "dn", "x"]), max_size=8))
def test_round_trip_multi_char_words(symbols):
    u = Alphabet.of("up", "dn", "x")
    w = tuple(symbols)
    assert word_from_text(word_to_text(w, u), u) == w


@given(st.lists(st.lists(st.sampled_from("ab"), max_size=5).map(tuple),
                max_size=30))
def test_shortlex_key_total_order(words):
    u = Alphabet.of("a", "b")
    ordered = sort_words(words, u)
    keys = [shortlex_key(w, u) for w in ordered]
    assert keys == sorted(keys)
    # length is the primary criterion
    assert [len(w) for w in ordered] == sorted(len(w) for w in ordered)


def test_fresh_prefix_repeats_the_stem_past_every_name():
    assert fresh_prefix("Q", Alphabet.of("a", "b")) == "Q"
    assert fresh_prefix("Q", ("Q1", "QQa", "b")) == "QQQ"
    assert fresh_prefix("_", ("x_", "_0_1", "__fin")) == "___"
