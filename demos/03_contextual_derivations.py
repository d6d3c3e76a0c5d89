"""
Internal contextual derivations, step by step
=============================================

A contextual grammar never rewrites symbols.  It picks an infix of the
current word that lies in a pair's selection language and wraps a context
around it.  Because every context insertion strictly lengthens the word,
bounded enumeration is exact and membership is decidable by shrinking.
"""

from icgram.contextual import (derive_step, enumerate_ic, member_ic,
                               member_trace, split_finite_selection)
from icgram.ctxformat import format_contextual, parse_contextual
from icgram.words import sort_words, word_to_text

# Duplication in the middle: contexts (a, b) around any block of a's and
# b's produce the words where some prefix of a's matches a suffix of b's.
TEXT = """\
alphabet: a b c
axiom: c

pair:
  alphabet: a b c
  selection regex: (a|b)*c(a|b)*
  context: (a, b)
"""

g = parse_contextual(TEXT)

# One derivation step per selectable infix and context.
print("one-step successors of 'c':")
for step in derive_step(g, ("c",)):
    print("  ", step)

print("\none-step successors of 'acb':")
for step in derive_step(g, ("a", "c", "b")):
    print("  ", step)

# The generated language up to length 5 -- exactly a^n c b^n here.
words = sort_words(enumerate_ic(g, 5), g.alphabet)
print("\nlanguage up to length 5:", " ".join(word_to_text(w) for w in words))

# Membership runs backwards: strip a context, search on from the shorter word.
w = ("a", "a", "a", "c", "b", "b", "b")
print("\nmember", word_to_text(w), "->", member_ic(g, w))
print("derivation found by the membership search:")
for step in member_trace(g, w):
    print("  ", step)
print("member aacb ->", member_ic(g, ("a", "a", "c", "b")))

# Finite selections can always be traded for one singleton pair per word;
# the language is unchanged.
finite = parse_contextual("""\
alphabet: a b
axiom: ab

pair:
  alphabet: a b
  selection regex: ab|b
  context: (a, b)
""")
split = split_finite_selection(finite)
assert enumerate_ic(split, 8) == enumerate_ic(finite, 8)
print("\nsingleton split of a two-word selection:")
print(format_contextual(split))
