"""Text format for contextual grammars.

Layout (indentation is cosmetic; structure is keyword-driven)::

    alphabet: a b c d e
    axiom: c
    pair:
      alphabet: b c
      selection regex: b*c
      context: (ab, ab)
    pair:
      alphabet: a
      selection grammar:
        nonterminals: S
        terminals: a
        start: S
        S -> aa S
        S -> @
      context: (d, e)

``@`` stands for the empty word in axioms and context sides.  A selection
may be given as a regex (single-character subalphabets only), a right-linear
grammar, or a DFA transition table (``selection dfa:``).  Comments run from
``#`` to end of line.

The round trip parse(format(g)) preserves pair order, axiom order, context
order and the selection source form exactly.  Selections stored only as a
DFA have their state names normalized on the way out, so for those the round
trip is stable from the first re-parse onwards.
"""

from __future__ import annotations

from .automata import _parse_dfa_lines, dfa_to_table
from .contextual import Context, ContextualGrammar, SelectionPair
from .errors import TextFormatError, at_line
from .regex import format_regex, parse_regex
from .rlgrammar import grammar_to_text, parse_grammar_lines
from .words import Alphabet, clean_lines, word_from_text, word_to_text


def format_contextual(g: ContextualGrammar) -> str:
    out: list[str] = ["alphabet: " + " ".join(g.alphabet)]
    for w in g.axioms:
        out.append("axiom: " + word_to_text(w, g.alphabet))
    for pair in g.pairs:
        out.append("pair:")
        out.append("  alphabet: " + " ".join(pair.declared_alphabet))
        if pair.source_regex is not None:
            if not pair.declared_alphabet.single_char:
                raise TextFormatError(
                    "regex selections over multi-character symbols have no "
                    "text form; convert the pair to a grammar first")
            out.append("  selection regex: " + format_regex(pair.source_regex))
        elif pair.source_grammar is not None:
            out.append("  selection grammar:")
            for line in grammar_to_text(pair.source_grammar).splitlines():
                out.append("    " + line)
        else:
            out.append("  selection dfa:")
            for line in dfa_to_table(pair.dfa).splitlines():
                out.append("    " + line)
        for ctx in pair.contexts:
            out.append("  context: " + ctx.to_text(g.alphabet))
    return "\n".join(out) + "\n"


def _parse_context(body: str, alphabet: Alphabet, ln: int) -> Context:
    body = body.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise TextFormatError("context looks like (left, right)", line=ln)
    inner = body[1:-1]
    if inner.count(",") != 1:
        raise TextFormatError("context needs exactly one comma", line=ln)
    left_text, right_text = (part.strip() for part in inner.split(","))
    with at_line(ln):
        return Context(word_from_text(left_text, alphabet),
                       word_from_text(right_text, alphabet))


def parse_contextual(text: str) -> ContextualGrammar:
    lines = clean_lines(text)
    if not lines:
        raise TextFormatError("empty grammar description")
    pos = 0

    ln, first = lines[pos]
    if not first.startswith("alphabet:"):
        raise TextFormatError("grammar starts with an 'alphabet:' line", line=ln)
    with at_line(ln):
        alphabet = Alphabet(tuple(first[len("alphabet:"):].split()))
    pos += 1

    axioms = []
    while pos < len(lines) and lines[pos][1].startswith("axiom:"):
        ln, t = lines[pos]
        with at_line(ln):
            axioms.append(word_from_text(t[len("axiom:"):], alphabet))
        pos += 1

    pairs = []
    while pos < len(lines):
        ln, t = lines[pos]
        if t != "pair:":
            raise TextFormatError(f"expected 'pair:', got {t!r}", line=ln)
        pos += 1
        pair, pos = _parse_pair(text, lines, pos, alphabet)
        pairs.append(pair)

    return ContextualGrammar(alphabet, tuple(axioms), tuple(pairs))


def _parse_pair(text: str, lines: list[tuple[int, str]], pos: int,
                alphabet: Alphabet) -> tuple[SelectionPair, int]:
    if pos >= len(lines) or not lines[pos][1].startswith("alphabet:"):
        ln = lines[pos][0] if pos < len(lines) else lines[-1][0]
        raise TextFormatError("pair starts with its 'alphabet:' line", line=ln)
    ln, t = lines[pos]
    with at_line(ln):
        declared = Alphabet(tuple(t[len("alphabet:"):].split()))
    pos += 1

    if pos >= len(lines):
        raise TextFormatError("pair is missing its selection", line=ln)
    sel_line, t = lines[pos]
    head, colon, rest = t.partition(":")
    if head + colon not in ("selection regex:", "selection grammar:",
                            "selection dfa:"):
        raise TextFormatError(
            "expected 'selection regex:', 'selection grammar:' or "
            "'selection dfa:'", line=sel_line)
    kind, rest = head[len("selection "):], rest.strip()
    pos += 1

    block: list[tuple[int, str]] = []
    while pos < len(lines) and not (lines[pos][1].startswith("context:")
                                    or lines[pos][1] == "pair:"):
        block.append(lines[pos])
        pos += 1

    contexts = []
    while pos < len(lines) and lines[pos][1].startswith("context:"):
        ln, t = lines[pos]
        contexts.append(_parse_context(t[len("context:"):], alphabet, ln))
        pos += 1

    if kind == "regex":
        if block:
            raise TextFormatError("unexpected lines after a regex selection",
                                  line=block[0][0])
        try:
            r = parse_regex(rest, declared)
        except TextFormatError as e:  # at its column in the raw line
            raw = text.splitlines()[sel_line - 1]
            start = raw.index(rest, raw.index(":") + 1)
            raise TextFormatError(e.bare_message, line=sel_line,
                                  column=start + e.column) from None
        pair = SelectionPair.from_regex(declared, r, contexts)
    elif rest or not block:
        raise TextFormatError(f"{kind} selections start on the next line",
                              line=sel_line)
    elif kind == "grammar":
        pair = SelectionPair.from_grammar(parse_grammar_lines(block), contexts)
    else:
        pair = SelectionPair.from_dfa(_parse_dfa_lines(block), contexts)
    # the declared alphabet stays authoritative; validate() reports a mismatch
    return pair.replace(declared_alphabet=declared), pos
