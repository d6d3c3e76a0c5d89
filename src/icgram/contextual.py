"""Internal contextual grammars with regular selection.

A grammar is an alphabet V, a finite list of axioms over V, and a list of
selection pairs.  Each pair couples a regular selection language S over a
declared subalphabet U of V with a non-empty set of contexts (u, v), u and v
words over V with uv non-empty.  One derivation step rewrites
``x1 x2 x3  ->  x1 u x2 v x3`` whenever ``x2`` lies in some pair's selection
and (u, v) is one of that pair's contexts.  Every step strictly lengthens the
word, which is what makes bounded enumeration and exact membership both
terminate.

The engine compiles each grammar once, on first use: words become ``str`` with
one character per symbol, and each selection becomes rows over the states of
its minimal DFA, the dead state left out, and, when some symbol cannot start an
infix, a compiled finder of the positions one can start at (see
:class:`_Compiled`).  The forward step and enumeration wrap contexts around the
selected infixes that one scan finds, :func:`_spans`; enumeration closes one
length at a time on encoded words, scans all words of a length joined in one
string, decodes them once no step can reach their length, and skips steps that
only repeat a word: empty-infix steps commute, so they go at increasing
positions, an infix that the selection and contexts also allow one symbol
further left or right is taken only there, and (ε, v) inserts once per infix
end, with self-loops jumped (see :func:`enumerate_ic`).  The inverse step,
:func:`_predecessor_steps`, is one lazy generator that walks one flat table of
every pair's contexts, runs the same rows from each infix start a context's
left side ends at, and strips the contexts that enclose a selected infix.
Membership first compares the word's Parikh vector (its count of each
symbol), modulo the lattice the contexts span, with those of the axioms a
step applies to: every insertion adds a context's vector, so a word outside
all of their cosets is rejected before any search.  Otherwise it is a
depth-first search over inverse steps on an explicit stack, so no recursion
limit bounds the word length; it runs on encoded words end to end, keeps
only the words that failed, and stops with :class:`ResourceLimitError` once
it has explored more words than its ``frontier_cap``.

Construction is deliberately permissive: malformed grammars can be built and
then inspected with :func:`validate`, which returns the full list of
diagnostics; the engine operations reject invalid grammars, because
compiling a grammar validates it.
"""

from __future__ import annotations

import re
from functools import cached_property, partial
from typing import Iterable

from .automata import (Dfa, _distance_to_accepting, accepts, enumerate_regular,
                       equivalent, frontier_exceeded, language_is_finite,
                       minimize, nfa_to_dfa, regex_to_dfa)
from .errors import (DecompositionMismatchError, InvalidGrammarError,
                     NonFiniteSelectionError, ResourceLimitError)
from .families import DEFAULT_FRONTIER_CAP
from .regex import Regex, alt, seq, word_regex, Star, Literal
from .rlgrammar import RightLinearGrammar, Rule, grammar_to_nfa
from .words import (Alphabet, Record, Word, fresh_prefix, sort_words,
                    word_to_text)


class Context(Record):
    """An insertion context: ``left`` goes before the selected infix,
    ``right`` after it.  Validity (left+right non-empty, symbols in the
    grammar alphabet) is checked by :func:`validate`."""

    left: Word
    right: Word

    @property
    def weight(self) -> int:
        return len(self.left) + len(self.right)

    def to_text(self, alphabet: Alphabet | None = None) -> str:
        return (f"({word_to_text(self.left, alphabet)}, "
                f"{word_to_text(self.right, alphabet)})")

    __str__ = to_text


class SelectionPair(Record):
    """A selection language with its contexts.

    The selection is held as a complete DFA over ``declared_alphabet``; when
    the pair was written down as a regex or a right-linear grammar, that
    source form is retained verbatim (it serializes back out unchanged and
    doubles as a size certificate for resource questions).
    """

    declared_alphabet: Alphabet
    dfa: Dfa
    contexts: tuple[Context, ...]
    source_regex: Regex | None = None
    source_grammar: RightLinearGrammar | None = None

    @classmethod
    def from_regex(cls, declared: Alphabet, r: Regex,
                   contexts: Iterable[Context]) -> "SelectionPair":
        return cls(declared, regex_to_dfa(r, declared), tuple(contexts),
                   source_regex=r)

    @classmethod
    def from_grammar(cls, g: RightLinearGrammar,
                     contexts: Iterable[Context]) -> "SelectionPair":
        return cls(g.terminals, nfa_to_dfa(grammar_to_nfa(g)), tuple(contexts),
                   source_grammar=g)

    @classmethod
    def from_dfa(cls, d: Dfa, contexts: Iterable[Context]) -> "SelectionPair":
        return cls(d.alphabet, d, tuple(contexts))

    @classmethod
    def from_words(cls, declared: Alphabet, words: Iterable[Word],
                   contexts: Iterable[Context]) -> "SelectionPair":
        """Finite selection; keeps a one-nonterminal grammar as the source."""
        words = sort_words(set(words), declared)
        start = fresh_prefix("S", declared)
        g = RightLinearGrammar(
            (start,), declared,
            tuple(Rule(start, w, None) for w in words), start)
        return cls.from_grammar(g, contexts)

    def selects(self, w: Word) -> bool:
        """False for a symbol outside the declared or the DFA's alphabet."""
        return all(s in self.declared_alphabet and s in self.dfa.alphabet
                   for s in w) and accepts(self.dfa, w)


class ContextualGrammar(Record):
    alphabet: Alphabet
    axioms: tuple[Word, ...]
    pairs: tuple[SelectionPair, ...]

    def __post_init__(self):
        deduped = tuple(dict.fromkeys(self.axioms))
        if deduped != self.axioms:
            object.__setattr__(self, "axioms", deduped)

    @cached_property
    def _problems(self) -> list[Diagnostic]:
        """:func:`validate`'s findings, computed once per grammar."""
        return validate(self)

    @cached_property
    def _compiled(self) -> "_Compiled":
        """The engine's form of the grammar, built on first use; raises
        :class:`InvalidGrammarError` for an invalid grammar."""
        return _Compiled(self)


class _Compiled:
    """A grammar compiled for the derivation engine.

    Words are encoded as ``str``, one character per symbol, so slicing and
    hashing a long word is cheap: a one-character symbol is its own code (so
    ``decode`` is ``tuple``), else the k-th symbol is ``chr(k)``, which
    ``spell`` maps back; ``code`` and ``symbol`` map between the two forms.
    ``sep``, the first character that is no code, has no entry in any row,
    so no infix crosses it.  Per pair, the rows are those of the selection's
    minimal DFA (:func:`minimize`) but its dead state, the one that cannot
    accept, numbered as there with that state left out, so the initial state
    is 0; ``rows[q]`` maps a code to the next state, with no entry for a
    foreign symbol or a move into the dead state, and ``acc[q]`` tells
    whether q accepts.  The rows are empty when the selection is.  Unless
    row 0 is empty or has every code, ``starts`` is the ``finditer`` of a
    class over row 0's codes, which finds in C the only positions a
    non-empty infix can start at; otherwise it is None (a finder that
    matches nearly every position costs more than it saves).  ``loops[q]``
    has the codes that loop at q: in a minimal DFA, a letter that keeps the
    language keeps the state.  Each context comes as ``(context, encoded
    left, encoded right, weight)``, and each pair as ``(rows, acc, starts,
    contexts, loops)``.  ``plans`` keeps, per room up
    to ``widest`` (the widest context), the steps :func:`enumerate_ic`
    tries.  ``inverse`` has ``(pair index, rows, acc, rows[0], acc[0],
    context, encoded left, encoded right, their lengths)`` per context of a
    pair that selects something, in order, for :func:`_predecessor_steps`;
    ``longest`` is the longest axiom's length.

    ``lattice`` is an echelon basis, ``(pivot column, row)`` pairs with
    positive pivots by column, of the lattice spanned by the Parikh vectors
    of ``u + v`` over the contexts of the pairs that select something, and
    ``residues`` the reduced vectors (:meth:`residue`) of the axioms with a
    selected infix: each step adds a lattice vector, so every derived word
    but an axiom has one of them.

    Compiling validates the grammar first, so an invalid grammar raises
    :class:`InvalidGrammarError` on every engine call (a ``cached_property``
    does not cache a raise), and a valid one is checked only once.
    """

    def __init__(self, g: ContextualGrammar):
        ensure_valid(g)
        self.alphabet = g.alphabet
        plain = all(len(a) == 1 for a in g.alphabet)
        self.code = {a: a if plain else chr(k) for k, a in enumerate(g.alphabet)}
        self.symbol = {c: a for a, c in self.code.items()}
        self.sep = next(x for x in map(chr, range(len(g.alphabet) + 1))
                        if x not in self.symbol)
        self.spell = None if plain else partial(map, self.symbol.__getitem__)
        self.axioms = frozenset(map(self.encode, g.axioms))
        self.pairs = tuple(self._pair(pair) for pair in g.pairs)
        live = [pair for pair in self.pairs if pair[0]]
        self.inverse = tuple((k, rows, acc, rows[0], acc[0], ctx, u, v, len(u), len(v))
                             for k, (rows, acc, _, contexts, _) in enumerate(self.pairs)
                             if rows for ctx, u, v, _ in contexts)
        self.longest = max(map(len, self.axioms), default=0)
        basis: dict[int, list[int]] = {}
        for *_, contexts, _ in live:
            for _, u, v, _ in contexts:
                x = [(u + v).count(c) for c in self.symbol]
                for p in range(len(x)):
                    r = basis.get(p, [0] * len(x))
                    while x[p]:  # Euclid on rows: a unimodular change
                        q = r[p] // x[p]
                        r, x = x, [a - q * b for a, b in zip(r, x)]
                    if r[p]:
                        basis[p] = r if r[p] > 0 else [-e for e in r]
        self.lattice = sorted(basis.items())
        self.widest = max((k for *_, contexts, _ in live for *_, k in contexts), default=0)
        self.plans: dict[int, tuple] = {}
        self.residues = {self.residue(a) for a in self.axioms
                         if any(next(_spans(rows, acc, starts, a), None)
                                for rows, acc, starts, *_ in live)}

    def _pair(self, pair: SelectionPair):
        dm = minimize(pair.dfa)  # every state reachable, so useful if it can accept
        number = {q: k for k, q in enumerate(sorted(_distance_to_accepting(dm)))}
        rows = tuple({self.code[a]: number[t] for a, row in zip(dm.alphabet, dm.rows)
                      if (t := row[q]) in number} for q in number)
        acc = tuple(dm.final[q] for q in number)
        starts = None
        if rows and 0 < len(rows[0]) < len(self.code):
            codes = "".join(map(re.escape, rows[0]))
            starts = re.compile(f"[{codes}]").finditer
        contexts = tuple((ctx, self.encode(ctx.left), self.encode(ctx.right),
                          ctx.weight) for ctx in pair.contexts)
        loops = tuple("".join(a for a in row if row[a] == q) for q, row in enumerate(rows))
        return rows, acc, starts, contexts, loops

    def residue(self, s: str) -> tuple[int, ...]:
        """The Parikh vector of an encoded word, reduced by the lattice
        basis in pivot order: equal for two words exactly when their
        vectors differ by a sum of context vectors."""
        x = [s.count(c) for c in self.symbol]
        for p, r in self.lattice:
            if q := x[p] // r[p]:
                x = [a - q * b for a, b in zip(x, r)]
        return tuple(x)

    def encode(self, w: Word) -> str:
        """Raises :class:`AlphabetMismatchError` for a foreign symbol."""
        try:
            return "".join(map(self.code.__getitem__, w))
        except KeyError:
            self.alphabet.check_word(w)
            raise

    def decode(self, s: str) -> Word:
        return tuple(self.spell(s) if self.spell else s)


class Diagnostic(Record):
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def validate(g: ContextualGrammar) -> list[Diagnostic]:
    """All structural problems of the grammar; empty list means well-formed."""
    problems: list[Diagnostic] = []
    for i, w in enumerate(g.axioms):
        for s in w:
            if s not in g.alphabet:
                problems.append(Diagnostic(
                    f"axiom {i + 1}", f"symbol {s!r} not in the alphabet"))
                break
    for i, pair in enumerate(g.pairs):
        where = f"pair {i + 1}"
        if not pair.declared_alphabet.is_subset_of(g.alphabet):
            problems.append(Diagnostic(
                where, "declared subalphabet is not a subset of the alphabet"))
        if pair.dfa.alphabet != pair.declared_alphabet:
            problems.append(Diagnostic(
                where, "selection automaton alphabet differs from the "
                       "declared subalphabet"))
        if pair.source_grammar is not None \
                and pair.source_grammar.terminals != pair.declared_alphabet:
            problems.append(Diagnostic(
                where, "selection grammar terminals differ from the declared "
                       "subalphabet"))
        if not pair.contexts:
            problems.append(Diagnostic(where, "pair has no contexts"))
        for j, ctx in enumerate(pair.contexts):
            cwhere = f"{where}, context {j + 1}"
            if not ctx.left and not ctx.right:
                problems.append(Diagnostic(cwhere, "empty context (both sides empty)"))
            for s in ctx.left + ctx.right:
                if s not in g.alphabet:
                    problems.append(Diagnostic(
                        cwhere, f"symbol {s!r} not in the alphabet"))
                    break
    return problems


def ensure_valid(g: ContextualGrammar) -> None:
    problems = g._problems
    if problems:
        raise InvalidGrammarError(
            f"invalid contextual grammar ({len(problems)} problem(s)): "
            + "; ".join(str(p) for p in problems),
            diagnostics=problems)


class DerivationStep(Record):
    """One internal insertion, fully annotated: the source splits as
    x1 x2 x3 and the target is x1 . left . x2 . right . x3."""

    source: Word
    x1: Word
    x2: Word
    x3: Word
    pair_index: int
    context: Context
    target: Word

    def to_text(self, alphabet: Alphabet | None = None) -> str:
        """One line; pass the grammar's alphabet so that every word reads
        back with ``word_from_text``."""
        source, target, x2 = (word_to_text(w, alphabet)
                              for w in (self.source, self.target, self.x2))
        return (f"{source} => {target}  [pair {self.pair_index + 1}, "
                f"{self.context.to_text(alphabet)}, infix {x2}]")

    __str__ = to_text


def _step(source: Word, pair_index: int, ctx: Context, i: int, j: int
          ) -> DerivationStep:
    """The insertion of ``ctx`` around ``source[i:j]``, annotated."""
    x1, x2, x3 = source[:i], source[i:j], source[j:]
    return DerivationStep(source, x1, x2, x3, pair_index, ctx,
                          x1 + ctx.left + x2 + ctx.right + x3)


def _spans(rows: tuple[dict, ...], acc: tuple[bool, ...], starts, s: str,
           skip: str | None = None, right: str = "", jumps=None):
    """Every ``(i, j)`` with ``s[i:j]`` in a pair's selection, ordered by
    ``i`` and then ``j``, for the forward step and :func:`enumerate_ic`.
    ``s`` is an encoded word, or several joined by ``sep``, and
    ``rows``/``acc``/``starts`` are the pair's compiled rows and start
    finder (see :class:`_Compiled`).  With a finder, only the positions it
    matches, those whose code has an entry in row 0, can start a non-empty
    infix; else every position is tried.  Given a string of codes ``skip``,
    only non-empty infixes are found, none of them right after a code in
    ``skip``, nor right before a code in ``right`` that moves the scan on to
    an accepting state.  The scan runs once from each start and stops at a
    code with no entry in the current row: a symbol outside the subalphabet,
    or a move into the dead state.  With ``jumps`` from :func:`enumerate_ic`
    it jumps each run of ``loops[q]`` at a state q that takes no end in it."""
    if not rows:
        return
    n = len(s)
    found = (range(n + 1) if starts is None or skip is None and acc[0]
             else map(re.Match.start, starts(s)))
    if jumps:  # per set of loops, "1" at each of their codes in s, "0" at others
        loops, marks = jumps[0], {l: s.translate(t) + "0" for l, t in jumps[1].items()}
    for i in found:
        if skip and i and s[i - 1] in skip:
            continue
        q, j = 0, i
        if acc[0] and skip is None:
            yield i, i
        if jumps:
            while True:
                if loops[q]:  # jump the run of q's loops from j
                    j = marks[loops[q]].find("0", j)
                if j > i and acc[q] and not (j < n and s[j] in right and (
                        t := rows[q].get(s[j])) is not None and acc[t]):
                    yield i, j
                if j == n or (q := rows[q].get(s[j])) is None:
                    break
                j += 1
            continue
        while j < n:
            q = rows[q].get(s[j])
            if q is None:
                break
            j += 1
            if acc[q] and not (j < n and s[j] in right and (
                    t := rows[q].get(s[j])) is not None and acc[t]):
                yield i, j


def derive_step(g: ContextualGrammar, w: Word) -> tuple[DerivationStep, ...]:
    """All single-step successors of ``w``, in deterministic order
    (pair index, infix start, infix end, context order)."""
    c = g._compiled
    s = c.encode(w)
    return tuple(_step(w, pair_index, ctx, i, j)
                 for pair_index, (rows, acc, starts, contexts, _) in enumerate(c.pairs)
                 for i, j in _spans(rows, acc, starts, s)
                 for ctx, _, _, _ in contexts)


def enumerate_ic(g: ContextualGrammar, max_len: int, *,
                 frontier_cap: int = DEFAULT_FRONTIER_CAP) -> set[Word]:
    """Every derivable word of length <= max_len.

    Exact: steps strictly grow words, so the closure below the bound is
    finite.  It runs on encoded words one length at a time, shortest first:
    ``levels[n]`` maps each word of length n found so far to its bound, and
    a length popped, which no step reaches again, goes to the result; steps
    that only repeat a word are skipped.  Empty-infix steps commute, so
    after one at p they go only at p + 1 on; a word's bound is the least
    such p + 1 over the ways it is made (0 for an axiom or a non-empty
    infix).  Non-empty infixes go in one scan of the length's words, joined
    by ``sep``, per group of a pair's contexts.  Two-sided contexts group by
    the codes c of ``loops[0]`` that ``u`` is a power of: an infix right
    after such a c is selected with c in front too, so it is skipped, and
    so is one right before a code b that each ``v`` of the group is empty
    or a power of when the selection also takes it with b behind.  Contexts
    (ε, v) form one group, whose word ``s[:j] v s[j:]`` depends on the end j
    only: each end is taken once per v, but not when j − |ρ| is an end and
    ``s[j−|ρ|:j]`` is ρ, the primitive root of v, nor when j − 1 is an end,
    ``s[j−1]`` is ``v[−1]`` and ``s[j−1] v[:−1]`` is in the group.  A skip
    moves a step strictly left, or right for b, never both in a group, so
    every chain of skips ends at a step taken.  More than ``frontier_cap``
    words found, the axioms included, raise :class:`ResourceLimitError`.
    """
    c = g._compiled
    levels: dict[int, dict[str, int]] = {}
    for s in c.axioms:
        if len(s) <= max_len:
            levels.setdefault(len(s), {})[s] = 0
    if (made := sum(map(len, levels.values()))) > frontier_cap:
        raise frontier_exceeded(frontier_cap, made)
    out: set[Word] = set()
    widest, plans, sep = c.widest, c.plans, c.sep
    while levels:
        size = min(levels)
        words = levels.pop(size)
        if not words:
            continue
        room = max_len - size if max_len - size < widest else widest
        if room not in plans:  # a scan per group of contexts sliding at the same codes
            empty, scans = [], []
            for rows, acc, starts, contexts, loops in c.pairs:
                fits = [e[1:] for e in contexts if rows and e[3] <= room]
                if fits and acc[0]:
                    empty += [u + v for u, v, _ in fits]
                groups: dict[str | None, list] = {}
                for u, v, k in fits:  # None: the one-sided contexts
                    skip = "".join(a for a in loops[0] if u == a * len(u)) if u else None
                    groups.setdefault(skip, []).append((u, v, k))
                for skip, group in groups.items():
                    right = "".join(a for a in c.symbol
                                    if all(v == a * len(v) for _, v, _ in group))
                    if point := skip is None:  # (v, root, |root| > 1, v[-1] if rotated)
                        skip, right, rights = loops[0], "", {v for _, v, _ in group}
                        group = [(v, v[:(r := (v + v).find(v, 1))], r > 1 and r,
                                  v[-1] if v[-1] + v[:-1] in rights else "", k)
                                 for _, v, k in group]
                    # a state jumps its loops when it takes no end inside their runs
                    jump = ["" if a and l.strip(right) else l for l, a in zip(loops, acc)]
                    tables = {l: {ord(a): "01"[a in l] for a in (*c.symbol, sep)}
                              for l in jump if l}
                    scans.append((rows, acc, starts, group, skip, right,
                                  tables and (jump, tables), point))
            plans[room] = empty, scans
        empty, scans = plans[room]
        targets = [(x, levels.setdefault(size + len(x), {})) for x in empty]
        for s, bound in words.items() if empty else ():
            for p in range(bound, size + 1):
                x1, x3 = s[:p], s[p:]
                for x, level in targets:
                    t = f"{x1}{x}{x3}"
                    b = level.get(t)
                    if b is None and (made := made + 1) > frontier_cap:
                        raise frontier_exceeded(frontier_cap, made)
                    if b is None or b > p:
                        level[t] = p + 1
        joined, stride = sep.join(words), size + 1
        for rows, acc, starts, group, skip, right, jumps, point in scans:
            targets = [(*e[:-1], levels.setdefault(size + e[-1], {})) for e in group]
            spans = _spans(rows, acc, starts, joined, skip, right, jumps)
            if point:
                for j in (ends := {j for _, j in spans}):
                    start, x1 = j - j % stride, None  # of the word the end is in
                    back = joined[j - 1] if j - 1 in ends else sep
                    for v, root, r, last, level in targets:
                        if back == last or r and j - r in ends and joined[j - r:j] == root:
                            continue
                        if x1 is None:
                            x1, x3 = joined[start:j], joined[j:start + size]
                        t = f"{x1}{v}{x3}"
                        if t not in level and (made := made + 1) > frontier_cap:
                            raise frontier_exceeded(frontier_cap, made)
                        level[t] = 0
                continue
            for i, j in spans:
                start = i - i % stride  # of the word the span is in
                x1, x2, x3 = joined[start:i], joined[i:j], joined[j:start + size]
                for u, v, level in targets:
                    t = f"{x1}{u}{x2}{v}{x3}"
                    if t not in level and (made := made + 1) > frontier_cap:
                        raise frontier_exceeded(frontier_cap, made)
                    level[t] = 0
        out.update(map(tuple, map(c.spell, words) if c.spell else words))
    return out


def _predecessor_steps(c: _Compiled, s: str):
    """Inverse steps on an encoded word: every way to read ``s`` as
    x1 u x2 v x3 with x2 in some selection, as ``(x1 x2 x3, pair index,
    context, i, j)`` with the predecessor encoded and x2 at ``[i:j]`` of it;
    ordered by pair, context, infix start and infix end.

    Lazy, in one frame, because the search often needs only the first
    predecessor.  Per entry of ``c.inverse`` it walks the infix starts of
    ``s``: a start that ``u`` does not end at, or (unless the empty word is
    selected) whose first code has no entry in row 0, is skipped without a
    scan; from the others the compiled rows run as in :func:`_spans`."""
    n = len(s)
    for pair_index, rows, acc, row0, every, ctx, u, v, lu, lv in c.inverse:
        for i in range(lu, n + 1 if every else n):
            if not (every or s[i] in row0) or not s.startswith(u, i - lu):
                continue
            q, j = 0, i
            while True:
                if acc[q] and s.startswith(v, j):
                    yield (s[:i - lu] + s[i:j] + s[j + lv:], pair_index,
                           ctx, i - lu, j - lu)
                if j == n:
                    break
                q = rows[q].get(s[j])
                if q is None:
                    break
                j += 1


def _derivation(g: ContextualGrammar, w: Word, frontier_cap: int
                ) -> list | None:
    """The inverse steps from ``w`` back to an axiom, or None: at once
    when ``w``'s residue is no extendable axiom's (see :class:`_Compiled`;
    inverse steps keep the residue, so it is checked once), else
    depth-first over :func:`_predecessor_steps`, on encoded words.  Inverse
    steps shorten the word, so a word met again is not on the chain and has
    failed already: only failed words are kept, and a word is hashed only
    to look it up among them or, if no longer than ``longest``, the axioms.
    More than ``frontier_cap`` words explored, ``w`` included, raise
    :class:`ResourceLimitError`."""
    c = g._compiled
    axioms = c.axioms
    s = c.encode(w)
    if s in axioms:
        return []
    if c.residue(s) not in c.residues:
        return None
    longest, failed, explored = c.longest, set(), 1
    steps, gens = [], [_predecessor_steps(c, s)]
    while gens:
        for step in gens[-1]:
            p = step[0]
            if len(p) <= longest and p in axioms:
                return steps + [step]
            if failed and p in failed:
                continue
            explored += 1
            if explored > frontier_cap:
                raise ResourceLimitError(
                    f"membership search exceeded {frontier_cap} words",
                    cap=frontier_cap, reached=explored)
            steps.append(step)
            gens.append(_predecessor_steps(c, p))
            break
        else:
            gens.pop()
            failed.add(steps.pop()[0] if steps else s)
    return None


def member_ic(g: ContextualGrammar, w: Word, *,
              frontier_cap: int = DEFAULT_FRONTIER_CAP) -> bool:
    """Exact membership: a depth-first search for a chain of inverse steps
    from ``w`` down to an axiom (each one strictly shortens the word, so the
    search space is finite).  A word whose Parikh residue no extendable
    axiom shares is rejected before any search, whatever the cap.  The
    search runs on encoded words and keeps only the words that failed; more
    than ``frontier_cap`` explored words raise :class:`ResourceLimitError`."""
    return _derivation(g, w, frontier_cap) is not None


def member_trace(g: ContextualGrammar, w: Word, *,
                 frontier_cap: int = DEFAULT_FRONTIER_CAP
                 ) -> tuple[DerivationStep, ...] | None:
    """A derivation of ``w`` from an axiom as a forward step sequence, or
    None when ``w`` is not in the language.  Axioms get the empty trace.
    It is the chain :func:`member_ic` finds, read from the axiom up, under
    the same ``frontier_cap`` and after the same Parikh-residue check."""
    path = _derivation(g, w, frontier_cap)
    if path is None:
        return None
    decode = g._compiled.decode
    return tuple(_step(decode(p), k, ctx, i, j)
                 for p, k, ctx, i, j in reversed(path))


def _pair_selection_words(pair: SelectionPair) -> list[Word]:
    dm = minimize(pair.dfa)
    if not language_is_finite(dm):
        raise NonFiniteSelectionError(
            "selection language is infinite; only finite selections can be "
            "split into singletons")
    words = enumerate_regular(dm, len(dm.states) - 1)
    return sort_words(words, pair.declared_alphabet)


def split_finite_selection(g: ContextualGrammar) -> ContextualGrammar:
    """Replace every (finite) selection by one singleton pair per word.

    The derivation relation is unchanged step for step; each new pair carries
    a one-nonterminal, one-rule grammar as its certificate.  Pairs whose
    selection is empty select nothing and are simply dropped.
    """
    ensure_valid(g)
    new_pairs: list[SelectionPair] = []
    for pair in g.pairs:
        for w in _pair_selection_words(pair):
            new_pairs.append(SelectionPair.from_words(
                pair.declared_alphabet, [w], pair.contexts))
    return ContextualGrammar(g.alphabet, g.axioms, tuple(new_pairs))


def split_definite_selection(
        g: ContextualGrammar,
        decompositions: Iterable[tuple[Iterable[Word], Iterable[Word]]],
) -> ContextualGrammar:
    """Split each selection S, given as S = A  ∪  U*B with A, B finite, into
    a finite pair (selection A) and a suffix pair (selection U*B).

    The claimed decomposition is verified by automaton equivalence before it
    is used; a mismatch raises :class:`DecompositionMismatchError`.  Empty
    parts produce no pair.
    """
    ensure_valid(g)
    decs = list(decompositions)
    if len(decs) != len(g.pairs):
        raise DecompositionMismatchError(
            f"{len(g.pairs)} pairs but {len(decs)} decompositions")
    new_pairs: list[SelectionPair] = []
    for index, (pair, (a_words, b_words)) in enumerate(zip(g.pairs, decs)):
        u = pair.declared_alphabet
        a_words = sort_words(set(a_words), u)
        b_words = sort_words(set(b_words), u)
        claimed = alt([word_regex(w) for w in a_words]
                      + [seq([Star(alt([Literal(s) for s in u])),
                              word_regex(w)]) for w in b_words])
        if not equivalent(regex_to_dfa(claimed, u), pair.dfa):
            raise DecompositionMismatchError(
                f"pair {index + 1}: A ∪ U*B does not equal the selection")
        if a_words:
            new_pairs.append(SelectionPair.from_words(u, a_words, pair.contexts))
        if b_words:
            start = fresh_prefix("S", u)
            rules = tuple(Rule(start, (s,), start) for s in u) + \
                tuple(Rule(start, w, None) for w in b_words)
            suffix_grammar = RightLinearGrammar((start,), u, rules, start)
            new_pairs.append(SelectionPair.from_grammar(suffix_grammar,
                                                        pair.contexts))
    return ContextualGrammar(g.alphabet, g.axioms, tuple(new_pairs))
