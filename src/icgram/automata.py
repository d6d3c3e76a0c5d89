"""Finite automata over explicit alphabets.

Two machine types:

* :class:`Nfa` — nondeterministic, epsilon-free, with a *set* of initial
  states.  Produced by the regex and grammar compilers; the regex one is the
  position construction, one walk of the tree in which ``∅`` is a leaf.
* :class:`Dfa` — deterministic and always complete (the transition function
  is total; unproductive behaviour is routed through an explicit sink that is
  counted like any other state).

Every search walks state positions on the integer view of a :class:`Dfa`,
its ``rows``, ``start`` and ``final`` (a pair of states is the int
``p*n + q``), through one of two helpers, the one place that fixes discovery
order (FIFO, letters in alphabet order, the first discovery of a node
wins): :func:`bfs_tree` links each node to its parent, so that
:func:`path_word` spells only the words a caller returns, and :func:`_explore`
numbers the reachable part of a successor function ``0..n-1`` as a
:class:`Dfa`.  So every witness word is shortlex-least, and equal languages
fed through :func:`minimize` yield equal objects.
:func:`_distance_to_accepting`, :func:`_longest_word_length` and
:func:`enumerate_regular` each walk on their own: they return distances, a
length and a set of words, which no discovery order changes.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Hashable, Iterator, Mapping, Sequence

from .errors import (AlphabetMismatchError, InvalidAutomatonError,
                     ResourceLimitError, TextFormatError, at_line)
from .families import DEFAULT_FRONTIER_CAP
from .regex import EmptyWord, Literal, Concat, Union, Star, Regex, fold
from .words import EMPTY_WORD, Alphabet, Record, Word, clean_lines

State = Hashable


class Nfa(Record):
    """Epsilon-free NFA; ``initial`` is a set of states.

    ``transitions`` maps ``(state, symbol)`` to a frozenset of successor
    states; missing keys mean no move.
    """

    states: frozenset
    alphabet: Alphabet
    transitions: Mapping[tuple[State, str], frozenset]
    initial: frozenset
    accepting: frozenset

    def __post_init__(self):
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise InvalidAutomatonError("initial/accepting states outside state set")
        for (q, a), targets in self.transitions.items():
            if q not in self.states or not targets <= self.states:
                raise InvalidAutomatonError(f"transition on unknown state: {(q, a)}")
            if a not in self.alphabet:
                raise InvalidAutomatonError(f"transition on foreign symbol {a!r}")

    def move(self, subset: frozenset, symbol: str) -> frozenset:
        out: set = set()
        for q in subset:
            out |= self.transitions.get((q, symbol), frozenset())
        return frozenset(out)


class Dfa(Record):
    """Complete DFA.  ``states`` is an ordered tuple; ``delta`` is total."""

    states: tuple
    alphabet: Alphabet
    delta: Mapping[tuple[State, str], State]
    initial: State
    accepting: frozenset

    def __post_init__(self):
        sset = set(self.states)
        if len(sset) != len(self.states):
            raise InvalidAutomatonError("duplicate states")
        if self.initial not in sset or not self.accepting <= sset:
            raise InvalidAutomatonError("initial/accepting states outside state set")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise InvalidAutomatonError(
                        f"incomplete transition function: missing ({q!r}, {a!r})")
        symbols = set(self.alphabet.symbols)
        for (q, a), t in self.delta.items():
            if q not in sset or t not in sset:
                raise InvalidAutomatonError(f"transition on unknown state: {(q, a)}")
            if a not in symbols:
                raise InvalidAutomatonError(f"transition on foreign symbol {a!r}")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """``delta`` as integers: one row per letter, in alphabet order, whose
        entry ``i`` is the position in ``states`` of the image of
        ``states[i]``.  Cached outside the fields, so equality ignores it."""
        index = {q: i for i, q in enumerate(self.states)}
        return tuple(tuple(index[self.delta[(q, a)]] for q in self.states)
                     for a in self.alphabet)

    @cached_property
    def start(self) -> int:
        """The position of ``initial`` in ``states``, cached as ``rows`` is."""
        return next(i for i, q in enumerate(self.states) if q == self.initial)

    @cached_property
    def final(self) -> tuple[bool, ...]:
        """Whether each state, by position, is accepting; cached as ``rows`` is."""
        return tuple(q in self.accepting for q in self.states)

    def run(self, w: Word, start: State | None = None) -> State:
        q = self.initial if start is None else start
        for a in w:
            if a not in self.alphabet:
                raise AlphabetMismatchError(f"symbol {a!r} not in automaton alphabet")
            q = self.delta[(q, a)]
        return q


def compose(t: tuple[int, ...], g: Sequence[int]) -> tuple[int, ...]:
    """The transformation "apply ``t``, then ``g``", stored as ``Dfa.rows``
    stores a letter's: entry ``i`` is ``g[t[i]]``."""
    # itemgetter with one index returns the element, not a 1-tuple
    return itemgetter(*t)(g) if len(t) > 1 else (g[t[0]],)


def accepts(d: Dfa, w: Word) -> bool:
    return d.run(w) in d.accepting


# --- breadth-first search -----------------------------------------------

def bfs_tree(start, successors: Callable) -> tuple[Iterator, list]:
    """The nodes reachable from ``start`` in breadth-first discovery order,
    and the list of links the walk fills: ``links[j] == (k, i)`` when the
    ``j``-th node was first reached from the ``k``-th by the letter of index
    ``i`` (``links[0]`` is None).  ``successors(node)`` lists a node's images
    letter by letter, ``None`` for no move.  A node is yielded as soon as it
    is found, so a caller that stops early expands nothing beyond it."""
    links: list = [None]
    return _walk(start, successors, links), links


def _walk(start, successors: Callable, links: list) -> Iterator:
    yield start
    order, seen = [start], {start}
    for k, node in enumerate(order):  # grows while it is read
        for i, t in enumerate(successors(node)):
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
                links.append((k, i))
                yield t


def path_word(links: list, j: int, alphabet: Alphabet) -> Word:
    """The word of the ``j``-th node of a :func:`bfs_tree` walk."""
    letters = []
    while (link := links[j]) is not None:
        j, i = link
        letters.append(alphabet.symbols[i])
    return tuple(reversed(letters))


def _all_words(walk: Iterator, links: list, alphabet: Alphabet) -> Iterator:
    """``(node, word)`` for each node of a :func:`bfs_tree` walk."""
    letters, words = alphabet.symbols, []
    for node, link in zip(walk, links):  # a node is linked before it is yielded
        w = EMPTY_WORD if link is None else words[link[0]] + (letters[link[1]],)
        words.append(w)
        yield node, w


def _explore(alphabet: Alphabet, start, successors: Callable,
             is_accepting: Callable) -> Dfa:
    """The part of a total ``successors`` reachable from ``start``, as a
    :class:`Dfa` on ``0..n-1`` in discovery order, its rows filled on the way."""
    ids, order, delta, accepting = {start: 0}, [start], {}, set()
    rows: list[list[int]] = [[] for _ in alphabet]
    for i, node in enumerate(order):  # grows while it is read
        if is_accepting(node):
            accepting.add(i)
        for a, row, t in zip(alphabet.symbols, rows, successors(node)):
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
            row.append(j := ids[t])
            delta[(i, a)] = j
    d = Dfa(tuple(range(len(order))), alphabet, delta, 0, frozenset(accepting))
    vars(d)["rows"] = tuple(map(tuple, rows))  # where the cached property keeps it
    return d


def _product(d1: Dfa, d2: Dfa, op: str) -> tuple[Callable, Callable]:
    """Successors of the pair ``p*n2 + q`` of positions in two automata over
    one alphabet, and whether ``_BOOL_OPS[op]`` holds of its acceptance."""
    fn, n2 = _BOOL_OPS[op], len(d2.states)
    rows, f1, f2 = list(zip(d1.rows, d2.rows)), d1.final, d2.final
    return (lambda x: [r1[x // n2] * n2 + r2[x % n2] for r1, r2 in rows],
            lambda x: fn(f1[x // n2], f2[x % n2]))


# --- compilers ----------------------------------------------------------

def regex_to_nfa(r: Regex, alphabet: Alphabet) -> Nfa:
    """Position (Glushkov) construction in one :func:`fold` that gives each
    node (nullable, first, last): state 0 starts, each literal occurrence is
    a state, numbered left to right and checked against ``alphabet``, so an
    error names the leftmost foreign one, and ``∅`` has no positions."""
    symbol_of: dict[int, str] = {}
    follow: dict[int, set[int]] = {}

    def positions(node: Regex, kids: list) -> tuple[bool, list, list]:
        if isinstance(node, Literal):
            if node.symbol not in alphabet:
                raise AlphabetMismatchError(
                    f"regex literal {node.symbol!r} not in alphabet")
            p = len(symbol_of) + 1
            symbol_of[p] = node.symbol
            follow[p] = set()
            return False, [p], [p]
        if isinstance(node, Star):
            (_, first, last), = kids
            for x in last:
                follow[x].update(first)
            return True, first, last
        if isinstance(node, Union):
            return (any(n for n, _, _ in kids), [p for _, f, _ in kids for p in f],
                    [p for _, _, l in kids for p in l])
        if not isinstance(node, Concat):  # ∅ or the empty word
            return isinstance(node, EmptyWord), [], []
        nullable, first, last = True, [], []
        for n, f, l in kids:
            for x in last:
                follow[x].update(f)
            first = first + f if nullable else first
            last = last + l if n else l
            nullable = nullable and n
        return nullable, first, last

    nullable, first, last = fold(r, positions)
    follow[0] = set(first)
    moves: dict[tuple[State, str], set] = {}
    for q, targets in follow.items():
        for p in targets:
            moves.setdefault((q, symbol_of[p]), set()).add(p)
    accepting = frozenset(last) | (frozenset([0]) if nullable else frozenset())
    return Nfa(frozenset(follow), alphabet,
               {key: frozenset(val) for key, val in moves.items()},
               frozenset([0]), accepting)


def nfa_to_dfa(n: Nfa) -> Dfa:
    """Subset construction; the empty subset acts as the sink, so the result
    is complete.  States are renumbered 0,1,... in discovery order."""
    return _explore(n.alphabet, frozenset(n.initial),
                    lambda subset: [n.move(subset, a) for a in n.alphabet.symbols],
                    lambda subset: bool(subset & n.accepting))


def regex_to_dfa(r: Regex, alphabet: Alphabet) -> Dfa:
    return nfa_to_dfa(regex_to_nfa(r, alphabet))


# --- minimization and comparison ----------------------------------------

def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA: the states merged by Moore partition refinement
    over the letter rows, the blocks reachable from the initial state's
    renumbered breadth-first.  Two inputs with the same language minimize to
    structurally equal objects."""
    block = [0 if f else 1 for f in d.final]
    count = len(set(block))
    while True:
        signatures = list(zip(block, *(compose(row, block) for row in d.rows)))
        ids: dict[tuple, int] = {}
        new_block = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    # canonical renumber by BFS over blocks; any member stands for its block
    rep = dict(zip(block, range(len(block))))
    return _explore(d.alphabet, block[d.start],
                    lambda b: [block[row[rep[b]]] for row in d.rows],
                    lambda b: d.final[rep[b]])


def _check_same_alphabet(d1: Dfa, d2: Dfa) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {list(d1.alphabet)} vs {list(d2.alphabet)}")


_BOOL_OPS: dict[str, Callable[[bool, bool], bool]] = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
    "symmetric_difference": lambda x, y: x != y,
}


def _pair_word(d1: Dfa, p: int, d2: Dfa, q: int, op: str) -> Word | None:
    """Shortlex-least word on which ``_BOOL_OPS[op]`` holds of its acceptance
    from position ``p`` in ``d1`` and position ``q`` in ``d2``, or None."""
    if _BOOL_OPS[op](d1.final[p], d2.final[q]):
        return EMPTY_WORD  # the start pair holds: no product to build
    successors, holds = _product(d1, d2, op)
    walk, links = bfs_tree(p * len(d2.states) + q, successors)
    for j, x in enumerate(walk):
        if holds(x):
            return path_word(links, j, d1.alphabet)
    return None


def distinguishing_word(d1: Dfa, d2: Dfa) -> Word | None:
    """Shortest word accepted by exactly one of the two automata, or None."""
    _check_same_alphabet(d1, d2)
    return _pair_word(d1, d1.start, d2, d2.start, "symmetric_difference")


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    return distinguishing_word(d1, d2) is None


def combine(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Product automaton for a boolean combination (reachable part only)."""
    _check_same_alphabet(d1, d2)
    if op not in _BOOL_OPS:
        raise ValueError(f"unknown op {op!r}; use one of {sorted(_BOOL_OPS)}")
    return _explore(d1.alphabet, d1.start * len(d2.states) + d2.start,
                    *_product(d1, d2, op))


def complement(d: Dfa) -> Dfa:
    c = d.replace(accepting=frozenset(q for q, f in zip(d.states, d.final) if not f))
    vars(c)["rows"] = d.rows  # the same table, so the cached property's value
    return c


# --- queries ------------------------------------------------------------

def shortest_accepted(d: Dfa, start: int | None = None) -> Word | None:
    """Shortlex-least word accepted from position ``start`` (default: the
    initial state's), or None when none is."""
    walk, links = bfs_tree(d.start if start is None else start,
                           lambda q: [row[q] for row in d.rows])
    for j, q in enumerate(walk):
        if d.final[q]:
            return path_word(links, j, d.alphabet)
    return None


def _distance_to_accepting(d: Dfa) -> dict[int, int]:
    """Shortest suffix length into acceptance from each position that has one."""
    back: list[list[int]] = [[] for _ in d.states]
    for row in d.rows:
        for q, t in enumerate(row):
            back[t].append(q)
    order = [q for q, f in enumerate(d.final) if f]
    dist = dict.fromkeys(order, 0)
    for t in order:  # grows while it is read
        for q in back[t]:
            if q not in dist:
                dist[q] = dist[t] + 1
                order.append(q)
    return dist


def enumerate_regular(d: Dfa, max_len: int, *,
                      frontier_cap: int = DEFAULT_FRONTIER_CAP) -> set[Word]:
    """All accepted words of length <= max_len (pruned breadth-first walk).

    Each word kept is an accepted word or a prefix still to extend, which
    leads to an accepted word of its own; more than ``frontier_cap`` of
    them, both kinds together, raise :class:`ResourceLimitError`."""
    dist = _distance_to_accepting(d)
    out: set[Word] = set()
    if d.start not in dist:
        return out
    layer: list[tuple[int, Word]] = [(d.start, EMPTY_WORD)]
    letters = list(zip(d.alphabet, d.rows))
    for length in range(max_len + 1):
        nxt: list[tuple[int, Word]] = []
        for q, w in layer:
            if not dist[q]:
                out.add(w)
            for a, row in letters if length < max_len else ():
                t = row[q]
                if t in dist and dist[t] <= max_len - length - 1:
                    nxt.append((t, w + (a,)))
            if len(out) + len(nxt) > frontier_cap:
                raise frontier_exceeded(frontier_cap, len(out) + len(nxt))
        layer = nxt
    return out


def frontier_exceeded(cap: int, reached: int) -> ResourceLimitError:
    """The error of an enumeration that made more than ``cap`` words."""
    return ResourceLimitError(f"enumeration exceeded {cap} words",
                              cap=cap, reached=reached)


def _longest_word_length(d: Dfa, useful: Collection[int]) -> int | None:
    """Length of the longest accepted word, given the useful positions; None
    for an infinite language, -1 for the empty one.  A topological order of
    the useful states covers them all exactly when no cycle lies on an
    accepting path; read backwards, it gives each state's longest suffix (a
    useful state that rejects has a useful successor)."""
    succ = {q: [t for row in d.rows if (t := row[q]) in useful] for q in useful}
    indegree = Counter(t for ts in succ.values() for t in ts)
    order = [q for q in useful if not indegree[q]]
    for q in order:  # grows while it is read
        for t in succ[q]:
            indegree[t] -= 1
            if not indegree[t]:
                order.append(t)
    if len(order) < len(useful):
        return None
    longest: dict[int, int] = {}
    for q in reversed(order):
        longest[q] = max((1 + longest[t] for t in succ[q]), default=0)
    return longest.get(d.start, -1)


def language_is_finite(d: Dfa) -> bool:
    """True when no cycle lies on an accepting path."""
    reachable, _ = bfs_tree(d.start, list(zip(*d.rows)).__getitem__)
    useful = _distance_to_accepting(d).keys() & set(reachable)
    return _longest_word_length(d, useful) is not None


# --- transition table text form -----------------------------------------

def dfa_to_table(d: Dfa) -> str:
    """Serialize as a transition table; inverse of :func:`parse_dfa_table`."""
    if all(isinstance(q, str) for q in d.states):
        name = {q: q for q in d.states}
    elif all(isinstance(q, int) for q in d.states):
        name = {q: f"q{q}" for q in d.states}
    else:
        name = {q: f"s{i}" for i, q in enumerate(d.states)}
    lines = [
        "states: " + " ".join(name[q] for q in d.states),
        "alphabet: " + " ".join(d.alphabet),
        "initial: " + name[d.initial],
        "accepting: " + " ".join(name[q] for q in d.states if q in d.accepting),
    ]
    for q in d.states:
        for a in d.alphabet:
            lines.append(f"{name[q]} {a} {name[d.delta[(q, a)]]}")
    return "\n".join(lines) + "\n"


def _parse_dfa_lines(lines: list[tuple[int, str]]) -> Dfa:
    """Parse table lines given as (1-based line number, stripped text)."""

    def split_header(idx: int, key: str) -> tuple[int, list[str]]:
        if idx >= len(lines):
            raise TextFormatError(f"missing '{key}:' line",
                                  line=lines[-1][0] if lines else 1)
        ln, text = lines[idx]
        if not text.startswith(key + ":"):
            raise TextFormatError(f"expected '{key}:'", line=ln)
        return ln, text[len(key) + 1:].split()

    _, state_names = split_header(0, "states")
    if not state_names:
        raise TextFormatError("empty state list", line=lines[0][0])
    ln_a, sym_names = split_header(1, "alphabet")
    with at_line(ln_a):
        alphabet = Alphabet(tuple(sym_names))
    ln_i, initial = split_header(2, "initial")
    if len(initial) != 1 or initial[0] not in state_names:
        raise TextFormatError("initial must name exactly one known state", line=ln_i)
    ln_f, accepting = split_header(3, "accepting")
    for q in accepting:
        if q not in state_names:
            raise TextFormatError(f"unknown accepting state {q!r}", line=ln_f)
    delta: dict[tuple[State, str], State] = {}
    for ln, text in lines[4:]:
        parts = text.split()
        if len(parts) != 3:
            raise TextFormatError("transition rows are 'state symbol state'", line=ln)
        q, a, t = parts
        if q not in state_names:
            raise TextFormatError(f"unknown state {q!r}", line=ln)
        if a not in alphabet:
            raise TextFormatError(f"unknown symbol {a!r}", line=ln)
        if t not in state_names:
            raise TextFormatError(f"unknown state {t!r}", line=ln)
        if (q, a) in delta:
            raise TextFormatError(f"duplicate transition for ({q}, {a})", line=ln)
        delta[(q, a)] = t
    with at_line(lines[0][0]):
        return Dfa(tuple(state_names), alphabet, delta, initial[0], frozenset(accepting))


def parse_dfa_table(text: str) -> Dfa:
    lines = clean_lines(text)
    if not lines:
        raise TextFormatError("empty automaton description")
    return _parse_dfa_lines(lines)
