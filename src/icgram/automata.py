"""Finite automata over explicit alphabets.

Two machine types:

* :class:`Nfa` — nondeterministic, epsilon-free, with a *set* of initial
  states.  Produced by the regex and grammar compilers; the regex one is the
  position construction, one walk of the tree in which ``∅`` is a leaf.
* :class:`Dfa` — deterministic and always complete (the transition function
  is total; unproductive behaviour is routed through an explicit sink that is
  counted like any other state).

Every search whose order shows in an answer goes through one of two
helpers, the one place that fixes discovery order (FIFO, letters in
alphabet order, the first discovery of a node wins): :func:`bfs_words`
pairs each reachable node with its shortlex-least word, and
:func:`_explore` numbers the reachable part of a step function ``0..n-1``
as a :class:`Dfa`.  So every witness word is shortlex-least, and equal
languages fed through :func:`minimize` yield structurally equal objects.
:func:`_distance_to_accepting`, :func:`_longest_word_length` and
:func:`enumerate_regular` each walk on their own: they return distances, a
length and a set of words, which no discovery order changes.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Mapping, Sequence

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
        for (q, a), t in self.delta.items():
            if q not in sset or t not in sset:
                raise InvalidAutomatonError(f"transition on unknown state: {(q, a)}")
            if a not in self.alphabet:
                raise InvalidAutomatonError(f"transition on foreign symbol {a!r}")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """``delta`` as integers: one row per letter, in alphabet order, whose
        entry ``i`` is the position in ``states`` of the image of
        ``states[i]``.  Cached outside the fields, so equality ignores it."""
        index = {q: i for i, q in enumerate(self.states)}
        return tuple(tuple(index[self.delta[(q, a)]] for q in self.states)
                     for a in self.alphabet)

    def step(self, q: State, a: str) -> State:
        return self.delta[(q, a)]

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

def bfs_words(start, step: Callable, alphabet: Alphabet) -> Iterator[tuple]:
    """Yield ``(node, word)`` for every node reachable from ``start``, in
    breadth-first discovery order; each word is the shortlex-least path to
    its node.  ``step(node, a)`` returns the next node, or ``None`` for no
    move.  A node is expanded only after it has been yielded, so a caller
    that stops early explores nothing beyond that node."""
    letters = tuple(alphabet)
    words = {start: EMPTY_WORD}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        w = words[node]
        yield node, w
        for a in letters:
            t = step(node, a)
            if t is not None and t not in words:
                words[t] = w + (a,)
                queue.append(t)


def _explore(alphabet: Alphabet, start, step: Callable,
             is_accepting: Callable) -> Dfa:
    """The part of a total deterministic ``step`` reachable from ``start``,
    as a :class:`Dfa` on ``0..n-1`` numbered in breadth-first discovery
    order."""
    letters = tuple(alphabet)
    ids = {start: 0}
    queue = deque([start])
    delta: dict[tuple[State, str], State] = {}
    accepting: set[int] = set()
    while queue:
        node = queue.popleft()
        i = ids[node]
        if is_accepting(node):
            accepting.add(i)
        for a in letters:
            t = step(node, a)
            if t not in ids:
                ids[t] = len(ids)
                queue.append(t)
            delta[(i, a)] = ids[t]
    return Dfa(tuple(range(len(ids))), alphabet, delta, 0, frozenset(accepting))


def _pair_step(d1: Dfa, d2: Dfa) -> Callable:
    """Step function of the product of two automata over one alphabet."""
    delta1, delta2 = d1.delta, d2.delta
    return lambda pair, a: (delta1[(pair[0], a)], delta2[(pair[1], a)])


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
    return _explore(n.alphabet, frozenset(n.initial), n.move,
                    lambda subset: bool(subset & n.accepting))


def regex_to_dfa(r: Regex, alphabet: Alphabet) -> Dfa:
    return nfa_to_dfa(regex_to_nfa(r, alphabet))


# --- minimization and comparison ----------------------------------------

def minimize(d: Dfa) -> Dfa:
    """Canonical minimal DFA: the reachable part, its states merged by Moore
    partition refinement over the letter rows, renumbered breadth-first.
    Two inputs with the same language minimize to structurally equal objects."""
    r = _explore(d.alphabet, d.initial, d.step, d.accepting.__contains__)
    block = [0 if q in r.accepting else 1 for q in r.states]
    count = len(set(block))
    while True:
        signatures = list(zip(block, *(compose(row, block) for row in r.rows)))
        ids: dict[tuple, int] = {}
        new_block = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    # canonical renumber by BFS over blocks; any member stands for its block
    rep = dict(zip(block, r.states))
    return _explore(d.alphabet, block[0],
                    lambda b, a: block[r.delta[(rep[b], a)]],
                    lambda b: rep[b] in r.accepting)


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


def _pair_word(d1: Dfa, p: State, d2: Dfa, q: State, op: str) -> Word | None:
    """Shortlex-least word on which ``_BOOL_OPS[op]`` holds of its
    acceptance from ``p`` in ``d1`` and from ``q`` in ``d2``, or None."""
    fn = _BOOL_OPS[op]
    for (x, y), w in bfs_words((p, q), _pair_step(d1, d2), d1.alphabet):
        if fn(x in d1.accepting, y in d2.accepting):
            return w
    return None


def distinguishing_word(d1: Dfa, d2: Dfa) -> Word | None:
    """Shortest word accepted by exactly one of the two automata, or None."""
    _check_same_alphabet(d1, d2)
    return _pair_word(d1, d1.initial, d2, d2.initial, "symmetric_difference")


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    return distinguishing_word(d1, d2) is None


def combine(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Product automaton for a boolean combination (reachable part only)."""
    _check_same_alphabet(d1, d2)
    if op not in _BOOL_OPS:
        raise ValueError(f"unknown op {op!r}; use one of {sorted(_BOOL_OPS)}")
    fn = _BOOL_OPS[op]
    return _explore(d1.alphabet, (d1.initial, d2.initial), _pair_step(d1, d2),
                    lambda pair: fn(pair[0] in d1.accepting, pair[1] in d2.accepting))


def complement(d: Dfa) -> Dfa:
    return Dfa(d.states, d.alphabet, d.delta, d.initial,
               frozenset(set(d.states) - set(d.accepting)))


# --- queries ------------------------------------------------------------

def shortest_accepted(d: Dfa, start: State | None = None) -> Word | None:
    """Shortlex-least word accepted from ``start`` (default: the initial
    state), or None when none is."""
    q0 = d.initial if start is None else start
    for q, w in bfs_words(q0, d.step, d.alphabet):
        if q in d.accepting:
            return w
    return None


def access_words(d: Dfa) -> dict:
    """Shortlex-least word reaching each reachable state."""
    return dict(bfs_words(d.initial, d.step, d.alphabet))


def distinguishing_suffix(d: Dfa, p: State, q: State) -> Word | None:
    """Shortest word accepted from exactly one of two states of ``d``."""
    return _pair_word(d, p, d, q, "symmetric_difference")


def _distance_to_accepting(d: Dfa) -> dict:
    """Shortest suffix length from each state into an accepting state."""
    dist: dict[State, int] = {q: 0 for q in d.accepting}
    queue = deque(d.accepting)
    back: dict[State, list] = {q: [] for q in d.states}
    for (q, a), t in d.delta.items():
        back[t].append(q)
    while queue:
        t = queue.popleft()
        for q in back[t]:
            if q not in dist:
                dist[q] = dist[t] + 1
                queue.append(q)
    return dist


def enumerate_regular(d: Dfa, max_len: int, *,
                      frontier_cap: int = DEFAULT_FRONTIER_CAP) -> set[Word]:
    """All accepted words of length <= max_len (pruned breadth-first walk).

    Each word kept is an accepted word or a prefix still to extend, which
    leads to an accepted word of its own; more than ``frontier_cap`` of
    them, both kinds together, raise :class:`ResourceLimitError`."""
    dist = _distance_to_accepting(d)
    out: set[Word] = set()
    if d.initial not in dist:
        return out
    layer: list[tuple[State, Word]] = [(d.initial, EMPTY_WORD)]
    for length in range(max_len + 1):
        nxt: list[tuple[State, Word]] = []
        for q, w in layer:
            if q in d.accepting:
                out.add(w)
            for a in d.alphabet if length < max_len else ():
                t = d.delta[(q, a)]
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


def _useful_states(d: Dfa, access: Mapping | None = None) -> set:
    """States that are reachable and can still reach an accepting state;
    ``access`` is ``access_words(d)``, passed by a caller that has it."""
    dist = _distance_to_accepting(d)
    return {q for q in (access_words(d) if access is None else access)
            if q in dist}


def _longest_word_length(d: Dfa, useful: set) -> int | None:
    """Length of the longest accepted word, given the useful states; None for
    an infinite language, -1 for the empty one.  A topological order of the
    useful states covers them all exactly when no cycle lies on an accepting
    path; read backwards, it gives each state's longest accepted suffix."""
    succ = {q: [t for a in d.alphabet if (t := d.delta[(q, a)]) in useful]
            for q in useful}
    indegree = Counter(t for ts in succ.values() for t in ts)
    order = [q for q in useful if not indegree[q]]
    for q in order:  # grows while it is read
        for t in succ[q]:
            indegree[t] -= 1
            if not indegree[t]:
                order.append(t)
    if len(order) < len(useful):
        return None
    longest: dict[State, int] = {}
    for q in reversed(order):
        longest[q] = max([1 + longest[t] for t in succ[q]]
                         + ([0] if q in d.accepting else []))
    return longest.get(d.initial, -1)


def language_is_finite(d: Dfa) -> bool:
    """True when no cycle lies on an accepting path."""
    return _longest_word_length(d, _useful_states(d)) is not None


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
