"""Decision procedures for structural subregular families.

Every predicate takes a complete DFA ``d`` together with the alphabet ``U``
it is declared over (``d.alphabet`` must equal ``U``), minimizes internally,
and decides by structural analysis — no language is ever enumerated.  Each
negative answer is backed by checkable evidence: a word or pair of words
whose membership pattern refutes the family property.

The ordered family is special: it asks for *some* accepting automaton whose
states carry a letter-monotone total order, and that automaton may need
more states than the minimal one (every finite language is ordered, yet
already {a b} has an unorderable minimal automaton).  The check here is
three-valued — yes with an explicit order or a definite bound, no with a
repetition witness, unknown in the remaining gap.

The predicates, :func:`classify` and :func:`_family_verdict`, the one
answer to "is this selection in that family" of
:func:`selection_in_family` and ``classify --regex --family``,
decide through one :class:`_Analysis` of the minimal DFA, which runs each
search that several checks share at most once.  :func:`classify` also
checks its verdicts, with REG_Z(1) and REG_Z(2) read off the state count,
against the known edges of the ``subregular`` table of :mod:`.hierarchy`,
the one record of the inclusions; a family that holds reaching one that
fails raises :class:`InternalConsistencyError`, because it can only mean a
bug in one of the deciders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain

from .automata import (Dfa, access_words, bfs_tree, complement, compose,
                       minimize, path_word, shortest_accepted,
                       _longest_word_length, _pair_word, _product,
                       _useful_states)
from .contextual import ContextualGrammar, ensure_valid
from .errors import (AlphabetMismatchError, InternalConsistencyError,
                     ResourceLimitError, UndecidedError)
from .families import (CIRC, COMB, COMM, DEF, DEFAULT_MONOID_CAP, FAMILY_ORDER,
                       FIN, MON, NC, NIL, ORD, PS, REG, SUF, UF, FamilyLabel,
                       SearchCaps, Verdict, label_sort_key, parse_family_label,
                       reg_z, rl_p, rl_v)
from .hierarchy import hierarchy
from .monoid import monoid_elements
from .regex import Regex, is_union_free_syntax
from .resources import bounded_min_grammar, count_resources
from .rlgrammar import RightLinearGrammar
from .words import Alphabet, Record, Word, word_to_text


class Evidence(Record):
    """Human-readable reason plus words whose membership backs the verdict."""

    note: str = ""
    words: tuple[Word, ...] = ()


# the one table of known inclusions that classify() checks its verdicts against
_INCLUSIONS = hierarchy("subregular", 2)


def _require_alphabet(d: Dfa, U: Alphabet) -> None:
    if d.alphabet != U:
        raise AlphabetMismatchError(
            f"automaton alphabet {list(d.alphabet)} differs from declared {list(U)}")


# --- one analysis per minimal DFA -----------------------------------------

class _Analysis:
    """A minimal DFA with the searches that its family checks share, each
    run at most once, on first use; :meth:`decide` is the one dispatch from
    a family to its checker.

    ``dm`` is a :func:`minimize` output or the complement of one, so its
    states are ``0..n-1``: each state is its own position in ``dm.rows``.
    NC walks ``monoid`` up to its first counter and leaves that element in
    ``counter``, where PS resumes the same walk."""

    def __init__(self, dm: Dfa, monoid_cap: int = DEFAULT_MONOID_CAP):
        self.dm, self.monoid_cap = dm, monoid_cap
        self.decided: dict[FamilyLabel, tuple[Verdict, Evidence]] = {}
        self.counter: tuple | None = None

    @cached_property
    def monoid(self):
        return monoid_elements(self.dm, self.monoid_cap)

    @cached_property
    def access(self) -> dict:
        return access_words(self.dm)

    @cached_property
    def useful(self) -> set:
        return _useful_states(self.dm, self.access)

    @cached_property
    def suffix_pairs(self) -> tuple[int | None, set[int], list]:
        return _suffix_pairs(self.dm)

    @cached_property
    def complement(self) -> _Analysis:
        # the complement of a minimal DFA numbered breadth-first is minimal
        # and numbered the same way, so it needs no minimize
        return _Analysis(complement(self.dm), self.monoid_cap)

    def decide(self, label: FamilyLabel) -> tuple[Verdict, Evidence]:
        """Verdict on one family MON..PS, once; the monoid cap gives UNKNOWN."""
        if label not in self.decided:
            try:
                ok, ev = _CHECKS[label](self)
            except ResourceLimitError as e:
                ok, ev = Verdict.UNKNOWN, Evidence(
                    f"monoid cap exceeded (cap {e.cap}); undecided at this cap")
            if not isinstance(ok, Verdict):
                ok = Verdict.YES if ok else Verdict.NO
            self.decided[label] = ok, ev
        return self.decided[label]


# --- individual checkers (all take the analysis of a minimal DFA) ---------

def _check_monoidal(an: _Analysis) -> tuple[bool, Evidence]:
    dm = an.dm
    if len(dm.states) == 1 and dm.initial in dm.accepting:
        return True, Evidence("the full language over the alphabet")
    w = shortest_accepted(an.complement.dm)
    assert w is not None
    return False, Evidence("a word is rejected", (w,))


def _pump_words(an: _Analysis) -> tuple[Word, Word, Word]:
    """(x, y, z) with x y^k z accepted for every k >= 0 and y non-empty.
    Only valid when the language is infinite."""
    dm, useful, acc = an.dm, an.useful, an.access
    cols = list(zip(*dm.rows))
    step = lambda s: [t if t in useful else None for t in cols[s]]
    for q in sorted(useful, key=lambda s: len(acc[s])):
        # the shortest non-empty loop at q through useful states: the word of
        # the first node, breadth first from q, with an edge back, and its letter
        walk, links = bfs_tree(q, step)
        for j, s in enumerate(walk):
            if q in cols[s]:
                y = path_word(links, j, dm.alphabet) + (
                    dm.alphabet.symbols[cols[s].index(q)],)
                return acc[q], y, shortest_accepted(dm, q)
    raise AssertionError("no pumpable state in an infinite language")


def _check_finite(an: _Analysis) -> tuple[bool, Evidence]:
    m = _longest_word_length(an.dm, an.useful)
    if m is None:
        x, y, z = _pump_words(an)
        return False, Evidence("infinite: the first word pumps to the second",
                               (x + y + z, x + y + y + z))
    if m < 0:
        return True, Evidence("the empty language")
    return True, Evidence(f"finite; longest word has length {m}")


def _check_nilpotent(an: _Analysis) -> tuple[bool, Evidence]:
    fin, ev = an.decide(FIN)
    if fin is Verdict.YES:
        return True, Evidence("finite language; " + ev.note)
    cofin, cev = an.complement.decide(FIN)
    if cofin is Verdict.YES:
        return True, Evidence("cofinite language")
    return False, Evidence(
        "both the language (first word, accepted) and its complement "
        "(second word, rejected) are infinite",
        (ev.words[0], cev.words[0]))


def _check_combinational(an: _Analysis) -> tuple[bool, Evidence]:
    dm = an.dm
    ends = [row[dm.initial] in dm.accepting for row in dm.rows]
    # breadth-first over 2*state + whether the last letter alone is accepted:
    # the first node whose halves disagree ends the shortlex-least witness
    walk, links = bfs_tree(2 * dm.initial, lambda x: [
        2 * row[x >> 1] + end for row, end in zip(dm.rows, ends)])
    j, x = next(((j, x) for j, x in enumerate(walk)
                 if (x >> 1 in dm.accepting) != x & 1), (None, None))
    if x is None:
        shown = " ".join(a for a, end in zip(dm.alphabet, ends) if end) or "(none)"
        return True, Evidence(f"exactly the words ending in: {shown}")
    side = "accepted" if x >> 1 in dm.accepting else "rejected"
    return False, Evidence(
        f"membership is not a function of the final symbol ({side} witness)",
        (path_word(links, j, dm.alphabet),))


def _pair_edges(rows: list, n: int, pair: int):
    """The ``(letter, image pair)`` edges out of one coded state pair."""
    p, q = divmod(pair, n)
    for a, row in rows:
        s, t = row[p], row[q]
        if s != t:
            yield a, (s * n + t if s < t else t * n + s)


def _suffix_pairs(dm: Dfa) -> tuple[int | None, set[int], list]:
    """One topological pass over the state-pair graph of ``dm``.

    A pair of distinct states at positions ``p < q`` is the int ``p*n + q``,
    with a ``(letter, image pair)`` edge on each letter whose images differ,
    recomputed by :func:`_pair_edges` from the letter rows wherever it is
    read.  The pairs that keep an in-edge through Kahn's pass survive every
    common suffix; each other pair gets the length of the longest walk ending
    at it.  Returns ``(bound, survivors, rows)``: the bound, the suffix length
    that settles membership, is that length plus one, maxed over the mixed
    pairs; 0 if none is mixed, None if one survives (Perles, Rabin and
    Shamir, 1963).
    """
    n = len(dm.states)
    rows = list(zip(dm.alphabet, dm.rows))
    pairs = [range(p * n + p + 1, p * n + n) for p in range(n)]
    indegree, height = [0] * (n * n), [0] * (n * n)
    for block in pairs:
        for pair in block:
            for _, img in _pair_edges(rows, n, pair):
                indegree[img] += 1
    ready = [pair for block in pairs for pair in block if not indegree[pair]]
    while ready:
        pair = ready.pop()
        for _, img in _pair_edges(rows, n, pair):
            height[img] = max(height[img], height[pair] + 1)
            indegree[img] -= 1
            if not indegree[img]:
                ready.append(img)
    survivors = {pair for pair, k in enumerate(indegree) if k}
    acc = [q in dm.accepting for q in dm.states]
    mixed = [pair for p, block in enumerate(pairs) for pair in block
             if acc[p] != acc[pair % n]]
    bound = (None if survivors.intersection(mixed) else
             max((height[pair] + 1 for pair in mixed), default=0))
    return bound, survivors, rows


def _check_definite(an: _Analysis) -> tuple[bool, Evidence]:
    bound, survivors, rows = an.suffix_pairs
    if bound is not None:
        return True, Evidence(f"membership depends only on the last {bound} symbols")
    # two words with a long shared suffix but different membership: walk back
    # from the first mixed survivor along the first edge into each pair
    dm = an.dm
    n = len(dm.states)
    order = sorted(survivors, key=lambda pair: sorted(map(str, divmod(pair, n))))
    cur = next(pair for pair in order
               if (pair // n in dm.accepting) != (pair % n in dm.accepting))
    into: dict[int, tuple[int, str]] = {}
    for pair in order:
        for a, img in _pair_edges(rows, n, pair):
            into.setdefault(img, (pair, a))
    suffix: list[str] = []
    for _ in range(n * n + n):
        cur, a = into[cur]
        suffix.append(a)
    z = tuple(reversed(suffix))
    p, q = sorted(divmod(cur, n), key=str)
    return False, Evidence(
        f"membership still differs after a shared suffix of length {len(z)}",
        (an.access[p] + z, an.access[q] + z))


def _check_suffix_closed(an: _Analysis) -> tuple[bool, Evidence]:
    dm = an.dm
    for q in dm.states:
        y = _pair_word(dm, q, dm, dm.initial, "difference")
        if y is not None:
            return False, Evidence(
                "the first word is accepted but its suffix (second word) is not",
                (an.access[q] + y, y))
    return True, Evidence("every suffix of every accepted word is accepted")


_ORDER_SEARCH_CAP = 500_000


def _bits(m: int):
    """Positions of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _search_monotone_order(dm: Dfa) -> list | None:
    """Total order on the states making every letter monotone, or None.

    Whether such an order exists is NP-complete (Szykuła, CIAA 2015), so
    this backtracks: each search node takes the first unordered pair in
    state order and tries ``p < q``, then ``q < p``.  The known order is two
    lists of bitsets over state positions: ``above[x]`` holds the states
    known to lie above ``x``, and ``below[x]`` those below it.  Each new
    constraint is closed once, under transitivity and the letters, through
    a FIFO worklist; one whose reverse is known fails its branch.  Raises
    :class:`ResourceLimitError` if the search tree outgrows its cap.
    """
    states, rows = dm.states, dm.rows
    n = len(states)
    full = (1 << n) - 1
    visited = 0

    def close(above: list, below: list, p: int, q: int) -> bool:
        """Add ``p < q`` and all it implies, in place; False if it clashes."""
        work = [(p, q)]
        for p, q in work:
            if above[p] >> q & 1:
                continue
            if above[q] >> p & 1:
                return False
            up = above[q] | 1 << q
            # an x already below q is below all of up: only the rest gains
            for x in _bits((below[p] | 1 << p) & ~below[q]):
                new = up & ~above[x]
                above[x] |= new
                for y in _bits(new):
                    below[y] |= 1 << x
                    work.extend((r[x], r[y]) for r in rows if r[x] != r[y])
        return True

    # depth first from an explicit stack: each entry is a node's parent
    # order and the pair it adds; p < q is pushed last, so popped first
    stack = [([0] * n, [0] * n, None)]
    while stack:
        above, below, pair = stack.pop()
        above, below = above[:], below[:]
        if pair is not None and not close(above, below, *pair):
            continue
        visited += 1
        if visited > _ORDER_SEARCH_CAP:
            raise ResourceLimitError("state-order search exceeded its cap",
                                     cap=_ORDER_SEARCH_CAP, reached=visited)
        # the first unordered pair p < q, in state order
        later = (full ^ (above[p] | below[p] | (2 << p) - 1) for p in range(n))
        pick = next(((p, next(_bits(f))) for p, f in enumerate(later) if f),
                    None)
        if pick is None:
            break
        p, q = pick
        stack += [(above, below, (q, p)), (above, below, (p, q))]
    else:
        return None
    return [states[i] for i in sorted(
        range(n), key=lambda i: (below[i].bit_count(), str(states[i])))]


def _check_ordered(an: _Analysis) -> tuple[Verdict, Evidence]:
    """Three-valued check for acceptance by some order-monotone automaton.

    The defining automaton is existentially quantified, so the minimal one
    not being orderable settles nothing by itself.  Decided cases:

    * the minimal automaton admits a monotone total order — yes, with the
      order that :func:`_search_monotone_order` finds; a search that hits
      its node cap counts as finding none;
    * membership depends only on the last ``k`` symbols — yes: the automaton
      whose states are end-padded windows of the last ``k`` symbols accepts
      the language and is monotone when its states are ranked by the
      reversed window (appending a symbol maps every window ``x`` to
      ``s + x[:k-1]``, which preserves any lexicographic ranking);
    * membership distinguishes some repetition count — no: every word of a
      monotone automaton acts as a monotone map on the state chain, whose
      iterates stabilize instead of cycling.

    Aperiodic, non-definite languages whose minimal automaton is not
    orderable fall outside all three criteria and come back unknown.
    """
    order_capped = False
    order = None
    try:
        order = _search_monotone_order(an.dm)
    except ResourceLimitError:
        order_capped = True
    if order is not None:
        return Verdict.YES, Evidence(
            "monotone state order: " + " < ".join(str(q) for q in order))
    how = ("the state-order search hit its cap" if order_capped else
           "the minimal automaton admits no monotone order")
    k = an.suffix_pairs[0]
    if k is not None:
        return Verdict.YES, Evidence(
            f"{how}, but membership depends only on the last {k} symbols and "
            f"the last-{k}-symbols automaton does")
    nc_verdict, nc_ev = an.decide(NC)
    if nc_verdict is Verdict.NO:
        return Verdict.NO, Evidence(
            "monotone maps of a finite chain cannot count repetitions: "
            + nc_ev.note, nc_ev.words)
    if nc_verdict is Verdict.UNKNOWN:
        return Verdict.UNKNOWN, Evidence(
            how + f"; the repetition check hit the monoid cap of {an.monoid_cap}, "
            "leaving orderability undecided at this cap")
    return Verdict.UNKNOWN, Evidence(
        how + "; the language is neither definite nor repetition-counting, "
        "and orderability of a larger accepting automaton is not decided here")


def _check_commutative(an: _Analysis) -> tuple[bool, Evidence]:
    dm = an.dm
    letters = list(zip(dm.alphabet, dm.rows))
    for q in dm.states:
        for i, (a, ra) in enumerate(letters):
            for b, rb in letters[i + 1:]:
                s1, s2 = rb[ra[q]], ra[rb[q]]
                if s1 != s2:
                    z = _pair_word(dm, s1, dm, s2, "symmetric_difference")
                    assert z is not None  # distinct states of a minimal DFA
                    x = an.access[q]
                    return False, Evidence(
                        "the two words permute each other but only one is accepted",
                        (x + (a, b) + z, x + (b, a) + z))
    return True, Evidence("membership is invariant under reordering of symbols")


def _check_circular(an: _Analysis) -> tuple[bool, Evidence]:
    """Words ``u, v`` with ``uv`` accepted and ``vu`` not: ``v`` leads ``q``
    into acceptance and the initial state to ``b``, ``u`` the initial state
    to ``q`` and ``b`` out of acceptance.  For each ``q``, the pairs reached
    from ``(q, initial)`` are tried in the text order of their states."""
    dm = an.dm
    n, q0, alphabet = len(dm.states), dm.initial, dm.alphabet
    rank = {q: i for i, q in enumerate(sorted(dm.states, key=str))}
    step = cache(_product(dm, dm, "union")[0])
    exits: dict[int, list] = {}
    for q in dm.states:
        walk, fwd = bfs_tree(q * n + q0, step)
        for x, j in sorted(((x, j) for j, x in enumerate(walk)
                            if x // n in dm.accepting),
                           key=lambda xj: (rank[xj[0] // n], rank[xj[0] % n])):
            b = x % n
            if b not in exits:
                exits[b] = first = [None] * n  # per c, the first e reached
                for c, e in (divmod(y, n) for y in bfs_tree(q0 * n + b, step)[0]):
                    if e not in dm.accepting and rank[e] < rank.get(first[c], n):
                        first[c] = e
            if exits[b][q] is not None:
                walk, back = bfs_tree(q0 * n + b, step)  # again, to where u ends
                k = next(k for k, z in enumerate(walk) if z == q * n + exits[b][q])
                u, v = path_word(back, k, alphabet), path_word(fwd, j, alphabet)
                return False, Evidence(
                    "the second word is a rotation of the first (accepted) one",
                    (u + v, v + u))
    return True, Evidence("closed under cyclic shifts")


def _check_noncounting(an: _Analysis) -> tuple[bool, Evidence]:
    """Aperiodicity of the transition monoid, stopping at the first element
    ``t`` (in shortlex order of its word) with ``t^N != t^(N+1)``.  The
    witness exponent is the first power of ``t`` on its cycle, at most n
    steps in, where the period of ``t`` can be the lcm of its cycle lengths."""
    dm = an.dm
    squarings = len(dm.states).bit_length()  # N = 2^squarings > pre-period
    m = 0
    for t, y in an.monoid:
        m += 1
        stable = t
        for _ in range(squarings):
            stable = compose(stable, stable)
        if stable != compose(stable, t):
            break
    else:
        return True, Evidence(f"aperiodic transition monoid ({m} elements)")
    an.counter = t, y
    exp, p_k, p_k1 = 1, t, compose(t, t)  # t^exp and t^(exp + 1)
    # img(t^(exp+1)) <= img(t^exp); equal sizes mean t permutes img(t^exp)
    while len(set(p_k1)) < len(set(p_k)):
        exp, p_k, p_k1 = exp + 1, p_k1, compose(p_k1, t)
    assert p_k != p_k1  # this element's cycle has period >= 2
    s = next(q for q in dm.states if p_k[q] != p_k1[q])
    x = an.access[s]
    z = _pair_word(dm, p_k[s], dm, p_k1[s], "symmetric_difference")
    assert z is not None
    return False, Evidence(
        f"membership depends on the number of repetitions of "
        f"{word_to_text(y, dm.alphabet)} (exponents {exp} vs {exp + 1})",
        (x + y * exp + z, x + y * (exp + 1) + z))


def _check_power_separating(an: _Analysis) -> tuple[Verdict, Evidence]:
    """Stops at the first element ``y`` (in shortlex order) whose powers
    ``y^(n+1) .. y^(2n+2)``, all on the cycle, fall on both sides.  An
    aperiodic ``y`` has ``y^n = y^(n+1)``, so none comes before NC's first
    counter: PS takes NC's yes or unknown, and resumes NC's walk on a no."""
    nc_verdict, nc_ev = an.decide(NC)
    if nc_verdict is Verdict.UNKNOWN:
        return nc_verdict, nc_ev
    dm = an.dm
    n = len(dm.states)
    q0 = dm.initial
    accepting = [q in dm.accepting for q in dm.states]
    resumed = () if nc_verdict is Verdict.YES else chain([an.counter], an.monoid)
    for t, y in resumed:
        v = t[q0]                        # state after y^1
        for _ in range(n):
            v = t[v]                     # ... up to y^(n+1)
        window = []
        for _ in range(n + 2):
            window.append(accepting[v])
            v = t[v]
        if any(window) and not all(window):
            break
    else:
        return Verdict.YES, Evidence(
            "high powers of every word are uniformly inside or outside")
    j_in = window.index(True) + n + 1
    j_out = window.index(False) + n + 1
    return Verdict.NO, Evidence(
        f"arbitrarily high powers of {word_to_text(y, dm.alphabet)} fall on "
        f"both sides (exponents {j_in} vs {j_out}, repeating)",
        (y * j_in, y * j_out))


# the one dispatch from a family to its checker, in report order
_CHECKS = {
    MON: _check_monoidal, FIN: _check_finite, NIL: _check_nilpotent,
    COMB: _check_combinational, DEF: _check_definite,
    SUF: _check_suffix_closed, ORD: _check_ordered, COMM: _check_commutative,
    CIRC: _check_circular, NC: _check_noncounting, PS: _check_power_separating,
}


# --- public predicates ----------------------------------------------------

def _holds(label: FamilyLabel, d: Dfa, U: Alphabet,
           monoid_cap: int = DEFAULT_MONOID_CAP) -> bool:
    """One family's verdict; UNKNOWN raises :class:`UndecidedError`."""
    _require_alphabet(d, U)
    v, ev = _Analysis(minimize(d), monoid_cap).decide(label)
    if v is Verdict.UNKNOWN:
        raise UndecidedError(ev.note)
    return v is Verdict.YES


def is_monoidal(d: Dfa, U: Alphabet) -> bool:
    return _holds(MON, d, U)


def is_finite(d: Dfa, U: Alphabet) -> bool:
    return _holds(FIN, d, U)


def is_nilpotent(d: Dfa, U: Alphabet) -> bool:
    return _holds(NIL, d, U)


def is_combinational(d: Dfa, U: Alphabet) -> bool:
    return _holds(COMB, d, U)


def is_definite(d: Dfa, U: Alphabet) -> bool:
    return _holds(DEF, d, U)


def is_suffix_closed(d: Dfa, U: Alphabet) -> bool:
    return _holds(SUF, d, U)


def is_ordered(d: Dfa, U: Alphabet, *,
               monoid_cap: int = DEFAULT_MONOID_CAP) -> bool:
    """True/False when decidable; raises :class:`UndecidedError` otherwise.

    See :func:`classify` for the three-valued form with evidence; the gap
    (aperiodic, not definite, minimal automaton unorderable) is inherent in
    the family's definition quantifying over *some* accepting automaton.
    """
    return _holds(ORD, d, U, monoid_cap)


def is_commutative(d: Dfa, U: Alphabet) -> bool:
    return _holds(COMM, d, U)


def is_circular(d: Dfa, U: Alphabet) -> bool:
    return _holds(CIRC, d, U)


def is_noncounting(d: Dfa, U: Alphabet, *, monoid_cap: int = DEFAULT_MONOID_CAP) -> bool:
    return _holds(NC, d, U, monoid_cap)


def is_power_separating(d: Dfa, U: Alphabet, *,
                        monoid_cap: int = DEFAULT_MONOID_CAP) -> bool:
    return _holds(PS, d, U, monoid_cap)


def union_free_syntax(r: Regex) -> Verdict:
    """Syntactic semi-decision: YES when the expression uses no union (and no
    empty-language constant); UNKNOWN otherwise — the language may still have
    a union-free expression."""
    return Verdict.YES if is_union_free_syntax(r) else Verdict.UNKNOWN


def _family_verdict(d: Dfa, label: FamilyLabel, caps: SearchCaps,
                    source_regex: Regex | None = None,
                    source_grammar: RightLinearGrammar | None = None
                    ) -> tuple[Verdict, str]:
    """Verdict and note on whether ``L(d)`` lies in one family, for
    :func:`selection_in_family` and ``classify --regex --family``.

    Structural families are decided on the minimal DFA (NC/PS up to the
    monoid cap), UF on ``source_regex`` as written.  Nonterminal/rule
    bounds are semi-decided: yes when ``source_grammar`` or a grammar found
    by bounded search is small enough, unknown otherwise.  State bounds are
    exact."""
    kind = label.kind
    if label.structural and kind != "UF":
        v, ev = _Analysis(minimize(d), caps.monoid_cap).decide(label)
        return v, ev.note
    if kind == "REG":
        return Verdict.YES, "regular by construction"
    if kind == "UF":
        if source_regex is None:
            return Verdict.UNKNOWN, "no source expression retained"
        v = union_free_syntax(source_regex)
        return v, ("union-free expression as written" if v is Verdict.YES
                   else "expression uses union; syntactic check only")
    if kind == "REG_Z":
        m = len(minimize(d).states)
        return (Verdict.YES if m <= label.n else Verdict.NO,
                f"minimal complete automaton has {m} state{'' if m == 1 else 's'}")
    assert kind in ("RL_V", "RL_P")
    want = 0 if kind == "RL_V" else 1
    noun = "nonterminal" if want == 0 else "rule"
    if source_grammar is not None:
        have = count_resources(source_grammar)[want]
        if have <= label.n:
            return Verdict.YES, (f"selection grammar as written has {have} "
                                 f"{noun}{'' if have == 1 else 's'}")
    m = bounded_min_grammar(d, noun + "s", caps)
    if m.upper <= label.n:
        return Verdict.YES, f"certificate found: {m.note}"
    return Verdict.UNKNOWN, f"no small enough grammar within caps ({m.note})"


class PairVerdict(Record):
    pair_index: int
    verdict: Verdict
    note: str = ""


class SelectionFamilyResult(Record):
    family: FamilyLabel
    per_pair: tuple[PairVerdict, ...]

    @property
    def overall(self) -> Verdict:
        """NO when some selection is out of the family, YES when all are in,
        UNKNOWN otherwise."""
        verdicts = {pv.verdict for pv in self.per_pair}
        if Verdict.NO in verdicts:
            return Verdict.NO
        return Verdict.YES if verdicts <= {Verdict.YES} else Verdict.UNKNOWN


def selection_in_family(g: ContextualGrammar, label: FamilyLabel, *,
                        caps: SearchCaps = SearchCaps()
                        ) -> SelectionFamilyResult:
    """Do all selection languages of ``g`` lie in the given family?  Each
    is decided by :func:`_family_verdict`: structural families and state
    bounds outright (NC/PS up to the monoid cap), nonterminal/rule bounds
    up to a yes."""
    ensure_valid(g)
    return SelectionFamilyResult(label, tuple(
        PairVerdict(i, *_family_verdict(pair.dfa, label, caps, pair.source_regex,
                                        pair.source_grammar))
        for i, pair in enumerate(g.pairs)))


# --- combined classification ---------------------------------------------

@dataclass
class FamilyReport:
    """Verdict per family, with evidence, for one regular language."""

    language: str
    alphabet: Alphabet
    min_state_count: int
    verdicts: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"language: {self.language}",
                 "alphabet: " + " ".join(self.alphabet),
                 f"min-states: {self.min_state_count}"]
        for label in FAMILY_ORDER:
            v = self.verdicts[label]
            ev = self.evidence.get(label)
            line = f"{label}: {v}"
            if ev and (ev.note or ev.words):
                parts = [ev.note] if ev.note else []
                if ev.words:
                    parts.append("witness: " + ", ".join(
                        word_to_text(w, self.alphabet) for w in ev.words))
                line += "  # " + "; ".join(parts)
            lines.append(line)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        families = []
        for label in FAMILY_ORDER:
            ev = self.evidence.get(label)
            families.append({
                "family": str(label),
                "verdict": str(self.verdicts[label]),
                "note": ev.note if ev else "",
                "witnesses": [word_to_text(w, self.alphabet)
                              for w in (ev.words if ev else ())],
            })
        return {
            "language": self.language,
            "alphabet": list(self.alphabet),
            "min_states": self.min_state_count,
            "families": families,
        }


def classify(d: Dfa, U: Alphabet, *, source_regex: Regex | None = None,
             language_name: str = "", monoid_cap: int = DEFAULT_MONOID_CAP
             ) -> FamilyReport:
    """Decide all families at once and cross-check the verdicts.

    The two monoid-based families come back UNKNOWN only when the monoid
    cap is hit before any counter is found; ORD is UNKNOWN then too, and in
    its inherent gap (see :func:`_check_ordered`); everything else is always
    decided.
    """
    _require_alphabet(d, U)
    an = _Analysis(minimize(d), monoid_cap)
    report = FamilyReport(language=language_name or "(unnamed)", alphabet=U,
                          min_state_count=len(an.dm.states))
    for label in _CHECKS:
        report.verdicts[label], report.evidence[label] = an.decide(label)
    if source_regex is not None:
        v = union_free_syntax(source_regex)
        note = ("the given expression is union-free" if v is Verdict.YES else
                "given expression uses union; no union-free form was searched for")
        report.verdicts[UF] = v
        report.evidence[UF] = Evidence(note)
    else:
        report.verdicts[UF] = Verdict.UNKNOWN
        report.evidence[UF] = Evidence("no expression given; syntactic check only")
    report.verdicts[REG] = Verdict.YES
    report.evidence[REG] = Evidence("regular by construction")

    _cross_validate(report)
    return report


def _cross_validate(report: FamilyReport) -> None:
    """No family that holds may reach one that fails over the known edges
    of the ``subregular`` table; REG_Z(k) holds exactly when the minimal
    DFA has at most k states."""
    v = dict(report.verdicts)
    for k in (1, 2):
        v[reg_z(k)] = Verdict.YES if report.min_state_count <= k else Verdict.NO
    no = {y for y, vy in v.items() if vy is Verdict.NO}
    for x, vx in v.items():
        if vx is Verdict.YES and not _INCLUSIONS.reach[x].isdisjoint(no):
            y = min(_INCLUSIONS.reach[x] & no, key=label_sort_key)
            raise InternalConsistencyError(
                f"{x} holds but {y} does not for {report.language}: "
                "violates a known inclusion")
