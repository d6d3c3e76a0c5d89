"""Reference answers that do not come from the code under test.

* membership predicates for the witness languages that have a closed form
  (L2, L4(n), L6(n), L7(n)), cross-checked against ``icgram.closed_form``
  where that set is small enough to build;
* word-set digests, for the cases without a closed form (L1, L3), pinned
  in ``pins.json``;
* the structural inclusions between families, and the state count of the
  minimal complete automaton, for checking ``classify``.
"""

from __future__ import annotations

import hashlib
import random


class WrongAnswer(Exception):
    """The program returned an answer that the oracle rejects."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# --- witness languages ------------------------------------------------------

def letters(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def alphabet_of(case_id: str, n: int | None) -> tuple[str, ...]:
    if case_id == "L2":
        return ("a", "b", "c")
    if case_id == "L4":
        return ("a", "b")
    return letters("a", n)


def in_l2(w) -> bool:
    i = 0
    while i < len(w) and w[i] == "c":
        i += 1
    rest = w[i:]
    if rest[:1] == ("b",):  # c^i b c^i a
        return rest == ("b",) + ("c",) * i + ("a",)
    if rest[:1] != ("a",):
        return False
    j = 1
    while j < len(rest) and rest[j] == "c":
        j += 1
    return rest[j:] == ("b",) + ("c",) * (i + j - 1)


def in_l4(w, n: int) -> bool:
    # half + half[:-1] with half = (a+ b){n+1}
    if len(w) % 2 == 0:
        return False
    m = (len(w) + 1) // 2
    half = w[:m]
    if w[m:] != half[:-1] or half[-1:] != ("b",):
        return False
    blocks = "".join(half).split("b")[:-1]
    return len(blocks) == n + 1 and all(b and set(b) == {"a"} for b in blocks)


def in_l6(w, n: int) -> bool:
    word = letters("a", n)
    if any(s not in word for s in w):
        return False
    if len(w) == n - 1:
        return True
    k, r = divmod(len(w), n)
    return k >= 1 and r == 0 and tuple(w) == word * k


def in_l7(w, n: int) -> bool:
    if any(s not in letters("a", n) for s in w):
        return False
    return len(w) < n or len(w) % n == 0


def member_predicate(case_id: str, n: int | None):
    return {"L2": lambda w: in_l2(w),
            "L4": lambda w: in_l4(w, n),
            "L6": lambda w: in_l6(w, n),
            "L7": lambda w: in_l7(w, n)}[case_id]


def validate_predicate(icgram, case_id: str, n: int | None, bound: int,
                       rng: random.Random, samples: int = 300) -> None:
    """The predicate must agree with ``closed_form`` up to ``bound``."""
    pred = member_predicate(case_id, n)
    words = icgram.closed_form(case_id, bound, n)
    check(all(pred(w) for w in words),
          f"{case_id}: predicate rejects a closed-form word")
    sigma = alphabet_of(case_id, n)
    for _ in range(samples):
        w = tuple(rng.choice(sigma) for _ in range(rng.randint(0, bound)))
        check(pred(w) == (w in words),
              f"{case_id}: predicate and closed form disagree on {w}")


def member_word(case_id: str, n: int | None, length: int,
                rng: random.Random) -> tuple:
    """A member of about ``length`` symbols.  L2 and L4 members are
    balanced (the a in the middle of an L2 word, L4 blocks of equal length)
    and L6 has one member per length: how much refuting a neighbour costs
    depends steeply on these shapes.  The seed picks the letters of L7."""
    if case_id == "L2":
        s = max(0, (length - 2) // 2)
        i = s // 2
        return ("c",) * i + ("a",) + ("c",) * (s - i) + ("b",) + ("c",) * s
    if case_id == "L4":
        total = max(n + 1, (length - 2 * n - 1) // 2)
        exps = [total // (n + 1)] * (n + 1)
        exps[-1] += total - sum(exps)
        half = tuple(x for p in exps for x in ("a",) * p + ("b",))
        return half + half[:-1]
    if case_id == "L6":
        return letters("a", n) * max(1, length // n)
    sigma = letters("a", n)
    return tuple(rng.choice(sigma) for _ in range(length - length % n))


def deletion_nonmember(w: tuple, pred) -> tuple:
    """Delete one symbol, a third of the way in or the first one after it
    that leaves the language.  The cost of refuting a word depends steeply
    on where the defect sits, so the position is fixed rather than drawn."""
    for i in range(len(w) // 3, len(w)):
        out = w[:i] + w[i + 1:]
        if not pred(out):
            return out
    raise ValueError(f"no single deletion leaves the language: {w}")


def single_edit_nonmember(w: tuple, sigma: tuple, pred,
                          rng: random.Random) -> tuple:
    """Substitute, insert or delete one symbol at random, until the word
    leaves the language."""
    while True:
        op = rng.choice("sid")
        out = list(w)
        if op == "s" and out:
            i = rng.randrange(len(out))
            out[i] = rng.choice([x for x in sigma if x != out[i]])
        elif op == "d" and out:
            del out[rng.randrange(len(out))]
        else:
            out.insert(rng.randrange(len(out) + 1), rng.choice(sigma))
        out = tuple(out)
        if not pred(out):
            return out


def cross_check(icgram, g, words, bound: int, rng: random.Random,
                outside: int = 300) -> None:
    """Forward enumeration up to ``bound`` and backward membership must
    agree: on every enumerated word, and on ``outside`` random words up to
    the bound that the enumeration left out."""
    sigma = tuple(g.alphabet)
    for w in words:
        check(icgram.member_ic(g, w), f"enumerated {w} is not a member")
    while outside:
        w = tuple(rng.choice(sigma) for _ in range(rng.randint(0, bound)))
        if w not in words:
            check(not icgram.member_ic(g, w), f"{w} is a member missing from "
                                               f"the enumeration")
            outside -= 1


def words_digest(words) -> tuple[int, str]:
    """Word count and a digest that does not depend on set order."""
    text = "\n".join(" ".join(w) for w in sorted(words, key=lambda w: (len(w), w)))
    return len(words), hashlib.sha256(text.encode()).hexdigest()[:16]


# --- regular languages ------------------------------------------------------

# (X, Y): every X language is a Y language.
IMPLICATIONS = (("MON", "NIL"), ("MON", "SUF"), ("MON", "COMM"),
                ("FIN", "NIL"), ("NIL", "DEF"), ("COMB", "DEF"),
                ("DEF", "ORD"), ("ORD", "NC"), ("NC", "PS"), ("SUF", "PS"),
                ("COMM", "CIRC"))

DFA_FAMILIES = ("MON", "FIN", "NIL", "COMB", "DEF", "SUF", "ORD", "COMM",
                "CIRC", "NC", "PS")


def random_table(rng: random.Random, n_states: int, k: int):
    """A uniformly random complete DFA on states 0..n-1, initial state 0,
    each state accepting with probability 1/2."""
    delta = [[rng.randrange(n_states) for _ in range(k)] for _ in range(n_states)]
    accepting = [q for q in range(n_states) if rng.randrange(2)]
    return delta, accepting


def minimal_state_count(delta, accepting) -> int:
    """States of the minimal complete DFA (Moore refinement on the
    reachable part)."""
    reach, todo = {0}, [0]
    while todo:
        for r in delta[todo.pop()]:
            if r not in reach:
                reach.add(r)
                todo.append(r)
    acc = set(accepting)
    block = {q: int(q in acc) for q in reach}
    while True:
        sig = {q: (block[q],) + tuple(block[r] for r in delta[q]) for q in reach}
        ids = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        refined = {q: ids[sig[q]] for q in reach}
        if len(ids) == len(set(block.values())):
            return len(ids)
        block = refined


def check_verdicts(verdicts: dict, pinned: dict | None, label: str) -> None:
    """Inclusions hold, and no pinned decided verdict flipped."""
    for x, y in IMPLICATIONS:
        check(not (verdicts[x] == "yes" and verdicts[y] == "no"),
              f"{label}: {x} yes but {y} no")
    for fam, want in (pinned or {}).items():
        check(want == "unknown" or verdicts[fam] == want,
              f"{label}: pinned {fam}={want}, got {verdicts[fam]}")
