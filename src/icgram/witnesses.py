"""Executable witness grammars.

Each case is a small internal contextual grammar (sometimes with an
equivalent variant using differently-shaped selections) bundled with the
family claims it certifies:

* positive claims name a selection family together with the grammar whose
  selections realize it — these are machine-checked outright;
* negative claims say the generated language lies outside a class.  Such
  statements have no finite certificate, so :func:`check_witness` verifies
  them for *consistency* (no positive claim may imply the negated class) and
  leaves the unbounded part to the accompanying proofs.

Cases L2, L4, L6 and L7 additionally carry closed forms of their languages,
against which the derivation engine is checked word for word at a bound.
"""

from __future__ import annotations

from itertools import combinations, pairwise, product

from .contextual import (Context, ContextualGrammar, SelectionPair,
                         enumerate_ic, validate)
from .errors import IcgramError
from .families import (COMB, COMM, FIN, MON, ORD, PS, SUF, CIRC, FamilyLabel,
                       SearchCaps, Verdict, reg_z, rl_p, rl_v)
from .regex import Literal, Star, alt, seq
from .rlgrammar import RightLinearGrammar, Rule
from .words import EMPTY_WORD, Alphabet, Record, Word

WITNESS_IDS = ("L1", "L2", "L3", "L4", "L6", "L7")

_N_RANGE = {"L3": (1, 3), "L4": (1, 3), "L6": (2, 3), "L7": (2, 3)}


class WitnessCase(Record):
    case_id: str
    n: int | None
    grammar: ContextualGrammar
    variants: tuple[tuple[str, ContextualGrammar], ...]
    positive: tuple[tuple[FamilyLabel, str], ...]  # (family, grammar key)
    negative: tuple[FamilyLabel, ...]
    note: str = ""

    @property
    def has_closed_form(self) -> bool:
        return self.case_id in _CLOSED_FORMS

    @property
    def label(self) -> str:
        return self.case_id if self.n is None else f"{self.case_id}(n={self.n})"

    def grammar_named(self, key: str) -> ContextualGrammar:
        if key == "main":
            return self.grammar
        for name, g in self.variants:
            if name == key:
                return g
        raise KeyError(f"{self.label} has no grammar {key!r}")


def _letters(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def _star_grammar(alphabet: Alphabet) -> RightLinearGrammar:
    rules = tuple(Rule("S", (s,), "S") for s in alphabet) + (Rule("S", EMPTY_WORD, None),)
    return RightLinearGrammar(("S",), alphabet, rules, "S")


def _build_l1() -> WitnessCase:
    v = Alphabet.of("a", "b", "c", "d", "e")
    u1 = Alphabet.of("b", "c")
    u2 = Alphabet.of("a")
    ctx1 = (Context(("a", "b"), ("a", "b")),)
    ctx2 = (Context(("d",), ("e",)),)
    sel1 = RightLinearGrammar(("S",), u1,
                              (Rule("S", ("b",), "S"), Rule("S", ("c",), None)),
                              "S")
    sel2 = RightLinearGrammar(("S",), u2,
                              (Rule("S", ("a", "a"), "S"),
                               Rule("S", EMPTY_WORD, None)),
                              "S")
    main = ContextualGrammar(v, (("c",),), (
        SelectionPair.from_grammar(sel1, ctx1),
        SelectionPair.from_grammar(sel2, ctx2)))
    # widening the first selection to every {b,c}-word ending in c keeps the
    # generated language but drops both selections to two-state automata
    block = seq([Star(Literal("b")), Literal("c")])
    two_state = ContextualGrammar(v, (("c",),), (
        SelectionPair.from_regex(u1, seq([block, Star(block)]), ctx1),
        SelectionPair.from_regex(u2, Star(seq([Literal("a"), Literal("a")])), ctx2)))
    return WitnessCase(
        "L1", None, main, (("two-state", two_state),),
        positive=((rl_v(1), "main"), (rl_p(2), "main"),
                  (reg_z(2), "two-state")),
        negative=(PS,),
        note="crossing insertions: d/e guard an even block of a's; the "
             "ab..ab wrapping makes high powers land on both sides")


def _build_l2() -> WitnessCase:
    v = Alphabet.of("a", "b", "c")
    u = Alphabet.of("a", "b")
    ctx = (Context(("c",), ("c",)),)
    main = ContextualGrammar(v, (("a", "b"), ("b", "a")), (
        SelectionPair.from_words(u, (("a", "b"), ("b",)), ctx),))
    ends_in_b = ContextualGrammar(v, (("a", "b"), ("b", "a")), (
        SelectionPair.from_regex(
            v, seq([Star(_alt_letters(v)), Literal("b")]), ctx),))
    return WitnessCase(
        "L2", None, main, (("ends-in-b", ends_in_b),),
        positive=((FIN, "main"), (rl_v(1), "main"), (rl_p(2), "main"),
                  (COMB, "ends-in-b"), (reg_z(2), "ends-in-b")),
        negative=(SUF, CIRC),
        note="counts of c on both sides stay tied to the a/b skeleton")


def _alt_letters(alphabet: Alphabet):
    return alt([Literal(s) for s in alphabet])


def _build_l3(n: int) -> WitnessCase:
    a = _letters("a", n)
    b = _letters("b", n)
    c = _letters("c", n)
    d = _letters("d", n)
    v = Alphabet(a + b + c + d)
    ub, uc = Alphabet(b), Alphabet(c)
    ctx1 = tuple(Context((x,), (y,)) for x in a for y in c)
    ctx2 = tuple(Context((x,), (y,)) for x in b for y in d)
    axioms = tuple((w, x, y, z) for w in a for x in b for y in c for z in d)
    main = ContextualGrammar(v, axioms, (
        SelectionPair.from_grammar(_star_grammar(ub), ctx1),
        SelectionPair.from_grammar(_star_grammar(uc), ctx2)))
    return WitnessCase(
        "L3", n, main, (),
        positive=((MON, "main"),),
        negative=(rl_p(n),),
        note="two interleaved matching families force many rules")


def _build_l4(n: int) -> WitnessCase:
    v = Alphabet.of("a", "b")
    block = seq([Star(Literal("a")), Literal("b"), Star(Literal("a"))])
    sel = seq([block] * (n + 1))  # exactly n+1 b's
    axiom = ("a", "b") * (2 * n + 1) + ("a",)
    main = ContextualGrammar(v, (axiom,), (
        SelectionPair.from_regex(v, sel, (Context(("a",), ("a",)),)),))
    return WitnessCase(
        "L4", n, main, (),
        positive=((COMM, "main"), (ORD, "main")),
        negative=(rl_v(n),),
        note="doubled exponent vector; every insertion bumps one exponent "
             "in both halves at once")


def _build_l6(n: int) -> WitnessCase:
    letters = _letters("a", n)
    v = Alphabet(letters)
    w0: Word = letters
    axioms = tuple(product(letters, repeat=n - 1)) + (w0,)
    main = ContextualGrammar(v, axioms, (
        SelectionPair.from_words(v, (w0,), (Context(EMPTY_WORD, w0),)),))
    return WitnessCase(
        "L6", n, main, (),
        positive=((FIN, "main"),),
        negative=(reg_z(n),),
        note="repetitions of one fixed word; a smaller automaton cannot "
             "tell the block boundary apart")


def _build_l7(n: int) -> WitnessCase:
    letters = _letters("a", n)
    v = Alphabet(letters)
    full = [tuple(w) for w in product(letters, repeat=n)]
    axioms = tuple(w for k in range(n) for w in product(letters, repeat=k)) \
        + tuple(full)
    main = ContextualGrammar(v, axioms, (
        SelectionPair.from_words(v, full,
                                 tuple(Context(EMPTY_WORD, w) for w in full)),))
    return WitnessCase(
        "L7", n, main, (),
        positive=((COMM, "main"),),
        negative=(reg_z(n),),
        note="length residues modulo n above the threshold")


def build_witness(case_id: str, n: int | None = None) -> WitnessCase:
    """Construct a witness case by id; ``n`` defaults per case and is capped
    at the tabulated parameter range."""
    if case_id not in WITNESS_IDS:
        raise IcgramError(
            f"no witness with id {case_id!r}; available: {', '.join(WITNESS_IDS)}")
    n = _param(case_id, n)
    if n is None:
        return _build_l1() if case_id == "L1" else _build_l2()
    return {"L3": _build_l3, "L4": _build_l4, "L6": _build_l6,
            "L7": _build_l7}[case_id](n)


def _param(case_id: str, n: int | None) -> int | None:
    """``n`` for a case, range-checked, or the low end of its range (None
    for L1, L2, which take no parameter)."""
    if n is None:
        return _N_RANGE.get(case_id, (None,))[0]
    if case_id not in _N_RANGE:
        raise IcgramError(f"{case_id} takes no parameter")
    lo, hi = _N_RANGE[case_id]
    if not lo <= n <= hi:
        raise IcgramError(f"{case_id} takes n in {lo}..{hi}, got {n}")
    return n


# --- closed forms ---------------------------------------------------------

def closed_form(case_id: str, max_len: int, n: int | None = None) -> set[Word]:
    """The generated language, up to ``max_len``, from its arithmetic
    description (independent of the derivation engine).  Only L2, L4, L6 and
    L7 have one; the others raise."""
    if case_id not in _CLOSED_FORMS:
        raise IcgramError(f"{case_id} has no closed form (use enumeration)")
    return _CLOSED_FORMS[case_id](_param(case_id, n), max_len)


def _closed_l2(n: None, max_len: int) -> set[Word]:
    out: set[Word] = set()
    for i in range(max_len + 1):
        for j in range(max_len + 1):
            w = ("c",) * i + ("a",) + ("c",) * j + ("b",) + ("c",) * (i + j)
            if len(w) <= max_len:
                out.add(w)
        w2 = ("c",) * i + ("b",) + ("c",) * i + ("a",)
        if len(w2) <= max_len:
            out.add(w2)
    return out


def _closed_l4(n: int, max_len: int) -> set[Word]:
    out: set[Word] = set()
    budget = (max_len - (2 * n + 1)) // 2  # total of the n+1 exponents
    for total in range(n + 1, budget + 1):
        # the n+1 positive exponents are the gaps between n cuts of 1..total-1
        for cuts in combinations(range(1, total), n):
            bounds = (0,) + cuts + (total,)
            half = tuple(x for lo, hi in pairwise(bounds)
                         for x in ("a",) * (hi - lo) + ("b",))
            out.add(half + half[:-1])  # second half has no trailing b
    return out


def _closed_l6(n: int, max_len: int) -> set[Word]:
    letters = _letters("a", n)
    out: set[Word] = set()
    if n - 1 <= max_len:
        out.update(product(letters, repeat=n - 1))
    k = 1
    while k * n <= max_len:
        out.add(letters * k)
        k += 1
    return out


def _closed_l7(n: int, max_len: int) -> set[Word]:
    letters = _letters("a", n)
    out: set[Word] = set()
    for k in range(n):
        if k <= max_len:
            out.update(product(letters, repeat=k))
    length = n
    while length <= max_len:
        out.update(product(letters, repeat=length))
        length += n
    return out


_CLOSED_FORMS = {"L2": _closed_l2, "L4": _closed_l4, "L6": _closed_l6,
                 "L7": _closed_l7}


# --- claim checking -------------------------------------------------------

class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


class WitnessReport(Record):
    case_label: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [f"witness {self.case_label}"]
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            line = f"  {mark} {r.name}"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
        lines.append("status: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def check_witness(case: WitnessCase, max_len: int = 8, *,
                  caps: SearchCaps = SearchCaps()) -> WitnessReport:
    """Run every machine-checkable claim of the case; failures are reported,
    not raised, but a frontier cap that is hit raises ResourceLimitError."""
    from .hierarchy import hierarchy
    from .subregular import selection_in_family
    results: list[CheckResult] = []

    problems = validate(case.grammar)
    for name, g in case.variants:
        problems += validate(g)
    results.append(CheckResult(
        "well-formed", not problems,
        "; ".join(str(p) for p in problems) if problems else ""))
    if problems:
        return WitnessReport(case.label, tuple(results))

    if case.variants or case.has_closed_form:
        cap = caps.frontier_cap
        main_words = enumerate_ic(case.grammar, max_len, frontier_cap=cap)
        for name, g in case.variants:
            same = enumerate_ic(g, max_len, frontier_cap=cap) == main_words
            results.append(CheckResult(
                f"variant '{name}' generates the same words up to length {max_len}",
                same))
        if case.has_closed_form:
            want = closed_form(case.case_id, max_len, case.n)
            results.append(CheckResult(
                f"closed form matches enumeration up to length {max_len}",
                main_words == want,
                f"{len(main_words)} word{'' if len(main_words) == 1 else 's'}"))

    for family, key in case.positive:
        res = selection_in_family(case.grammar_named(key), family, caps=caps)
        results.append(CheckResult(
            f"selections of '{key}' lie in {family}",
            res.overall is Verdict.YES,
            "; ".join(pv.note for pv in res.per_pair)))

    merged = hierarchy("merged", max_param=3)
    for neg in case.negative:
        conflicts = [str(pos) for pos, _ in case.positive
                     if merged.reachable(pos, neg)]
        results.append(CheckResult(
            f"negative claim (not in IC({neg})) is consistent",
            not conflicts,
            "implied by " + ", ".join(conflicts) if conflicts
            else "no positive claim implies it; unbounded part rests on the proofs"))

    return WitnessReport(case.label, tuple(results))
