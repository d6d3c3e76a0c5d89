"""The four workloads: inputs from the seed, operations, oracles and the
replays of hidden layers used by the traced run.

A workload is closed loop with one client.  A run draws one fixed list of
operations from its seed and repeats the whole list, a cycle, until its
time is up, so every share is that of the list and every operation is
timed several times on the same input.  The program sees nothing but the
generated inputs.  ``icgram``
is imported inside :meth:`setup`, so that a set-up probe times the import.

Every repeat of an operation counts as one latency sample, at the median of
that operation's repeats.  A workload's ``tail_pct`` is the percentile in
the middle of the samples of its second-slowest operation: the highest
that has a whole operation's repeats, at least ten, beyond it, and one
that does not move when the number of cycles in a run does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import oracles as orc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    """One operation of the mix.  ``run`` calls the program and ``check``
    raises :class:`oracles.WrongAnswer` on a wrong result.  ``requested``
    answers are asked for; ``decided`` says how many came back decided.
    ``replay`` calls the layers that ``run`` hides, as child spans."""

    label: str
    layer: str
    run: Callable[[], object]
    check: Callable[[object], None]
    corrupt: Callable[[object], object]
    requested: int = 1
    decided: Callable[[object], int] = lambda result: 1
    counts: Callable[[object], dict] = lambda result: {}
    replay: Callable[[object, object], None] | None = None


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _case_label(cid: str, n: int | None) -> str:
    return cid if n is None else f"{cid}({n})"


class _Witnesses:
    """Shared set-up of the workloads that run built-in witness grammars."""

    cases: tuple = ()

    def setup_calls(self):
        for cid, n in self.cases:
            yield ("witnesses.build_witness",
                   lambda cid=cid, n=n: self._build(cid, n))

    def setup(self) -> None:
        import icgram
        self.ic = icgram
        self.grammars = {}
        for _, call in self.setup_calls():
            call()

    def _build(self, cid, n):
        self.grammars[(cid, n)] = self.ic.build_witness(cid, n).grammar


# --- ic-enumerate -----------------------------------------------------------

class IcEnumerate(_Witnesses):
    """``enumerate_ic`` over every witness case, at a small bound and at a
    bound near 0.1 s, short enough that every operation repeats often in a
    run.  Almost all time is the forward step; no monoid or decider runs.
    Enumeration has no free input, so the seed only orders the mix."""

    name = "ic-enumerate"
    tail_pct = 88
    MIX = (("L1", None, 12), ("L1", None, 15), ("L2", None, 60),
           ("L2", None, 160), ("L3", 1, 6), ("L3", 1, 10), ("L4", 1, 20),
           ("L4", 1, 36), ("L6", 2, 40), ("L6", 2, 160), ("L7", 2, 8),
           ("L7", 2, 10), ("L3", 2, 7))
    TINY = (("L1", None, 8), ("L2", None, 12), ("L3", 1, 6), ("L4", 1, 11),
            ("L6", 2, 10), ("L7", 2, 6))

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.mix = self.TINY if tiny else self.MIX
        self.cases = tuple(dict.fromkeys((c, n) for c, n, _ in self.mix))

    def sizes(self) -> str:
        return ", ".join(f"{_case_label(c, n)}@{b}" for c, n, b in self.mix)

    def prepare(self) -> None:
        self.expected = {}
        for cid, n, bound in self.mix:
            if cid in ("L1", "L3"):
                self.expected[(cid, n, bound)] = \
                    tuple(PINS["enumerate"][f"{_case_label(cid, n)}@{bound}"])
            else:
                self.expected[(cid, n, bound)] = self.ic.closed_form(cid, bound, n)

    def operations(self) -> list[Op]:
        order = list(self.mix)
        _rng(self.seed, "order").shuffle(order)
        return [self._op(*entry) for entry in order]

    def _op(self, cid, n, bound) -> Op:
        g = self.grammars[(cid, n)]
        want = self.expected[(cid, n, bound)]
        label = f"enumerate {_case_label(cid, n)}@{bound}"

        def check(words):
            if isinstance(want, tuple):
                got = orc.words_digest(words)
                orc.check(got == want, f"{label}: {got} words/digest, pinned {want}")
            else:
                orc.check(words == want, f"{label}: {len(words)} words, closed "
                                         f"form has {len(want)}")

        def replay(tracer, words):
            # the forward step, on a sample of the words enumerate_ic stepped
            ordered = sorted(words, key=lambda w: (len(w), w))
            sample = _rng(self.seed, label).sample(ordered, min(20, len(ordered)))
            for w in sample:
                with tracer.span("contextual.derive_step") as sp:
                    steps = self.ic.derive_step(g, w)
                sp["counts"]["steps"] = len(steps)
                sp["counts"]["distinct"] = len({s.target for s in steps})

        def run():
            return self.ic.enumerate_ic(g, bound)

        def corrupt(words):
            return set(sorted(words)[1:])

        return Op(label, "contextual.enumerate_ic", run, check, corrupt,
                  counts=lambda words: {"words": len(words)}, replay=replay)


# --- ic-member ----------------------------------------------------------------

class IcMember(_Witnesses):
    """``member_ic`` on members and one-deletion non-members of growing
    length, the same selection machinery run backwards.  The L6(2) members
    of 2,000 and 3,000 symbols are kept although they hit RecursionError.
    The seed picks the L7 words and the order of the operations."""

    name = "ic-member"
    tail_pct = 93
    LENGTHS = (("L2", None, (20, 40, 80, 120)), ("L4", 1, (24, 36)),
               ("L6", 2, (16, 32, 48)), ("L7", 2, (10, 20)))
    LONG = (("L6", 2, 2000), ("L6", 2, 3000))
    TINY = (("L2", None, (10, 20)), ("L4", 1, (11, 21)), ("L6", 2, (10, 20)),
            ("L7", 2, (5, 10)))
    TINY_LONG = (("L6", 2, 2000),)

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.lengths = self.TINY if tiny else self.LENGTHS
        self.long = self.TINY_LONG if tiny else self.LONG
        self.cases = tuple((c, n) for c, n, _ in self.lengths)

    def sizes(self) -> str:
        parts = [f"{_case_label(c, n)} |w|~{'/'.join(map(str, ls))}"
                 for c, n, ls in self.lengths]
        parts += [f"{_case_label(c, n)} |w|={ln} member" for c, n, ln in self.long]
        return "; ".join(parts) + (" (per length a member, and the non-member"
                                   " one deletion a third of the way in)")

    def prepare(self) -> None:
        rng = _rng(self.seed, "validate")
        for cid, n in self.cases:
            orc.validate_predicate(self.ic, cid, n, 12, rng)

    def operations(self) -> list[Op]:
        rng = _rng(self.seed, "words")
        ops = []
        for cid, n, lengths in self.lengths:
            pred = orc.member_predicate(cid, n)
            for length in lengths:
                w = orc.member_word(cid, n, length, rng)
                ops.append(self._op(cid, n, length, w, True))
                ops.append(self._op(cid, n, length,
                                    orc.deletion_nonmember(w, pred), False))
        for cid, n, length in self.long:
            ops.append(self._op(cid, n, length,
                                orc.member_word(cid, n, length, rng), True))
        rng.shuffle(ops)
        return ops

    def _op(self, cid, n, length, w, want: bool) -> Op:
        g = self.grammars[(cid, n)]
        kind = "pos" if want else "neg"
        label = f"member {_case_label(cid, n)} |w|~{length} {kind}"
        orc.check(orc.member_predicate(cid, n)(w) == want, f"{label}: bad input")

        def check(got):
            orc.check(got is want, f"{label}: member_ic says {got} for {w}")

        def replay(tracer, got):
            if got:
                with tracer.span("contextual.member_trace") as sp:
                    trace = self.ic.member_trace(g, w)
                orc.check(trace is not None and (not trace or trace[-1].target == w),
                          f"{label}: member_trace disagrees with member_ic")
                sp["counts"]["steps"] = len(trace)

        return Op(label, f"contextual.member_ic.{kind}",
                  lambda: self.ic.member_ic(g, w), check, lambda got: not got,
                  replay=replay)


# --- classify-random --------------------------------------------------------

IS_FNS = ("is_monoidal", "is_finite", "is_nilpotent", "is_combinational",
           "is_definite", "is_suffix_closed", "is_ordered", "is_commutative",
           "is_circular", "is_noncounting", "is_power_separating")


class ClassifyRandom:
    """``classify`` on uniformly random complete DFAs with 6, 12, 24 and 48
    states over two and three letters.  A run holds one pinned DFA per size
    and alphabet (its verdicts are pinned in ``pins.json``) and more drawn
    from the seed.  ``contextual`` is bypassed."""

    name = "classify-random"
    tail_pct = 93
    # seeded DFAs per size and alphabet: as many 6-state DFAs as 24- and
    # 48-state ones together, so the median falls inside the 12-state group
    # instead of on the jump between two sizes
    SEEDED = {6: 3, 12: 3, 24: 1, 48: 1}
    TINY_SEEDED = {6: 1, 12: 1}
    KS = (2, 3)

    def __init__(self, seed: int, tiny: bool, work: Path):
        per_size = self.TINY_SEEDED if tiny else self.SEEDED
        self.pinned = [p for p in PINS["classify"] if p["n"] in per_size]
        rng = _rng(seed, "dfa")
        self.seeded = [{"n": n, "k": k, "table": orc.random_table(rng, n, k)}
                       for n, count in per_size.items() for k in self.KS
                       for _ in range(count)]

    def sizes(self) -> str:
        sizes = [e["n"] for e in self.pinned + self.seeded]
        return (", ".join(f"{sizes.count(n)} of {n} states" for n in sorted(set(sizes)))
                + f" (|U| = 2 and 3; {len(self.pinned)} pinned, "
                  f"{len(self.seeded)} from the seed)")

    def setup_calls(self):
        for entry in self.pinned + self.seeded:
            yield ("automata.Dfa", lambda e=entry: self._build(e))

    def setup(self) -> None:
        import icgram
        self.ic = icgram
        for _, call in self.setup_calls():
            call()

    def _build(self, entry) -> None:
        delta, accepting = entry["table"]
        u = self.ic.Alphabet(tuple("abc"[:entry["k"]]))
        table = {(q, a): delta[q][i] for q in range(entry["n"])
                 for i, a in enumerate(u)}
        entry["dfa"] = (self.ic.Dfa(tuple(range(entry["n"])), u, table, 0,
                                    frozenset(accepting)), u)

    def prepare(self) -> None:
        for entry in self.pinned + self.seeded:
            entry["min_states"] = orc.minimal_state_count(*entry["table"])

    def operations(self) -> list[Op]:
        return [self._op(e, "pinned") for e in self.pinned] + \
            [self._op(e, "seeded") for e in self.seeded]

    def _op(self, entry, kind) -> Op:
        d, u = entry["dfa"]
        label = f"classify n={entry['n']} |U|={entry['k']} {kind}"
        ic = self.ic

        def verdicts(report):
            return {str(lab): str(v) for lab, v in report.verdicts.items()
                    if str(lab) in orc.DFA_FAMILIES}

        def check(report):
            orc.check(report.min_state_count == entry["min_states"],
                      f"{label}: {report.min_state_count} minimal states, "
                      f"expected {entry['min_states']}")
            orc.check_verdicts(verdicts(report), entry.get("verdicts"), label)

        def corrupt(report):
            flipped = dict(report.verdicts)
            for lab, v in flipped.items():
                if str(lab) in orc.DFA_FAMILIES and str(v) != "unknown":
                    flipped[lab] = ic.Verdict.NO if str(v) == "yes" else ic.Verdict.YES
                    break
            return replace(report, verdicts=flipped)

        def replay(tracer, report):
            with tracer.span("automata.minimize") as sp:
                dm = ic.minimize(d)
            sp["counts"]["states_out"] = len(dm.states)
            with tracer.span("monoid.transition_monoid") as sp:
                try:
                    sp["counts"]["elements"] = ic.transition_monoid(dm).size
                    sp["counts"]["capped"] = 0
                except ic.ResourceLimitError as e:
                    sp["counts"]["elements"] = e.reached
                    sp["counts"]["capped"] = 1
            for fn in IS_FNS:
                with tracer.span(f"subregular.{fn}") as sp:
                    try:
                        getattr(ic, fn)(d, u)
                        sp["counts"]["decided"] = 1
                    except (ic.UndecidedError, ic.ResourceLimitError) as e:
                        sp["counts"]["decided"] = 0
                        sp["counts"]["raised"] = type(e).__name__

        return Op(label, "subregular.classify", lambda: ic.classify(d, u), check,
                  corrupt, requested=len(orc.DFA_FAMILIES),
                  decided=lambda r: sum(v != "unknown" for v in verdicts(r).values()),
                  replay=replay)


# --- cli-session --------------------------------------------------------------

class CliCrash(Exception):
    """The command line died with a Python traceback."""


# regex, alphabet, golden (classify) / exact measures: states, nonterminals, rules
_CLASSIFY = (("(aa)*", "a", "classify_aa-star.txt"),
             ("b*c", "bc", "classify_b-star-c.txt"),
             ("(ab)*", "ab", "classify_ab-star.txt"))
# (a|b)*b is left out: its search costs a third more than these, and the
# seed would move the tail latency by picking it
_MEASURE = (("b*c", "bc", (3, 1, 2)), ("(aa)*", "a", (2, 1, 2)),
            ("(ab)*", "ab", (3, 1, 2)), ("a*b", "ab", (3, 1, 2)))


class CliSession:
    """Sequential ``python -m icgram.cli`` invocations, one at a time, end to
    end: interpreter start, import, command and output.  The only workload
    that reaches ``cli``, ``ctxformat``, ``witnesses``, ``hierarchy`` and
    ``resources``."""

    name = "cli-session"
    tail_pct = 83

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.goldens = ROOT / "tests" / "goldens"
        self.grammar_path = str(work / "l1.ctx")

    def sizes(self) -> str:
        return ("L1 words of length <= 12; witness run all --max-len 8; "
                "enumerate --max-len 8")

    def setup_calls(self):
        yield ("witnesses.build_witness", self._build)
        yield ("ctxformat.format_contextual", self._format)
        yield ("ctxformat.parse_contextual", self._parse)

    def setup(self) -> None:
        import icgram
        self.ic = icgram
        for _, call in self.setup_calls():
            call()

    def _build(self):
        self.l1 = self.ic.build_witness("L1").grammar

    def _format(self):
        self.l1_text = self.ic.format_contextual(self.l1)
        Path(self.grammar_path).write_text(self.l1_text, encoding="utf-8")

    def _parse(self):
        self.ic.parse_contextual(self.l1_text)

    def prepare(self) -> None:
        words = self.ic.enumerate_ic(self.l1, 12)
        orc.check(orc.words_digest(words) == tuple(PINS["enumerate"]["L1@12"]),
                  "L1@12 reference enumeration does not match its pin")
        self.l1_words = sorted(words, key=lambda w: (len(w), w))
        self.l1_set = set(words)
        self.sigma = tuple(self.l1.alphabet)

    def _golden(self, name: str) -> str:
        return (self.goldens / name).read_text(encoding="utf-8")

    def operations(self) -> list[Op]:
        rng = _rng(self.seed, "cli")
        member = rng.choice(self.l1_words[1:])
        nonmember = orc.single_edit_nonmember(
            member, self.sigma, lambda w: len(w) > 12 or w in self.l1_set, rng)
        traced = rng.choice(self.l1_words[1:])
        rx, alpha, golden = _CLASSIFY[rng.randrange(len(_CLASSIFY))]
        mrx, malpha, exact = _MEASURE[rng.randrange(len(_MEASURE))]
        return [
            self._op("witness-export", ["witness", "export", "L1"], 0,
                     golden="export_l1.ctx"),
            self._op("member", ["member", "--grammar", self.grammar_path, "--word",
                                "".join(member)], 0, stdout="true\n", word=member),
            self._op("classify", ["classify", "--regex", rx, "--alphabet", alpha],
                     0, golden=golden),
            self._op("witness-hierarchy", ["witness", "hierarchy"], 0,
                     golden="hierarchy_merged.txt"),
            self._op("member", ["member", "--grammar", self.grammar_path, "--word",
                                "".join(nonmember)], 1, stdout="false\n",
                     word=nonmember),
            self._op("derive", ["derive", "--grammar", self.grammar_path, "--word",
                                "".join(traced), "--trace"], 0, word=traced),
            self._op("measure", ["measure", "--regex", mrx, "--alphabet", malpha],
                     0, exact=exact),
            self._op("enumerate", ["enumerate", "--grammar", self.grammar_path,
                                   "--max-len", "8"], 0,
                     golden="enumerate_l1_maxlen8.words"),
            self._op("witness-run", ["witness", "run", "all", "--max-len", "8"], 0),
        ]

    def _op(self, command, argv, code, *, golden=None, stdout=None, word=None,
            exact=None) -> Op:
        label = f"cli {command}"
        want = self._golden(golden) if golden else stdout

        def run():
            p = subprocess.run([sys.executable, "-m", "icgram.cli"] + argv,
                               cwd=self.work, env=self.env, capture_output=True,
                               text=True, timeout=170)
            if "Traceback (most recent call last)" in p.stderr:
                raise CliCrash(p.stderr.strip().splitlines()[-1])
            return p.returncode, p.stdout

        def check(result):
            got_code, out = result
            if got_code == 3:
                return  # a cap was hit: undecided, not wrong
            orc.check(got_code == code, f"{label} {argv}: exit {got_code}, want {code}")
            if want is not None:
                orc.check(out == want, f"{label} {argv}: stdout differs from "
                                       f"{golden or repr(want)}")
            if command == "derive":
                lines = out.splitlines()
                prev, ok = lines[0], lines[0] == "c"
                for line in lines[1:]:
                    source, target = line.split("  [")[0].split(" => ")
                    ok, prev = ok and source == prev, target
                orc.check(ok and prev == "".join(word),
                          f"{label} {argv}: trace does not derive the word")
            if command == "measure":
                for kind, n in zip(("states", "nonterminals", "rules"), exact):
                    orc.check(f"\n{kind}: {n} (exact)" in out,
                              f"{label} {argv}: {kind} is not exactly {n}")
            if command == "witness-run":
                orc.check(out.count("status: PASS") == 6,
                          f"{label}: not every witness case passed")

        def replay(tracer, result):
            self._replay(tracer, command, argv, word)

        return Op(label, "cli.subprocess", run, check,
                  lambda r: (r[0], r[1] + "x") if want else (1 - r[0], r[1]),
                  decided=lambda r: int(r[0] != 3), replay=replay)

    def _replay(self, tracer, command, argv, word) -> None:
        """``main(argv)`` in-process, then the public calls it makes, each
        on the same inputs, as child spans."""
        ic = self.ic
        from icgram.cli import main
        with tracer.span(f"cli.main.{command}"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            if command == "witness-export":
                with tracer.span("witnesses.build_witness"):
                    g = ic.build_witness("L1").grammar
                with tracer.span("ctxformat.format_contextual"):
                    ic.format_contextual(g)
            elif command in ("member", "derive", "enumerate"):
                with tracer.span("ctxformat.parse_contextual"):
                    g = ic.parse_contextual(self.l1_text)
                if command == "member":
                    kind = "pos" if word in self.l1_set else "neg"
                    with tracer.span(f"contextual.member_ic.{kind}"):
                        ic.member_ic(g, word)
                elif command == "derive":
                    with tracer.span("contextual.member_trace") as sp:
                        sp["counts"]["steps"] = len(ic.member_trace(g, word))
                else:
                    with tracer.span("contextual.enumerate_ic"):
                        ic.enumerate_ic(g, 8)
            elif command in ("classify", "measure"):
                u = ic.Alphabet.from_text(argv[4])
                with tracer.span("regex.parse_regex"):
                    r = ic.parse_regex(argv[2], u)
                with tracer.span("automata.regex_to_dfa"):
                    d = ic.regex_to_dfa(r, u)
                if command == "classify":
                    with tracer.span("subregular.classify"):
                        ic.classify(d, u, source_regex=r, language_name=argv[2])
                else:
                    for kind in ("states", "nonterminals", "rules"):
                        with tracer.span(f"resources.measure.{kind}") as sp:
                            sp["counts"]["exact"] = int(ic.measure(d, kind).exact)
            elif command == "witness-run":
                for cid in ic.WITNESS_IDS:
                    with tracer.span("witnesses.build_witness"):
                        case = ic.build_witness(cid)
                    with tracer.span("witnesses.check_witness"):
                        ic.check_witness(case, 8)
            else:
                with tracer.span("hierarchy.hierarchy"):
                    ic.hierarchy("merged")

    def probes(self, tracer) -> None:
        """Interpreter start, ``import icgram.cli`` and ``import numpy``, each
        in a fresh interpreter."""
        for name, code in (("cli.interpreter", "pass"),
                           ("cli.import", "import icgram.cli"),
                           ("cli.import_numpy", "import numpy")):
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], cwd=self.work,
                               env=self.env, check=True, timeout=60)


WORKLOADS = {w.name: w for w in (IcEnumerate, IcMember, ClassifyRandom, CliSession)}
