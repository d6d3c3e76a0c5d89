"""End-to-end checks of the command line front end.

Everything runs in-process through ``main`` so exit codes and output bytes
are exactly what a shell would see.
"""

import json
import random
import re
from textwrap import indent

import pytest
from conftest import REGEX_CHARS, random_dfa, random_regex, run_cli

from icgram import cli, contextual, subregular
from icgram.automata import dfa_to_table, regex_to_dfa
from icgram.contextual import (Context, ContextualGrammar, SelectionPair,
                               derive_step, enumerate_ic, member_trace)
from icgram.ctxformat import format_contextual, parse_contextual
from icgram.errors import IcgramError, InternalConsistencyError
from icgram.families import SearchCaps, parse_family_label
from icgram.regex import format_regex, parse_regex
from icgram.subregular import classify
from icgram.witnesses import closed_form
from icgram.words import Alphabet, sort_words, word_from_text, word_to_text


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    """Witness grammars L1 and L2 exported to .ctx files."""
    root = tmp_path_factory.mktemp("ctx")
    paths = {}
    for cid in ("L1", "L2"):
        code, text = run_cli(["witness", "export", cid])
        assert code == 0
        p = root / f"{cid.lower()}.ctx"
        p.write_text(text, encoding="utf-8")
        paths[cid] = str(p)
    return paths


# --- the documented example invocations ------------------------------------

def test_classify_report_even_length_as():
    code, out = run_cli(["classify", "--regex", "(aa)*", "--alphabet", "a"])
    assert code == 0
    lines = out.splitlines()
    assert "language: (aa)*" in lines
    assert "min-states: 2" in lines
    by_family = {}
    for line in lines:
        head, _, note = line.partition("  # ")
        name, _, verdict = head.partition(": ")
        by_family[name] = verdict
    assert by_family["COMM"] == "yes"
    assert by_family["NC"] == "no"
    assert by_family["PS"] == "no"
    assert by_family["MON"] == "no"
    assert by_family["REG"] == "yes"


def test_witness_run_l2_passes():
    code, out = run_cli(["witness", "run", "L2", "--max-len", "8"])
    assert code == 0
    assert out.splitlines()[0] == "witness L2"
    assert "status: PASS" in out
    assert "fail" not in out


def test_witness_run_obeys_the_frontier_cap(capsys):
    # the same cap makes ``enumerate`` on the exported L2 grammar exit 3
    code, out = run_cli(["witness", "run", "L2", "--max-len", "8",
                         "--caps", "frontier_cap=3"])
    assert (code, out) == (cli.EXIT_CAPPED, "")
    assert capsys.readouterr().err == "error: enumeration exceeded 3 words\n"


def test_witness_run_passes_the_monoid_cap_on(monkeypatch):
    decide = subregular.selection_in_family
    seen = []

    def recording(g, label, *, caps):
        seen.append(caps.monoid_cap)
        return decide(g, label, caps=caps)

    monkeypatch.setattr(subregular, "selection_in_family", recording)
    code, _ = run_cli(["witness", "run", "L2", "--max-len", "4",
                       "--caps", "monoid_cap=7"])
    assert code == 0
    assert seen and set(seen) == {7}


def test_member_accepts_l1_word(grammar_files):
    code, out = run_cli(["member", "--grammar", grammar_files["L1"],
                         "--word", "daaebbcabab"])
    assert code == 0
    assert out == "true\n"


# --- exit code contract -----------------------------------------------------

def test_family_verdicts_drive_exit_codes():
    code, out = run_cli(["classify", "--regex", "(aa)*", "--alphabet", "a",
                         "--family", "COMM"])
    assert code == 0 and out.startswith("COMM: yes")
    code, out = run_cli(["classify", "--regex", "(aa)*", "--alphabet", "a",
                         "--family", "PS"])
    assert code == 1 and out.startswith("PS: no")
    # (ab)* sits in the undecided gap of the order check: not definite, not
    # repetition-counting, minimal automaton unorderable
    code, out = run_cli(["classify", "--regex", "(ab)*", "--alphabet", "ab",
                         "--family", "ORD"])
    assert code == 3 and out.startswith("ORD: unknown")


@pytest.mark.parametrize("family", ["MON", "FIN", "DEF", "ORD", "NC", "PS",
                                    "UF", "REG", "REG_Z(1)", "RL_V(1)",
                                    "RL_P(2)"])
def test_classify_family_of_a_regex_is_the_verdict_on_its_selection(family):
    # one decision path: a regex on the command line, and the same regex as
    # the one selection of a grammar
    u = Alphabet.of("a", "b")
    label = parse_family_label(family)
    for regex in ("a*", "ab", "(ab)*", "ab|b", "(a|b)*", "(a|b)*b", "a(a|b)*"):
        pair = SelectionPair.from_regex(u, parse_regex(regex, u),
                                        (Context(("a",), ()),))
        res = subregular.selection_in_family(
            ContextualGrammar(u, (("a",),), (pair,)), label,
            caps=SearchCaps(monoid_cap=40, max_candidates=3000))
        (pv,) = res.per_pair
        code, out = run_cli(["classify", "--regex", regex, "--alphabet", "ab",
                             "--family", family, "--caps",
                             "monoid_cap=40,max_candidates=3000"])
        assert out == f"{label}: {pv.verdict}  # {pv.note}\n", regex
        assert code == cli._verdict_exit(res.overall), regex


def test_member_accepts_a_long_word(tmp_path):
    # 999 inverse steps deep: more than the interpreter's recursion limit
    code, text = run_cli(["witness", "export", "L6", "--n", "2"])
    assert code == 0
    path = tmp_path / "l6.ctx"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["member", "--grammar", str(path),
                         "--word", ".".join(["a1", "a2"] * 1000)])
    assert code == 0 and out == "true\n"


def test_member_rejects_with_exit_one(grammar_files):
    code, out = run_cli(["member", "--grammar", grammar_files["L1"],
                         "--word", "dcabab"])
    assert code == 1
    assert out == "false\n"


def test_member_search_cap_exits_three(tmp_path):
    # a non-member of L4(1) whose backward search explores more than 5 words
    code, text = run_cli(["witness", "export", "L4", "--n", "1"])
    assert code == 0
    path = tmp_path / "l4.ctx"
    path.write_text(text, encoding="utf-8")
    argv = ["member", "--grammar", str(path), "--word", "aaaababaaba"]
    assert run_cli(argv) == (1, "false\n")
    assert run_cli(argv + ["--caps", "frontier_cap=5"]) == (3, "")
    # derive --trace runs the same search under the same cap
    argv = ["derive", "--grammar", str(path), "--word", "aaaababaaba", "--trace"]
    assert run_cli(argv) == (1, "no derivation\n")
    assert run_cli(argv + ["--caps", "frontier_cap=5"]) == (3, "")
    # 4 b's against L4(1)'s 3: the Parikh residue rejects it without a search
    argv = ["member", "--grammar", str(path), "--word", "ababababa",
            "--caps", "frontier_cap=5"]
    assert run_cli(argv) == (1, "false\n")


def test_enumerate_search_cap_exits_three(grammar_files):
    # L1 has 363 words up to length 11; the closure stops after 5
    argv = ["enumerate", "--grammar", grammar_files["L1"], "--max-len", "11"]
    code, out = run_cli(argv)
    assert code == 0 and len(out.splitlines()) == 363
    assert run_cli(argv + ["--caps", "frontier_cap=5"]) == (3, "")


def test_enumerate_regex_obeys_the_frontier_cap(capsys):
    # (a|b)* has 15 words up to length 3: the walk stops past 3 of them
    argv = ["enumerate", "--regex", "(a|b)*", "--alphabet", "ab",
            "--max-len", "3"]
    code, out = run_cli(argv)
    assert code == 0 and len(out.splitlines()) == 15
    assert run_cli(argv + ["--caps", "frontier_cap=3"]) == (3, "")
    assert capsys.readouterr().err == "error: enumeration exceeded 3 words\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--regex", "a*", "--alphabet", "a"],
    ["measure", "--regex", "a*", "--alphabet", "a"],
    ["enumerate", "--regex", "a*", "--alphabet", "a", "--max-len", "2"],
    ["member", "--grammar", "l2.ctx", "--word", "ab"],
    ["derive", "--grammar", "l2.ctx", "--word", "ab"],
    ["witness", "run", "L2"], ["witness", "list"], ["witness", "export", "L2"],
    ["witness", "hierarchy"]], ids=lambda argv: "-".join(argv[:2]))
def test_every_command_refuses_malformed_caps(grammar_files, capsys, argv):
    argv = [grammar_files["L2"] if x == "l2.ctx" else x for x in argv]
    assert run_cli(argv)[0] == 0
    capsys.readouterr()
    assert run_cli(argv + ["--caps", "bogus"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: bad --caps entry 'bogus'; keys: max_nonterminals, max_rules, "
        "max_rhs_len, max_candidates, monoid_cap, frontier_cap\n")
    assert run_cli(argv + ["--caps", "max_rules=1,max_rules=3"]) == (2, "")
    assert capsys.readouterr().err == "error: --caps key 'max_rules' given twice\n"


def test_monoid_cap_exit_three():
    code, out = run_cli(["classify", "--regex", "(aa)*", "--alphabet", "a",
                         "--family", "PS", "--caps", "monoid_cap=1"])
    assert code == 3
    assert "unknown" in out and "monoid cap exceeded" in out


@pytest.mark.parametrize("argv", [
    ["classify"],                                       # no language at all
    ["classify", "--regex", "a("],                      # regex without alphabet
    ["classify", "--regex", "a(", "--alphabet", "a"],   # regex parse error
    ["member", "--grammar", "/nonexistent.ctx", "--word", "a"],
    ["enumerate", "--regex", "a*", "--alphabet", "a"],  # missing --max-len
    ["bogus"],                                          # unknown command
    ["classify", "--regex", "a*", "--alphabet", "a", "--caps", "zzz=3"],
    ["convert", "--regex", "a*", "--alphabet", "a", "--to", "canonical"],
    ["witness", "hierarchy", "--max-param", "1"],
    ["classify", "--regex", "a", "--alphabet", "ab."],  # empty symbol
    ["enumerate", "--regex", "a*", "--alphabet", "a", "--max-len", "-1"],
    ["witness", "run", "L1", "--max-len", "-1"],
    ["measure", "--regex", "b*c", "--alphabet", "bc", "--grammar", "/nonexistent"],
    ["convert", "--regex", "b*c", "--alphabet", "bc", "--grammar", "/nonexistent",
     "--to", "dfa"],
])
def test_usage_and_parse_errors_exit_two(argv):
    code, _ = run_cli(argv)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--regex", "", "--grammar", "L1"],
    ["measure", "--grammar", "", "--regex", "a", "--alphabet", "a"]],
    ids=["regex", "grammar"])
def test_an_empty_option_value_is_given(grammar_files, capsys, argv):
    # an empty --regex or --grammar is present, so with the other one it is
    # refused, not ignored
    argv = [grammar_files.get(x, x) for x in argv]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == \
        "error: give either --grammar or --regex, not both\n"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--regex", "", "--alphabet", "a"],
     "error: 1:1: empty alternative (use () for the empty word)\n"),
    (["classify", "--regex", "a", "--alphabet", ""],
     "error: 1:1: empty alphabet\n"),
    (["classify", "--regex", "a", "--alphabet", "a", "--family", ""],
     "error: 1:1: unknown family kind ''\n")],
    ids=["regex", "alphabet", "family"])
def test_an_empty_option_value_is_parsed(capsys, argv, message):
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == message


def test_unknown_witness_variant_exits_two(capsys):
    assert run_cli(["witness", "export", "L1", "--variant", "nope"]) == (2, "")
    err = capsys.readouterr().err
    assert err == "error: L1 has no grammar 'nope'\n"
    assert "Traceback" not in err


def test_member_validates_the_grammar_once(grammar_files, monkeypatch):
    # reading the grammar compiles it, and compiling validates it
    calls = []
    validate = contextual.validate
    monkeypatch.setattr(contextual, "validate",
                        lambda g: calls.append(g) or validate(g))
    assert run_cli(["member", "--grammar", grammar_files["L1"],
                    "--word", "daaebbcabab"]) == (0, "true\n")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["classify"], ["measure"], ["member", "--word", "a"],
    ["derive", "--word", "a"], ["enumerate", "--max-len", "3"]])
def test_invalid_grammar_exits_two(tmp_path, capsys, argv):
    # parses, but its only pair has no contexts
    path = tmp_path / "bad.ctx"
    path.write_text("alphabet: a b\naxiom: a\npair:\n  alphabet: a\n"
                    "  selection regex: a\n", encoding="utf-8")
    assert run_cli(argv + ["--grammar", str(path)]) == (2, "")
    assert "pair 1: pair has no contexts" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("stray"),
                                   InternalConsistencyError("cross-check")])
def test_internal_errors_exit_four(monkeypatch, capsys, error):
    # a bug reads neither as a non-member (1) nor as a usage error (2)
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_member", fail)
    assert run_cli(["member", "--grammar", "g.ctx", "--word", "a"]) == (4, "")
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.endswith(f"{type(error).__name__}: {error}\n")


def test_regex_errors_carry_line_and_column(capsys):
    code, _ = run_cli(["classify", "--regex", "a(", "--alphabet", "a"])
    assert code == 2
    assert "1:3" in capsys.readouterr().err


# --- deep expressions: no depth of nesting exits 4 ---------------------------

NESTED = "(" * 10_000 + "a" + ")" * 10_000
STARRED = "a" + "*" * 10_000
ALTERNATING = "(a(b|" * 1_000 + "c" + "))" * 1_000


@pytest.mark.parametrize("argv, expected", [
    (["classify", "--regex", NESTED, "--alphabet", "a"], "min-states: 3\n"),
    (["classify", "--regex", STARRED, "--alphabet", "a"], "min-states: 1\n"),
    (["enumerate", "--regex", NESTED, "--alphabet", "a", "--max-len", "4"],
     "a\n"),
    (["enumerate", "--regex", STARRED, "--alphabet", "a", "--max-len", "4"],
     "@\na\naa\naaa\naaaa\n"),
    (["enumerate", "--regex", ALTERNATING, "--alphabet", "abc",
      "--max-len", "4"], "ab\naab\naaab\n"),
    (["convert", "--regex", NESTED, "--alphabet", "a", "--to", "dfa"],
     "states: q0 q1 q2\n"),
    (["convert", "--regex", STARRED, "--alphabet", "a", "--to", "dfa"],
     "states: q0\n"),
    # a^k b for 1 <= k <= 1,000, and a^1000 c
    (["convert", "--regex", ALTERNATING, "--alphabet", "abc", "--to", "dfa"],
     "states: " + " ".join(f"q{i}" for i in range(1003)) + "\n"),
], ids=["classify-nested", "classify-starred", "enumerate-nested",
        "enumerate-starred", "enumerate-alternating", "convert-nested",
        "convert-starred", "convert-alternating"])
def test_deep_regexes_run_to_an_answer(capsys, argv, expected):
    code, out = run_cli(argv)
    assert code == 0 and expected in out
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("letters, selection, printed", [
    ("a", NESTED, "a"), ("a", STARRED, STARRED),
    ("a b c", ALTERNATING, "a(b|" * 1_000 + "c" + ")" * 1_000),
], ids=["nested", "starred", "alternating"])
def test_deep_selections_in_a_grammar_file(tmp_path, capsys, letters,
                                           selection, printed):
    """Each selection holds ``ab`` or ``a``, so ``babb`` derives from ``ab``;
    the canonical text prints the selection minimally parenthesized."""
    text = ("alphabet: a b c\naxiom: ab\npair:\n  alphabet: {}\n"
            "  selection regex: {}\n  context: (b, b)\n")
    path = tmp_path / "deep.ctx"
    path.write_text(text.format(letters, selection), encoding="utf-8")
    assert run_cli(["member", "--grammar", str(path), "--word", "babb"]) == \
        (0, "true\n")
    assert run_cli(["convert", "--grammar", str(path), "--to",
                    "canonical"]) == (0, text.format(letters, printed))
    assert capsys.readouterr().err == ""


# --- a seeded sweep: no input exits 4 ---------------------------------------

_EDIT_CHARS = "ab1:()|*,.@#-> \n∅"


def _mutate(rng: random.Random, text: str, edits: int) -> str:
    """``text`` after ``edits`` random edits, each one character inserted,
    dropped or replaced, or one line dropped or moved."""
    for _ in range(edits):
        i, kind = rng.randrange(len(text) + 1), rng.randrange(4)
        if kind < 3:
            new = "" if kind == 1 else rng.choice(_EDIT_CHARS)
            text = text[:i] + new + text[i + (kind > 0):]
            continue
        lines = text.split("\n")
        line = lines.pop(rng.randrange(len(lines)))
        if rng.random() < 0.5:
            lines.insert(rng.randrange(len(lines) + 1), line)
        text = "\n".join(lines)
    return text


def _ctx_calls(rng, tmp_path, texts):
    """Each ``.ctx`` text through every grammar command, with one of its
    axioms as the word."""
    calls = []
    for k, text in enumerate(texts):
        path = tmp_path / f"{k}.ctx"
        path.write_text(text, encoding="utf-8")
        g, word = str(path), rng.choice(re.findall(r"^axiom: (.*)$", text,
                                                   re.M) or ["a"])
        calls += [["enumerate", "--grammar", g, "--max-len", "4"],
                  ["member", "--grammar", g, "--word", word],
                  ["derive", "--grammar", g, "--word", word],
                  ["classify", "--grammar", g],
                  ["convert", "--grammar", g, "--to", "canonical"],
                  ["convert", "--grammar", g, "--to", "split-finite"]]
    return calls


def _witness_exports(rng, tmp_path):
    exports = [run_cli(["witness", "export", cid])[1]
               for cid in ("L1", "L2", "L3", "L4", "L6", "L7")]
    return _ctx_calls(rng, tmp_path, [
        _mutate(rng, rng.choice(exports), rng.randint(1, 2))
        for _ in range(40)])


def _dfa_tables(rng, tmp_path):
    ab = Alphabet.of("a", "b")
    head = "alphabet: a b\naxiom: ab\npair:\n  alphabet: a b\n  selection dfa:\n"
    return _ctx_calls(rng, tmp_path, [
        _mutate(rng, head + indent(dfa_to_table(random_dfa(
            rng, rng.randint(1, 4), ab)), "    ") + "  context: (a, b)\n",
            rng.randint(0, 3))
        for _ in range(30)])


def _rule_texts(rng, tmp_path):
    head = ("alphabet: a b\naxiom: a\npair:\n  alphabet: a b\n"
            "  selection grammar:\n    nonterminals: S T\n"
            "    terminals: a b\n    start: S\n")
    texts = []
    for _ in range(30):
        rules = [f"S -> {rng.choice(['a', 'b', '@', 'ab'])}"
                 f"{rng.choice(['', ' S', ' T'])}"
                 for _ in range(rng.randint(1, 3))]
        rules.append(f"T -> {rng.choice(['b', '@', 'a S'])}")
        text = head + "".join(f"    {r}\n" for r in rules) + "  context: (b, @)\n"
        texts.append(_mutate(rng, text, rng.randint(0, 3)))
    return _ctx_calls(rng, tmp_path, texts)


def _regexes(rng, tmp_path):
    """The text of a random tree, whose leaves include ``xy`` and ``z``, or
    a random token string, through every regex command.  ``measure`` runs
    within a small ``max_candidates``, as its search can take seconds."""
    calls = []
    for _ in range(40):
        if rng.random() < 0.5:
            letters = rng.choice(["ab", "abxyz"])
            text = format_regex(random_regex(rng, 6))
        else:
            letters = "ab"
            text = "".join(rng.choice(REGEX_CHARS)
                           for _ in range(rng.randint(0, 12)))
        given = ["--regex", text, "--alphabet", letters]
        calls += [["classify", *given],
                  ["measure", *given, "--caps", "max_candidates=50"],
                  ["enumerate", *given, "--max-len", "3"],
                  ["convert", *given, "--to", rng.choice(["dfa", "rlgrammar"])]]
    return calls


def _deep(rng, tmp_path):
    """Each deep expression above with one edit, twice, through
    ``classify --family UF``, which reads the tree, and ``enumerate``, and
    as a ``.ctx`` selection through ``convert --to canonical``, which prints
    it."""
    calls = []
    for k, deep in enumerate(2 * [NESTED, STARRED, ALTERNATING]):
        text = _mutate(rng, deep, 1)
        path = tmp_path / f"{k}.ctx"
        path.write_text("alphabet: a b c\naxiom: ab\npair:\n  alphabet: a b c\n"
                        f"  selection regex: {text}\n  context: (b, b)\n",
                        encoding="utf-8")
        given = ["--regex", text, "--alphabet", "abc"]
        calls += [["classify", *given, "--family", "UF"],
                  ["enumerate", *given, "--max-len", "3"],
                  ["convert", "--grammar", str(path), "--to", "canonical"]]
    return calls


_SWEEP = {"witness-exports": _witness_exports, "dfa-tables": _dfa_tables,
          "rule-texts": _rule_texts, "regexes": _regexes, "deep": _deep}


@pytest.mark.parametrize("source", _SWEEP)
def test_no_seeded_input_exits_four(tmp_path, capsys, source):
    """Every answer is a verdict, a usage or parse error, or a cap (exit
    0-3), never an internal error with a traceback."""
    for argv in _SWEEP[source](random.Random(14), tmp_path):
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "Traceback" not in err, \
            ([a[:80] for a in argv], err[-400:])


# --- machine output ---------------------------------------------------------

def test_machine_classify_round_trips():
    code, out = run_cli(["classify", "--regex", "(aa)*", "--alphabet", "a",
                         "--format", "machine"])
    assert code == 0
    u = Alphabet.from_text("a")
    r = parse_regex("(aa)*", u)
    report = classify(regex_to_dfa(r, u), u, source_regex=r,
                      language_name="(aa)*")
    assert json.loads(out) == report.to_json_dict()


def test_machine_member_payload(grammar_files):
    code, out = run_cli(["member", "--grammar", grammar_files["L1"],
                         "--word", "dcabab", "--format", "machine"])
    assert code == 1
    assert json.loads(out) == {"word": "dcabab", "member": False}


def test_identical_invocations_identical_bytes(grammar_files):
    for argv in (
        ["classify", "--regex", "(aa)*", "--alphabet", "a"],
        ["classify", "--regex", "(aa)*", "--alphabet", "a", "--format", "machine"],
        ["witness", "hierarchy", "--scope", "merged"],
        ["enumerate", "--grammar", grammar_files["L1"], "--max-len", "6"],
    ):
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert (code_a, out_a) == (code_b, out_b)


# --- the remaining commands -------------------------------------------------

def test_enumerate_matches_library(grammar_files):
    code, out = run_cli(["enumerate", "--grammar", grammar_files["L1"],
                         "--max-len", "5"])
    assert code == 0
    g = parse_contextual(open(grammar_files["L1"], encoding="utf-8").read())
    expected = [word_to_text(w, g.alphabet)
                for w in sort_words(enumerate_ic(g, 5), g.alphabet)]
    assert out.splitlines() == expected

    code, out = run_cli(["enumerate", "--regex", "(aa)*", "--alphabet", "a",
                         "--max-len", "6", "--format", "machine"])
    payload = json.loads(out)
    assert payload["words"] == ["@", "aa", "aaaa", "aaaaaa"]
    assert payload["count"] == 4


def test_measure_exact_values():
    code, out = run_cli(["measure", "--regex", "b*c", "--alphabet", "bc"])
    assert code == 0
    assert "states: 3 (exact)" in out
    assert "nonterminals: 1 (exact)" in out
    assert "rules: 2 (exact)" in out


def test_derive_successors_and_trace(grammar_files):
    code, out = run_cli(["derive", "--grammar", grammar_files["L1"],
                         "--word", "c"])
    assert code == 0
    assert out.splitlines() == [
        "c => abcab  [pair 1, (ab, ab), infix c]",
        "c => dec  [pair 2, (d, e), infix @]",
        "c => cde  [pair 2, (d, e), infix @]",
    ]
    code, out = run_cli(["derive", "--grammar", grammar_files["L1"],
                         "--word", "daaebbcabab", "--trace"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c"                      # the axiom the trace starts at
    assert lines[-1].endswith("daaebbcabab  [pair 2, (d, e), infix aa]")
    code, out = run_cli(["derive", "--grammar", grammar_files["L1"],
                         "--word", "ab", "--trace"])
    assert code == 1
    assert out == "no derivation\n"


STEP_LINE = re.compile(
    r"(\S+) => (\S+)  \[pair (\d+), \((\S+), (\S+)\), infix (\S+)\]")


def test_derive_prints_words_that_read_back_on_a_mixed_width_alphabet(tmp_path):
    # with symbols of widths 1 and 2 every word is written dot-separated,
    # even one whose own symbols are all single characters
    u = Alphabet.of("a", "b", "c1")
    g = ContextualGrammar(u, (("a", "b"),), (SelectionPair.from_words(
        Alphabet.of("a"), [("a",)], (Context(("c1",), ("b",)),)),))
    path = tmp_path / "mixed.ctx"
    path.write_text(format_contextual(g), encoding="utf-8")

    def read_back(line, step):
        source, target, pair, left, right, x2 = STEP_LINE.fullmatch(line).groups()
        assert [word_from_text(t, u) for t in (source, target, left, right, x2)] \
            == [step.source, step.target, step.context.left,
                step.context.right, step.x2]
        assert int(pair) == step.pair_index + 1

    code, out = run_cli(["derive", "--grammar", str(path), "--word", "a.b"])
    assert code == 0
    steps = derive_step(g, ("a", "b"))
    assert len(out.splitlines()) == len(steps) == 1
    for line, step in zip(out.splitlines(), steps):
        read_back(line, step)

    w = ("c1", "c1", "a", "b", "b", "b")
    code, out = run_cli(["derive", "--grammar", str(path), "--word",
                         word_to_text(w, u), "--trace"])
    assert code == 0
    start, *lines = out.splitlines()
    trace = member_trace(g, w)
    assert word_from_text(start, u) == trace[0].source == ("a", "b")
    assert len(lines) == len(trace) == 2
    for line, step in zip(lines, trace):
        read_back(line, step)


def test_convert_regex_targets():
    code, out = run_cli(["convert", "--regex", "b*c", "--alphabet", "bc",
                         "--to", "dfa"])
    assert code == 0
    assert out.splitlines()[0] == "states: q0 q1 q2"
    assert "q0 c q1" in out.splitlines()
    code, out = run_cli(["convert", "--regex", "b*c", "--alphabet", "bc",
                         "--to", "rlgrammar"])
    assert code == 0
    assert "Q0 -> c Q1" in out.splitlines()


def test_convert_canonical_and_split_finite(grammar_files):
    code, out = run_cli(["convert", "--grammar", grammar_files["L2"],
                         "--to", "canonical"])
    assert code == 0
    assert out == open(grammar_files["L2"], encoding="utf-8").read()

    code, out = run_cli(["convert", "--grammar", grammar_files["L2"],
                         "--to", "split-finite"])
    assert code == 0
    split = parse_contextual(out)
    original = parse_contextual(open(grammar_files["L2"],
                                     encoding="utf-8").read())
    assert len(split.pairs) == 2
    assert enumerate_ic(split, 8) == enumerate_ic(original, 8)


def test_split_finite_of_one_long_word(tmp_path):
    u = Alphabet.of("a", "b")
    w = ("a", "b") * 750
    g = ContextualGrammar(u, (("a",),), (
        SelectionPair.from_words(u, [w], (Context(("a",), ()),)),))
    path = tmp_path / "long.ctx"
    path.write_text(format_contextual(g), encoding="utf-8")
    code, out = run_cli(["convert", "--grammar", str(path),
                         "--to", "split-finite"])
    assert code == 0
    assert [p.selects(w) for p in parse_contextual(out).pairs] == [True]


def test_witness_list_and_hierarchy():
    code, out = run_cli(["witness", "list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(["L1", "L2", "L3", "L4", "L6", "L7"])
    assert lines[0].startswith("L1: params none; in RL_V(1)")
    assert all("not in" in line for line in lines)

    code, out = run_cli(["witness", "hierarchy", "--scope", "subregular",
                         "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["scope"] == "subregular"
    assert len(payload["nodes"]) == 25
    assert len(payload["edges"]) == 39


def test_witness_list_reports_the_closed_forms():
    """``closed_form`` is true for exactly the cases that
    ``witnesses.closed_form`` accepts."""
    code, out = run_cli(["witness", "list", "--format", "machine"])
    assert code == 0
    flags = {case["id"]: case["closed_form"] for case in json.loads(out)["cases"]}
    assert flags == {"L1": False, "L2": True, "L3": False, "L4": True,
                     "L6": True, "L7": True}
    for cid, flag in flags.items():
        try:
            closed_form(cid, 4)
        except IcgramError:
            assert not flag
        else:
            assert flag
