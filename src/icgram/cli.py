"""Command-line front end.

    icgram classify  --regex "(aa)*" --alphabet a
    icgram classify  --grammar g.ctx --family RL_V(1)
    icgram measure   --regex "b*c" --alphabet bc
    icgram enumerate --grammar g.ctx --max-len 8
    icgram member    --grammar g.ctx --word daaebbcabab
    icgram derive    --grammar g.ctx --word c
    icgram witness   run L2 --max-len 8
    icgram convert   --regex "b*c" --alphabet bc --to dfa

Exit codes: 0 success; 1 negative decision (non-member, family verdict no,
failed witness check); 2 usage or parse error; 3 a configured resource cap
was hit before a decision; 4 an internal error (a bug: a failed
cross-check, or any exception the program does not expect), with its
traceback on stderr; 141, printing nothing more, when the reader of stdout
closed it early, as ``| head`` may.  ``--format machine`` switches every
command to JSON on stdout; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .automata import Dfa, dfa_to_table, enumerate_regular, minimize, regex_to_dfa
from .contextual import (ContextualGrammar, DerivationStep, derive_step,
                         enumerate_ic, member_ic, member_trace,
                         split_finite_selection)
from .ctxformat import format_contextual, parse_contextual
from .errors import (IcgramError, InternalConsistencyError,
                     InvalidGrammarError, ResourceLimitError)
from .families import SCOPES, SearchCaps, Verdict, parse_family_label
from .regex import Regex, parse_regex
from .resources import KINDS, count_resources, dfa_to_grammar, measure
from .rlgrammar import grammar_to_text
from .words import Alphabet, sort_words, word_from_text, word_to_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped reader gone

_CAP_KEYS = SearchCaps._fields


def _parse_caps(text: str | None) -> SearchCaps:
    """``--caps key=value,...``, each key a field of :class:`SearchCaps`."""
    caps = {}
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in _CAP_KEYS:
                raise IcgramError(
                    f"bad --caps entry {part!r}; keys: {', '.join(_CAP_KEYS)}")
            if key in caps:
                raise IcgramError(f"--caps key {key!r} given twice")
            try:
                n = int(value)
            except ValueError:
                raise IcgramError(f"--caps {key} needs an integer, got {value!r}")
            if n < 0:
                raise IcgramError(f"--caps {key} must be >= 0")
            caps[key] = n
    return SearchCaps(**caps)


def _read_grammar(path: str) -> ContextualGrammar:
    """The grammar in the file, validated by compiling it once for the
    engine (the compiled form is cached on the grammar)."""
    g = parse_contextual(Path(path).read_text(encoding="utf-8"))
    g._compiled
    return g


def _check_one_language(args) -> None:
    """A command that takes a language reads exactly one of ``--regex`` and
    ``--grammar``."""
    if args.grammar is not None and args.regex is not None:
        raise IcgramError("give either --grammar or --regex, not both")
    if args.grammar is None and args.regex is None:
        raise IcgramError(f"{args.command} needs --regex or --grammar")


def _regex_language(args) -> tuple[Regex, Dfa, Alphabet]:
    if args.alphabet is None:
        raise IcgramError("--regex needs --alphabet")
    u = Alphabet.from_text(args.alphabet)
    r = parse_regex(args.regex, u)
    return r, regex_to_dfa(r, u), u


def _emit(args, human_text: str, payload: dict) -> None:
    if args.format == "machine":
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(human_text)


def _verdict_exit(v: Verdict) -> int:
    if v is Verdict.YES:
        return EXIT_OK
    if v is Verdict.NO:
        return EXIT_NEGATIVE
    return EXIT_CAPPED


# --- commands -------------------------------------------------------------

def _cmd_classify(args) -> int:
    from .subregular import _family_verdict, classify, selection_in_family
    if args.regex is not None:
        r, d, u = _regex_language(args)
        if args.family is not None:
            # the decision path of a grammar's selections, on this language
            label = parse_family_label(args.family)
            v, note = _family_verdict(d, label, args.caps, source_regex=r)
            _emit(args, f"{label}: {v}  # {note}\n",
                  {"language": args.regex, "family": str(label),
                   "verdict": str(v), "note": note})
            return _verdict_exit(v)
        report = classify(d, u, source_regex=r, language_name=args.regex,
                          monoid_cap=args.caps.monoid_cap)
        _emit(args, report.to_text(), report.to_json_dict())
        return EXIT_OK
    g = _read_grammar(args.grammar)
    if args.family is not None:
        label = parse_family_label(args.family)
        res = selection_in_family(g, label, caps=args.caps)
        lines = [f"{label}: {res.overall}"]
        for pv in res.per_pair:
            lines.append(f"  pair {pv.pair_index + 1}: {pv.verdict}  # {pv.note}")
        _emit(args, "\n".join(lines) + "\n",
              {"family": str(label), "verdict": str(res.overall),
               "pairs": [{"pair": pv.pair_index + 1, "verdict": str(pv.verdict),
                          "note": pv.note} for pv in res.per_pair]})
        return _verdict_exit(res.overall)
    texts, dicts = [], []
    for i, pair in enumerate(g.pairs):
        report = classify(pair.dfa, pair.declared_alphabet,
                          source_regex=pair.source_regex,
                          language_name=f"selection of pair {i + 1}",
                          monoid_cap=args.caps.monoid_cap)
        texts.append(report.to_text())
        dicts.append(report.to_json_dict())
    _emit(args, "\n".join(texts), {"pairs": dicts})
    return EXIT_OK


def _measure_lines(d: Dfa, caps: SearchCaps) -> tuple[list[str], list[dict]]:
    lines, records = [], []
    for kind in KINDS:
        m = measure(d, kind, caps)
        shown = str(m.upper) if m.exact else f"in [{m.lower}, {m.upper}]"
        suffix = " (exact)" if m.exact else ""
        lines.append(f"{kind}: {shown}{suffix}  # {m.note}")
        records.append({"kind": kind, "lower": m.lower, "upper": m.upper,
                        "exact": m.exact, "note": m.note})
    return lines, records


def _cmd_measure(args) -> int:
    if args.regex is not None:
        _, d, _ = _regex_language(args)
        lines, records = _measure_lines(d, args.caps)
        _emit(args, "\n".join([f"language: {args.regex}"] + lines) + "\n",
              {"language": args.regex, "measures": records})
        return EXIT_OK
    g = _read_grammar(args.grammar)
    all_lines, pair_records = [], []
    for i, pair in enumerate(g.pairs):
        lines, records = _measure_lines(pair.dfa, args.caps)
        if pair.source_grammar is not None:
            v, p = count_resources(pair.source_grammar)
            lines.append(f"as written: {v} nonterminal{'' if v == 1 else 's'}, "
                         f"{p} rule{'' if p == 1 else 's'}")
            records.append({"kind": "as-written", "nonterminals": v, "rules": p})
        all_lines.append("\n".join([f"pair {i + 1}:"] + ["  " + x for x in lines]))
        pair_records.append({"pair": i + 1, "measures": records})
    _emit(args, "\n".join(all_lines) + "\n", {"pairs": pair_records})
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cap = args.caps.frontier_cap
    if args.regex is not None:
        _, d, u = _regex_language(args)
        words = enumerate_regular(d, args.max_len, frontier_cap=cap)
        alphabet = u
    else:
        g = _read_grammar(args.grammar)
        words = enumerate_ic(g, args.max_len, frontier_cap=cap)
        alphabet = g.alphabet
    rendered = [word_to_text(w, alphabet) for w in sort_words(words, alphabet)]
    _emit(args, "".join(x + "\n" for x in rendered),
          {"max_len": args.max_len, "count": len(rendered), "words": rendered})
    return EXIT_OK


def _cmd_member(args) -> int:
    g = _read_grammar(args.grammar)
    w = word_from_text(args.word, g.alphabet)
    ok = member_ic(g, w, frontier_cap=args.caps.frontier_cap)
    _emit(args, ("true" if ok else "false") + "\n",
          {"word": word_to_text(w, g.alphabet), "member": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def _step_record(s: DerivationStep, alphabet: Alphabet) -> dict:
    return {"source": word_to_text(s.source, alphabet),
            "target": word_to_text(s.target, alphabet),
            "pair": s.pair_index + 1,
            "left": word_to_text(s.context.left, alphabet),
            "selected": word_to_text(s.x2, alphabet),
            "right": word_to_text(s.context.right, alphabet)}


def _cmd_derive(args) -> int:
    g = _read_grammar(args.grammar)
    w = word_from_text(args.word, g.alphabet)
    if args.trace:
        trace = member_trace(g, w, frontier_cap=args.caps.frontier_cap)
        if trace is None:
            _emit(args, "no derivation\n",
                  {"word": word_to_text(w, g.alphabet), "derivable": False,
                   "trace": []})
            return EXIT_NEGATIVE
        start = trace[0].source if trace else w
        lines = [word_to_text(start, g.alphabet)] + [s.to_text(g.alphabet)
                                                     for s in trace]
        _emit(args, "\n".join(lines) + "\n",
              {"word": word_to_text(w, g.alphabet), "derivable": True,
               "trace": [_step_record(s, g.alphabet) for s in trace]})
        return EXIT_OK
    steps = derive_step(g, w)
    _emit(args, "".join(s.to_text(g.alphabet) + "\n" for s in steps),
          {"word": word_to_text(w, g.alphabet),
           "steps": [_step_record(s, g.alphabet) for s in steps]})
    return EXIT_OK


def _witness_targets(target: str | None, n: int | None):
    from .witnesses import WITNESS_IDS
    if target in (None, "all"):
        if n is not None:
            raise IcgramError("--n needs a single case id")
        return [(cid, None) for cid in WITNESS_IDS]
    return [(target, n)]


def _cmd_witness(args) -> int:
    from .witnesses import WITNESS_IDS, _N_RANGE, build_witness, check_witness
    if args.action == "list":
        lines, records = [], []
        for cid in WITNESS_IDS:
            case = build_witness(cid)
            pos = ", ".join(f"{fam} [{key}]" for fam, key in case.positive)
            neg = ", ".join(str(f) for f in case.negative)
            params = ("n={}..{}".format(*_N_RANGE[cid]) if cid in _N_RANGE
                      else "none")
            lines.append(f"{case.label}: params {params}; in {pos}; not in {neg}")
            records.append({"id": cid, "label": case.label, "params": params,
                            "positive": [{"family": str(f), "grammar": k}
                                         for f, k in case.positive],
                            "negative": [str(f) for f in case.negative],
                            "closed_form": case.has_closed_form})
        _emit(args, "\n".join(lines) + "\n", {"cases": records})
        return EXIT_OK

    if args.action == "hierarchy":
        from .hierarchy import hierarchy
        table = hierarchy(args.scope, max_param=args.max_param)
        edges = sorted(({"src": str(e.src), "dst": str(e.dst),
                         "status": e.status} for e in table.edges),
                       key=lambda r: (r["status"], r["src"], r["dst"]))
        payload = {"scope": table.scope,
                   "nodes": sorted(str(x) for x in table.nodes),
                   "edges": edges}
        _emit(args, table.to_text(), payload)
        return EXIT_OK

    if args.action == "export":
        if not args.case:
            raise IcgramError("witness export needs a case id")
        case = build_witness(args.case, args.n)
        try:
            g = case.grammar_named(args.variant)
        except KeyError as e:
            raise IcgramError(e.args[0]) from None
        text = format_contextual(g)
        _emit(args, text, {"case": case.label, "grammar": args.variant,
                           "text": text})
        return EXIT_OK

    assert args.action == "run"
    reports = [check_witness(build_witness(cid, n), args.max_len, caps=args.caps)
               for cid, n in _witness_targets(args.case, args.n)]
    human = "\n".join(r.to_text() for r in reports)
    payload = {"reports": [
        {"case": r.case_label, "ok": r.ok,
         "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in r.results]} for r in reports]}
    _emit(args, human, payload)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_NEGATIVE


def _cmd_convert(args) -> int:
    if args.regex is not None:
        _, d, _ = _regex_language(args)
        if args.to == "dfa":
            text = dfa_to_table(minimize(d))
        elif args.to == "rlgrammar":
            text = grammar_to_text(dfa_to_grammar(d))
        else:
            raise IcgramError(f"--regex converts to dfa or rlgrammar, not {args.to}")
        _emit(args, text, {"to": args.to, "text": text})
        return EXIT_OK
    g = _read_grammar(args.grammar)
    if args.to == "canonical":
        text = format_contextual(g)
    elif args.to == "split-finite":
        text = format_contextual(split_finite_selection(g))
    else:
        raise IcgramError(f"--grammar converts to canonical or split-finite, "
                          f"not {args.to}")
    _emit(args, text, {"to": args.to, "text": text})
    return EXIT_OK


# --- wiring ---------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def _add_language(p: argparse.ArgumentParser) -> None:
    """A language given by ``--regex`` over ``--alphabet``, or by the
    selections of the grammar in ``--grammar``."""
    p.add_argument("--regex")
    p.add_argument("--alphabet")
    p.add_argument("--grammar", metavar="PATH")


def _add_common(p: argparse.ArgumentParser, *, caps: bool = True) -> None:
    p.add_argument("--format", choices=("human", "machine"), default="human",
                   help="human text or JSON")
    if caps:
        p.add_argument("--caps", metavar="K=V,...",
                       help="resource caps: " + ", ".join(_CAP_KEYS))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="icgram",
        description="internal contextual grammars with regular selections: "
                    "classify, measure, derive, enumerate, check",
        epilog="exit codes: 0 ok, 1 negative decision, 2 usage/parse error, "
               "3 resource cap hit, 4 internal error")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="place a language or the selections "
                                        "of a grammar in the families")
    _add_language(p)
    p.add_argument("--family", help="decide one family label, e.g. ORD or RL_V(1)")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("measure", help="state/nonterminal/rule measures")
    _add_language(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("enumerate", help="all generated/accepted words up to "
                                         "a length bound")
    _add_language(p)
    p.add_argument("--max-len", type=_int_at_least(0), required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("member", help="exact membership in the generated language")
    p.add_argument("--grammar", metavar="PATH", required=True)
    p.add_argument("--word", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("derive", help="one-step successors of a word, or a "
                                      "full derivation with --trace")
    p.add_argument("--grammar", metavar="PATH", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true",
                   help="derive the word from an axiom instead")
    _add_common(p)
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("witness", help="built-in witness grammars")
    p.add_argument("action", choices=("run", "list", "export", "hierarchy"))
    p.add_argument("case", nargs="?", help="case id (run/export), or 'all'")
    p.add_argument("--n", type=int, help="case parameter")
    p.add_argument("--variant", default="main",
                   help="which grammar to export (default: main)")
    p.add_argument("--max-len", type=_int_at_least(0), default=8)
    p.add_argument("--scope", choices=SCOPES, default="merged")
    p.add_argument("--max-param", type=_int_at_least(2), default=3)
    _add_common(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("convert", help="re-express a language or grammar")
    _add_language(p)
    p.add_argument("--to", required=True,
                   choices=("dfa", "rlgrammar", "canonical", "split-finite"))
    _add_common(p, caps=False)
    p.set_defaults(fn=_cmd_convert)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if "caps" in args:  # one parse, for every command that has --caps
            args.caps = _parse_caps(args.caps)
        if "regex" in args:
            _check_one_language(args)
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout: print nothing more, and let the flush at
        # interpreter exit write to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InternalConsistencyError:
        traceback.print_exc()
        return EXIT_INTERNAL
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPPED
    except InvalidGrammarError as e:
        print(f"error: {e}", file=sys.stderr)
        for d in e.diagnostics:
            print(f"  {d}", file=sys.stderr)
        return EXIT_USAGE
    except (IcgramError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a bug must not read as a negative decision (exit 1)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
