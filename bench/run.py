"""icgram benchmark: four closed-loop workloads, checked answers, end-to-end
metrics, and a traced run with per-layer metrics.

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload ic-member --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-test

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
makes ``correct`` false and the exit code 1.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from time import perf_counter

from oracles import WrongAnswer
from spans import Tracer
from workloads import IS_FNS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
REF_WORD = tuple("abc" * 20)
REF_MS = 1.6  # the reference kernel's median time on a quiet core (see reference_s)
REF_WINDOW_S = 3.0
TRACE_SHARE = 8  # a traced run gives each workload seconds / TRACE_SHARE untraced

E2E_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "completed_share": "ratio",
             "decided_share": "ratio", "peak_rss_mb": "MB"}


# Per-layer metrics of each workload.  "<span>.ms" is the median self time
# per call of that span; the others are named in _COUNTERS.
LAYERS = {
    "ic-enumerate": ["witnesses.build_witness.ms", "contextual.enumerate_ic.ms",
                     "contextual.enumerate_ic.words", "contextual.derive_step.ms",
                     "contextual.derive_step.steps",
                     "contextual.derive_step.distinct_ratio"],
    "ic-member": ["witnesses.build_witness.ms", "contextual.member_ic.pos.ms",
                  "contextual.member_ic.neg.ms", "contextual.member_ic.failed",
                  "contextual.member_trace.steps"],
    "classify-random": ["subregular.classify.ms", "automata.minimize.ms",
                        "automata.minimize.states_out",
                        "monoid.transition_monoid.ms",
                        "monoid.transition_monoid.elements",
                        "monoid.transition_monoid.capped_ratio"]
    + [f"subregular.{fn}.ms" for fn in IS_FNS] + ["subregular.decided_ratio"],
    "cli-session": ["cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms"]
    + [f"cli.main.{c}.ms" for c in ("witness-export", "member", "derive",
                                    "classify", "measure", "enumerate",
                                    "witness-run", "witness-hierarchy")]
    + ["regex.parse_regex.ms", "automata.regex_to_dfa.ms",
       "subregular.classify.ms", "resources.measure.states.ms",
       "resources.measure.nonterminals.ms", "resources.measure.rules.ms",
       "resources.measure.exact_ratio", "ctxformat.parse_contextual.ms",
       "ctxformat.format_contextual.ms", "witnesses.build_witness.ms",
       "witnesses.check_witness.ms", "hierarchy.hierarchy.ms",
       "contextual.member_ic.pos.ms", "contextual.member_ic.neg.ms",
       "contextual.enumerate_ic.ms", "contextual.member_trace.steps"],
}
for _names in LAYERS.values():
    _names.append("trace.overhead_ms")


def _counts(tracer, span, key):
    return [s["counts"][key] for s in tracer.named(span) if key in s["counts"]]


def _share(values):
    return sum(values) / len(values)


def _import_ms(tracer, span):
    base = statistics.median(s["end"] - s["start"]
                             for s in tracer.named("cli.interpreter"))
    return 1000 * (statistics.median(s["end"] - s["start"]
                                     for s in tracer.named(span)) - base)


_COUNTERS = {
    "contextual.enumerate_ic.words": ("count", lambda t: max(_counts(
        t, "contextual.enumerate_ic", "words"))),
    "contextual.derive_step.steps": ("count", lambda t: statistics.median(
        _counts(t, "contextual.derive_step", "steps"))),
    "contextual.derive_step.distinct_ratio": ("ratio", lambda t: sum(
        _counts(t, "contextual.derive_step", "distinct")) / sum(
        _counts(t, "contextual.derive_step", "steps"))),
    "contextual.member_ic.failed": ("count", lambda t: sum(
        _counts(t, "contextual.member_ic.pos", "failed"))),
    "contextual.member_trace.steps": ("count", lambda t: statistics.median(
        _counts(t, "contextual.member_trace", "steps"))),
    "automata.minimize.states_out": ("count", lambda t: statistics.median(
        _counts(t, "automata.minimize", "states_out"))),
    "monoid.transition_monoid.elements": ("count", lambda t: statistics.median(
        _counts(t, "monoid.transition_monoid", "elements"))),
    "monoid.transition_monoid.capped_ratio": ("ratio", lambda t: _share(
        _counts(t, "monoid.transition_monoid", "capped"))),
    "subregular.decided_ratio": ("ratio", lambda t: _share(
        [v for fn in IS_FNS for v in _counts(t, f"subregular.{fn}", "decided")])),
    "resources.measure.exact_ratio": ("ratio", lambda t: _share(
        [v for k in ("states", "nonterminals", "rules")
         for v in _counts(t, f"resources.measure.{k}", "exact")])),
    "cli.interpreter_ms": ("ms", lambda t: 1000 * statistics.median(
        s["end"] - s["start"] for s in t.named("cli.interpreter"))),
    "cli.import_ms": ("ms", lambda t: _import_ms(t, "cli.import")),
    "cli.import_numpy_ms": ("ms", lambda t: _import_ms(t, "cli.import_numpy")),
}


def reference_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work made of the
    program's staple operations: every word left by cutting one factor out
    of a fixed word of 60 letters, as sliced and joined tuples, into a set.

    On a shared host the CPU speed drifts by up to 2x over seconds and
    minutes, for this kernel and the program alike.  The kernel runs after
    every operation.  Every operation's time is divided by the median time
    of the kernels run within ``REF_WINDOW_S`` seconds of it, and
    multiplied by ``REF_MS``: it reads as milliseconds on a core where the
    kernel takes ``REF_MS``.  A change to the program moves that figure in
    full; a change in the speed of the host mostly cancels.  A single
    kernel is too short to sample a phase of the host; the window's median
    is not."""
    t0 = perf_counter()
    seen = set()
    for i in range(len(REF_WORD)):
        for j in range(i + 1, len(REF_WORD)):
            seen.add(REF_WORD[:i] + REF_WORD[j:])
    return perf_counter() - t0


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Put the checkout's ``src/`` first on the path; refuse to run on
    anything else (an installed copy, or no program at all)."""
    if not (SRC / "icgram" / "__init__.py").is_file():
        _fail(f"no program at {SRC}/icgram; run from a full checkout")
    sys.path.insert(0, str(SRC))


# --- one run of one workload --------------------------------------------------

class Stats:
    """Samples of one run.  ``samples`` holds (start, operation index,
    seconds, raised) of every repeat of an operation of the cycle, ``refs``
    (start, seconds) of the reference kernel run after each."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.samples: list[tuple[float, int, float, bool]] = []
        self.refs: list[tuple[float, float]] = []
        self.attempted = self.failed = self.decided = self.requested = 0
        self.wrong: str | None = None
        self.failures: dict[str, int] = {}
        self.cycles = 0
        self.wall = 0.0

    def per_op(self, *, raised: bool = False, normalise: bool = True) -> list[list[float]]:
        """Per operation, the seconds of its repeats that raised (or that
        returned), normalised as :func:`reference_s` says unless told not to."""
        starts = [t for t, _ in self.refs]
        out: list[list[float]] = [[] for _ in self.labels]
        for t, i, dt, r in self.samples:
            if r != raised:
                continue
            if normalise:
                lo = bisect_left(starts, t - REF_WINDOW_S)
                hi = bisect_right(starts, t + dt + REF_WINDOW_S)
                dt *= REF_MS / 1000 / statistics.median(x for _, x in self.refs[lo:hi])
            out[i].append(dt)
        return out


def _run_op(op, i, stats, tracer, undecided, corrupt=False) -> None:
    stats.attempted += 1
    stats.requested += op.requested
    span = tracer.span(op.layer, stats.attempted) if tracer else nullcontext({"counts": {}})
    with span as sp:
        t0 = perf_counter()
        try:
            result = op.run()
            outcome = "ok"
        except undecided:
            outcome = "undecided"
        except Exception as e:  # noqa: BLE001 - every crash is counted, not fatal
            outcome = "failed"
            key = f"{op.label}: {type(e).__name__}"
            stats.failures[key] = stats.failures.get(key, 0) + 1
        dt = perf_counter() - t0
        stats.samples.append((t0, i, dt, outcome == "failed"))
        stats.refs.append((perf_counter(), reference_s()))
        if outcome == "failed":
            stats.failed += 1
            sp["counts"]["failed"] = 1
            return
        if outcome == "undecided":
            return
        if corrupt:
            result = op.corrupt(result)
        try:
            op.check(result)
        except WrongAnswer as e:
            stats.wrong = str(e)
            return
        stats.decided += op.decided(result)
        if tracer:
            sp["counts"].update(op.counts(result))
            if op.replay:
                op.replay(tracer, result)


def measure(w, *, seconds=None, cycles=None, tracer=None, corrupt=False,
            between=lambda k: None) -> Stats:
    """Repeat the workload's operations, whole cycles at a time, until
    ``seconds`` have passed (or exactly ``cycles`` cycles).  ``between(k)``
    runs after cycle ``k``, outside the timed operations.  Stops at the
    first wrong answer."""
    import icgram
    undecided = (icgram.ResourceLimitError, icgram.UndecidedError)
    ops = w.operations()
    stats = Stats([op.label for op in ops])
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            _run_op(op, i, stats, tracer, undecided, corrupt and stats.attempted == 0)
            if stats.wrong:
                return stats
        between(stats.cycles)
        stats.cycles += 1
        stats.wall = perf_counter() - start
        if stats.cycles >= cycles if cycles is not None else stats.wall >= seconds:
            return stats


def _setup_probe_argv(name: str, seed: int, tiny: bool) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload",
            name, "--seed", str(seed)] + (["--tiny"] if tiny else [])


def setup_probe(argv: list[str], out: list[float]) -> None:
    """A fresh interpreter times ``import icgram`` plus the builds."""
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        _fail(f"set-up probe failed: {p.stderr.strip()}")
    out.append(float(p.stdout.split()[-1]))


def _setup_probe(name: str, seed: int, tiny: bool) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as work:
        w = WORKLOADS[name](seed, tiny, Path(work))
        refs = [reference_s() for _ in range(5)]
        t0 = perf_counter()
        w.setup()
        dt = perf_counter() - t0
        refs += [reference_s() for _ in range(5)]
        print(repr(dt * REF_MS / 1000 / statistics.median(refs)))


def _medians(samples: list[list[float]]) -> list[float]:
    """Every sample replaced by the median of its operation's samples."""
    return sorted(statistics.median(xs) for xs in samples for _ in xs)


def end_to_end(w, stats: Stats, setups: list[float]) -> tuple[dict, dict]:
    """Each sample counts as the median of its operation's normalised
    repeats, so that a phase of the host that is slow for both the program
    and the reference kernel moves no figure."""
    times, plain_times = stats.per_op(), stats.per_op(normalise=False)
    lat = _medians(times)
    busy = sum(lat) + sum(_medians(stats.per_op(raised=True)))
    completed = stats.attempted - stats.failed
    rss_who = resource.RUSAGE_CHILDREN if w.name == "cli-session" else resource.RUSAGE_SELF
    tail = statistics.quantiles(lat, n=100, method="inclusive")[w.tail_pct - 1]
    beyond = sum(x > tail for x in lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": completed / busy,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail,
        "completed_share": completed / stats.attempted,
        "decided_share": stats.decided / stats.requested,
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
    }
    raw = sum(dt for _, _, dt, _ in stats.samples)
    refs = sorted(x for _, x in stats.refs)
    plain = _medians(plain_times)
    plain_tail = statistics.quantiles(plain, n=100, method="inclusive")[w.tail_pct - 1]
    notes = {
        "tail": f"p{w.tail_pct} of {len(lat)} latencies, {beyond} beyond it"
                + ("" if beyond >= 10 else " (FEWER THAN TEN)"),
        "failed_share": f"{stats.failed}/{stats.attempted} = "
                        f"{stats.failed / stats.attempted:.4f}",
        "plain": f"latency p50 {1000 * statistics.median(plain):.4g} ms, "
                 f"p{w.tail_pct} {1000 * plain_tail:.4g} ms, not normalised",
        "cycles": f"{stats.cycles} cycles of {len(stats.labels)} operations, "
                  f"{stats.wall:.1f} s wall, {raw:.1f} s in the program, "
                  f"{busy:.1f} s normalised at the median repeats",
        "reference kernel": f"{1000 * statistics.median(refs):.2f} ms median of "
                            f"{len(refs)}, {1000 * refs[0]:.2f} fastest, "
                            f"{1000 * refs[-1]:.2f} slowest (REF_MS = {REF_MS}, "
                            f"REF_WINDOW_S = {REF_WINDOW_S})",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
        "inputs": w.sizes(),
    }
    if stats.failures:
        notes["failures"] = "; ".join(f"{k} x{v}" for k, v in sorted(stats.failures.items()))
    by_label: dict[str, list[str]] = {}
    for label, xs, raws in zip(stats.labels, times, plain_times):
        if xs:
            by_label.setdefault(label, []).append(
                f"{1000 * statistics.median(xs):.1f} ({1000 * statistics.median(raws):.1f})")
    for label, xs in sorted(by_label.items()):
        notes[f"median {label}"] = " / ".join(xs) + " ms normalised (plain)"
    return metrics, notes


def per_layer(w, tracer, overhead_ms: float) -> dict:
    out = {}
    for name in LAYERS[w.name]:
        if name == "trace.overhead_ms":
            unit, value = "ms", overhead_ms
        elif name in _COUNTERS:
            unit, fn = _COUNTERS[name]
            value = fn(tracer)
        else:
            unit, value = "ms", tracer.median_self_ms(name[:-len(".ms")])
        out[f"{w.name}.{name}"] = {"value": value, "unit": unit}
    return out


def traced(w, seconds: float, seed: int, out_dir: Path):
    """The same cycles twice: untraced for at least ``seconds``, then
    traced.  Spans are written to ``out_dir`` at the end."""
    plain = measure(w, seconds=seconds)
    tracer = Tracer()
    if plain.wrong:
        return plain, tracer, 0.0
    t0 = perf_counter()
    for layer, call in w.setup_calls():
        with tracer.span(layer):
            call()
    stats = measure(w, cycles=plain.cycles, tracer=tracer)
    if hasattr(w, "probes"):
        for _ in range(plain.cycles):
            w.probes(tracer)
    wall = perf_counter() - t0
    overhead_ms = 1000 * (wall - plain.wall) / max(1, stats.attempted)
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{w.name}-seed{seed}.jsonl", w.name)
    return stats, tracer, overhead_ms


# --- context and output ---------------------------------------------------------

def context(args) -> dict:
    files = sorted((SRC / "icgram").glob("*.py"))
    loc = {f.stem: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()[:12]
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = p.stdout.strip() or "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": commit, "src_digest": digest,
            "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
            "src_loc_total": sum(loc.values()), "src_loc": loc}


def print_table(rows: dict[str, dict], units: dict) -> None:
    names = list(units)
    head = ["workload"] + [f"{n} [{units[n]}]" for n in names]
    body = [[w] + [f"{m[n]['value']:.6g}" for n in names] for w, m in rows.items()]
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    for r in [head] + body:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="the small mix of each workload")
    p.add_argument("--self-test", action="store_true",
                   help="check that the harness catches wrong answers")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _load_program()
    if args.self_test:
        import selftest
        return selftest.main(WORKLOADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        _fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all")
    if args.setup_probe:
        _setup_probe(names[0], args.seed, args.tiny)
        return 0

    if args.workload == "all" and not args.trace:
        return _run_all(args)
    print("context: " + json.dumps(context(args)))
    ok, attempted, failed, rows = True, 0, 0, {}
    if args.trace:
        names = list(WORKLOADS)  # a traced run covers every workload
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as work:
        for name in names:
            w = WORKLOADS[name](args.seed, args.tiny, Path(work))
            w.setup()
            w.prepare()
            if args.trace:
                stats, tracer, overhead = traced(
                    w, args.seconds / TRACE_SHARE, args.seed, ROOT / ".bench_out")
                if not stats.wrong:
                    rows[name] = per_layer(w, tracer, overhead)
                print(f"{name} traced: {stats.cycles} cycles, {len(tracer.spans)} spans")
                raised = Counter(f"{s['name']} raised {s['counts']['raised']}"
                                 for s in tracer.spans if "raised" in s["counts"])
                for k, v in sorted(raised.items()):
                    print(f"{name} {k}: {v} of {len(tracer.named(k.split()[0]))} calls")
            else:
                # set-up probes run between cycles, so they sample the
                # machine across the run rather than in one moment
                argv, setups = _setup_probe_argv(name, args.seed, args.tiny), []
                stats = measure(w, seconds=args.seconds, between=lambda k: (
                    setup_probe(argv, setups) if k < SETUP_PROBES else None))
                while len(setups) < SETUP_PROBES:
                    setup_probe(argv, setups)
                if not stats.wrong:
                    metrics, notes = end_to_end(w, stats, setups)
                    rows[name] = {k: {"value": v, "unit": E2E_UNITS[k]}
                                  for k, v in metrics.items()}
                    for k, v in notes.items():
                        print(f"{name} {k}: {v}")
            attempted += stats.attempted
            failed += stats.failed
            if stats.wrong:
                print(f"bench: WRONG ANSWER in {name}: {stats.wrong}", file=sys.stderr)
                ok = False
                break
    if ok and args.trace:
        for m in rows.values():
            for k, v in m.items():
                print(f"{k} = {v['value']:.6g} {v['unit']}")
    elif ok:
        print_table(rows, E2E_UNITS)
    metrics = {k: v for m in rows.values() for k, v in m.items()} if ok else {}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def _run_all(args) -> int:
    """Every workload in its own process (so that peak RSS is its own),
    then one table with a row per workload."""
    ok, attempted, failed, rows = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0"] + (["--tiny"] if args.tiny else [])
        p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(p.stderr)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if p.returncode != 0 or not result or not result["correct"]:
            ok = False
            break
        rows[name] = result["metrics"]
        attempted += result["attempted"]
        failed += result["failed"]
    if ok:
        print_table(rows, E2E_UNITS)
    metrics = {f"{w}.{k}": v for w, m in rows.items() for k, v in m.items()} if ok else {}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
