"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median) against the
bounds in ``BENCHMARK.json``.

    python3 bench/spread.py --seeds 1-10 [--workload ic-member ...] [--out FILE]

Runs are sequential, one process at a time.  ``--out`` writes the run
context, every run's metrics, the summary and, with ``--trace``, the
per-layer metrics of one traced run on the first seed, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record, worst = {"seconds": args.seconds, "runs": {}, "summary": {}}, 0.0
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            argv = spec["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run([sys.executable if a == "python3" else a for a in argv],
                                 cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if out.returncode != 0 or not result["correct"]:
                print(out.stdout, out.stderr, file=sys.stderr)
                return 1
            record.setdefault("context", json.loads(lines[0].split(": ", 1)[1]))
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        record["runs"][name] = runs
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound}
            flag = "" if metric == "setup_s" or spread < bound / 3 else "  <-- over bound/3"
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:16} {metric:18} median {med:<12.6g} spread {spread:.4f}"
                  f" (bound {bound}){flag}")
        record["summary"][name] = summary
    if args.trace:
        argv = spec["command"] + ["--workload", "all", "--seed", str(args.seeds[0]),
                                  "--seconds", str(args.seconds), "--trace", "1"]
        out = subprocess.run([sys.executable if a == "python3" else a for a in argv],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        record["traced"] = {"seed": args.seeds[0],
                            "notes": [ln for ln in lines[1:-1] if " = " not in ln],
                            "metrics": {k: v["value"] for k, v in
                                        json.loads(lines[-1])["metrics"].items()}}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"worst spread / bound, setup_s aside: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
