"""Run the benchmark over several seeds and summarize every metric.

Run from the repository root, for example

    python3 bench/reference.py --seeds 1-10 --trace 0 --write

Each (workload, seed) is one ``bench/run.py`` process with BENCHMARK.json's
``run_seconds``, run one after another.  For every workload and metric the
script prints the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, the spread (q3 - q1) / median, and for end-to-end metrics the
bound.  ``--write`` stores the figures in bench/reference-trace<0|1>.json,
the reference quoted in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}

    import numpy

    summary = {"machine": {"cpus": len(os.sched_getaffinity(0)),
                           "python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "platform": platform.platform()},
               "run_seconds": declared["run_seconds"], "trace": args.trace,
               "workloads": {}}
    ok = True
    for name in (w["name"] for w in declared["workloads"]):
        results = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            results.append(json.loads(lines[-1]))
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        entry = {"seeds": args.seeds, "failed_shares": shares,
                 "correct": all(r["correct"] for r in results), "metrics": {}}
        print(f"\n{name}: failed share {shares}, correct {entry['correct']}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            entry["metrics"][metric] = {"unit": results[0]["metrics"][metric]["unit"],
                                        "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {metric:40s} {med:14.6g} [{q1:.6g}, {q3:.6g}] spread {spread:7.2%}"
                  + ("" if bound is None else f" bound {bound:.0%}") + flag)
        summary["workloads"][name] = entry
        ok &= entry["correct"] and len(shares) == 1
    if args.write:
        out = BENCH / f"reference-trace{args.trace}.json"
        out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
