"""Paired timing of two checkouts' ``run`` in one process.

    python3 tools/ab.py BASE CHANGE --seconds 60
    python3 tools/ab.py . . --seconds 5 --workload random-3    # A/A check

BASE and CHANGE are checkout roots.  Each one's ``src/rsdd`` is copied
into a temporary directory as a package of its own, so both load side by
side (``src/rsdd`` imports only relatively).  The workloads are the
benchmark's, read from ``bench/run.py``'s ``WORKLOADS`` of the checkout
this script sits in; each side builds its own instance, graph and config
with its own package.

For each workload the script calls each side's ``run`` in turn, in
alternating order, until ``--seconds`` have passed (and at least
``MIN_PAIRS`` pairs have run), then prints each side's median and
quartiles, the median of the paired ratios CHANGE / BASE and the pairs
CHANGE won, and whether the two sides' last traces are equal bit for bit.
When they are not, a second line gives each side's round count and the
largest |dx| and |dmu| between the two sides' final rounds: a change that
moves trajectories at solver tolerance shows by how much, and whether the
stopping round moved.
Separate benchmark processes on a shared host drift apart by more than
the gains they are meant to show; two sides timed in alternation in one
process share every phase of the host.

Nothing is written inside either checkout: bytecode writing is off and
the copies live in the system's temporary directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # before any import that could write into a checkout

import argparse
import importlib
import importlib.util
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
MIN_PAIRS = 3


def _workloads() -> dict:
    """``bench/run.py``'s WORKLOADS.  Importing it first also caps the BLAS
    threads as the benchmark does, before numpy is loaded."""
    spec = importlib.util.spec_from_file_location("_ab_bench_run", HERE / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _load(checkout: Path, name: str, into: Path):
    """``checkout``'s ``src/rsdd``, imported as the package ``name``."""
    source = checkout / "src" / "rsdd"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"ab: no src/rsdd in {checkout}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def _prepare(rsdd, wl):
    """The instance, graph and config of workload ``wl`` for one side."""
    problem = wl.build(rsdd)
    m_price = wl.M if wl.M is not None else rsdd.solve_centralized(problem).suggested_m
    config = rsdd.AlgorithmConfig(M=m_price,
                                  schedule=rsdd.harmonic_schedule(wl.gamma0, wl.exponent),
                                  max_iters=wl.max_iters, enable_early_stop=wl.early_stop)
    return problem, rsdd.build_graph(wl.topology, problem.n_agents), config


def _timed(rsdd, args):
    start = perf_counter()
    trace = rsdd.run(*args)
    return perf_counter() - start, trace


def _same(a, b) -> bool:
    import numpy as np
    return (a.status == b.status and len(a.snapshots) == len(b.snapshots)
            and all(np.array_equal(getattr(a.snapshots, f), getattr(b.snapshots, f))
                    for f in ("t", "x", "rho", "mu", "lam")))


def _difference(a, b) -> str:
    """How far traces ``a`` (base) and ``b`` (change) end apart: each one's
    round count, and the largest |dx| and |dmu| between their final rounds."""
    import numpy as np
    dx, dmu = (float(np.abs(getattr(a.snapshots, f)[-1] - getattr(b.snapshots, f)[-1]).max())
               for f in ("x", "mu"))
    return (f"rounds {len(a.snapshots)} / {len(b.snapshots)}, final round "
            f"max |dx| {dx:.3g}, max |dmu| {dmu:.3g}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(sides, wl, seconds: float) -> dict:
    """Alternate the two sides' ``run`` on ``wl`` for ``seconds``."""
    args = [_prepare(rsdd, wl) for rsdd in sides]
    times: list[list[float]] = [[], []]
    traces = [None, None]
    deadline = perf_counter() + seconds
    pair = 0
    while pair < MIN_PAIRS or perf_counter() < deadline:
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            elapsed, traces[side] = _timed(sides[side], args[side])
            times[side].append(elapsed)
        pair += 1
    ratios = [c / b for b, c in zip(*times)]
    return {"pairs": pair, "base": _quartiles(times[0]), "change": _quartiles(times[1]),
            "ratio": statistics.median(ratios),
            "won": sum(r < 1.0 for r in ratios),
            "difference": None if _same(*traces) else _difference(*traces)}


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout root of the base side")
    parser.add_argument("change", type=Path, help="checkout root of the changed side")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget per workload")
    parser.add_argument("--workload", action="append", choices=sorted(workloads),
                        help="workload to time (repeatable; default: all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rsdd-ab-") as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [_load(args.base.resolve(), "rsdd_ab_base", Path(tmp)),
                     _load(args.change.resolve(), "rsdd_ab_change", Path(tmp))]
            print("workload     pairs  base q1 / median / q3 (s)        "
                  "change q1 / median / q3 (s)      ratio  won  identical")
            for name in args.workload or list(workloads):
                r = compare(sides, workloads[name], args.seconds)
                base, change = ("{:.5f} / {:.5f} / {:.5f}".format(*r[s])
                                for s in ("base", "change"))
                print(f"{name:<12} {r['pairs']:>5}  {base}  {change}  "
                      f"{r['ratio']:.3f}  {r['won']:>3}  {'NO' if r['difference'] else 'yes'}",
                      flush=True)
                if r["difference"]:
                    print(f"  {name} traces differ: {r['difference']}", flush=True)
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
