"""Benchmark of rsdd: set-up, rounds of the distributed method, report, check.

Run from the repository root:

    python3 bench/run.py --workload microgrid --seed 1 --seconds 30 --trace 0

One process runs one workload.  It repeats whole cycles of set-up + ``run``
+ report + check until ``--seconds`` have passed, checks the outputs
against computations made apart from the program (bench/checks.py), and
prints as its last line one JSON object with
``correct``, ``attempted`` and ``failed`` (rounds of the method) and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
It exits 1 when a check fails, after printing the result with ``correct``
false, and without a result when the program cannot be imported.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import ctypes
import os
import sys

ADDR_NO_RANDOMIZE = 0x0040000


def _reexec_without_aslr() -> None:
    """Restart this process once with address-space randomization off.

    The memory layout a process draws sets its speed: with randomization
    on, 4 of 14 processes ran 30 microgrid updates in 0.62-0.75 s at best,
    against 0.39-0.49 s for the rest, while windows inside one process
    agreed within 5% (bench/README.md).  With randomization off every
    process gets the same layout.  The flag is inherited across ``exec``, so
    the restarted process sees it set and goes on.  Where ``personality``
    is refused, the run goes on with randomization on.
    """
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return
    if personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    _reexec_without_aslr()

# BLAS threads are capped at the CPUs this process may use; this has to
# happen before numpy is first imported.
_CPUS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CPUS

import argparse
import hashlib
import json
import re
import resource
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SAMPLE_PAIRS = 12       # (snapshot, agent) pairs re-solved with scipy per run
STOP_PROBE_SEED = 16    # random 3x2x2 instance whose stopping rule fires early


@dataclass(frozen=True)
class Workload:
    """A pinned instance and its run configuration.

    ``M`` None takes the oracle's suggestion; ``early_stop`` False runs
    exactly ``max_iters`` updates (``max_iters + 1`` rounds).
    ``converge_iters``, when set, adds one untimed run of that length whose
    relaxation must vanish.
    """

    build: Callable         # rsdd module -> ConstraintCoupledProblem
    topology: str
    M: float | None
    gamma0: float
    exponent: float
    max_iters: int
    early_stop: bool
    converge_iters: int | None = None


# Instances are pinned: time to a solution of random 3x2x2 instances spans
# 100 to over 20000 rounds across instance seeds, and random N=200 instances
# break the local solver on some seeds (bench/README.md).  --seed picks the
# (snapshot, agent) pairs that the independent checks re-solve.  Timed runs
# are short so that a run holds many of them (see Spans.median).
WORKLOADS = {
    "microgrid": Workload(lambda rsdd: rsdd.build_microgrid_instance(),
                          "cycle", 15.0, 0.02, 0.6, 30, False, converge_iters=300),
    "random-3": Workload(lambda rsdd: rsdd.build_random_instance(3, 2, 2, 12),
                         "path", None, 0.1, 0.6, 20000, True),
    "random-200": Workload(lambda rsdd: rsdd.build_random_instance(200, 2, 2, 1),
                           "cycle", 50.0, 0.1, 0.6, 10, False),
}


def _import_program():
    """Import rsdd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rsdd
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rsdd from {ROOT / 'src'}: {exc}") from exc
    if Path(rsdd.__file__).resolve().parent != ROOT / "src" / "rsdd":
        raise SystemExit(f"bench: rsdd imported from {rsdd.__file__}, not this checkout")
    return rsdd


def _setup(rsdd, wl: Workload, spans):
    """What `rsdd run` does before round 0."""
    with spans.span("setup"):
        with spans.span("problem_model.build"):
            problem = wl.build(rsdd)
        with spans.span("problem_model.validate"):
            report = rsdd.validate_problem(problem)
        graph = rsdd.build_graph(wl.topology, problem.n_agents)
        with spans.span("oracle.solve_centralized"):
            oracle = rsdd.solve_centralized(problem)
    if not report.ok:
        raise SystemExit(f"bench: instance rejected: {report.findings}")
    return problem, graph, oracle


def _cycle(rsdd, problem, graph, config, oracle, paths, spans) -> dict:
    """The rounds of `rsdd run --trace` and then `rsdd check`, in process."""
    failure = None
    with spans.span("network_sim.run"):
        try:
            trace = rsdd.run(problem, graph, config)
        except rsdd.SimulationError as exc:
            # Keep no reference to the exception: its traceback holds the
            # frames of `run`, a cycle only the garbage collector would free.
            trace, failure = exc.trace, str(exc)
    with spans.span("report"):
        with spans.span("metrics.compute"):
            rows = rsdd.compute_metrics(trace, oracle)
        with spans.span("metrics.emit"):
            rsdd.emit_run_artifact(rows, trace, paths["artifact"])
        with spans.span("network_sim.save"):
            rsdd.save_trace(trace, paths["trace"])
    with spans.span("check"):
        with spans.span("network_sim.load"):
            loaded = rsdd.load_trace(paths["trace"])
        with spans.span("network_sim.check"):
            findings = rsdd.check_trace_invariants(loaded)
        with spans.span("problem_model.hash"):
            same_hash = (rsdd.problem_hash(rsdd.problem_from_dict(loaded.problem))
                         == loaded.problem_hash)
    if not same_hash:
        findings.append("embedded problem does not match the recorded hash")
    return {"completed": len(trace.snapshots), "failed": failure is not None,
            "failure": failure,
            "trace": trace, "findings": findings,
            "digest": hashlib.sha256(paths["trace"].read_bytes()).hexdigest()}


def _failure_note(rsdd, problem, config, trace, failure: str) -> str:
    """Round and agent of a SimulationError; the batch element maps to an
    agent when all agents share one shape group."""
    element = re.search(r"element (\d+)", failure)
    where = f"round {trace.iterations}"
    if element:
        groups = rsdd.LocalSolverPool(problem, config.M).groups
        k = int(element.group(1))
        where += (f", agent {groups[0][1][k]}" if len(groups) == 1
                  else f", element {k} of one of {len(groups)} shape groups")
    return f"{where}: {failure}"


def measure(name: str, seed: int, seconds: float, traced: bool,
            rounds: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the check findings.

    ``rounds`` caps the update rounds for a smoke run, which skips the
    end-of-run convergence checks and the stopping-rule probe.
    """
    rsdd = _import_program()
    import numpy as np

    import checks
    from spans import Spans, install_program_wrappers, per_layer

    wl = WORKLOADS[name]
    max_iters = wl.max_iters if rounds is None else min(wl.max_iters, rounds)
    OUT.mkdir(exist_ok=True)
    paths = {"trace": OUT / f"{name}-trace.json", "artifact": OUT / f"{name}-run.csv"}
    spans = Spans()
    if traced:
        install_program_wrappers(spans)
    try:
        cycles = []
        deadline = perf_counter() + seconds
        while not cycles or perf_counter() < deadline:
            if cycles:      # only the last cycle's objects stay alive
                cycles[-1] = {k: cycles[-1][k] for k in ("completed", "failed",
                                                        "findings", "digest")}
            problem, graph, oracle = _setup(rsdd, wl, spans)
            config = rsdd.AlgorithmConfig(
                M=wl.M if wl.M is not None else oracle.suggested_m,
                schedule=rsdd.harmonic_schedule(wl.gamma0, wl.exponent),
                max_iters=max_iters, enable_early_stop=wl.early_stop)
            cycles.append(_cycle(rsdd, problem, graph, config, oracle, paths, spans))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        spans.unwrap_all()
    spans.write_jsonl(OUT / f"{name}-spans-trace{int(traced)}.jsonl")

    last = cycles[-1]
    m_price = config.M
    attempted = sum(c["completed"] + c["failed"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    notes = [f"{name}: {len(cycles)} cycles, {attempted} rounds attempted, {failed} failed"]
    if last["failure"] is not None:
        notes.append("failed " + _failure_note(rsdd, problem, config, last["trace"],
                                               last["failure"]))

    # Checks, outside every timed region.
    found = [f for c in cycles for f in c["findings"]]
    if len({c["digest"] for c in cycles}) != 1:
        found.append("cycles of one run saved different traces")
    raw = checks.RawTrace(paths["trace"])
    found += checks.trace_properties(raw, problem, m_price, wl.gamma0, wl.exponent)
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(len(raw.t))), int(rng.integers(problem.n_agents)))
             for _ in range(SAMPLE_PAIRS)]
    found += checks.local_resolves(raw, problem, m_price, pairs)
    if checks.box_only(problem):
        found += checks.oracle_kkt(problem, oracle.xs, oracle.f_star, oracle.mu_star)
    full = rounds is None
    if name == "random-3" and full:
        found += _check_solution(checks, problem, raw, m_price, oracle)
        notes.append(_probe_stopping_rule(rsdd, checks, wl))
    if wl.converge_iters and full:
        found += _check_convergence(rsdd, checks, problem, graph, config, wl)
    if last["failure"] is None and len(raw.t) != max_iters + 1 and not wl.early_stop:
        found.append(f"run stopped after {len(raw.t)} rounds, expected {max_iters + 1}")

    completed = last["completed"]
    if traced:
        metrics = per_layer(spans, attempted)
        metrics["network_sim.trace_bytes_per_round"] = (
            paths["trace"].stat().st_size / completed)
        stats = rsdd.message_stats(last["trace"])
        metrics["network_sim.message_bytes_per_round"] = (
            stats.bytes_total / max(stats.rounds, 1))
    else:
        run_s = spans.median("network_sim.run")
        metrics = {
            "setup_s": spans.median("setup"),
            "run_s": run_s,
            "rounds_per_s": completed / run_s,
            "report_s": spans.median("report"),
            "check_s": spans.median("check"),
            "trace_mb": paths["trace"].stat().st_size / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if traced else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"bench: metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json's {sorted(units)}")
    result = {"correct": not found, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, notes + found


def _check_convergence(rsdd, checks, problem, graph, config, wl) -> list[str]:
    """One untimed run of ``converge_iters`` updates: every trace property
    holds and sum rho at the last round is at most half its value at round
    100, because the relaxation vanishes."""
    path = OUT / "converge-trace.json"
    rsdd.save_trace(rsdd.run(problem, graph, replace(config, max_iters=wl.converge_iters)),
                    path)
    raw = checks.RawTrace(path)
    found = checks.trace_properties(raw, problem, config.M, wl.gamma0, wl.exponent)
    early, final = float(raw.rho[100].sum()), float(raw.rho[-1].sum())
    if not final <= 0.5 * early:
        found.append(f"sum rho {final:.3e} at round {raw.t[-1]} is not below half "
                     f"its value {early:.3e} at round 100")
    return found


def _final_error(checks, problem, raw, m_price, f_ref) -> tuple[float, float]:
    """Max coupling violation and relative cost error of the last iterate."""
    xs = raw.x[-1]
    violation = float(sum(checks.usage(a, x) for a, x in zip(problem.agents, xs)).max())
    value = sum(checks.cost(a, x) for a, x in zip(problem.agents, xs)) \
        + m_price * float(raw.rho[-1].sum())
    return violation, abs(value - f_ref) / max(abs(f_ref), 1e-12)


def _check_solution(checks, problem, raw, m_price, oracle) -> list[str]:
    """random-3 ends at the stopping rule within 1e-3 violation and 1e-2
    relative cost error of a scipy optimum, which must agree with f*."""
    found = []
    if raw.status != "tolerance-met":
        found.append(f"run ended with status {raw.status}, not at the stopping rule")
    f_ref, found_ref = checks.scipy_optimum(problem)
    found += found_ref
    if abs(f_ref - oracle.f_star) > 1e-6 * max(1.0, abs(f_ref)):
        found.append(f"oracle f* {oracle.f_star:.10g} differs from scipy {f_ref:.10g}")
    violation, error = _final_error(checks, problem, raw, m_price, f_ref)
    if violation > 1e-3 or error > 1e-2:
        found.append(f"final iterate: violation {violation:.3e}, relative cost "
                     f"error {error:.3e} against scipy")
    return found


def _probe_stopping_rule(rsdd, checks, wl) -> str:
    """One untimed run of random-3's config on instance seed 16, held to
    the same 1e-3 / 1e-2 limits as the timed instance.

    Today the stopping rule ends it at about 8e-2 relative cost error, a
    known fault of the program (CHANGES.md).  The timed seed-12 instance
    passes the same check, so that check alone cannot see this fault.  The
    probe's verdict is printed and does not set ``correct``: it fails in
    every run until the rule is mended.
    """
    problem = rsdd.build_random_instance(3, 2, 2, STOP_PROBE_SEED)
    m_price = rsdd.solve_centralized(problem).suggested_m
    config = rsdd.AlgorithmConfig(
        M=m_price, schedule=rsdd.harmonic_schedule(wl.gamma0, wl.exponent),
        max_iters=wl.max_iters, enable_early_stop=True)
    path = OUT / "stop-probe-trace.json"
    rsdd.save_trace(rsdd.run(problem, rsdd.build_graph(wl.topology, 3), config), path)
    raw = checks.RawTrace(path)
    f_ref, found_ref = checks.scipy_optimum(problem)
    violation, error = _final_error(checks, problem, raw, m_price, f_ref)
    verdict = ("passes" if raw.status == "tolerance-met" and not found_ref
               and violation <= 1e-3 and error <= 1e-2 else "KNOWN FAULT")
    return (f"stopping-rule probe, instance seed {STOP_PROBE_SEED}: {verdict}: "
            f"{raw.status} after {raw.t[-1]} updates, violation {violation:.3e}, "
            f"relative cost error {error:.3e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="smoke run: cap update rounds, one set-up")
    args = parser.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.rounds)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
