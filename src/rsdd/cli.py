"""Command-line entry point.

Subcommands: ``run`` executes the distributed method on a problem file or a
generated instance and writes a run artifact; ``oracle`` prints the
centralized optimum and the suggested relaxation price; ``check`` re-checks
a recorded trace against the per-iteration invariants; ``demo`` runs the
bundled two-agent example end to end.

Exit codes: 0 success, 1 invalid input or failed validation, 2 solver
failure.  Failures additionally emit one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import AlgorithmConfig, harmonic_schedule
from .metrics import compute_metrics, emit_run_artifact
from .network_sim import (SimulationError, build_graph, check_trace_invariants,
                          load_trace, message_stats, run, save_trace)
from .oracle import solve_centralized
from .problem_model import (ProblemFormatError, build_microgrid_instance,
                            build_random_instance, load_problem,
                            microgrid_config_from_dict, problem_from_dict,
                            problem_hash, two_agent_demo, validate_problem)
from .qp_solver import QpError, save_form

_TOPOLOGIES = ["path", "cycle", "star", "complete", "erdos_renyi"]


def _err(category: str, message: str) -> None:
    print(json.dumps({"error": category, "message": message}),
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad usage, with a JSON error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _err("usage", message)
        raise SystemExit(1)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("RSDD_SEED")
    return int(env) if env is not None else 0


def _load_problem_arg(args, seed: int):
    sources = [s for s in ("problem", "microgrid", "random", "demo")
               if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValueError("give exactly one problem source: a problem file, "
                         "--microgrid, --random, or --demo")
    src = sources[0]
    if src == "problem":
        return load_problem(args.problem)
    if src == "demo":
        return two_agent_demo()
    if src == "microgrid":
        if args.microgrid == "default":
            return build_microgrid_instance()
        with open(args.microgrid) as fh:
            return build_microgrid_instance(
                microgrid_config_from_dict(json.load(fh)))
    parts = args.random.split(",")
    if len(parts) != 3:
        raise ValueError("--random takes 'agents,dim,coupling_dim'")
    n, d, s = (int(p) for p in parts)
    return build_random_instance(n, d, s, seed=seed)


def _validated(problem):
    report = validate_problem(problem)
    if not report.ok:
        raise ValueError("problem validation failed: "
                         + "; ".join(report.findings))
    return problem


def failed_form_path(trace_path: str) -> str:
    """Where ``--trace`` of ``rsdd run`` and ``demo`` saves a failed QP."""
    return os.path.splitext(trace_path)[0] + ".failed-qp.json"


def _run_traced(problem, graph, config, trace_path):
    """``run``, saving its trace to ``trace_path`` if one is given: the
    partial trace and the failed local QP when it fails."""
    try:
        trace = run(problem, graph, config)
    except SimulationError as exc:
        if trace_path:
            save_trace(exc.trace, trace_path)
            if getattr(exc.__cause__, "form", None) is not None:
                save_form(exc.__cause__.form, failed_form_path(trace_path))
        raise
    if trace_path:
        save_trace(trace, trace_path)
    return trace


def _check_iters(args) -> None:
    """Reject ``--iters`` below 1 before anything is solved."""
    if args.iters < 1:
        raise ValueError("--iters must be at least 1")


def _cmd_run(args) -> int:
    _check_iters(args)
    seed = _resolve_seed(args.seed)
    problem = _validated(_load_problem_arg(args, seed))
    graph = build_graph(args.topology, problem.n_agents, p=args.p, seed=seed)
    oracle = solve_centralized(problem)
    m_price = args.M if args.M is not None else oracle.suggested_m
    config = AlgorithmConfig(
        M=m_price, schedule=harmonic_schedule(args.gamma0, args.exponent),
        max_iters=args.iters - 1,
        enable_early_stop=not args.no_early_stop)
    trace = _run_traced(problem, graph, config, args.trace)
    metrics = compute_metrics(trace, oracle)
    emit_run_artifact(metrics, trace, args.out, fmt=args.format)
    stats = message_stats(trace)
    print(f"status {trace.status} after {trace.iterations} iterations")
    print(f"rows {len(metrics)} -> {args.out}")
    print(f"M {m_price:.6g}")
    print(f"final cost {metrics.cost[-1]:.6g} (f_star {oracle.f_star:.6g}, "
          f"rel err {metrics.cost_error_norm[-1]:.3g})")
    print(f"final max violation {metrics.max_violation[-1]:.3g}, "
          f"sum rho {metrics.sum_rho[-1]:.3g}")
    print(f"messages {stats.total} ({stats.per_round} per round, "
          f"{stats.bytes_total} bytes)")
    for w in trace.warnings:
        print(f"warning: {w}")
    return 0


def _cmd_oracle(args) -> int:
    seed = _resolve_seed(args.seed)
    problem = _validated(_load_problem_arg(args, seed))
    res = solve_centralized(problem)
    print(f"f_star = {res.f_star:.6g}")
    print("mu_star =", " ".join(f"{v:.6g}" for v in res.mu_star))
    print(f"suggested_M = {res.suggested_m:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res.to_dict(), fh)
    return 0


def _cmd_check(args) -> int:
    try:
        trace = load_trace(args.trace)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"not a readable trace file: {exc}") from exc
    findings = check_trace_invariants(trace)
    embedded = problem_hash(problem_from_dict(trace.problem))
    if embedded != trace.problem_hash:
        findings.append("embedded problem does not match the recorded hash")
    if findings:
        for f in findings:
            print(f)
        _err("invariant", findings[0])
        return 1
    print(f"trace ok: {len(trace.snapshots)} snapshots, "
          f"status {trace.status}")
    return 0


def _cmd_demo(args) -> int:
    _check_iters(args)
    problem = two_agent_demo()
    res = solve_centralized(problem)
    print(f"f_star = {res.f_star:.6g}")
    print("mu_star =", " ".join(f"{v:.6g}" for v in res.mu_star))
    print(f"suggested_M = {res.suggested_m:.6g}")
    config = AlgorithmConfig(M=10.0, schedule=harmonic_schedule(1.0, 0.8),
                             max_iters=args.iters - 1, enable_early_stop=False)
    trace = _run_traced(problem, build_graph("path", 2), config, args.trace)
    metrics = compute_metrics(trace, res)
    x = trace.snapshots.x[-1]
    print(f"after {trace.iterations} iterations: "
          f"x = ({x[0]:.6f}, {x[1]:.6f})")
    print(f"cost {metrics.cost[-1]:.6f}, rel err {metrics.cost_error_norm[-1]:.2e}, "
          f"max violation {metrics.max_violation[-1]:.2e}")
    if args.out:
        emit_run_artifact(metrics, trace, args.out, fmt=args.format)
        print(f"rows {len(metrics)} -> {args.out}")
    return 0


def _add_problem_sources(p: argparse.ArgumentParser, with_demo: bool) -> None:
    p.add_argument("problem", nargs="?", default=None,
                   help="problem file (JSON)")
    p.add_argument("--microgrid", metavar="SPEC",
                   help="'default' or a microgrid config JSON file")
    p.add_argument("--random", metavar="N,D,S",
                   help="random instance: agents,dim,coupling_dim")
    if with_demo:
        p.add_argument("--demo", action="store_true",
                       help="use the bundled two-agent example")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rsdd",
                     description="Distributed solver for constraint-coupled "
                                 "convex programs over a network.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_run = sub.add_parser("run", help="run the distributed method")
    _add_problem_sources(p_run, with_demo=True)
    p_run.add_argument("--topology", choices=_TOPOLOGIES, default="cycle")
    p_run.add_argument("--p", type=float, default=0.5,
                       help="edge probability for erdos_renyi")
    p_run.add_argument("--M", type=float, default=None,
                       help="relaxation price (default: suggested by the "
                            "centralized solve)")
    p_run.add_argument("--gamma0", type=float, default=1.0)
    p_run.add_argument("--exponent", type=float, default=0.8)
    p_run.add_argument("--iters", type=int, default=1000,
                       help="artifact rows (fewer if the run stops early); "
                            "the run performs at most iters-1 updates")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed (default: RSDD_SEED env var, else 0)")
    p_run.add_argument("--out", default="run.csv", help="artifact path")
    p_run.add_argument("--format", choices=["csv", "json"], default=None)
    p_run.add_argument("--trace", default=None,
                       help="also dump the full trace JSON here; a failed "
                            "local QP goes next to it as *.failed-qp.json")
    p_run.add_argument("--no-early-stop", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="centralized reference solve")
    _add_problem_sources(p_oracle, with_demo=True)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--out", default=None,
                          help="write the oracle result JSON here")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_check = sub.add_parser("check", help="verify a recorded trace")
    p_check.add_argument("trace", help="trace JSON file")
    p_check.set_defaults(func=_cmd_check)

    p_demo = sub.add_parser("demo", help="two-agent example end to end")
    p_demo.add_argument("--iters", type=int, default=2000)
    p_demo.add_argument("--out", default=None, help="artifact path")
    p_demo.add_argument("--format", choices=["csv", "json"], default=None)
    p_demo.add_argument("--trace", default=None)
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        _err("problem-format", str(exc))
        return 1
    except (ValueError, OSError) as exc:
        _err("invalid-input", str(exc))
        return 1
    except SimulationError as exc:
        _err("solver", str(exc))
        return 2
    except QpError as exc:
        _err("solver", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
