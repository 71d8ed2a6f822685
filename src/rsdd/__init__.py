"""Distributed solver for constraint-coupled convex programs.

A network of agents, each with a private convex quadratic cost (optionally
piecewise-linear) and a private constraint set, jointly satisfies one shared
inequality that sums contributions from everyone.  The method relaxes each
agent's view of the shared constraint, prices violation at M, and lets
neighbors reconcile their multiplier estimates through edge variables; the
last iterate itself converges to the optimum, no running averages needed.

The package ships the per-agent operations (:mod:`rsdd.core`), a synchronous
network simulator (:mod:`rsdd.network_sim`), a batched interior-point QP
solver (:mod:`rsdd.qp_solver`), centralized reference solutions
(:mod:`rsdd.oracle`), metrics and artifacts (:mod:`rsdd.metrics`), and a CLI
(``rsdd``).
"""

from .core import (AlgorithmConfig, LocalSolverPool, StepSizeSchedule,
                   explicit_schedule, harmonic_schedule, lambda_update,
                   local_step, step_size, validate_schedule)
from .metrics import (IterationMetrics, compute_metrics, emit_run_artifact,
                      load_run_artifact)
from .network_sim import (Graph, RunTrace, SimulationError, Snapshots,
                          build_graph, check_trace_invariants, load_trace,
                          message_stats, run, save_trace)
from .oracle import (OracleResult, dual_terms, solve_centralized,
                     solve_relaxed_centralized, suggest_m)
from .problem_model import (AffineMap, AgentProblem, ConstraintCoupledProblem,
                            Hinge, LocalSet, MicrogridConfig,
                            ProblemFormatError, ValidationReport,
                            build_microgrid_instance, build_random_instance,
                            load_problem, microgrid_config_from_dict,
                            microgrid_config_to_dict, problem_from_dict,
                            problem_hash, problem_to_dict, save_problem,
                            two_agent_demo, validate_problem)
from .qp_solver import (KktResiduals, PrimalDualSolution, QpBatch, QpError,
                        QpInfeasibleError, QpNumericalError, QpStandardForm,
                        kkt_residuals, lift_hinges, load_form, save_form,
                        solve_qp, validate_form)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AgentProblem", "AlgorithmConfig",
    "ConstraintCoupledProblem", "Graph", "Hinge",
    "IterationMetrics", "KktResiduals", "LocalSet", "LocalSolverPool",
    "MicrogridConfig", "OracleResult", "PrimalDualSolution",
    "ProblemFormatError", "QpBatch", "QpError", "QpInfeasibleError",
    "QpNumericalError", "QpStandardForm", "RunTrace", "SimulationError",
    "Snapshots", "StepSizeSchedule", "ValidationReport",
    "build_graph", "build_microgrid_instance", "build_random_instance",
    "check_trace_invariants", "compute_metrics", "dual_terms",
    "emit_run_artifact", "explicit_schedule", "harmonic_schedule",
    "kkt_residuals", "lambda_update", "lift_hinges", "load_form",
    "load_problem", "load_run_artifact", "load_trace", "local_step",
    "message_stats", "microgrid_config_from_dict", "microgrid_config_to_dict",
    "problem_from_dict", "problem_hash", "problem_to_dict", "run",
    "save_form", "save_problem", "save_trace", "solve_centralized",
    "solve_qp", "solve_relaxed_centralized", "step_size", "suggest_m",
    "two_agent_demo", "validate_form", "validate_problem",
]
