"""compute_metrics and check_trace_invariants against per-snapshot loops.

Both functions evaluate a trace as whole-trace arrays.  The references
below evaluate it one snapshot and one agent at a time, through the
one-agent API; rows and findings must agree bit for bit and text for text,
on clean traces and on tampered ones.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from rsdd.core import AlgorithmConfig, harmonic_schedule, schedule_from_dict, step_size
from rsdd.metrics import IterationMetrics, compute_metrics
from rsdd.network_sim import (_CONSISTENCY_TOL, _FEAS_SLACK, _MU_CAP_SLACK,
                              RunTrace, build_graph, check_trace_invariants,
                              run, trace_from_dict, trace_to_dict)
from rsdd.oracle import solve_centralized
from rsdd.problem_model import (build_microgrid_instance, build_random_instance,
                                problem_from_dict, two_agent_demo)


def reference_metrics(trace, oracle) -> list[IterationMetrics]:
    problem = problem_from_dict(trace.problem)
    m_price = float(trace.config["M"])
    f_star = oracle.f_star
    normalize = abs(f_star) >= 1e-12
    graph = trace.graph
    out = []
    for snap in trace.snapshots:
        g_per_agent = np.array([agent.g(x)
                                for agent, x in zip(problem.agents, snap.x)])
        total_g = np.sum(g_per_agent, axis=0)
        cost = problem.total_cost(snap.x) + m_price * float(snap.rho.sum())
        err = abs(cost - f_star) / (abs(f_star) if normalize else 1.0)
        consistency = float(np.abs(graph.telescoping_sum(snap.lam)).max())
        if consistency > _CONSISTENCY_TOL:
            raise AssertionError(
                f"iteration {snap.t}: edge-variable consistency "
                f"{consistency:.3e} exceeds {_CONSISTENCY_TOL:g}")
        rest = total_g - g_per_agent
        tracking = np.abs(graph.shifts(snap.lam) - rest).max(axis=1)
        spread = float(np.abs(graph.edge_step(0.0, 1.0, snap.mu)).max(
            initial=0.0))
        out.append(IterationMetrics(
            t=snap.t, max_violation=float(total_g.max()),
            sum_rho=float(snap.rho.sum()), cost=cost, cost_error_norm=err,
            lambda_consistency=consistency, mu_spread=spread,
            tracking_error=tracking))
    return out


def reference_findings(trace) -> list[str]:
    findings: list[str] = []
    problem = problem_from_dict(trace.problem)
    graph = trace.graph
    m_price = float(trace.config["M"])
    s_dim = problem.coupling_dim
    if len(trace.snapshots) != trace.iterations + 1 \
            and trace.status != "solver-error":
        findings.append(
            f"snapshot count {len(trace.snapshots)} does not equal "
            f"iterations+1 = {trace.iterations + 1}")
    spread_cap = 2.0 * m_price * float(np.sqrt(s_dim))
    forward = [k for k, (i, j) in enumerate(graph.directed_edges) if i < j]
    for snap in trace.snapshots:
        t = snap.t
        slack = problem.coupling_total(snap.x) - float(snap.rho.sum())
        if slack.max() > _FEAS_SLACK:
            findings.append(
                f"iteration {t}: aggregate feasibility violated, "
                f"max_s(sum g - sum rho) = {slack.max():.3e}")
        net = graph.telescoping_sum(snap.lam)
        if np.abs(net).max() > _CONSISTENCY_TOL:
            findings.append(
                f"iteration {t}: lambda consistency violated, "
                f"|sum (lambda_ij - lambda_ji)| = {np.abs(net).max():.3e}")
        cap = snap.mu.sum(axis=1).max()
        if cap > m_price + _MU_CAP_SLACK:
            findings.append(
                f"iteration {t}: multiplier cap violated, "
                f"max_i mu_i.1 = {cap:.10e} > M = {m_price:g}")
        gaps = np.linalg.norm(graph.edge_step(0.0, 1.0, snap.mu)[forward],
                              axis=1)
        for (i, j), d in zip(graph.edges, gaps):
            if d > spread_cap + _MU_CAP_SLACK:
                findings.append(
                    f"iteration {t}: multiplier spread violated on edge "
                    f"({i}, {j}): {d:.6e} > {spread_cap:.6e}")
    schedule = schedule_from_dict(trace.config["schedule"])
    for prev, snap in zip(trace.snapshots, trace.snapshots[1:]):
        expect = graph.edge_step(prev.lam, step_size(schedule, prev.t), prev.mu)
        worst = float(np.abs(snap.lam - expect).max(initial=0.0))
        if worst > _CONSISTENCY_TOL:
            findings.append(
                f"iteration {snap.t}: lambda consistency violated, edge "
                f"update replay differs by {worst:.3e}")
    return findings


def row_bytes(m: IterationMetrics) -> tuple:
    values = [m.max_violation, m.sum_rho, m.cost, m.cost_error_norm,
              m.lambda_consistency, m.mu_spread]
    assert all(type(v) is float for v in values)
    return (m.t, np.array(values).tobytes(), m.tracking_error.tobytes())


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the AssertionError it raises;
    a RuntimeWarning (a reduction over an empty axis) fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn(*args)
        except AssertionError as exc:
            return f"AssertionError: {exc}"


def assert_same_as_reference(trace, oracle):
    ours, ref = outcome(compute_metrics, trace, oracle), \
        outcome(reference_metrics, trace, oracle)
    if isinstance(ref, str):
        assert ours == ref
    else:
        assert [row_bytes(m) for m in ours] == [row_bytes(m) for m in ref]
    assert outcome(check_trace_invariants, trace) == reference_findings(trace)


def copy(trace: RunTrace) -> RunTrace:
    return trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))


CASES = {
    # name: (problem builder, topology, M, max_iters)
    "demo": (two_agent_demo, "path", 10.0, 120),
    "microgrid": (build_microgrid_instance, "cycle", 15.0, 30),
    "random-5x2x3": (lambda: build_random_instance(5, 2, 3, 3), "complete", None, 60),
    # S = 1 with 12 agents: np.sum over the agents rounds pairwise there,
    # unlike the in-order total of coupling_total.
    "random-12x2x1": (lambda: build_random_instance(12, 2, 1, 4), "cycle", None, 20),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def recorded(request):
    build, topology, m_price, iters = CASES[request.param]
    problem = build()
    oracle = solve_centralized(problem)
    config = AlgorithmConfig(
        M=m_price if m_price is not None else oracle.suggested_m,
        schedule=harmonic_schedule(0.1, 0.6), max_iters=iters,
        enable_early_stop=False)
    return run(problem, build_graph(topology, problem.n_agents), config), oracle


def _bump_lambda(trace):
    trace.snapshots[4].lam[0] += 1e-3
    trace.snapshots[9].lam[1] += 5.0


def _over_cap(trace):
    trace.snapshots[2].mu[0] += float(trace.config["M"])
    trace.snapshots[6].mu[-1, 0] = 1e-9 + float(trace.config["M"])


def _shift_x(trace):
    # Along the last agent's first coupling row, so that row grows.
    up = 50.0 * problem_from_dict(trace.problem).agents[-1].coupling.mat[0]
    for k in (1, 5, 8):
        trace.snapshots[k].x[-1] = trace.snapshots[k].x[-1] + up


def _spread(trace):
    # With _over_cap, snapshot 2 has cap and spread findings together.
    for k in (2, 3):
        trace.snapshots[k].mu[1] -= 3.0 * float(trace.config["M"])


def _everything(trace):
    for tamper in (_bump_lambda, _over_cap, _shift_x, _spread):
        tamper(trace)
    trace.snapshots.pop()


TAMPERINGS = {"clean": lambda trace: None, "lambda": _bump_lambda,
              "cap": _over_cap, "x": _shift_x, "spread": _spread,
              "everything": _everything}


class TestAgainstPerSnapshotLoops:
    @pytest.mark.parametrize("tamper", sorted(TAMPERINGS))
    def test_rows_and_findings(self, recorded, tamper):
        trace, oracle = recorded
        trace = copy(trace)
        TAMPERINGS[tamper](trace)
        assert_same_as_reference(trace, oracle)
        if tamper != "clean":
            assert check_trace_invariants(trace)

    def test_zero_snapshot_solver_error_trace(self, recorded):
        trace, oracle = recorded
        trace = copy(trace)
        trace.snapshots, trace.status, trace.iterations = [], "solver-error", 0
        assert outcome(compute_metrics, trace, oracle) == []
        assert outcome(check_trace_invariants, trace) == []
        assert_same_as_reference(trace, oracle)

    def test_one_snapshot_trace(self, recorded):
        trace, oracle = recorded
        trace = copy(trace)
        del trace.snapshots[1:]
        trace.iterations = 0
        assert len(outcome(compute_metrics, trace, oracle)) == 1
        assert outcome(check_trace_invariants, trace) == []
        assert_same_as_reference(trace, oracle)
