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
                              RunTrace, Snapshots, build_graph,
                              check_trace_invariants, run, trace_from_dict,
                              trace_to_dict)
from rsdd.oracle import solve_centralized
from rsdd.problem_model import (build_microgrid_instance, build_random_instance,
                                problem_from_dict, two_agent_demo)


def rounds(trace) -> list[tuple]:
    """Each round of ``trace`` as (t, [x_1, ..., x_N], rho, mu, lam)."""
    snaps = trace.snapshots
    splits = np.cumsum([int(a["dim"]) for a in trace.problem["agents"]])[:-1]
    return [(t, np.split(x, splits), rho, mu, lam) for t, x, rho, mu, lam in zip(
        snaps.t.tolist(), snaps.x, snaps.rho, snaps.mu, snaps.lam)]


def head(snaps: Snapshots, n: int) -> Snapshots:
    """The first n rounds of ``snaps``."""
    return Snapshots(snaps.t[:n], snaps.x[:n], snaps.rho[:n], snaps.mu[:n],
                     snaps.lam[:n])


def reference_metrics(trace, oracle) -> list[IterationMetrics]:
    problem = problem_from_dict(trace.problem)
    m_price = float(trace.config["M"])
    f_star = oracle.f_star
    normalize = abs(f_star) >= 1e-12
    graph = trace.graph
    out = []
    for t, xs, rho, mu, lam in rounds(trace):
        g_per_agent = np.array([agent.g(x)
                                for agent, x in zip(problem.agents, xs)])
        total_g = np.sum(g_per_agent, axis=0)
        cost = problem.total_cost(xs) + m_price * float(rho.sum())
        err = abs(cost - f_star) / (abs(f_star) if normalize else 1.0)
        consistency = float(np.abs(graph.telescoping_sum(lam)).max())
        if consistency > _CONSISTENCY_TOL:
            raise AssertionError(
                f"iteration {t}: edge-variable consistency "
                f"{consistency:.3e} exceeds {_CONSISTENCY_TOL:g}")
        rest = total_g - g_per_agent
        tracking = np.abs(graph.shifts(lam) - rest).max(axis=1)
        spread = float(np.abs(graph.edge_step(0.0, 1.0, mu)).max(
            initial=0.0))
        out.append(IterationMetrics(
            t=t, max_violation=float(total_g.max()),
            sum_rho=float(rho.sum()), cost=cost, cost_error_norm=err,
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
    for t, xs, rho, mu, lam in rounds(trace):
        slack = problem.coupling_total(xs) - float(rho.sum())
        if slack.max() > _FEAS_SLACK:
            findings.append(
                f"iteration {t}: aggregate feasibility violated, "
                f"max_s(sum g - sum rho) = {slack.max():.3e}")
        net = graph.telescoping_sum(lam)
        if np.abs(net).max() > _CONSISTENCY_TOL:
            findings.append(
                f"iteration {t}: lambda consistency violated, "
                f"|sum (lambda_ij - lambda_ji)| = {np.abs(net).max():.3e}")
        cap = mu.sum(axis=1).max()
        if cap > m_price + _MU_CAP_SLACK:
            findings.append(
                f"iteration {t}: multiplier cap violated, "
                f"max_i mu_i.1 = {cap:.10e} > M = {m_price:g}")
        gaps = np.linalg.norm(graph.edge_step(0.0, 1.0, mu)[forward],
                              axis=1)
        for (i, j), d in zip(graph.edges, gaps):
            if d > spread_cap + _MU_CAP_SLACK:
                findings.append(
                    f"iteration {t}: multiplier spread violated on edge "
                    f"({i}, {j}): {d:.6e} > {spread_cap:.6e}")
    schedule = schedule_from_dict(trace.config["schedule"])
    snaps = rounds(trace)
    for (t0, _, _, mu0, lam0), (t, _, _, _, lam) in zip(snaps, snaps[1:]):
        expect = graph.edge_step(lam0, step_size(schedule, t0), mu0)
        worst = float(np.abs(lam - expect).max(initial=0.0))
        if worst > _CONSISTENCY_TOL:
            findings.append(
                f"iteration {t}: lambda consistency violated, edge "
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
    trace.snapshots.lam[4, 0] += 1e-3
    trace.snapshots.lam[9, 1] += 5.0


def _over_cap(trace):
    trace.snapshots.mu[2, 0] += float(trace.config["M"])
    trace.snapshots.mu[6, -1, 0] = 1e-9 + float(trace.config["M"])


def _shift_x(trace):
    # Along the last agent's first coupling row, so that row grows.
    up = 50.0 * problem_from_dict(trace.problem).agents[-1].coupling.mat[0]
    for k in (1, 5, 8):
        trace.snapshots.x[k, -up.size:] += up


def _spread(trace):
    # With _over_cap, snapshot 2 has cap and spread findings together.
    for k in (2, 3):
        trace.snapshots.mu[k, 1] -= 3.0 * float(trace.config["M"])


def _everything(trace):
    for tamper in (_bump_lambda, _over_cap, _shift_x, _spread):
        tamper(trace)
    trace.snapshots = head(trace.snapshots, len(trace.snapshots) - 1)


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
        trace.snapshots = head(trace.snapshots, 0)
        trace.status, trace.iterations = "solver-error", 0
        assert outcome(compute_metrics, trace, oracle) == []
        assert outcome(check_trace_invariants, trace) == []
        assert_same_as_reference(trace, oracle)

    def test_one_snapshot_trace(self, recorded):
        trace, oracle = recorded
        trace = copy(trace)
        trace.snapshots = head(trace.snapshots, 1)
        trace.iterations = 0
        assert len(outcome(compute_metrics, trace, oracle)) == 1
        assert outcome(check_trace_invariants, trace) == []
        assert_same_as_reference(trace, oracle)
