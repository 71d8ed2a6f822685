"""End-to-end acceptance runs at their stated tolerances.

One test per shipped guarantee; the pytest -v line is the pass/fail record
and each test also prints the measured numbers for the run log.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from rsdd.core import AlgorithmConfig, harmonic_schedule, local_step
from rsdd.metrics import compute_metrics, emit_run_artifact, load_run_artifact
from rsdd.network_sim import (build_graph, check_trace_invariants, load_trace,
                              run, save_trace, trace_to_dict)
from rsdd.oracle import (dual_terms, solve_centralized,
                         solve_relaxed_centralized)
from rsdd.problem_model import (ConstraintCoupledProblem,
                                build_random_instance, problem_from_dict,
                                problem_to_dict, two_agent_demo)
from rsdd.qp_solver import QpStandardForm, kkt_residuals, solve_qp


@pytest.fixture(scope="module")
def demo_run():
    """Demo instance run to its stopping rule, with wall time."""
    problem = two_agent_demo()
    cfg = AlgorithmConfig(M=10.0, schedule=harmonic_schedule(1.0, 0.8),
                          max_iters=5000)
    start = time.perf_counter()
    trace = run(problem, build_graph("path", 2), cfg)
    return problem, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def microgrid_run(microgrid):
    """Microgrid default instance, tuned config, fixed 5000 rounds."""
    cfg = AlgorithmConfig(M=15.0, schedule=harmonic_schedule(0.02, 0.6),
                          max_iters=5000, enable_early_stop=False)
    return run(microgrid, build_graph("cycle", 10), cfg)


def agent_xs(problem, x) -> list[np.ndarray]:
    """A trace's row of x, split into the agents' x_i."""
    return np.split(x, np.cumsum([a.dim for a in problem.agents])[:-1])


def total_usage(problem, x) -> np.ndarray:
    return np.sum([a.coupling(xi) for a, xi in zip(problem.agents, agent_xs(problem, x))],
                  axis=0)


def test_criterion_1_demo_reaches_optimum(demo_run):
    problem, trace, elapsed = demo_run
    assert trace.iterations <= 5000
    x = trace.snapshots.x[-1]
    cost = sum(a.cost(xi) for a, xi in zip(problem.agents, agent_xs(problem, x)))
    rel_err = abs(cost - 0.5) / 0.5
    x_err = np.abs(x - np.array([-0.5, 1.5])).max()
    assert rel_err <= 1e-2
    assert x_err <= 2e-2
    assert elapsed < 10.0
    print(f"criterion 1 PASS: rel cost err {rel_err:.2e} <= 1e-2, "
          f"x err {x_err:.2e} <= 2e-2, {elapsed:.2f}s < 10s")


def test_criterion_2_last_iterate_recovery():
    worst_viol = 0.0
    worst_rel = 0.0
    for seed in range(1, 11):
        problem = build_random_instance(3, 2, 2, seed)
        oracle = solve_centralized(problem)
        cfg = AlgorithmConfig(M=oracle.suggested_m,
                              schedule=harmonic_schedule(0.1, 0.6),
                              max_iters=20000)
        trace = run(problem, build_graph("path", 3), cfg)
        last = trace.snapshots.x[-1]
        viol = float(total_usage(problem, last).max())
        cost = sum(a.cost(x) for a, x in zip(problem.agents, agent_xs(problem, last)))
        rel = abs(cost - oracle.f_star) / abs(oracle.f_star)
        assert viol <= 1e-3, f"seed {seed}: violation {viol:.3e}"
        assert rel <= 0.02, f"seed {seed}: relative cost error {rel:.3e}"
        worst_viol = max(worst_viol, viol)
        worst_rel = max(worst_rel, rel)
    print(f"criterion 2 PASS: 10 seeds, worst violation {worst_viol:.2e} "
          f"<= 1e-3, worst rel cost err {worst_rel:.2e} <= 2e-2")


def test_criterion_3_microgrid_relaxation_vanishes(microgrid, microgrid_run):
    trace = microgrid_run
    assert trace.iterations == 5000
    rho_100 = float(np.sum(trace.snapshots.rho[100]))
    rho_5000 = float(np.sum(trace.snapshots.rho[5000]))
    viol = float(total_usage(microgrid, trace.snapshots.x[5000]).max())
    assert rho_5000 <= rho_100 / 10.0
    assert viol <= 1e-2
    print(f"criterion 3 PASS: sum rho {rho_100:.3e} -> {rho_5000:.3e} "
          f"(ratio {rho_5000 / rho_100:.3f} <= 0.1), "
          f"final violation {viol:.2e} <= 1e-2")


def test_criterion_4_per_iteration_invariants(demo_run, microgrid,
                                              microgrid_run):
    random_problem = build_random_instance(3, 2, 2, 4)
    cfg = AlgorithmConfig(M=8.0, schedule=harmonic_schedule(0.1, 0.6),
                          max_iters=500, enable_early_stop=False)
    random_trace = run(random_problem, build_graph("path", 3), cfg)
    cases = [(demo_run[0], demo_run[1], 10.0),
             (microgrid, microgrid_run, 15.0),
             (random_problem, random_trace, 8.0)]
    checked = 0
    for problem, trace, m_price in cases:
        assert check_trace_invariants(trace) == []
        s_dim = problem.coupling_dim
        pair_cap = 2.0 * m_price * np.sqrt(s_dim)
        edges = trace.graph.directed_edges
        snaps = trace.snapshots
        for x, rho, mus, lam in zip(snaps.x, snaps.rho, snaps.mu, snaps.lam):
            total_g = total_usage(problem, x)
            slack_bound = float(np.sum(rho)) + 1e-6
            assert (total_g <= slack_bound).all()
            net = np.zeros(s_dim)
            for k, (i, j) in enumerate(edges):
                net += lam[k] - lam[edges.index((j, i))]
            assert np.abs(net).max() <= 1e-9
            for mu in mus:
                assert mu.sum() <= m_price + 1e-8
                assert (mu >= -1e-9).all()
            for i, j in {tuple(sorted(k)) for k in edges}:
                gap = np.linalg.norm(mus[i] - mus[j])
                assert gap <= pair_cap
            checked += 1
    print(f"criterion 4 PASS: aggregate feasibility, edge-variable balance, "
          f"multiplier cap and pairwise bound hold on {checked} iterations "
          f"across 3 runs")


def test_criterion_5_duality_identities():
    for seed in range(1, 21):
        problem = build_random_instance(3, 2, 2, seed + 200)
        oracle = solve_centralized(problem)
        q = sum(dual_terms(problem, oracle.mu_star[None])[0][0])
        assert abs(q - oracle.f_star) <= 1e-6, f"seed {seed + 200}"
        m_price = float(np.abs(oracle.mu_star).sum()) + 1.0
        relaxed = solve_relaxed_centralized(problem, m_price)
        assert relaxed.rho <= 1e-6
        assert not relaxed.restriction_binding

    # Scalar agents: the local-step value equals the mu-grid maximum of
    # q_i(mu) + mu * shift inside [0, M].
    m_price = 4.0
    grid = np.linspace(0.0, m_price, 2001)
    rng = np.random.default_rng(77)
    for seed in range(1, 21):
        agent = build_random_instance(1, 1, 1, seed + 300).agents[0]
        shift = np.array([rng.uniform(-1.0, 1.0)])
        x, rho, _ = local_step(agent, shift, m_price)
        direct = agent.cost(x) + m_price * rho
        q, _ = dual_terms(ConstraintCoupledProblem([agent], 1), grid[:, None],
                          tol=1e-9)
        best = max(q[:, 0] + grid * shift[0])
        assert direct == pytest.approx(best, abs=m_price / 2000 + 1e-6)
    print("criterion 5 PASS: strong duality <= 1e-6, rho* = 0 above the "
          "dual-norm threshold, and local values match the restricted dual "
          "grid on 20 seeds each")


def test_criterion_6_solver_certificates():
    rng = np.random.default_rng(1234)
    worst_kkt = 0.0
    worst_gap = 0.0
    for k in range(100):
        n = int(rng.integers(1, 7))
        rows = max(1, n - 1) if k % 3 == 0 else n
        root = rng.normal(size=(rows, n))
        x0 = rng.uniform(-1.0, 1.0, n)
        kw = {}
        m_in = int(rng.integers(0, 4))
        if m_in:
            a_in = rng.normal(size=(m_in, n))
            kw["A_in"] = a_in
            kw["b_in"] = a_in @ x0 + rng.uniform(0.1, 1.0, m_in)
        if n >= 2 and rng.integers(0, 2):
            a_eq = rng.normal(size=(1, n))
            kw["A_eq"] = a_eq
            kw["b_eq"] = a_eq @ x0
        form = QpStandardForm(Q=root.T @ root, c=rng.normal(size=n) * 2.0,
                              lb=x0 - rng.uniform(0.5, 2.0, n),
                              ub=x0 + rng.uniform(0.5, 2.0, n), **kw)
        sol = solve_qp(form, tol=1e-9)
        res = kkt_residuals(form, sol)
        assert res.max <= 1e-8, f"qp {k}: kkt residual {res.max:.3e}"
        x = sol.x
        lagrangian_terms = (sol.box_lower_mult @ (form.lb - x)
                            + sol.box_upper_mult @ (x - form.ub))
        if "A_eq" in kw:
            lagrangian_terms += sol.eq_mult @ (kw["A_eq"] @ x - kw["b_eq"])
        if m_in:
            lagrangian_terms += sol.ineq_mult @ (kw["A_in"] @ x - kw["b_in"])
        gap = abs(lagrangian_terms)
        assert gap <= 1e-7, f"qp {k}: duality gap {gap:.3e}"
        worst_kkt = max(worst_kkt, res.max)
        worst_gap = max(worst_gap, gap)

    # Analytic spot checks.
    sol = solve_qp(QpStandardForm(Q=np.array([[2.0]]), c=np.array([-4.0]),
                                  lb=np.array([0.0]), ub=np.array([1.0])))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.box_upper_mult[0] == pytest.approx(2.0, abs=1e-7)
    sol = solve_qp(QpStandardForm(Q=np.array([[2.0]]), c=np.zeros(1),
                                  lb=np.array([-5.0]), ub=np.array([5.0]),
                                  A_in=np.array([[-1.0]]),
                                  b_in=np.array([-1.0])))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.ineq_mult[0] == pytest.approx(2.0, abs=1e-7)
    sol = solve_qp(QpStandardForm(Q=2.0 * np.eye(2), c=np.zeros(2),
                                  lb=-np.ones(2), ub=np.ones(2),
                                  A_eq=np.array([[1.0, 1.0]]),
                                  b_eq=np.array([1.0])))
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)
    print(f"criterion 6 PASS: 100 random QPs, worst kkt {worst_kkt:.2e} "
          f"<= 1e-8, worst gap {worst_gap:.2e} <= 1e-7, analytic cases exact")


def test_criterion_7_determinism_and_round_trips(tmp_path):
    def make_trace():
        problem = build_random_instance(3, 2, 2, 7)
        cfg = AlgorithmConfig(M=8.0, schedule=harmonic_schedule(0.1, 0.6),
                              max_iters=300, enable_early_stop=False)
        return problem, run(problem, build_graph("path", 3), cfg)

    problem_a, trace_a = make_trace()
    problem_b, trace_b = make_trace()
    assert json.dumps(problem_to_dict(problem_a), sort_keys=True) \
        == json.dumps(problem_to_dict(problem_b), sort_keys=True)
    dump_a = json.dumps(trace_to_dict(trace_a), sort_keys=True)
    assert dump_a == json.dumps(trace_to_dict(trace_b), sort_keys=True)

    # Serialization round trips are identities.
    doc = problem_to_dict(problem_a)
    assert problem_to_dict(problem_from_dict(doc)) == doc
    path = tmp_path / "trace.json"
    save_trace(trace_a, path)
    assert json.dumps(trace_to_dict(load_trace(path)), sort_keys=True) \
        == dump_a
    oracle = solve_centralized(problem_a)
    rows = compute_metrics(trace_a, oracle)
    art_a = tmp_path / "a.json"
    art_b = tmp_path / "b.json"
    emit_run_artifact(rows, trace_a, art_a)
    emit_run_artifact(load_run_artifact(art_a), trace_a, art_b)
    assert art_a.read_bytes() == art_b.read_bytes()
    assert oracle.from_dict(oracle.to_dict()).to_dict() == oracle.to_dict()
    print("criterion 7 PASS: same-seed runs are bit-identical and problem, "
          "trace, artifact and oracle serializations round-trip exactly")
