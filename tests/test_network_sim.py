"""Graph construction and edge algebra, the synchronous round loop,
message accounting, trace invariant checking and trace serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rsdd.core import (AlgorithmConfig, LocalSolverPool, explicit_schedule,
                       harmonic_schedule)
from rsdd.network_sim import (Graph, SimulationError, build_graph,
                              check_trace_invariants, load_trace,
                              message_stats, run, save_trace, trace_from_dict,
                              trace_to_dict)
from rsdd.problem_model import (AffineMap, AgentProblem,
                                ConstraintCoupledProblem, LocalSet,
                                build_random_instance, two_agent_demo)
from rsdd.qp_solver import QpBatch, QpError


def short_config(**overrides) -> AlgorithmConfig:
    base = dict(M=10.0, schedule=harmonic_schedule(1.0, 0.8), max_iters=10,
                enable_early_stop=False)
    base.update(overrides)
    return AlgorithmConfig(**base)


class TestBuildGraph:
    def test_path_three(self):
        # Nodes are 0-indexed: a 3-path is 0-1-2 and the middle node sees
        # both ends.
        g = build_graph("path", 3)
        assert g.edges == [(0, 1), (1, 2)]
        assert g.neighbors[1] == [0, 2]
        assert g.neighbors[0] == [1]

    def test_cycle(self):
        g = build_graph("cycle", 5)
        assert len(g.edges) == 5
        assert all(len(v) == 2 for v in g.neighbors.values())

    def test_star(self):
        g = build_graph("star", 6)
        assert len(g.edges) == 5
        assert len(g.neighbors[0]) == 5

    def test_complete_four(self):
        g = build_graph("complete", 4)
        assert len(g.edges) == 6
        assert len(g.directed_edges) == 12

    def test_erdos_renyi_connected_and_deterministic(self):
        g1 = build_graph("erdos_renyi", 10, p=0.3, seed=5)
        g2 = build_graph("erdos_renyi", 10, p=0.3, seed=5)
        assert g1.edges == g2.edges
        assert g1.edges == [(0, 7), (1, 4), (1, 6), (1, 9), (2, 3), (2, 4),
                            (2, 7), (2, 9), (3, 5), (3, 6), (3, 8), (3, 9),
                            (4, 7), (5, 7), (6, 9), (7, 9), (8, 9)]
        # Connectivity is enforced in the Graph constructor; reaching here
        # means the sampled graph passed it.
        assert g1.n_nodes == 10

    def test_erdos_renyi_needs_p(self):
        with pytest.raises(ValueError, match="probability"):
            build_graph("erdos_renyi", 10)

    def test_erdos_renyi_retries_exhausted(self):
        with pytest.raises(RuntimeError, match="100 draws"):
            build_graph("erdos_renyi", 30, p=0.001, seed=0)

    @pytest.mark.parametrize("topology", ["path", "cycle", "star", "complete"])
    def test_fixed_topologies_match_networkx(self, topology):
        nx = pytest.importorskip("networkx")
        make = {"path": nx.path_graph, "cycle": nx.cycle_graph,
                "complete": nx.complete_graph,
                "star": lambda n: nx.star_graph(n - 1)}[topology]
        for n in range(2, 40):
            expect = sorted((min(e), max(e)) for e in make(n).edges())
            assert build_graph(topology, n).edges == expect, n

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.9, 1.0])
    def test_erdos_renyi_matches_networkx(self, p):
        # Draw k is networkx's G(n, p) at seed + k; the first connected
        # draw is kept, and 100 disconnected draws raise.
        nx = pytest.importorskip("networkx")
        for n in range(2, 60, 3):
            for seed in [None, 0, 1, 7, 42]:
                base = 0 if seed is None else seed
                draws = (nx.gnp_random_graph(n, p, seed=base + k)
                         for k in range(100))
                g = next((g for g in draws if nx.is_connected(g)), None)
                if g is None:
                    with pytest.raises(RuntimeError, match="100 draws"):
                        build_graph("erdos_renyi", n, p=p, seed=seed)
                    continue
                expect = sorted((min(e), max(e)) for e in g.edges())
                assert build_graph("erdos_renyi", n, p=p,
                                   seed=seed).edges == expect, (n, seed)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_graph("path", 1)

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_graph("torus", 4)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n_nodes=3, edges=[(0, 1), (1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n_nodes=3, edges=[(0, 1), (1, 0), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n_nodes=3, edges=[(0, 1), (1, 3)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph(n_nodes=4, edges=[(0, 1), (2, 3)])


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def edge_cases(draw):
    """A graph of every topology, edge variables (2E, S), multipliers
    (N, S) and a step size."""
    topology = draw(st.sampled_from(
        ["path", "cycle", "star", "complete", "erdos_renyi"]))
    n = draw(st.integers(2, 7))
    graph = build_graph(topology, n, p=draw(st.floats(0.5, 1.0)),
                        seed=draw(st.integers(0, 1000)))
    s = draw(st.integers(1, 4))
    lam = draw(hnp.arrays(float, (len(graph.directed_edges), s),
                          elements=_FINITE))
    mu = draw(hnp.arrays(float, (n, s), elements=_FINITE))
    return graph, lam, mu, draw(_FINITE)


@st.composite
def stacked_edge_cases(draw):
    """As ``edge_cases``, stacked over T rounds: edge variables (T, 2E, S),
    multipliers (T, N, S) and one step size per round."""
    graph, lam, mu, _ = draw(edge_cases())
    n_rounds = draw(st.integers(0, 4))
    lam = draw(hnp.arrays(float, (n_rounds,) + lam.shape, elements=_FINITE))
    mu = draw(hnp.arrays(float, (n_rounds,) + mu.shape, elements=_FINITE))
    return graph, lam, mu, draw(hnp.arrays(float, n_rounds, elements=_FINITE))


class TestEdgeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(stacked_edge_cases())
    def test_leading_axes_match_each_slice(self, case):
        # A stack of rounds gives, bit for bit, each round's own result.
        graph, lam, mu, gammas = case
        shifts = graph.shifts(lam)
        net = graph.telescoping_sum(lam)
        step = graph.edge_step(lam, gammas[:, None, None], mu)
        assert shifts.shape == (len(lam), graph.n_nodes, lam.shape[2])
        assert net.shape == (len(lam), lam.shape[2])
        assert step.shape == lam.shape
        for t in range(len(lam)):
            assert shifts[t].tobytes() == graph.shifts(lam[t]).tobytes()
            assert net[t].tobytes() == graph.telescoping_sum(lam[t]).tobytes()
            assert step[t].tobytes() == \
                graph.edge_step(lam[t], float(gammas[t]), mu[t]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(edge_cases())
    def test_matches_per_edge_loops(self, case):
        # The vectorized edge algebra reproduces the definitional per-edge
        # loops bit for bit: the trace files depend on it.
        graph, lam, mu, gamma = case
        edges = graph.directed_edges
        row = {e: k for k, e in enumerate(edges)}
        shifts = np.zeros((graph.n_nodes, lam.shape[1]))
        for i, nbrs in graph.neighbors.items():
            for j in nbrs:
                shifts[i] += lam[row[(i, j)]] - lam[row[(j, i)]]
        net = np.zeros(lam.shape[1])
        for k, (i, j) in enumerate(edges):
            net += lam[k] - lam[row[(j, i)]]
        step = np.array([lam[k] - gamma * (mu[i] - mu[j])
                         for k, (i, j) in enumerate(edges)])
        assert np.array_equal(graph.shifts(lam), shifts)
        assert np.array_equal(graph.telescoping_sum(lam), net)
        assert np.array_equal(graph.edge_step(lam, gamma, mu), step)


class TestRun:
    def test_snapshot_count(self, demo_trace):
        # One snapshot per executed update plus the initial state.
        assert demo_trace.iterations == 120
        assert len(demo_trace.snapshots) == 121
        assert demo_trace.status == "max-iters"

    def test_lambda_telescoping(self, demo_trace):
        # Sum over directed edges of (lambda_ij - lambda_ji) vanishes
        # identically, whatever the values are.
        edges = demo_trace.graph.directed_edges
        for snap in demo_trace.snapshots:
            net = sum(snap.lam[k] - snap.lam[edges.index((j, i))]
                      for k, (i, j) in enumerate(edges))
            assert np.abs(net).max() <= 1e-9

    def test_demo_converges(self, demo_converged_trace, demo_oracle):
        trace = demo_converged_trace
        assert trace.status == "tolerance-met"
        assert trace.iterations < 5000
        last = trace.snapshots[-1]
        x = np.concatenate(last.x)
        assert np.abs(x - np.concatenate(demo_oracle.xs)).max() <= 1e-2

    def test_zero_steps_freeze_everything(self, demo):
        gammas = [0.0] * 10
        cfg = short_config(schedule=explicit_schedule(gammas), max_iters=5)
        with pytest.warns(UserWarning, match="unchecked"):
            trace = run(demo, build_graph("path", 2), cfg)
        first = trace.snapshots[0]
        for snap in trace.snapshots:
            for v in snap.lam:
                assert np.all(v == 0.0)
            # Identical QPs each round; only warm-start jitter at the demo's
            # weakly active optimum separates the re-solves.
            for xa, xb in zip(snap.x, first.x):
                assert np.abs(xa - xb).max() <= 1e-4
            assert np.abs(snap.mu - first.mu).max() <= 1e-5

    def test_short_explicit_schedule_rejected_up_front(self, demo):
        # Ten updates need ten step sizes; three are refused before round 0
        # instead of failing at t = 3 with the trace lost.
        cfg = short_config(schedule=explicit_schedule([0.5, 0.4, 0.3]),
                           max_iters=10)
        with pytest.raises(ValueError, match="3 explicit values for max_iters=10"):
            run(demo, build_graph("path", 2), cfg)
        cfg = short_config(schedule=explicit_schedule([0.5, 0.4, 0.3]),
                           max_iters=3)
        with pytest.warns(UserWarning, match="unchecked"):
            trace = run(demo, build_graph("path", 2), cfg)
        assert len(trace.snapshots) == 4

    def test_node_count_mismatch(self, demo):
        with pytest.raises(ValueError, match="node count"):
            run(demo, build_graph("path", 3), short_config())

    def test_bad_m_rejected(self, demo):
        with pytest.raises(ValueError, match="M must be positive"):
            run(demo, build_graph("path", 2), short_config(M=0.0))

    def test_bad_schedule_rejected(self, demo):
        cfg = short_config(schedule=harmonic_schedule(1.0, 0.4))
        with pytest.raises(ValueError, match="invalid step-size schedule"):
            run(demo, build_graph("path", 2), cfg)

    def test_lambda_init_unknown_edge(self, demo):
        cfg = short_config(lambda_init={(0, 2): np.zeros(1)})
        with pytest.raises(ValueError, match="not in the graph"):
            run(demo, build_graph("path", 2), cfg)

    def test_lambda_init_bad_shape(self, demo):
        cfg = short_config(lambda_init={(0, 1): np.zeros(3)})
        with pytest.raises(ValueError, match="entries"):
            run(demo, build_graph("path", 2), cfg)

    def test_lambda_init_applied(self, demo):
        cfg = short_config(lambda_init={(0, 1): np.array([2.0])},
                           max_iters=3)
        trace = run(demo, build_graph("path", 2), cfg)
        edges = trace.graph.directed_edges
        snap0 = trace.snapshots[0]
        assert snap0.lam[edges.index((0, 1))][0] == 2.0
        assert snap0.lam[edges.index((1, 0))][0] == 0.0
        # The telescoping identity holds even for asymmetric starts.
        for snap in trace.snapshots:
            net = sum(snap.lam[k] - snap.lam[edges.index((j, i))]
                      for k, (i, j) in enumerate(edges))
            assert np.abs(net).max() <= 1e-9

    def test_solver_failure_preserves_trace(self):
        # Agent 1 carries contradictory equality rows, so its local QP is
        # infeasible and the very first round fails.
        broken = AgentProblem(
            dim=1, cost_quadratic=np.array([[2.0]]),
            cost_linear=np.zeros(1),
            local_set=LocalSet(lb=[-1.0], ub=[1.0],
                               a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]),
            coupling=AffineMap(np.array([[1.0]]), np.array([0.0])))
        sane = AgentProblem(
            dim=1, cost_quadratic=np.array([[2.0]]),
            cost_linear=np.zeros(1),
            local_set=LocalSet(lb=[-1.0], ub=[1.0]),
            coupling=AffineMap(np.array([[1.0]]), np.array([0.0])))
        problem = ConstraintCoupledProblem(agents=[sane, broken],
                                           coupling_dim=1)
        with pytest.raises(SimulationError, match="iteration 0") as info:
            run(problem, build_graph("path", 2), short_config())
        trace = info.value.trace
        assert trace.status == "solver-error"
        assert trace.iterations == 0
        assert trace.snapshots == []

    def test_solver_failure_names_the_agent(self, microgrid, monkeypatch):
        # The microgrid's 10 agents have 4 shapes and are one batch, whose
        # element k is agent k.  Agent 5's element (a shape of three) is
        # diagnosed as failed; the error must name the agent, the element
        # and the round, and carry the agent's own form.
        pool = LocalSolverPool(microgrid, M=15.0)
        assert len(pool.groups) == 1 and len(pool.batch.shapes) == 4
        assert pool.groups[0][1] == list(range(10))
        agent = 5
        orig = QpBatch.solve

        def fail_agent(self, tol=1e-8, max_iter=200):
            if not (len(self.forms) == len(pool.batch.forms) and all(  # the local steps
                    np.array_equal(f.Q, g.Q) for f, g in zip(self.forms, pool.batch.forms))):
                return orig(self, tol=tol, max_iter=max_iter)
            shape, j, _ = self._locate(agent)
            x0 = 0.5 * (shape.lb[j] + shape.ub[j])
            self._diagnose(agent, x0, shape._h()[j], max_iter, 1.0)

        monkeypatch.setattr(QpBatch, "solve", fail_agent)
        cfg = short_config(M=15.0, schedule=harmonic_schedule(0.02, 0.6))
        with pytest.raises(SimulationError) as info:
            run(microgrid, build_graph("cycle", 10), cfg)
        message = str(info.value)
        assert "iteration 0" in message
        assert f"agent {agent}:" in message
        assert f"element {agent}" in message
        cause = info.value.__cause__
        assert isinstance(cause, QpError)
        assert (cause.element, cause.agent) == (agent, agent)
        # Round 0 has zero edge variables, so the failed QP, which `rsdd
        # run --trace` saves, is the agent's template, unpadded.
        template = pool.batch.forms[agent]
        for name in ("Q", "c", "lb", "ub", "A_eq", "b_eq", "A_in", "b_in"):
            assert np.array_equal(getattr(cause.form, name), getattr(template, name)), name


class TestMessages:
    def test_path_three_one_round(self):
        problem = build_random_instance(3, 2, 2, seed=11)
        cfg = short_config(max_iters=1)
        trace = run(problem, build_graph("path", 3), cfg)
        stats = message_stats(trace)
        assert stats.per_round == 8
        assert stats.rounds == 1
        assert stats.total == 8
        assert stats.payload_dim == 2
        assert trace_to_dict(trace)["message_count"] == 8

    def test_complete_four_ten_rounds(self):
        problem = build_random_instance(4, 2, 2, seed=12)
        cfg = short_config(max_iters=10)
        trace = run(problem, build_graph("complete", 4), cfg)
        stats = message_stats(trace)
        assert stats.per_round == 24
        assert stats.total == 240
        assert stats.bytes_total == 240 * 8 * 2

    def test_zero_rounds(self, demo):
        trace = run(demo, build_graph("path", 2), short_config(max_iters=0))
        assert trace.iterations == 0
        assert len(trace.snapshots) == 1
        assert message_stats(trace).total == 0
        assert trace_to_dict(trace)["message_count"] == 0


class TestDeterminism:
    def test_bit_identical_traces(self, demo):
        cfg = short_config(max_iters=40)
        g = build_graph("path", 2)
        doc1 = json.dumps(trace_to_dict(run(demo, g, cfg)), sort_keys=True)
        doc2 = json.dumps(trace_to_dict(run(demo, g, cfg)), sort_keys=True)
        assert doc1 == doc2

    def test_random_instance_run_deterministic(self):
        problem = build_random_instance(3, 2, 2, seed=3)
        cfg = short_config(max_iters=25)
        g = build_graph("cycle", 3)
        t1 = run(problem, g, cfg)
        t2 = run(problem, g, cfg)
        for s1, s2 in zip(t1.snapshots, t2.snapshots):
            assert all(np.array_equal(a, b) for a, b in zip(s1.x, s2.x))
            assert np.array_equal(s1.mu, s2.mu)
            assert np.array_equal(s1.rho, s2.rho)


class TestTraceChecks:
    def test_clean_trace(self, demo_trace):
        assert check_trace_invariants(demo_trace) == []

    def test_clean_converged_trace(self, demo_converged_trace):
        assert check_trace_invariants(demo_converged_trace) == []

    def test_tampered_lambda_detected(self, demo_trace):
        trace = trace_from_dict(trace_to_dict(demo_trace))
        k = trace.graph.directed_edges.index((0, 1))
        trace.snapshots[7].lam[k] = trace.snapshots[7].lam[k] + 5.0
        findings = check_trace_invariants(trace)
        assert any("iteration 7" in f and "lambda consistency" in f
                   for f in findings)

    def test_tampered_mu_detected(self, demo_trace):
        trace = trace_from_dict(trace_to_dict(demo_trace))
        trace.snapshots[3].mu[0, 0] = 10.0 + 1.0
        findings = check_trace_invariants(trace)
        assert any("iteration 3" in f and "multiplier cap" in f
                   for f in findings)

    def test_tampered_x_detected(self, demo_trace):
        trace = trace_from_dict(trace_to_dict(demo_trace))
        trace.snapshots[5].x[0] = trace.snapshots[5].x[0] + 50.0
        findings = check_trace_invariants(trace)
        assert any("iteration 5" in f and "feasibility" in f
                   for f in findings)

    def test_snapshot_bookkeeping_detected(self, demo_trace):
        trace = trace_from_dict(trace_to_dict(demo_trace))
        trace.snapshots.pop()
        findings = check_trace_invariants(trace)
        assert any("snapshot count" in f for f in findings)

    @pytest.fixture(scope="class")
    def explicit_trace(self, demo):
        cfg = short_config(schedule=explicit_schedule([0.5] * 5), max_iters=5)
        with pytest.warns(UserWarning, match="unchecked"):
            return run(demo, build_graph("path", 2), cfg)

    def test_exhausted_schedule_reported(self, explicit_trace):
        # A schedule cut to 2 values leaves the updates at t = 2, 3, 4
        # without a step size: one finding, and no replay of them.  One
        # without values leaves every update without one.
        doc = json.loads(json.dumps(trace_to_dict(explicit_trace)))
        doc["config"]["schedule"]["values"] = [0.5, 0.5]
        assert check_trace_invariants(explicit_trace) == []
        findings = check_trace_invariants(trace_from_dict(doc))
        assert len(findings) == 1
        assert "update at t = 2: no recorded step size" in findings[0]
        assert "3 updates not replayed" in findings[0]
        doc["config"]["schedule"]["values"] = None
        (finding,) = check_trace_invariants(trace_from_dict(doc))
        assert finding.startswith("update at t = 0: no recorded step size")

    def test_config_copied_both_ways(self, explicit_trace):
        # A document and the trace it was written from or read into do
        # not share a config: cutting the document's schedule leaves the
        # trace clean.
        doc = trace_to_dict(explicit_trace)
        del doc["config"]["schedule"]["values"][2:]
        assert check_trace_invariants(explicit_trace) == []
        doc = trace_to_dict(explicit_trace)
        loaded = trace_from_dict(doc)
        del doc["config"]["schedule"]["values"][2:]
        assert check_trace_invariants(loaded) == []

    def test_wrong_round_number_reported(self, explicit_trace):
        doc = json.loads(json.dumps(trace_to_dict(explicit_trace)))
        doc["snapshots"][2]["t"] = 7
        assert check_trace_invariants(trace_from_dict(doc)) == \
            ["snapshot 2 records t = 7"]


class TestTraceSerialization:
    def test_round_trip_bit_exact(self, demo_trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        loaded = load_trace(path)
        assert json.dumps(trace_to_dict(loaded), sort_keys=True) == \
            json.dumps(trace_to_dict(demo_trace), sort_keys=True)

    def test_file_bytes_match_the_streaming_encoder(self, demo_trace, tmp_path):
        """The saved file is what json.dump wrote before: the pure-Python
        encoder's output, byte for byte."""
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        expected = "".join(json.JSONEncoder().iterencode(trace_to_dict(demo_trace)))
        assert path.read_text() == expected

    def test_loaded_trace_checks_clean(self, demo_trace, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        assert check_trace_invariants(load_trace(path)) == []

    def test_messages_block_ignored(self, demo_trace):
        # Older trace files may carry a recorded "messages" block.
        doc = trace_to_dict(demo_trace)
        old = dict(doc, messages=[{"sender": 0, "receiver": 1,
                                   "phase": "mu", "iteration": 0,
                                   "payload": [0.0]}])
        assert trace_to_dict(trace_from_dict(old)) == doc

    def test_graph_must_match_the_agents(self, demo_trace):
        doc = json.loads(json.dumps(trace_to_dict(demo_trace)))
        doc["graph"] = {"n_nodes": 3, "edges": [[0, 1], [1, 2]]}
        with pytest.raises(ValueError, match="3 nodes for 2 agents"):
            trace_from_dict(doc)

    def test_not_a_trace(self):
        with pytest.raises(ValueError, match="not a trace"):
            trace_from_dict({"format": "something-else"})
