"""Per-agent operation tests: schedules, local step, dual-side identities."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from rsdd.core import (_SOLVER_TOL, AlgorithmConfig, LocalSolverPool,
                       explicit_schedule, harmonic_schedule, lambda_update,
                       local_step, step_size, validate_schedule)
from rsdd.oracle import dual_terms
from rsdd.problem_model import (AffineMap, AgentProblem, Hinge, LocalSet,
                                ConstraintCoupledProblem, _coupling_hi,
                                _rho_headroom, build_random_instance,
                                two_agent_demo)
from rsdd.qp_solver import QpBatch, shape_groups


def unit_agent(g_offset: float = 0.0) -> AgentProblem:
    """f(x) = x^2 on [-1, 1] with g(x) = x + g_offset."""
    return AgentProblem(dim=1, cost_quadratic=[[2.0]], cost_linear=[0.0],
                        local_set=LocalSet(lb=[-1.0], ub=[1.0]),
                        coupling=AffineMap([[1.0]], [g_offset]))


class TestSchedules:
    def test_harmonic_values(self):
        sched = harmonic_schedule(1.0, 1.0)
        assert step_size(sched, 3) == pytest.approx(0.25)
        assert step_size(harmonic_schedule(2.0, 0.8), 0) == pytest.approx(2.0)

    def test_validation_boundaries(self):
        assert validate_schedule(harmonic_schedule(1.0, 0.8)) is None
        assert validate_schedule(harmonic_schedule(1.0, 1.0)) is None
        # p = 0.5 makes the squared sum diverge; p > 1 kills divergence of
        # the plain sum. Both must be rejected.
        assert validate_schedule(harmonic_schedule(1.0, 0.5)) is not None
        assert validate_schedule(harmonic_schedule(1.0, 1.2)) is not None
        assert validate_schedule(harmonic_schedule(0.0, 0.8)) is not None

    def test_explicit_sequence(self):
        sched = explicit_schedule([0.5, 0.25, 0.0])
        with pytest.warns(UserWarning, match="unchecked"):
            assert validate_schedule(sched) is None
        assert step_size(sched, 1) == pytest.approx(0.25)
        assert step_size(sched, 2) == 0.0
        with pytest.raises(ValueError, match="exhausted"):
            step_size(sched, 3)

    def test_explicit_rejections(self):
        assert validate_schedule(explicit_schedule([])) is not None
        assert validate_schedule(explicit_schedule([0.1, -0.2])) is not None
        assert validate_schedule(explicit_schedule([np.inf])) is not None

    def test_negative_iteration(self):
        with pytest.raises(ValueError):
            step_size(harmonic_schedule(), -1)

    def test_schedule_dict(self):
        doc = harmonic_schedule(0.3, 0.7).to_dict()
        assert doc["kind"] == "harmonic"
        assert doc["gamma0"] == 0.3


class TestLambdaUpdate:
    def test_arithmetic(self):
        out = lambda_update(np.array([0.5]), 0.1, np.array([0.2]),
                            np.array([0.1]))
        assert out[0] == pytest.approx(0.49)

    def test_consensus_fixed_point(self):
        lam = np.array([1.0, -2.0])
        mu = np.array([0.3, 0.4])
        assert np.array_equal(lambda_update(lam, 0.7, mu, mu), lam)

    def test_zero_step(self):
        lam = np.array([1.0])
        out = lambda_update(lam, 0.0, np.array([5.0]), np.array([-5.0]))
        assert np.array_equal(out, lam)


class TestLocalStep:
    def test_interior_optimum(self):
        # Unconstrained minimum already satisfies the coupling row. The row
        # is weakly active at (0, 0), so the iterate lands within sqrt(tol).
        x, rho, mu = local_step(unit_agent(), {}, {}, M=10.0)
        assert x[0] == pytest.approx(0.0, abs=5e-5)
        assert rho == pytest.approx(0.0, abs=5e-5)
        assert mu[0] == pytest.approx(0.0, abs=5e-5)

    def test_forced_relaxation(self):
        # g(x) = x + 2 >= 1 on the box, so rho must absorb the violation;
        # the multiplier then pins at M. Optimal tradeoff: x = -1, rho = 1.
        x, rho, mu = local_step(unit_agent(2.0), {}, {}, M=10.0)
        assert x[0] == pytest.approx(-1.0, abs=1e-7)
        assert rho == pytest.approx(1.0, abs=1e-7)
        assert mu[0] == pytest.approx(10.0, abs=1e-6)

    def test_shift_restores_slack(self):
        # A -3 edge shift turns the row into x - 1 <= rho: slack at x = 0.
        lam_out = {1: np.array([-3.0])}
        lam_in = {1: np.array([0.0])}
        x, rho, mu = local_step(unit_agent(2.0), lam_out, lam_in, M=10.0)
        assert x[0] == pytest.approx(0.0, abs=1e-8)
        assert rho == pytest.approx(0.0, abs=1e-8)
        assert mu[0] == pytest.approx(0.0, abs=1e-7)

    def test_neighbor_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same neighbors"):
            local_step(unit_agent(), {1: np.zeros(1)}, {2: np.zeros(1)}, 10.0)

    def test_feasibility_margin_reused_across_m(self):
        # The feasible set does not depend on M, so the pair returned for a
        # larger M stays feasible for the smaller-M problem.
        agent = unit_agent(2.0)
        x_big, rho_big, _ = local_step(agent, {}, {}, M=20.0)
        assert float(agent.g(x_big)[0]) <= rho_big + 1e-8

    def test_random_agents_always_solvable(self):
        """Any shift admits a finite optimum: rho can absorb anything."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            problem = build_random_instance(1, 2, 2, seed)
            agent = problem.agents[0]
            shift = rng.normal(scale=5.0, size=2)
            x, rho, mu = local_step(agent, {7: shift}, {7: np.zeros(2)}, 5.0)
            assert np.all(np.isfinite(x))
            assert rho >= -1e-10
            assert np.all(mu >= -1e-10)
            assert mu.sum() <= 5.0 + 1e-8
            # Relaxed feasibility of the returned pair.
            assert float((agent.g(x) + shift).max()) <= rho + 1e-7

    def test_complementarity_of_rho(self):
        """A strictly positive rho forces the multiplier sum onto M."""
        for g_off, m_price in [(2.0, 10.0), (3.0, 4.0), (1.5, 7.0)]:
            _, rho, mu = local_step(unit_agent(g_off), {}, {}, M=m_price)
            assert rho > 1e-6
            assert mu.sum() == pytest.approx(m_price, abs=1e-6)

    def test_inner_strong_duality(self):
        """f + M rho equals the closed-form inner maximum at the solution."""
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            problem = build_random_instance(1, 2, 2, seed)
            agent = problem.agents[0]
            shift = rng.normal(scale=3.0, size=2)
            m_price = 6.0
            x, rho, _ = local_step(agent, {0: shift}, {0: np.zeros(2)}, m_price)
            value = agent.cost(x) + m_price * rho
            inner = agent.cost(x) + m_price * max(
                0.0, float((agent.g(x) + shift).max()))
            assert value == pytest.approx(inner, abs=1e-6)


def q_alone(agent: AgentProblem, mus) -> tuple[np.ndarray, np.ndarray]:
    """The agent's dual term q_i at each scalar multiplier of ``mus``, with
    the minimizers, one row per multiplier."""
    q, x = dual_terms(ConstraintCoupledProblem([agent], 1),
                      np.asarray(mus, dtype=float)[:, None], tol=1e-9)
    return q[:, 0], x


class TestDualSide:
    def test_q_at_zero(self):
        (value,), (x,) = q_alone(unit_agent(), [0.0])
        assert value == pytest.approx(0.0, abs=1e-9)
        assert x[0] == pytest.approx(0.0, abs=1e-8)

    def test_q_at_one(self):
        # min x^2 + x on [-1, 1] sits at x = -0.5 with value -0.25.
        (value,), (x,) = q_alone(unit_agent(), [1.0])
        assert value == pytest.approx(-0.25, abs=1e-9)
        assert x[0] == pytest.approx(-0.5, abs=1e-8)

    def test_midpoint_concavity(self):
        (q0, q1, qm), _ = q_alone(unit_agent(), [0.0, 1.0, 0.5])
        assert qm >= 0.5 * (q0 + q1) - 1e-9
        assert qm == pytest.approx(-0.0625, abs=1e-9)

    def test_eta_values(self):
        agent = unit_agent()
        x, rho, _ = local_step(agent, {}, {}, M=10.0)
        assert agent.cost(x) + 10.0 * rho == pytest.approx(0.0, abs=1e-8)
        shifted = unit_agent(2.0)
        x, rho, _ = local_step(shifted, {}, {}, M=10.0)
        assert shifted.cost(x) + 10.0 * rho == pytest.approx(11.0, abs=1e-6)

    def test_eta_equals_mu_grid_maximum(self):
        """The local value maximizes q_i(mu) + mu'shift over the mu box."""
        agent = unit_agent(0.5)
        m_price = 4.0
        shift = np.array([0.8])
        x, rho, _ = local_step(agent, {3: shift}, {3: np.zeros(1)}, m_price)
        direct = agent.cost(x) + m_price * rho
        grid = np.linspace(0.0, m_price, 4001)
        best = max(q_alone(agent, grid)[0] + grid * shift[0])
        assert direct == pytest.approx(best, abs=m_price / 4000 + 1e-6)


class TestSolverPool:
    def test_pool_matches_local_step(self, demo):
        pool = LocalSolverPool(demo, M=10.0)
        shifts = np.array([[0.4], [-0.4]])
        xs, rhos, mus = pool.solve_all(shifts)
        assert len(xs) == 2 and rhos.shape == (2,) and mus.shape == (2, 1)
        for agent, shift, pool_x, pool_rho, pool_mu in zip(demo.agents, shifts, xs, rhos, mus):
            x, rho, mu = local_step(agent, {9: shift}, {9: np.zeros(1)}, 10.0)
            assert np.allclose(pool_x, x, atol=1e-7)
            assert pool_rho == pytest.approx(rho, abs=1e-7)
            assert np.allclose(pool_mu, mu, atol=1e-6)

    def test_mixed_primary_dims_share_a_group(self):
        # 2 variables with 1 hinge and 3 variables with 1 local row both
        # lift to 4 columns (with rho) and 2 + S inequality rows: one shape
        # of the pool's one batch.
        hinged = AgentProblem(
            dim=2, cost_quadratic=np.diag([2.0, 1.0]), cost_linear=[0.5, -1.0],
            cost_hinges=[Hinge(2.0, [1.0, 1.0], -0.5)],
            local_set=LocalSet(lb=[-1.0, -1.0], ub=[1.0, 2.0]),
            coupling=AffineMap([[1.0, 1.0]], [-0.5]))
        plain = AgentProblem(
            dim=3, cost_quadratic=np.eye(3), cost_linear=[-1.0, 0.5, 0.0],
            local_set=LocalSet(lb=[-1.0, -1.0, -1.0], ub=[1.0, 1.0, 1.0],
                               a_in=[[1.0, 1.0, 1.0]], b_in=[1.5]),
            coupling=AffineMap([[1.0, -1.0, 2.0]], [0.2]))
        problem = ConstraintCoupledProblem(agents=[hinged, plain], coupling_dim=1)
        pool = LocalSolverPool(problem, M=10.0)
        assert len(pool.groups) == 1 and len(pool.batch.shapes) == 1
        shifts = np.array([[0.7], [-1.3]])
        xs, rhos, mus = pool.solve_all(shifts)
        for agent, shift, pool_x, pool_rho, pool_mu in zip(problem.agents, shifts,
                                                           xs, rhos, mus):
            assert pool_x.shape == (agent.dim,)
            x, rho, mu = local_step(agent, {5: shift}, {5: np.zeros(1)}, 10.0)
            assert np.abs(pool_x - x).max() <= 1e-10
            assert abs(pool_rho - rho) <= 1e-10
            assert np.abs(pool_mu - mu).max() <= 1e-10

    def test_warm_rounds_match_each_agent_alone(self, microgrid):
        """Five rounds of the microgrid's pool, whose 10 agents have 4 shapes
        in one batch, give every agent bit for bit what its own form gives
        when solved alone through the same shifts (each batch's first
        solve cold, the later ones warm).  The agents come once grouped by
        shape, as built, and once interleaved, so that the batch's rows,
        where the pool writes each agent's right-hand sides, are not the
        agents' order."""
        groups = shape_groups(LocalSolverPool(microgrid, M=15.0).batch.forms)
        interleaved = [k for column in itertools.zip_longest(*groups)
                       for k in column if k is not None]
        mixed = ConstraintCoupledProblem([microgrid.agents[k] for k in interleaved],
                                         microgrid.coupling_dim)
        for problem in (microgrid, mixed):
            pool = LocalSolverPool(problem, M=15.0)
            assert len(pool.batch.shapes) == 4
            in_order = np.array_equal(pool.batch.row, np.arange(problem.n_agents))
            assert in_order == (problem is microgrid)
            s_dim = problem.coupling_dim
            alone = [QpBatch([form]) for form in pool.batch.forms]
            rng = np.random.default_rng(3)
            shifts = np.zeros((problem.n_agents, s_dim))
            certified = 0
            for step in (0.0, 0.3, 1e-6, 1e-6, 1e-6):
                shifts = shifts + step * rng.normal(size=shifts.shape)
                xs, rhos, mus = pool.solve_all(shifts)
                for agent, single, shift, x, rho, mu in zip(problem.agents, alone, shifts,
                                                            xs, rhos, mus):
                    single.b_in[0, -s_dim:] = -(agent.coupling.vec + shift)
                    single.ub[0, -1] = _rho_headroom(_coupling_hi([agent]), shift)
                    (sol,) = single.solve(tol=_SOLVER_TOL)
                    assert np.array_equal(x, sol.x[:agent.dim])
                    assert rho == sol.x[-1]
                    assert np.array_equal(mu, sol.ineq_mult[-s_dim:])
                    certified += sol.iterations == 0
            assert certified  # some active-set tries certified, in the batch too

    def test_rounds_share_no_memory(self, microgrid):
        """A trace keeps each round's (xs, rho, mu) as they are returned, so
        they must never share memory with the batch's warm start (``_warm``,
        ``_act``), and later rounds, whether the active-set try or the
        interior point solves them, must not write into them."""
        pool = LocalSolverPool(microgrid, M=15.0)
        rng = np.random.default_rng(3)
        shifts = np.zeros((microgrid.n_agents, microgrid.coupling_dim))
        xs, rho, mu = pool.solve_all(shifts)
        kept = [*xs, rho, mu]
        copies = [a.copy() for a in kept]
        certified = 0
        orig_solve = pool.batch.solve

        def solve(*args, **kwargs):
            nonlocal certified
            sol = orig_solve(*args, **kwargs)
            certified += int((sol.iterations == 0).sum())
            return sol

        pool.batch.solve = solve
        for step in (0.3, 1e-6, 1e-6, 1e-6, 0.3):
            for a in kept:
                for state in (*pool.batch._warm, pool.batch._act):
                    assert not np.shares_memory(a, state)
            shifts = shifts + step * rng.normal(size=shifts.shape)
            pool.solve_all(shifts)
        assert certified  # the try wrote some rounds
        for a, copy in zip(kept, copies):
            assert np.array_equal(a, copy)


class TestConfig:
    def test_defaults_and_dict(self):
        cfg = AlgorithmConfig(M=15.0, schedule=harmonic_schedule(0.02, 0.6))
        doc = cfg.to_dict()
        assert doc["M"] == 15.0
        assert doc["schedule"]["gamma0"] == 0.02
        assert cfg.max_iters == 1000

    def test_rejects_bad_m(self, demo):
        from rsdd.network_sim import build_graph, run
        cfg = AlgorithmConfig(M=0.0, schedule=harmonic_schedule())
        with pytest.raises(ValueError, match="M"):
            run(demo, build_graph("path", 2), cfg)
