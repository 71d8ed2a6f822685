"""Centralized reference: stacked solve, relaxed solve, dual evaluation,
weak duality, and the grid oracle."""

from __future__ import annotations

import numpy as np
import pytest

from rsdd.core import local_step
from rsdd.oracle import (BruteForceResult, OracleResult, brute_force_oracle,
                         dual_value, restricted_dual_value,
                         solve_centralized, solve_relaxed_centralized,
                         suggest_m)
from rsdd.problem_model import (AffineMap, AgentProblem,
                                ConstraintCoupledProblem, LocalSet,
                                build_random_instance, problem_hash,
                                two_agent_demo)


def demo_with_coupling_offset(b_total: float) -> ConstraintCoupledProblem:
    """Fresh two-agent example with the coupled budget x1 + x2 <= -b_total
    moved; the offset rides on the second agent."""
    problem = two_agent_demo()
    a2 = problem.agents[1]
    a2.coupling = AffineMap(a2.coupling.mat, np.array([b_total]))
    return problem


class TestCentralized:
    def test_demo_optimum(self, demo, demo_oracle):
        res = demo_oracle
        assert np.abs(res.x - np.array([-0.5, 1.5])).max() <= 1e-6
        assert res.f_star == pytest.approx(0.5, abs=1e-8)
        assert res.mu_star[0] == pytest.approx(1.0, abs=1e-6)
        assert res.suggested_m == pytest.approx(20.0, abs=1e-6)
        assert res.problem_hash == problem_hash(demo)

    def test_inactive_coupling(self):
        # Budget x1 + x2 <= 10 leaves both unconstrained minima feasible.
        problem = demo_with_coupling_offset(-10.0)
        res = solve_centralized(problem)
        assert np.abs(res.x - np.array([0.0, 2.0])).max() <= 1e-5
        assert res.f_star == pytest.approx(0.0, abs=1e-8)
        assert res.mu_star[0] == pytest.approx(0.0, abs=1e-6)
        assert res.suggested_m == pytest.approx(10.0, abs=1e-4)

    def test_feasibility_mode(self):
        # All-zero costs: any feasible point is optimal at cost 0.
        agents = [AgentProblem(dim=1, cost_quadratic=np.zeros((1, 1)),
                               cost_linear=np.zeros(1),
                               local_set=LocalSet(lb=[-1.0], ub=[1.0]),
                               coupling=AffineMap(np.array([[1.0]]),
                                                  np.array([-0.5])))
                  for _ in range(2)]
        problem = ConstraintCoupledProblem(agents=agents, coupling_dim=1)
        res = solve_centralized(problem)
        assert res.f_star == pytest.approx(0.0, abs=1e-7)
        total = sum(a.g(x) for a, x in zip(agents, res.xs))
        assert total.max() <= 1e-7

    def test_suggest_m_formula(self):
        assert suggest_m(np.array([1.0])) == pytest.approx(20.0)
        assert suggest_m(np.zeros(3)) == pytest.approx(10.0)
        assert suggest_m(np.array([0.5, 2.5])) == pytest.approx(40.0)


class TestRelaxed:
    def test_large_m_reproduces_optimum(self, demo):
        res = solve_relaxed_centralized(demo, M=10.0)
        assert res.rho == pytest.approx(0.0, abs=1e-6)
        assert not res.restriction_binding
        assert res.cost == pytest.approx(0.5, abs=1e-6)

    def test_small_m_binds(self, demo):
        # M = 0.5 < ||mu*||_1 = 1: the relaxed optimum trades violation for
        # cost. Stationarity gives x = (-0.25, 1.75), rho = 0.5, cost 0.375.
        res = solve_relaxed_centralized(demo, M=0.5)
        assert res.restriction_binding
        assert res.rho == pytest.approx(0.5, abs=1e-6)
        assert res.cost == pytest.approx(0.375, abs=1e-6)

    def test_huge_m(self, demo):
        res = solve_relaxed_centralized(demo, M=1e6)
        assert res.rho == pytest.approx(0.0, abs=1e-6)
        assert res.cost == pytest.approx(0.5, abs=1e-5)

    def test_bad_m(self, demo):
        with pytest.raises(ValueError, match="M must be positive"):
            solve_relaxed_centralized(demo, M=0.0)

    @pytest.mark.parametrize("name", ["demo", "microgrid"])
    @pytest.mark.parametrize("m_price", [0.5, 15.0])
    def test_one_agent_problem_is_the_local_step(self, name, m_price, request):
        # The relaxed local problem at zero edge variables is the relaxed
        # problem of that agent alone: both build and solve the same QP.
        problem = request.getfixturevalue(name)
        for agent in problem.agents:
            alone = ConstraintCoupledProblem([agent], problem.coupling_dim)
            res = solve_relaxed_centralized(alone, m_price, tol=1e-9)
            x, rho, _ = local_step(agent, {}, {}, m_price, tol=1e-9)
            assert np.array_equal(res.xs[0], x)
            assert res.rho == rho


class TestDualFunction:
    def test_value_at_optimal_multiplier(self, demo):
        # Strong duality: q(mu*) = f*.
        assert dual_value(demo, [1.0]) == pytest.approx(0.5, abs=1e-8)

    def test_value_at_zero(self, demo):
        assert dual_value(demo, [0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_shape_checked(self, demo):
        with pytest.raises(ValueError, match="entries"):
            dual_value(demo, [1.0, 2.0])

    def test_sign_checked(self, demo):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_value(demo, [-0.5])

    def test_restricted_outside_domain(self, demo):
        assert restricted_dual_value(demo, [3.0], M=2.0) == float("-inf")

    def test_restricted_inside_domain(self, demo):
        inside = restricted_dual_value(demo, [0.5], M=2.0)
        assert inside == pytest.approx(dual_value(demo, [0.5]), abs=1e-10)

    def test_weak_duality_random_multipliers(self, demo, demo_oracle):
        rng = np.random.default_rng(77)
        for _ in range(100):
            mu = rng.uniform(0.0, 4.0, size=1)
            assert dual_value(demo, mu) <= demo_oracle.f_star + 1e-8

    def test_weak_duality_random_instance(self):
        problem = build_random_instance(2, 1, 2, seed=42)
        f_star = solve_centralized(problem).f_star
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.uniform(0.0, 3.0, size=2)
            assert dual_value(problem, mu) <= f_star + 1e-8

    def test_restricted_maximum_attains_f_star(self, demo, demo_oracle):
        # With M > ||mu*||_1 the restricted dual's maximum equals f*; a
        # dense scan of the (one-dimensional) domain should come within the
        # grid's resolution of it.
        grid = np.linspace(0.0, 2.0, 801)
        values = [restricted_dual_value(demo, [g], M=2.0) for g in grid]
        best = int(np.argmax(values))
        assert values[best] == pytest.approx(demo_oracle.f_star, abs=1e-4)
        assert abs(grid[best] - 1.0) <= 2.0 / 800 + 1e-12


class TestBruteForce:
    def test_demo_grid(self, demo):
        res = brute_force_oracle(demo, points_per_dim=2001)
        assert res.status == "optimal"
        assert res.cost == pytest.approx(0.5, abs=1e-2)
        assert np.abs(res.x - np.array([-0.5, 1.5])).max() <= 2 * res.spacing

    def test_single_agent_matches_centralized(self):
        agent = AgentProblem(dim=1, cost_quadratic=np.array([[2.0]]),
                             cost_linear=np.array([-2.0]),
                             local_set=LocalSet(lb=[-1.0], ub=[2.0]),
                             coupling=AffineMap(np.array([[1.0]]),
                                                np.array([-0.3])))
        problem = ConstraintCoupledProblem(agents=[agent], coupling_dim=1)
        exact = solve_centralized(problem)
        grid = brute_force_oracle(problem, points_per_dim=10001)
        assert grid.status == "optimal"
        assert grid.cost == pytest.approx(exact.f_star, abs=1e-3)
        assert np.abs(grid.x - exact.x).max() <= 2 * grid.spacing

    def test_no_feasible_grid_point(self):
        # The equality x = 0.5 misses every node of a 4-point grid on [0,1].
        agent = AgentProblem(dim=1, cost_quadratic=np.array([[2.0]]),
                             cost_linear=np.zeros(1),
                             local_set=LocalSet(lb=[0.0], ub=[1.0],
                                                a_eq=[[1.0]], b_eq=[0.5]),
                             coupling=AffineMap(np.array([[1.0]]),
                                                np.array([-2.0])))
        problem = ConstraintCoupledProblem(agents=[agent], coupling_dim=1)
        res = brute_force_oracle(problem, points_per_dim=4)
        assert res.status == "no feasible grid point"
        assert np.isnan(res.cost)

    def test_large_dimension_guard(self):
        problem = build_random_instance(5, 1, 1, seed=1)
        with pytest.raises(ValueError, match="allow_large"):
            brute_force_oracle(problem, points_per_dim=3)

    def test_allow_large_override(self):
        # Five agents, separable costs, coupling far from active; the grid
        # contains each unconstrained minimum exactly.
        agents = [AgentProblem(dim=1, cost_quadratic=np.array([[2.0]]),
                               cost_linear=np.array([-1.0]),
                               local_set=LocalSet(lb=[0.0], ub=[1.0]),
                               coupling=AffineMap(np.array([[1.0]]),
                                                  np.array([-2.0])))
                  for _ in range(5)]
        problem = ConstraintCoupledProblem(agents=agents, coupling_dim=1)
        res = brute_force_oracle(problem, points_per_dim=3,
                                 allow_large=True)
        assert res.status == "optimal"
        assert res.cost == pytest.approx(5 * (-0.25), abs=1e-12)
        assert np.all(res.x == 0.5)

    def test_grid_cap(self, demo):
        with pytest.raises(ValueError, match="cap"):
            brute_force_oracle(demo, points_per_dim=10000)

    def test_too_few_points(self, demo):
        with pytest.raises(ValueError, match="at least 2"):
            brute_force_oracle(demo, points_per_dim=1)


class TestSerialization:
    def test_round_trip(self, demo_oracle):
        doc = demo_oracle.to_dict()
        back = OracleResult.from_dict(doc)
        assert back.f_star == demo_oracle.f_star
        assert back.suggested_m == demo_oracle.suggested_m
        assert back.problem_hash == demo_oracle.problem_hash
        assert np.array_equal(back.mu_star, demo_oracle.mu_star)
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.xs, demo_oracle.xs))

    def test_format_checked(self):
        with pytest.raises(ValueError, match="not an oracle result"):
            OracleResult.from_dict({"format": "rsdd-trace"})
