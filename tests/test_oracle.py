"""Centralized reference: stacked solve, relaxed solve, dual evaluation,
weak duality, and a grid search that checks the oracle on tiny instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from rsdd.core import local_step
from rsdd.oracle import (OracleResult, dual_value, restricted_dual_value,
                         solve_centralized, solve_relaxed_centralized,
                         suggest_m)
from rsdd.network_sim import build_graph
from rsdd.problem_model import (AffineMap, AgentProblem,
                                ConstraintCoupledProblem, LocalSet,
                                _coupled_form, build_random_instance,
                                problem_hash, two_agent_demo, validate_problem)
from rsdd.qp_solver import lift_hinges, solve_qp


def demo_with_coupling_offset(b_total: float) -> ConstraintCoupledProblem:
    """Fresh two-agent example with the coupled budget x1 + x2 <= -b_total
    moved; the offset rides on the second agent."""
    problem = two_agent_demo()
    a2 = problem.agents[1]
    a2.coupling = AffineMap(a2.coupling.mat, np.array([b_total]))
    return problem


_GRID_CAP = 10_000_000


@dataclass
class BruteForceResult:
    x: np.ndarray
    cost: float
    spacing: float
    status: str  # "optimal" | "no feasible grid point"


def brute_force_oracle(problem: ConstraintCoupledProblem,
                       points_per_dim: int,
                       allow_large: bool = False) -> BruteForceResult:
    """Exhaustive search over a uniform grid of the stacked boxes.

    Keeps points satisfying the local constraints and the coupled
    inequality (within 1e-9), evaluates the exact costs there, and returns
    the best point with the grid spacing as the error scale.  Local
    equality constraints are checked at the same tolerance, so agents with
    equalities will usually report no feasible grid point.
    """
    if points_per_dim < 2:
        raise ValueError("need at least 2 grid points per dimension")
    dims = [a.dim for a in problem.agents]
    total_dim = sum(dims)
    if total_dim > 4 and not allow_large:
        raise ValueError("stacked dimension exceeds 4; pass allow_large=True "
                         "to search anyway")
    n_points = points_per_dim ** total_dim
    if n_points > _GRID_CAP:
        raise ValueError(f"grid of {n_points} points exceeds the "
                         f"{_GRID_CAP} cap")

    lb = np.concatenate([a.local_set.lb for a in problem.agents])
    ub = np.concatenate([a.local_set.ub for a in problem.agents])
    axes = [np.linspace(lb[k], ub[k], points_per_dim) for k in range(total_dim)]
    spacing = float(((ub - lb) / (points_per_dim - 1)).max())

    starts = np.concatenate([[0], np.cumsum(dims)])
    best_cost = np.inf
    best_x = None
    chunk = 1_000_000
    shape = (points_per_dim,) * total_dim
    for lo in range(0, n_points, chunk):
        idx = np.unravel_index(np.arange(lo, min(lo + chunk, n_points)), shape)
        pts = np.stack([axes[k][idx[k]] for k in range(total_dim)], axis=1)
        feas = np.ones(pts.shape[0], dtype=bool)
        total_g = np.zeros((pts.shape[0], problem.coupling_dim))
        cost = np.zeros(pts.shape[0])
        for i, agent in enumerate(problem.agents):
            xi = pts[:, starts[i]:starts[i + 1]]
            ls = agent.local_set
            if ls.a_eq is not None:
                feas &= (np.abs(xi @ ls.a_eq.T - ls.b_eq) <= 1e-9).all(axis=1)
            if ls.a_in is not None:
                feas &= (xi @ ls.a_in.T - ls.b_in <= 1e-9).all(axis=1)
            total_g += xi @ agent.coupling.mat.T + agent.coupling.vec
            cost += 0.5 * np.einsum("kd,de,ke->k", xi,
                                    agent.cost_quadratic, xi) \
                + xi @ agent.cost_linear + agent.cost_constant
            for h in agent.cost_hinges:
                cost += h.scale * np.maximum(0.0, xi @ h.coeffs + h.offset)
        feas &= (total_g <= 1e-9).all(axis=1)
        if feas.any():
            cost = np.where(feas, cost, np.inf)
            k = int(np.argmin(cost))
            if cost[k] < best_cost:
                best_cost = float(cost[k])
                best_x = pts[k].copy()
    if best_x is None:
        return BruteForceResult(x=np.full(total_dim, np.nan), cost=np.nan,
                                spacing=spacing,
                                status="no feasible grid point")
    return BruteForceResult(x=best_x, cost=best_cost, spacing=spacing,
                            status="optimal")


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


class TestLargeSetup:
    def test_n1000_validates_and_is_certified(self):
        """The set-up of a 1000-agent instance on a cycle: the local sets,
        the Slater search and the oracle's stacked QP are all solved and
        the oracle's solution is certified at tol."""
        problem = build_random_instance(1000, 2, 2, 1)
        graph = build_graph("cycle", problem.n_agents)
        assert graph.n_nodes == 1000
        assert validate_problem(problem).ok
        res = solve_centralized(problem)
        form, slices = _coupled_form(problem.agents,
                                     [lift_hinges(a) for a in problem.agents])
        sol = solve_qp(form, validate=False)
        assert sol.kkt_residual <= 1e-8
        assert all(np.array_equal(x, sol.x[sl]) for x, sl in zip(res.xs, slices))
        assert np.array_equal(res.mu_star, sol.ineq_mult[-2:])
        problem.slater_point = None
        report = validate_problem(problem)
        assert report.ok and report.slater == "strict"


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
