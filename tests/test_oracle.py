"""Centralized reference: stacked solve, relaxed solve, dual evaluation,
weak duality, and a grid search that checks the oracle on tiny instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from rsdd.core import local_step
from rsdd.oracle import (OracleResult, dual_terms, solve_centralized,
                         solve_relaxed_centralized, suggest_m)
from rsdd.network_sim import build_graph
from rsdd.problem_model import (AffineMap, AgentProblem,
                                ConstraintCoupledProblem, LocalSet,
                                _coupled_form, build_random_instance,
                                problem_hash, two_agent_demo, validate_problem)
from rsdd.qp_solver import QpBatch, QpError, QpStandardForm, lift_hinges, solve_qp


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

    def test_suggestion_nets_opposite_rows(self, microgrid):
        # The microgrid's balance equalities are written as two rows each;
        # the suggestion counts a pair's net multiplier once, while mu_star
        # is the solver's multiplier as solved.
        res = solve_centralized(microgrid)
        assert res.suggested_m == pytest.approx(118.0, abs=1e-6)
        form, _ = _coupled_form(microgrid.agents,
                                [lift_hinges(a) for a in microgrid.agents])
        sol = solve_qp(form, validate=False)
        assert np.array_equal(res.mu_star, sol.ineq_mult[-microgrid.coupling_dim:])

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


def dual_values(problem: ConstraintCoupledProblem, mus) -> np.ndarray:
    """The dual function q(mu) = sum_i q_i(mu) at each row of ``mus``."""
    return np.array([sum(row) for row in dual_terms(problem, mus)[0]])


class TestDualFunction:
    def test_value_at_optimal_multiplier(self, demo):
        # Strong duality: q(mu*) = f*.
        assert dual_values(demo, [[1.0]])[0] == pytest.approx(0.5, abs=1e-8)

    def test_value_at_zero(self, demo):
        assert dual_values(demo, [[0.0]])[0] == pytest.approx(0.0, abs=1e-8)

    def test_shape_checked(self, demo):
        with pytest.raises(ValueError, match="entries"):
            dual_terms(demo, [[1.0, 2.0]])
        with pytest.raises(ValueError, match="entries"):
            dual_terms(demo, [1.0])

    def test_sign_checked(self, demo):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_terms(demo, [[-0.5]])

    def test_weak_duality_random_multipliers(self, demo, demo_oracle):
        rng = np.random.default_rng(77)
        mus = rng.uniform(0.0, 4.0, size=(100, 1))
        assert (dual_values(demo, mus) <= demo_oracle.f_star + 1e-8).all()

    def test_weak_duality_random_instance(self):
        problem = build_random_instance(2, 1, 2, seed=42)
        f_star = solve_centralized(problem).f_star
        rng = np.random.default_rng(5)
        mus = rng.uniform(0.0, 3.0, size=(20, 2))
        assert (dual_values(problem, mus) <= f_star + 1e-8).all()

    def test_restricted_maximum_attains_f_star(self, demo, demo_oracle):
        # With M > ||mu*||_1 the restricted dual's maximum equals f*; a
        # dense scan of the (one-dimensional) domain should come within the
        # grid's resolution of it.  With M = 2 the grid [0, 2] lies inside
        # the restricted domain mu >= 0, mu <= M, where it is q itself.
        grid = np.linspace(0.0, 2.0, 801)
        values = dual_values(demo, grid[:, None])
        best = int(np.argmax(values))
        assert values[best] == pytest.approx(demo_oracle.f_star, abs=1e-4)
        assert abs(grid[best] - 1.0) <= 2.0 / 800 + 1e-12


def shifted_form(agent: AgentProblem, mu: np.ndarray) -> QpStandardForm:
    """Agent i's Lagrangian f_i + mu'g_i over X_i as one lifted QP."""
    form = lift_hinges(agent)
    form.c[:agent.dim] += agent.coupling.mat.T @ mu
    form.offset += float(mu @ agent.coupling.vec)
    return form


class TestDualTerms:
    """``dual_terms`` against one ``solve_qp`` per (agent, multiplier)."""

    @pytest.fixture(params=["microgrid", "random"])
    def case(self, request):
        # The microgrid has 4 shape groups, hinges and a pinned initial
        # charge; multipliers are distinct, so a mis-ordered reshape fails.
        if request.param == "microgrid":
            problem = request.getfixturevalue("microgrid")
        else:
            problem = build_random_instance(5, 2, 3, 7)
        rng = np.random.default_rng(3)
        return problem, rng.uniform(0.0, 2.0, size=(5, problem.coupling_dim))

    def test_matches_one_solve_per_agent_and_multiplier(self, case):
        problem, mus = case
        q, x = dual_terms(problem, mus)
        assert q.shape == (5, problem.n_agents)
        starts = np.cumsum([0] + [a.dim for a in problem.agents])
        assert x.shape == (5, starts[-1])
        ref = np.array([[solve_qp(shifted_form(a, mu), validate=False).objective
                         for a in problem.agents] for mu in mus])
        assert np.unique(ref, axis=0).shape[0] == len(mus)
        assert (np.abs(q - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref))).all()
        for k, mu in enumerate(mus):
            for i, a in enumerate(problem.agents):
                xi = x[k, starts[i]:starts[i + 1]]
                ls = a.local_set
                assert (xi >= ls.lb - 1e-7).all() and (xi <= ls.ub + 1e-7).all()
                if ls.a_in is not None:
                    assert (ls.a_in @ xi <= ls.b_in + 1e-7).all()
                if ls.a_eq is not None:
                    assert np.abs(ls.a_eq @ xi - ls.b_eq).max() <= 1e-7
                assert a.cost(xi) + mu @ a.g(xi) == pytest.approx(q[k, i], abs=1e-7)

    def test_no_multipliers(self, demo):
        q, x = dual_terms(demo, np.zeros((0, 1)))
        assert q.shape == (0, 2) and x.shape == (0, 2)

    def test_solver_failure_names_the_agent(self, microgrid, monkeypatch):
        # The N * K forms at K = 5 multipliers are one batch, agent by
        # agent, over the microgrid's 4 shapes: element 5 K + 1 is agent 5
        # at the second multiplier.
        K = 5
        element = 5 * K + 1
        orig = QpBatch.solve

        def fail_element(self, tol=1e-8, max_iter=200, warm=False):
            if len(self.forms) != microgrid.n_agents * K:
                return orig(self, tol=tol, max_iter=max_iter, warm=warm)
            assert len(self.shapes) == 4
            shape, j, _ = self._locate(element)
            x0 = 0.5 * (shape.lb[j] + shape.ub[j])
            self._diagnose(element, x0, shape._h()[j], max_iter, 1.0)

        monkeypatch.setattr(QpBatch, "solve", fail_element)
        with pytest.raises(QpError) as info:
            dual_terms(microgrid, np.full((K, microgrid.coupling_dim), 0.5))
        assert (info.value.element, info.value.agent) == (element, 5)
        assert str(info.value).startswith("agent 5: ")


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
