"""Data model tests: demo values, validation findings, builders, files."""

from __future__ import annotations

import numpy as np
import pytest

from rsdd.oracle import solve_centralized
from rsdd.problem_model import (AffineMap, AgentProblem, Hinge, LocalSet,
                                MicrogridConfig, ProblemFormatError,
                                ConstraintCoupledProblem,
                                build_microgrid_instance,
                                build_random_instance, load_problem,
                                microgrid_config_from_dict,
                                microgrid_config_to_dict, problem_from_dict,
                                problem_hash, problem_to_dict, save_problem,
                                two_agent_demo, validate_problem)


def simple_agent(dim: int = 1, s_dim: int = 1, **kw) -> AgentProblem:
    defaults = dict(dim=dim, cost_quadratic=np.eye(dim), cost_linear=np.zeros(dim),
                    local_set=LocalSet(lb=np.zeros(dim), ub=np.ones(dim)),
                    coupling=AffineMap(np.ones((s_dim, dim)), np.zeros(s_dim)))
    defaults.update(kw)
    return AgentProblem(**defaults)


class TestDemoValues:
    def test_optimum_and_cost(self, demo):
        xs = [np.array([-0.5]), np.array([1.5])]
        assert demo.total_cost(xs) == pytest.approx(0.5, abs=1e-12)
        assert demo.coupling_total(xs)[0] == pytest.approx(0.0, abs=1e-12)

    def test_agent_costs_are_the_squares(self, demo):
        # f1 = x^2 and f2 = (x - 2)^2 stored as quadratic + linear + constant.
        assert demo.agents[0].cost(np.array([3.0])) == pytest.approx(9.0)
        assert demo.agents[1].cost(np.array([3.0])) == pytest.approx(1.0)

    def test_coupling_split(self, demo):
        # g1 + g2 = x1 + x2 - 1 <= 0 encodes x1 + x2 <= 1.
        assert demo.agents[0].g(np.array([0.25]))[0] == pytest.approx(0.25)
        assert demo.agents[1].g(np.array([0.25]))[0] == pytest.approx(-0.75)

    def test_validates_clean(self, demo):
        report = validate_problem(demo)
        assert report.ok
        assert report.slater == "provided"

    def test_hinge_value(self):
        hinge = Hinge(2.0, [1.0, -1.0], 0.5)
        assert hinge.value(np.array([2.0, 1.0])) == pytest.approx(3.0)
        assert hinge.value(np.array([0.0, 1.0])) == pytest.approx(0.0)


def rich_agent(Q=((1.0, 0.0), (0.0, 1.0)), c=(0.0, 0.0), const=0.0, scale=1.0,
               coeffs=(1.0, 0.0), offset=-0.5, a_eq=((1.0, -1.0),), b_eq=(0.0,),
               a_in=((1.0, 1.0),), b_in=(1.5,), mat=((1.0, 1.0),), vec=(-1.0,)):
    """A two-variable agent with every numeric field a problem file can
    hold: a hinge, local equality and inequality rows, and one coupling
    row; (0.25, 0.25) is strictly inside its set."""
    return AgentProblem(dim=2, cost_quadratic=Q, cost_linear=c, cost_constant=const,
                        cost_hinges=[Hinge(scale, coeffs, offset)],
                        local_set=LocalSet(lb=np.zeros(2), ub=np.ones(2), a_eq=a_eq,
                                           b_eq=b_eq, a_in=a_in, b_in=b_in),
                        coupling=AffineMap(mat, vec))


class TestValidation:
    def test_single_agent_clean(self):
        problem = ConstraintCoupledProblem(agents=[simple_agent()],
                                           coupling_dim=1)
        report = validate_problem(problem)
        assert report.ok

    def test_non_compact_box(self):
        bad = simple_agent(local_set=LocalSet(lb=[0.0], ub=[np.inf]))
        report = validate_problem(ConstraintCoupledProblem([bad], 1))
        assert any("non-compact" in f for f in report.findings)

    def test_asymmetric_cost(self):
        bad = simple_agent(dim=2, cost_quadratic=[[1.0, 1.0], [0.0, 1.0]],
                           cost_linear=[0.0, 0.0],
                           local_set=LocalSet(lb=np.zeros(2), ub=np.ones(2)),
                           coupling=AffineMap(np.ones((1, 2)), [0.0]))
        report = validate_problem(ConstraintCoupledProblem([bad], 1))
        assert any("symmetric" in f for f in report.findings)

    def test_indefinite_cost(self):
        bad = simple_agent(cost_quadratic=[[-1.0]])
        report = validate_problem(ConstraintCoupledProblem([bad], 1))
        assert any("semidefinite" in f for f in report.findings)

    def test_coupling_shape_mismatch(self):
        bad = simple_agent(coupling=AffineMap(np.ones((2, 1)), np.zeros(2)))
        report = validate_problem(ConstraintCoupledProblem([bad], 1))
        assert not report.ok

    def test_empty_local_set(self):
        bad = simple_agent(local_set=LocalSet(lb=[0.0], ub=[1.0],
                                              a_eq=[[1.0]], b_eq=[5.0]))
        report = validate_problem(ConstraintCoupledProblem([bad], 1))
        assert any("empty" in f for f in report.findings)

    def test_every_empty_local_set_named(self):
        # Agents 0 and 2 share a shape and are checked as one batch; the
        # batch fails on agent 0, and agent 1's own batch fails too.  Both
        # empty sets are named, in agent order, and agent 2 is not.
        def pinned_by(value, dim):
            return simple_agent(dim=dim, local_set=LocalSet(
                lb=np.zeros(dim), ub=np.ones(dim), a_eq=np.ones((1, dim)), b_eq=[value]))
        problem = ConstraintCoupledProblem(
            [pinned_by(5.0, 1), pinned_by(7.0, 2), pinned_by(0.5, 1)], 1)
        report = validate_problem(problem)
        assert report.findings == ["agent 0: local set is empty",
                                   "agent 1: local set is empty"]
        assert report.slater == "unverified"

    def test_no_slater_point(self):
        # Both agents push g_i(x) = x_i with boxes [1, 2]: the coupling sum
        # is at least 2 everywhere, so no feasible point exists at all.
        agents = [simple_agent(local_set=LocalSet(lb=[1.0], ub=[2.0]))
                  for _ in range(2)]
        report = validate_problem(ConstraintCoupledProblem(agents, 1))
        assert any("no Slater point" in f for f in report.findings)
        assert report.slater == "none"

    def test_search_finds_strict_interior(self):
        # Random instances are strictly feasible by construction; without
        # the shipped point the search must find a negative margin itself.
        for seed in (1, 2, 3, 4, 5):
            problem = build_random_instance(3, 2, 2, seed)
            problem.slater_point = None
            report = validate_problem(problem)
            assert report.ok, report.findings
            assert report.slater == "strict"

    def test_tight_equality_coupling_accepted(self, microgrid):
        # Paired <=/>= rows leave no strict interior; affine couplings only
        # need plain feasibility.
        report = validate_problem(microgrid)
        assert report.ok
        assert report.slater == "feasible-affine"

    def test_bad_slater_point_flagged(self, demo):
        shifted = ConstraintCoupledProblem(
            agents=demo.agents, coupling_dim=1,
            slater_point=[np.array([2.0]), np.array([2.0])])
        report = validate_problem(shifted)
        assert any("margin" in f for f in report.findings)

    @pytest.mark.parametrize("field, poison", [
        ("cost_quadratic", {"Q": [[np.inf, 0.0], [0.0, 1.0]]}),
        ("cost_linear", {"c": [np.nan, 0.0]}),
        ("cost_constant", {"const": np.nan}),
        ("cost_hinges[0].scale", {"scale": np.nan}),
        ("cost_hinges[0].coeffs", {"coeffs": [np.nan, 0.0]}),
        ("cost_hinges[0].offset", {"offset": -np.inf}),
        ("local_set.a_eq", {"a_eq": [[1.0, np.nan]]}),
        ("local_set.b_eq", {"b_eq": [np.nan]}),
        ("local_set.a_in", {"a_in": [[np.inf, 1.0]]}),
        ("local_set.b_in", {"b_in": [np.nan]}),
        ("coupling.mat", {"mat": [[np.nan, 1.0]]}),
        ("coupling.vec", {"vec": [np.inf]}),
    ])
    def test_non_finite_field_named(self, field, poison):
        """One finding for the agent, naming the field, before any solve."""
        report = validate_problem(ConstraintCoupledProblem(
            [rich_agent(), rich_agent(**poison)], 1, slater_point=[np.full(2, 0.25)] * 2))
        assert report.findings == [f"agent 1: non-finite values in {field}"]
        assert report.slater == "unverified"

    def test_non_finite_fields_in_one_finding(self):
        report = validate_problem(ConstraintCoupledProblem(
            [rich_agent(c=[np.nan, 0.0], vec=[np.nan]), rich_agent()], 1))
        assert report.findings == [
            "agent 0: non-finite values in cost_linear, coupling.vec"]

    def test_non_finite_slater_point(self):
        report = validate_problem(ConstraintCoupledProblem(
            [rich_agent(), rich_agent()], 1,
            slater_point=[np.full(2, 0.25), np.array([np.nan, 0.25])]))
        assert report.findings == ["slater_point component 1 is not finite"]


class TestRandomInstances:
    def test_deterministic(self):
        a = build_random_instance(2, 1, 1, seed=7)
        b = build_random_instance(2, 1, 1, seed=7)
        assert problem_hash(a) == problem_hash(b)

    def test_validates_clean(self):
        for seed in range(1, 6):
            report = validate_problem(build_random_instance(3, 2, 2, seed))
            assert report.ok, report.findings

    def test_slater_margin_strictly_negative(self):
        problem = build_random_instance(3, 2, 2, seed=1)
        margin = problem.coupling_total(problem.slater_point).max()
        assert margin < 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_random_instance(0, 1, 1, seed=1)


class TestMicrogrid:
    def test_default_shape(self, microgrid):
        assert microgrid.n_agents == 10
        assert microgrid.coupling_dim == 26
        dims = [a.dim for a in microgrid.agents]
        # 4 generators and 2 loads and 1 trade carry 13 slots; the 3
        # storage agents carry power plus charge trajectories.
        assert dims == [13, 13, 13, 13, 26, 26, 26, 13, 13, 13]

    def test_balance_rows_are_paired(self, microgrid):
        gen = microgrid.agents[0]
        assert np.array_equal(gen.coupling.mat[:13], np.eye(13))
        assert np.array_equal(gen.coupling.mat[13:], -np.eye(13))

    def test_demand_only_on_trade_agent(self, microgrid):
        for agent in microgrid.agents[:-1]:
            assert np.all(agent.coupling.vec == 0.0)
        trade = microgrid.agents[-1]
        cfg = MicrogridConfig()
        assert np.allclose(trade.coupling.vec[:13], -cfg.demand)
        assert np.allclose(trade.coupling.vec[13:], cfg.demand)

    def test_zero_demand_zero_power_feasible(self):
        cfg = MicrogridConfig(demand=np.zeros(13))
        problem = build_microgrid_instance(cfg)
        xs = []
        for agent in problem.agents:
            x = np.zeros(agent.dim)
            if agent.dim == 26:
                x[13:] = cfg.stor_initial  # held charge, zero power
            xs.append(x)
        # Zero power everywhere balances a zero demand exactly; every agent
        # stays inside its local set apart from generator minimum output,
        # so check the coupling rows only.
        assert np.all(problem.coupling_total(xs) == 0.0)
        for agent, x in zip(problem.agents[4:], xs[4:]):
            assert agent.local_set.contains(x)

    def test_tiny_instance(self):
        cfg = MicrogridConfig(n_generators=1, n_storage=0, n_loads=0,
                              horizon=0, demand=np.array([1.0]),
                              load_desired=np.array([0.25]))
        problem = build_microgrid_instance(cfg)
        assert problem.n_agents == 2
        assert problem.coupling_dim == 2
        assert [a.dim for a in problem.agents] == [1, 1]
        assert validate_problem(problem).ok
        res = solve_centralized(problem)
        balance = problem.agents[0].g(res.xs[0]) + problem.agents[1].g(res.xs[1])
        assert np.abs(balance).max() <= 1e-6

    def test_storage_dynamics_rows(self, microgrid):
        stor = microgrid.agents[4]
        ls = stor.local_set
        assert ls.a_eq.shape == (12, 26)
        # q' - q - p = 0 per step.
        assert ls.a_eq[0, 13] == -1.0 and ls.a_eq[0, 14] == 1.0 \
            and ls.a_eq[0, 0] == -1.0

    def test_config_rejections(self):
        with pytest.raises(ValueError, match="gen_power_min"):
            build_microgrid_instance(MicrogridConfig(gen_power_min=2.0))
        with pytest.raises(ValueError, match="demand"):
            build_microgrid_instance(MicrogridConfig(demand=np.ones(3)))
        with pytest.raises(ValueError, match="stor_initial"):
            build_microgrid_instance(MicrogridConfig(stor_initial=5.0))
        with pytest.raises(ValueError, match="horizon"):
            build_microgrid_instance(MicrogridConfig(horizon=-1))

    def test_default_profiles_in_range(self):
        cfg = MicrogridConfig()
        assert cfg.demand.min() >= 1.0 and cfg.demand.max() <= 2.5
        assert cfg.demand.shape == (13,)

    def test_config_dict_roundtrip(self):
        cfg = MicrogridConfig(horizon=3, demand=np.array([1.0, 2.0, 1.5, 1.0]))
        doc = microgrid_config_to_dict(cfg)
        back = microgrid_config_from_dict(doc)
        assert np.array_equal(back.demand, cfg.demand)
        assert back.horizon == cfg.horizon

    def test_config_dict_unknown_field(self):
        with pytest.raises(ProblemFormatError, match="grid_voltage"):
            microgrid_config_from_dict({"grid_voltage": 230.0})


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        problem = build_random_instance(3, 2, 2, seed=4)
        path = tmp_path / "problem.json"
        save_problem(problem, str(path))
        loaded = load_problem(str(path))
        assert problem_hash(loaded) == problem_hash(problem)
        for a, b in zip(loaded.agents, problem.agents):
            assert np.array_equal(a.cost_quadratic, b.cost_quadratic)
            assert np.array_equal(a.coupling.mat, b.coupling.mat)

    def test_roundtrip_with_hinges(self, tmp_path, microgrid):
        path = tmp_path / "m.json"
        save_problem(microgrid, str(path))
        loaded = load_problem(str(path))
        assert problem_hash(loaded) == problem_hash(microgrid)
        trade_hinges = loaded.agents[-1].cost_hinges
        assert len(trade_hinges) == 26

    def test_missing_field_named(self):
        with pytest.raises(ProblemFormatError, match="coupling_dim"):
            problem_from_dict({"agents": []})

    def test_coupling_dim_mismatch_on_load(self, demo):
        doc = problem_to_dict(demo)
        doc["coupling_dim"] = 2
        with pytest.raises(ProblemFormatError, match="coupling rows"):
            problem_from_dict(doc)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem(str(path))

    def test_hash_changes_with_data(self, demo):
        other = two_agent_demo()
        other.agents[0].cost_linear = np.array([1.0])
        assert problem_hash(other) != problem_hash(demo)
