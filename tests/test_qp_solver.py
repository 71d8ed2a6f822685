"""Solver unit tests: analytic optima, KKT certificates, batching, lifting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsdd.problem_model import (AffineMap, AgentProblem, Hinge, LocalSet,
                                _coupled_form, _coupling_hi, _rho_headroom,
                                build_random_instance)
from rsdd import qp_solver
from rsdd.qp_solver import (QpBatch, QpError, QpInfeasibleError,
                            QpNumericalError, QpStandardForm, _solve_coupled,
                            kkt_residuals, lift_hinges, load_form, save_form,
                            shape_groups, solve_qp, validate_form)


def box_form(Q, c, lb, ub, **kw) -> QpStandardForm:
    return QpStandardForm(Q=Q, c=c, lb=lb, ub=ub, **kw)


class TestAnalyticExamples:
    def test_interior_minimum(self):
        # min x^2 - 2x on [-4, 4]: vertex at x = 1, value -1.
        sol = solve_qp(box_form([[2.0]], [-2.0], [-4.0], [4.0]))
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        assert sol.status == "optimal"

    def test_active_upper_bound(self):
        # min (x-3)^2 on [-1, 1]: clipped at x = 1; gradient 2(x-3) = -4
        # there, so the upper-bound multiplier is 4.
        sol = solve_qp(box_form([[2.0]], [-6.0], [-1.0], [1.0], offset=9.0))
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective == pytest.approx(4.0, abs=1e-8)
        assert sol.box_upper_mult[0] == pytest.approx(4.0, abs=1e-7)
        assert sol.box_lower_mult[0] == pytest.approx(0.0, abs=1e-7)

    def test_equality_constrained(self):
        # min 0.5 ||x||^2 s.t. x1 + x2 = 1: symmetric optimum (0.5, 0.5).
        sol = solve_qp(box_form(np.eye(2), np.zeros(2), [-5.0, -5.0],
                                [5.0, 5.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert np.allclose(sol.x, [0.5, 0.5], atol=1e-9)
        assert sol.objective == pytest.approx(0.25, abs=1e-9)

    def test_active_inequality_multiplier(self):
        # min (x+2)^2 s.t. x >= 0 (row -x <= 0): x = 0, gradient 4, mu = 4.
        sol = solve_qp(box_form([[2.0]], [4.0], [-10.0], [10.0],
                                A_in=[[-1.0]], b_in=[0.0], offset=4.0))
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.ineq_mult[0] == pytest.approx(4.0, abs=1e-7)

    def test_inactive_inequality_multiplier(self):
        sol = solve_qp(box_form([[2.0]], [4.0], [-10.0], [10.0],
                                A_in=[[1.0]], b_in=[5.0]))
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-9)
        assert sol.ineq_mult[0] == pytest.approx(0.0, abs=1e-8)

    def test_pinned_variable(self):
        # lb == ub pins the coordinate exactly.
        sol = solve_qp(box_form(np.eye(2), [1.0, 0.0], [2.0, -1.0],
                                [2.0, 1.0]))
        assert sol.x[0] == pytest.approx(2.0, abs=1e-12)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_rows_raise(self):
        # x <= -1 and x >= 1 cannot hold together inside [-5, 5].
        form = box_form([[2.0]], [0.0], [-5.0], [5.0],
                        A_in=[[1.0], [-1.0]], b_in=[-1.0, -1.0])
        with pytest.raises(QpError):
            solve_qp(form)

    def test_infeasible_equality_vs_box(self):
        form = box_form([[2.0]], [0.0], [0.0], [1.0], A_eq=[[1.0]], b_eq=[5.0])
        with pytest.raises((QpInfeasibleError, QpError)):
            solve_qp(form)


class TestKktCertificates:
    def test_residuals_at_solution(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(3, 3))
        form = box_form(basis.T @ basis + np.eye(3), rng.normal(size=3),
                        -np.ones(3), np.ones(3),
                        A_in=rng.normal(size=(2, 3)), b_in=[1.0, 2.0])
        sol = solve_qp(form, tol=1e-9)
        res = kkt_residuals(form, sol)
        assert res.max <= 1e-8
        assert sol.kkt_residual <= 1e-8

    def test_random_battery(self):
        """100 seeded PSD boxes + rows: residual <= 1e-8, gap <= 1e-7."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            basis = rng.normal(size=(n, n))
            q_mat = basis.T @ basis / n
            lb = rng.uniform(-2.0, 0.0, n)
            ub = lb + rng.uniform(0.5, 2.0, n)
            m = int(rng.integers(0, 3))
            a_in = rng.normal(size=(m, n)) if m else None
            # Anchor rows at an interior point so the form stays feasible.
            mid = 0.5 * (lb + ub)
            b_in = a_in @ mid + rng.uniform(0.1, 1.0, m) if m else None
            form = box_form(q_mat, rng.normal(size=n), lb, ub,
                            A_in=a_in, b_in=b_in)
            sol = solve_qp(form, tol=1e-9)
            res = kkt_residuals(form, sol)
            assert res.max <= 1e-8, f"seed {seed}: residual {res.max:.2e}"
            # With stationarity holding at x, the Lagrangian value equals
            # the dual objective, so the gap reduces to the complementarity
            # inner products.
            gap = float(sol.ineq_mult @ (form.A_in @ sol.x - form.b_in)) if m else 0.0
            gap += float(sol.box_lower_mult @ (form.lb - sol.x))
            gap += float(sol.box_upper_mult @ (sol.x - form.ub))
            assert abs(gap) <= 1e-7, f"seed {seed}: gap {gap:.2e}"

    def test_validate_form_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_form(box_form(np.eye(2), [0.0], [0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError):
            validate_form(box_form([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0],
                                   [0.0, 0.0], [1.0, 1.0]))

    def test_validate_form_rejects_infinite_box(self):
        with pytest.raises(ValueError):
            validate_form(box_form([[2.0]], [0.0], [0.0], [np.inf]))


class TestBatch:
    def make_forms(self, count: int, seed: int = 0) -> list[QpStandardForm]:
        rng = np.random.default_rng(seed)
        forms = []
        for _ in range(count):
            basis = rng.normal(size=(2, 2))
            forms.append(box_form(basis.T @ basis + 0.5 * np.eye(2),
                                  rng.normal(size=2), [-1.0, -1.0],
                                  [1.0, 1.0], A_in=rng.normal(size=(1, 2)),
                                  b_in=[2.0]))
        return forms

    def test_batch_matches_individual_solves(self):
        forms = self.make_forms(6, seed=11)
        batched = QpBatch(forms).solve(tol=1e-9)
        for form, sol in zip(forms, batched):
            single = solve_qp(form, tol=1e-9)
            assert np.allclose(sol.x, single.x, atol=1e-8)
            assert sol.objective == pytest.approx(single.objective, abs=1e-9)

    def test_batch_rejects_mixed_shapes(self):
        forms = self.make_forms(2)
        forms.append(box_form([[2.0]], [0.0], [-1.0], [1.0]))
        with pytest.raises(ValueError):
            QpBatch(forms)

    def test_rhs_update_and_warm_start(self):
        """Editing b_in between solves reuses the assembled batch; a warm
        second solve must agree with a cold one bit-for-bit on x."""
        forms = self.make_forms(4, seed=2)
        batch = QpBatch(forms)
        batch.solve(tol=1e-10)
        batch.b_in[:, 0] = 1.5
        warm = batch.solve(tol=1e-10, warm=True)

        cold_batch = QpBatch(self.make_forms(4, seed=2))
        cold_batch.b_in[:, 0] = 1.5
        cold = cold_batch.solve(tol=1e-10)
        for w, c in zip(warm, cold):
            assert np.allclose(w.x, c.x, atol=1e-9)

    def test_shape_groups_in_first_seen_order(self):
        pair = self.make_forms(2)
        single = box_form([[2.0]], [0.0], [-1.0], [1.0])
        assert shape_groups([single, pair[0], single, pair[1]]) == [[0, 2], [1, 3]]
        assert shape_groups([]) == []

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_direction_keeps_the_iterate(self, poison, monkeypatch):
        """Element 1's Newton direction is made non-finite while the whole
        batch is live.  Its iterate must stay finite (so its residual does),
        the step must not multiply 0 by a non-finite direction, and the
        other elements must not notice."""
        calls = []
        orig_ipm = qp_solver._ipm

        def spy_ipm(*args, **kwargs):
            out = orig_ipm(*args, **kwargs)
            calls.append([v.copy() for v in out])  # the polish edits out
            return out

        monkeypatch.setattr(qp_solver, "_ipm", spy_ipm)
        QpBatch(self.make_forms(3, seed=4)).solve(tol=1e-9)
        clean = calls.pop()
        orig_kkt = qp_solver._solve_kkt

        def poisoned_kkt(K, rhs, n, me):
            d = orig_kkt(K, rhs, n, me)
            if K.shape[0] == 3:
                d[1] = poison
            return d

        monkeypatch.setattr(qp_solver, "_solve_kkt", poisoned_kkt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                QpBatch(self.make_forms(3, seed=4)).solve(tol=1e-9)
            except QpNumericalError as exc:
                assert np.isfinite(exc.residual)
        assert not [w for w in caught
                    if "invalid value encountered in multiply" in str(w.message)]
        x, y, z, iters, res = calls[0]
        assert iters[1] == -1 and np.isfinite(res[1])
        assert all(np.isfinite(v[1]).all() for v in (x, y, z))
        for got, ref in zip(calls[0], clean):
            assert np.array_equal(got[[0, 2]], ref[[0, 2]])

    def test_determinism(self):
        forms = self.make_forms(3, seed=5)
        a = QpBatch(forms).solve(tol=1e-9)
        b = QpBatch(self.make_forms(3, seed=5)).solve(tol=1e-9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x)
            assert sa.objective == sb.objective


@st.composite
def same_shape_batches(draw):
    """1-12 feasible QPs of one shape: a PSD cost, box rows (some variables
    optionally pinned), inequality rows and optional equality rows, all
    anchored at a point inside the box."""
    count = draw(st.integers(1, 12))
    n = draw(st.integers(1, 5))
    m_in = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, min(2, n - 1)))
    pinned = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pinned[0] = False  # keep one free variable, so box rows always exist
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forms = []
    for _ in range(count):
        basis = rng.normal(size=(n, n))
        lb = rng.uniform(-2.0, 0.0, n)
        ub = np.where(pinned, lb, lb + rng.uniform(0.5, 2.0, n))
        inside = lb + rng.uniform(0.2, 0.8, n) * (ub - lb)
        a_in = rng.normal(size=(m_in, n))
        a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
        forms.append(box_form(basis.T @ basis / n, rng.normal(size=n), lb, ub,
                              A_in=a_in, b_in=a_in @ inside + rng.uniform(0.0, 1.0, m_in),
                              A_eq=a_eq, b_eq=a_eq @ inside if m_eq else None))
    return forms


class TestBatchMembership:
    @settings(max_examples=60, deadline=None)
    @given(same_shape_batches())
    def test_element_independent_of_its_batch(self, forms):
        """A batched element is bit-identical to the same QP solved alone,
        and its batched certificate equals the one-form reference.

        The stall rule and the iteration cap are batch-wide, and both act
        only on elements that do not converge by themselves (polished or
        failed alone), so draws holding such an element are discarded."""
        max_iter = 200
        alone = []
        for form in forms:
            try:
                alone.append(QpBatch([form]).solve(tol=1e-9, max_iter=max_iter)[0])
            except QpError:
                alone.append(None)
        assume(all(a is not None and a.iterations < max_iter for a in alone))
        batched = QpBatch(forms).solve(tol=1e-9, max_iter=max_iter)
        for form, sol, ref in zip(forms, batched, alone):
            for field in ("x", "eq_mult", "ineq_mult", "box_lower_mult",
                          "box_upper_mult"):
                assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
            assert sol.objective == ref.objective
            assert sol.iterations == ref.iterations
            assert sol.kkt_residual == kkt_residuals(form, sol).max


@st.composite
def coupled_forms(draw):
    """1-12 agents of mixed shapes joined by 1-3 coupling rows, stacked by
    ``_coupled_form``: PSD costs of any rank, hinge terms, an optional
    local equality row and pinned variable, and coupling rows that come in
    +/- pairs (an equality written as two rows) or hold with a margin at a
    point inside every local set.  Half the draws add the trailing
    relaxation variable, priced as in the relaxed oracle."""
    n_agents = draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 3))
    paired = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    with_v = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents, points = [], []
    for _ in range(n_agents):
        dim = int(rng.integers(1, 4))
        lb = rng.uniform(-2.0, 0.0, dim)
        ub = lb + rng.uniform(0.5, 2.0, dim)
        point = lb + rng.uniform(0.2, 0.8, dim) * (ub - lb)
        if dim > 1 and rng.random() < 0.3:
            lb[-1] = ub[-1] = point[-1]
        a_eq = rng.normal(size=(1, dim)) if dim > 1 and rng.random() < 0.3 else None
        basis = rng.normal(size=(int(rng.integers(0, dim + 1)), dim))
        agents.append(AgentProblem(
            dim=dim, cost_quadratic=basis.T @ basis, cost_linear=rng.normal(size=dim),
            cost_hinges=[Hinge(rng.uniform(0.1, 2.0), rng.normal(size=dim), rng.normal())
                         for _ in range(int(rng.integers(0, 3)))],
            local_set=LocalSet(lb, ub, a_eq, None if a_eq is None else a_eq @ point),
            coupling=AffineMap(rng.normal(size=(n_rows, dim)), np.zeros(n_rows))))
        points.append(point)
    reach = sum(a.coupling.mat @ x for a, x in zip(agents, points))
    vec = -(reach + np.where(paired, 0.0, rng.uniform(0.1, 1.0, n_rows))) / n_agents
    for a in agents:
        a.coupling = AffineMap(np.concatenate([a.coupling.mat, -a.coupling.mat[paired]]),
                               np.concatenate([vec, -vec[paired]]))
    extra = None
    if with_v:
        extra = (float(rng.uniform(0.5, 50.0)), 0.0,
                 float(_rho_headroom(_coupling_hi(agents), 0.0)))
    return _coupled_form(agents, [lift_hinges(a) for a in agents], extra)[0]


class TestCoupledSolve:
    @settings(max_examples=100, deadline=None)
    @given(coupled_forms())
    def test_block_elimination_matches_dense_stack(self, form):
        """The structured solve agrees with ``solve_qp`` on the dense stack:
        objectives within 1e-9 relative, both certified at tol, and the
        blockwise certificate equal to the one-form reference up to
        rounding.  Draws on which the dense reference itself breaks down
        (the interior point's step-length fault) have nothing to compare
        against and are discarded."""
        tol = 1e-10
        dense = form.dense()
        try:
            ref = solve_qp(dense, tol=tol)
        except QpError:
            assume(False)
        sol = _solve_coupled(form, tol, 200)
        assert abs(sol.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        assert ref.kkt_residual <= tol
        assert sol.kkt_residual <= tol
        assert sol.kkt_residual == pytest.approx(kkt_residuals(dense, sol).max,
                                                 rel=1e-9, abs=1e-13)

    def test_large_stack_is_block_eliminated(self):
        """Past ``_DENSE_MAX`` stacked variables ``solve_qp`` eliminates the
        blocks, laid out as the dense stack and within 1e-9 of its solve."""
        problem = build_random_instance(200, 2, 2, 1)
        form, _ = _coupled_form(problem.agents, [lift_hinges(a) for a in problem.agents])
        dense = form.dense()
        sol = solve_qp(form)
        ref = solve_qp(dense, validate=False)
        assert sol.x.shape == ref.x.shape and sol.ineq_mult.shape == ref.ineq_mult.shape
        assert np.abs(sol.x - ref.x).max() <= 1e-9
        assert np.abs(sol.ineq_mult[-2:] - ref.ineq_mult[-2:]).max() <= 1e-9
        assert sol.kkt_residual <= 1e-8
        assert sol.kkt_residual == pytest.approx(kkt_residuals(dense, sol).max,
                                                 rel=1e-9, abs=1e-13)

    def test_small_stack_is_the_dense_stack(self, demo):
        form, _ = _coupled_form(demo.agents, [lift_hinges(a) for a in demo.agents])
        sol = solve_qp(form)
        ref = solve_qp(form.dense())
        assert np.array_equal(sol.x, ref.x)
        assert np.array_equal(sol.ineq_mult, ref.ineq_mult)


class TestHingeLift:
    def agent(self) -> AgentProblem:
        # f(x) = x^2 + 3 max{0, x - 1} on [-2, 3].
        return AgentProblem(dim=1, cost_quadratic=[[2.0]], cost_linear=[0.0],
                            cost_hinges=[Hinge(3.0, [1.0], -1.0)],
                            local_set=LocalSet(lb=[-2.0], ub=[3.0]),
                            coupling=AffineMap([[1.0]], [0.0]))

    def test_lift_matches_direct_minimum(self):
        agent = self.agent()
        form = lift_hinges(agent)
        assert form.dim == 2
        sol = solve_qp(form, tol=1e-9)
        grid = np.linspace(-2.0, 3.0, 50001)
        direct = min(agent.cost(np.array([v])) for v in grid)
        assert sol.objective == pytest.approx(direct, abs=1e-6)

    def test_lift_exact_on_kinked_optimum(self):
        # f(x) = (x - 2)^2 + 8 max{0, x} on [-3, 3]: left slope -2x + 4 - 8
        # is negative at 0+, positive at 0-, so the kink x = 0 is optimal.
        agent = AgentProblem(dim=1, cost_quadratic=[[2.0]], cost_linear=[-4.0],
                             cost_constant=4.0,
                             cost_hinges=[Hinge(8.0, [1.0], 0.0)],
                             local_set=LocalSet(lb=[-3.0], ub=[3.0]),
                             coupling=AffineMap([[1.0]], [0.0]))
        sol = solve_qp(lift_hinges(agent), tol=1e-9)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-8)
        assert sol.objective == pytest.approx(4.0, abs=1e-8)

    def test_lift_objective_equals_symbolic_cost(self):
        agent = self.agent()
        sol = solve_qp(lift_hinges(agent), tol=1e-10)
        assert sol.objective == pytest.approx(
            agent.cost(sol.x[:1]), abs=1e-8)


class TestFormFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        # Shortest-repr floats, signed zeros and absent equality rows survive.
        form = box_form(np.array([[0.1 + 0.2, 0.0], [0.0, 1.0 / 3.0]]),
                        np.array([-0.0, 1e-300]), np.array([-1.0, -np.pi]),
                        np.array([2.0 / 7.0, 1.0]),
                        A_in=[[1.0, -0.0]], b_in=[np.nextafter(1.0, 2.0)],
                        offset=-1.5e-17)
        path = tmp_path / "form.json"
        save_form(form, path)
        back = load_form(path)
        for name in ("Q", "c", "lb", "ub", "A_in", "b_in"):
            assert getattr(back, name).tobytes() == getattr(form, name).tobytes()
        assert back.A_eq is None and back.b_eq is None
        assert back.offset == form.offset

    def test_foreign_document_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "rsdd-problem"}')
        with pytest.raises(ValueError, match="not a QP form"):
            load_form(path)
