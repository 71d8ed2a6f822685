"""Solver unit tests: analytic optima, KKT certificates, batching, lifting."""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsdd.core import AlgorithmConfig, harmonic_schedule
from rsdd.network_sim import build_graph, run
from rsdd.oracle import solve_centralized
from rsdd.problem_model import (AffineMap, AgentProblem, Hinge, LocalSet,
                                _coupled_form, _coupling_hi, _rho_headroom,
                                build_random_instance, lift_hinges)
from rsdd import qp_solver
from rsdd.qp_solver import (CoupledForm, QpBatch, QpError, QpInfeasibleError,
                            QpNumericalError, QpStandardForm, _solve_coupled,
                            kkt_residuals, load_form, save_form,
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

    def test_rhs_update_and_warm_start(self):
        """Editing b_in between solves reuses the assembled batch; a warm
        second solve must agree with a cold one bit-for-bit on x."""
        forms = self.make_forms(4, seed=2)
        batch = QpBatch(forms)
        batch.solve(tol=1e-10)
        batch.b_in[:, 0] = 1.5
        warm = batch.solve(tol=1e-10)

        cold_batch = QpBatch(self.make_forms(4, seed=2))
        cold_batch.b_in[:, 0] = 1.5
        cold = cold_batch.solve(tol=1e-10)
        for w, c in zip(warm, cold):
            assert np.allclose(w.x, c.x, atol=1e-9)

    def test_mixed_batch_names_first_failure_in_input_order(self):
        """Forms 1 and 2 are infeasible.  The batch holds shape A's forms 0
        and 2 in its rows 0 and 1 and shape B's form 1 in row 2, and must
        still name form 1, with its own form, and not the first failed
        row."""
        def one_var(b_in):
            return box_form([[2.0]], [0.0], [-5.0], [5.0],
                            A_in=[[1.0], [-1.0]], b_in=b_in)
        infeasible_pair = self.make_forms(1)[0]
        infeasible_pair.b_in = np.array([-1e3])
        forms = [one_var([1.0, 1.0]), infeasible_pair, one_var([-1.0, -1.0])]
        batch = QpBatch(forms)
        assert [len(sh.forms) for sh in batch.shapes] == [2, 1]
        assert batch.row.tolist() == [0, 2, 1]
        with pytest.raises(QpInfeasibleError) as info:
            batch.solve(tol=1e-9)
        assert info.value.element == 1
        assert np.array_equal(info.value.form.b_in, infeasible_pair.b_in)
        assert np.array_equal(info.value.form.Q, infeasible_pair.Q)

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

    def test_cold_retry_only_for_unconverged_elements(self, monkeypatch):
        """A warm start that leaves element 1 unconverged retries that
        element alone, cold; elements 0 and 2 keep their warm solutions.
        When the cold retry leaves it unconverged too, the polish runs once,
        for element 1 alone, from the cold retry's iterate, and the result
        reports the certificate that ``kkt_residuals`` gives it."""
        batches = []

        def sequence():
            batch = QpBatch(self.make_forms(3, seed=6))
            batches.append(batch)
            batch.solve(tol=1e-9)
            batch.b_in[:, 0] = 1.5
            return batch.solve(tol=1e-9)

        ref = sequence()
        calls, outs = [], []
        orig_ipm = qp_solver._ipm
        fail_cold_retry = False

        def unconverged(ops, c, b, h, x0, tol, max_iter, z_init=None):
            out = orig_ipm(ops, c, b, h, x0, tol, max_iter, z_init=z_init)
            calls.append((len(c), z_init is not None))
            if z_init is not None:
                out[3][1] = -1
            elif fail_cold_retry and len(calls) == 3:
                out[3][0] = -1
            outs.append([v.copy() for v in out])
            return out

        monkeypatch.setattr(qp_solver, "_ipm", unconverged)
        got = sequence()
        assert calls == [(3, False), (3, True), (1, False)]
        assert_same_solution(got[0], ref[0])
        assert_same_solution(got[2], ref[2])
        cold = self.make_forms(3, seed=6)[1]
        cold.b_in[0] = 1.5
        with monkeypatch.context() as m:
            m.setattr(qp_solver, "_ipm", orig_ipm)
            assert_same_solution(got[1], QpBatch([cold]).solve(tol=1e-9)[0])

        polished = []
        orig_polish = qp_solver._Shape._polish

        def spy_polish(self, j, h, x0, z0, tol):
            polished.append((self.c[j].copy(), x0.copy(), z0.copy()))
            return orig_polish(self, j, h, x0, z0, tol)

        monkeypatch.setattr(qp_solver._Shape, "_polish", spy_polish)
        calls.clear()
        outs.clear()
        fail_cold_retry = True
        got = sequence()
        assert calls == [(3, False), (3, True), (1, False)]
        x_retry, _, z_retry, _, _ = outs[2]
        [(c, x_start, z_start)] = polished
        assert np.array_equal(c, cold.c)
        assert np.array_equal(x_start, x_retry[0]) and np.array_equal(z_start, z_retry[0])
        assert got[1].iterations == 200 and got[1].kkt_residual <= 1e-9
        assert got[1].kkt_residual == kkt_residuals(batches[-1]._effective_form(1),
                                                    got[1]).max
        assert_same_solution(got[0], ref[0])
        assert_same_solution(got[2], ref[2])

    def test_polish_repairs_a_guess_short_of_tol(self):
        """From a start with no active row, the polish's first guess is the
        free minimizer, which misses the row by 1e-5; the repair rule makes
        the row active, and that point passes the certificate at tol."""
        batch = QpBatch(projection_forms([(0.5 + 5e-6, 0.5 + 5e-6)], [1.0]))
        (sh,) = batch.shapes
        x, y, z = sh._polish(0, batch._h()[0], np.zeros(2), np.zeros(sh.mi), 1e-9)
        _, ineq_mult, _, _, kkt, _ = sh._certify(x[None], y[None], z[None])
        assert kkt[0] <= 1e-9
        assert ineq_mult[0, 0] == pytest.approx(5e-6, rel=1e-6)

    def test_stalled_element_leaves_alone(self, monkeypatch):
        """Element 0's x and y never move, so its residual stops improving
        once its first step has closed its slack rows; it leaves the loop
        31 iterations later although element 1, made to creep, still
        improves, and element 1 goes on alone."""
        sizes = []
        orig_kkt = qp_solver._solve_kkt

        def stall_and_creep(K, rhs, n, me):
            d = orig_kkt(K, rhs, n, me)
            sizes.append(K.shape[0])
            if K.shape[0] == 2:
                d[0] = 0.0
                d[1] *= 0.05
            return d

        monkeypatch.setattr(qp_solver, "_solve_kkt", stall_and_creep)
        try:
            QpBatch(self.make_forms(2, seed=7)).solve(tol=1e-9)
        except QpError:
            pass
        assert 1 in sizes
        alone = sizes.index(1)  # two Newton solves per iteration
        assert set(sizes[:alone]) == {2} and alone <= 2 * 35

    def test_determinism(self):
        forms = self.make_forms(3, seed=5)
        a = QpBatch(forms).solve(tol=1e-9)
        b = QpBatch(self.make_forms(3, seed=5)).solve(tol=1e-9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x)
            assert sa.objective == sb.objective


def shape_forms(rng, count, n, m_in, m_eq, pinned) -> list[QpStandardForm]:
    """``count`` feasible QPs of one shape: a PSD cost, box rows (the
    ``pinned`` variables fixed), ``m_in`` inequality rows and ``m_eq``
    equality rows, all anchored at a point inside the box."""
    forms = []
    for _ in range(count):
        basis = rng.normal(size=(n, n))
        lb = rng.uniform(-2.0, 0.0, n)
        ub = np.where(pinned, lb, lb + rng.uniform(0.5, 2.0, n))
        inside = lb + rng.uniform(0.2, 0.8, n) * (ub - lb)
        a_in = rng.normal(size=(m_in, n))
        a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
        forms.append(box_form(basis.T @ basis / n, rng.normal(size=n), lb, ub,
                              A_in=a_in if m_in else None,
                              b_in=a_in @ inside + rng.uniform(0.0, 1.0, m_in) if m_in else None,
                              A_eq=a_eq, b_eq=a_eq @ inside if m_eq else None))
    return forms


@st.composite
def same_shape_batches(draw):
    """1-12 feasible QPs of one shape (``shape_forms``) with inequality
    rows and at least one free variable, so box rows always exist."""
    count = draw(st.integers(1, 12))
    n = draw(st.integers(1, 5))
    m_in = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, min(2, n - 1)))
    pinned = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pinned[0] = False
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shape_forms(rng, count, n, m_in, m_eq, pinned)


@st.composite
def mixed_shape_batches(draw):
    """2-4 shapes of 1-4 feasible QPs each (``shape_forms``), interleaved.
    The shapes differ in dimension (1-5) or inequality rows (0-3), and any
    variable may be pinned: a shape with every variable pinned and no
    inequality rows has no interior point to run."""
    dims = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)),
                         min_size=2, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forms = []
    for n, m_in in dims:
        m_eq = draw(st.integers(0, min(2, n - 1)))
        pinned = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        forms += shape_forms(rng, draw(st.integers(1, 4)), n, m_in, m_eq, pinned)
    return [forms[k] for k in draw(st.permutations(range(len(forms))))]


_SOLUTION_ARRAYS = ("x", "eq_mult", "ineq_mult", "box_lower_mult", "box_upper_mult")


def assert_same_solution(sol, ref):
    for field in _SOLUTION_ARRAYS:
        assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
    assert sol.objective == ref.objective
    assert sol.iterations == ref.iterations


def assert_batch_matches_alone(forms):
    """Each element of ``QpBatch(forms)`` is bit-identical to the same QP
    solved alone and certified as ``kkt_residuals`` certifies it; the
    batch fails exactly when an element fails alone, naming the first."""
    alone = []
    for form in forms:
        try:
            alone.append(QpBatch([form]).solve(tol=1e-9)[0])
        except QpError:
            alone.append(None)
    failed = [k for k, ref in enumerate(alone) if ref is None]
    if failed:
        with pytest.raises(QpError) as info:
            QpBatch(forms).solve(tol=1e-9)
        assert info.value.element == failed[0]
        return
    batched = QpBatch(forms).solve(tol=1e-9)
    for form, sol, ref in zip(forms, batched, alone):
        assert_same_solution(sol, ref)
        assert sol.kkt_residual == kkt_residuals(form, sol).max


class TestBatchMembership:
    @settings(max_examples=60, deadline=None)
    @given(same_shape_batches())
    def test_element_independent_of_its_batch(self, forms):
        """A batched element is bit-identical to the same QP solved alone,
        and its batched certificate equals the one-form reference.

        The stall rule, the iteration cap and the polish act per element,
        so this holds for elements that end in the polish too, and a batch
        fails exactly when one of its elements fails alone, naming the
        first of them."""
        assert_batch_matches_alone(forms)

    @settings(max_examples=60, deadline=None)
    @given(mixed_shape_batches())
    def test_mixed_shapes_share_one_batch(self, forms):
        """QPs of several shapes, interleaved, are one batch: each element
        is bit-identical to solving it alone, its certificate is the
        one-form reference's, and a failing batch names its first failing
        element in input order, although the batch solves its shapes'
        elements as consecutive rows."""
        batch = QpBatch(forms)
        assert len(batch.shapes) == len({qp_solver.shape_key(f) for f in forms}) >= 2
        assert_batch_matches_alone(forms)

    @settings(max_examples=40, deadline=None)
    @given(mixed_shape_batches(), st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
                                           min_size=2, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_mixed_warm_sequence_matches_alone(self, forms, scales, seed):
        """Warm re-solves of a mixed batch, over perturbed right-hand sides
        written through ``row``, keep every element bit-identical to the
        same sequence solved alone: the active-set tries, the warm and cold
        interior points and the polish act per element across shapes."""
        rng = np.random.default_rng(seed)
        batch = QpBatch(forms)
        alone = [QpBatch([f]) for f in forms]
        for scale in scales:
            refs = []
            for k, (form, single) in enumerate(zip(forms, alone)):
                if form.b_in is not None:
                    b_in = form.b_in + scale * np.abs(rng.normal(size=form.b_in.shape))
                    batch.b_in[batch.row[k], :b_in.size] = b_in
                    single.b_in[0] = b_in
                try:
                    refs.append(single.solve(tol=1e-9)[0])
                except QpError:
                    refs.append(None)
            failed = [k for k, ref in enumerate(refs) if ref is None]
            if failed:
                with pytest.raises(QpError) as info:
                    batch.solve(tol=1e-9)
                assert info.value.element == failed[0]
                return
            for k, (sol, ref) in enumerate(zip(batch.solve(tol=1e-9), refs)):
                assert_same_solution(sol, ref)
                assert sol.kkt_residual == kkt_residuals(batch._effective_form(k), sol).max


def projection_forms(targets, rhs) -> list[QpStandardForm]:
    """min 0.5 ||x - target||^2 subject to x1 + x2 <= rhs on [-3, 3]^2:
    the row is active with multiplier (target sum - rhs) / 2 whenever that
    is positive, and no box row is active."""
    return [box_form(np.eye(2), -np.asarray(t, dtype=float), [-3.0, -3.0], [3.0, 3.0],
                     A_in=[[1.0, 1.0]], b_in=[r]) for t, r in zip(targets, rhs)]


class TestWarmActiveSet:
    def test_unchanged_active_set_needs_no_iterations(self):
        """Once two warm solves agree on a clearly separated active set, the
        next one is a single KKT solve on it: 0 iterations, certified at
        tol, and the cold solve's objective within tol."""
        targets = [(2.0, 0.0), (1.5, 1.0), (0.0, 2.5)]
        batch = QpBatch(projection_forms(targets, [1.0, 1.0, 1.0]))
        first = batch.solve(tol=1e-9)
        second = batch.solve(tol=1e-9)
        assert min(s.iterations for s in [*first, *second]) > 0
        batch.b_in[:, 0] = [1.01, 0.99, 1.02]  # the same row stays active
        warm = batch.solve(tol=1e-9)
        cold = QpBatch(projection_forms(targets, [1.01, 0.99, 1.02])).solve(tol=1e-9)
        for k, (w, c) in enumerate(zip(warm, cold)):
            assert w.iterations == 0
            assert w.kkt_residual <= 1e-9
            assert w.kkt_residual == kkt_residuals(batch._effective_form(k), w).max
            assert abs(w.objective - c.objective) <= 1e-9
            assert not w.box_lower_mult.any() and not w.box_upper_mult.any()

    def test_weakly_active_row_keeps_the_interior_point(self):
        """A row whose multiplier and slack are both small (here the target
        sits on the row, so both vanish) never passes the gate."""
        batch = QpBatch(projection_forms([(0.5, 0.5)], [1.0]))
        for _ in range(4):
            (sol,) = batch.solve(tol=1e-9)
            assert sol.iterations > 0 and sol.kkt_residual <= 1e-9

    def test_warm_floor_follows_the_violation(self):
        """A warm interior point floors each element's slacks and multipliers
        at its last solution's violation of the new rows, clipped to
        [1e-3, 1]: 1e-3 where the right-hand side did not move, 0.5 where
        it moved the last solution 0.5 outside its row."""
        batch = QpBatch(projection_forms([(0.0, 0.0), (3.0, 0.0)], [1.0, 1.0]))
        batch.solve(tol=1e-9)
        x_prev, z_prev = batch._warm
        batch.b_in[1, 0] = 0.5
        _, _, z, _, _ = qp_solver._ipm(batch._ops, batch.c, batch.b, batch._h(), x_prev,
                                       1e-9, max_iter=0, z_init=z_prev)
        assert (z_prev[0] < 1e-3).all()
        assert (z[0] == 1e-3).all()
        small = z_prev[1] < 1e-3  # every row but the active one
        assert small.sum() == len(small) - 1
        assert np.allclose(z[1, small], 0.5, atol=1e-8)
        assert np.array_equal(z[1, ~small], z_prev[1, ~small])

    @settings(max_examples=60, deadline=None)
    @given(same_shape_batches(), st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
                                          min_size=2, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_every_warm_solution_is_certified(self, forms, scales, seed):
        """Over a sequence of perturbed right-hand sides, every warm solution
        is certified at tol, whether the active-set solve, the warm or the
        cold interior point or the polish produced it, and each element's
        sequence is bit-identical to the same sequence solved alone.  The
        perturbations only loosen rows, so every problem stays feasible."""
        rng = np.random.default_rng(seed)
        base = np.stack([f.b_in for f in forms])
        steps = [base + scale * np.abs(rng.normal(size=base.shape)) for scale in scales]
        batch = QpBatch(forms)
        alone = [QpBatch([f]) for f in forms]
        for b_in in steps:
            batch.b_in[:] = b_in
            refs = []
            for k, single in enumerate(alone):
                single.b_in[:] = b_in[k]
                try:
                    refs.append(single.solve(tol=1e-9)[0])
                except QpError:
                    refs.append(None)
            failed = [k for k, ref in enumerate(refs) if ref is None]
            if failed:
                with pytest.raises(QpError) as info:
                    batch.solve(tol=1e-9)
                assert info.value.element == failed[0]
                return
            for k, (sol, ref) in enumerate(zip(batch.solve(tol=1e-9), refs)):
                assert_same_solution(sol, ref)
                assert sol.kkt_residual <= 1e-9
                assert sol.kkt_residual == kkt_residuals(batch._effective_form(k), sol).max

    @staticmethod
    def spy_on_the_cache(monkeypatch):
        """The active sets handed to the builder, and the count of
        ``_solve_kkt`` calls, which every inversion and factorization makes."""
        built, solves = [], []
        orig_system, orig_solve = qp_solver._active_set_system, qp_solver._solve_kkt

        def system(Q, A, G, act):
            built.append(act.copy())
            return orig_system(Q, A, G, act)

        def solve(*args, **kwargs):
            solves.append(1)
            return orig_solve(*args, **kwargs)

        monkeypatch.setattr(qp_solver, "_active_set_system", system)
        monkeypatch.setattr(qp_solver, "_solve_kkt", solve)
        return built, solves

    def test_cache_hit_builds_and_inverts_nothing(self, monkeypatch):
        """The first try on an active set builds and inverts its system;
        the next try on it builds and inverts nothing, and its point is
        within 1e-12 of the uncached point, built by ``_active_set_system``
        and solved by ``_solve_kkt``, which ``_certify`` certifies."""
        built, solves = self.spy_on_the_cache(monkeypatch)
        targets = [(2.0, 0.0), (1.5, 1.0), (0.0, 2.5)]
        batch = QpBatch(projection_forms(targets, [1.0, 1.0, 1.0]))
        for rhs in ([1.0] * 3, [1.0] * 3, [1.01, 0.99, 1.02]):
            batch.b_in[:, 0] = rhs
            batch.solve(tol=1e-9)
        assert [len(act) for act in built] == [3]
        built.clear()
        solves.clear()
        batch.b_in[:, 0] = [1.02, 0.98, 1.03]
        hits = batch.solve(tol=1e-9)
        assert built == [] and solves == []
        (sh,) = batch.shapes
        K, order, on = qp_solver._active_set_system(sh.Q, sh.A, sh.G, batch._act)
        solve = partial(qp_solver._solve_kkt, K, n=sh.n, me=K.shape[-1] - sh.n)
        x, y, z = qp_solver._active_set_point(K, solve, sh.c, sh.b, batch._h(), order, on)
        assert (sh._certify(x, y, z)[4] <= 1e-9).all()
        for k, sol in enumerate(hits):
            assert sol.iterations == 0
            assert sol.kkt_residual <= 1e-9
            assert sol.kkt_residual == kkt_residuals(batch._effective_form(k), sol).max
            assert np.allclose(sol.x, x[k], rtol=0.0, atol=1e-12)
            assert np.allclose(sol.ineq_mult, z[k, :1], rtol=0.0, atol=1e-12)
            assert np.allclose(sol.box_lower_mult, z[k, 1:3], rtol=0.0, atol=1e-12)
            assert np.allclose(sol.box_upper_mult, z[k, 3:], rtol=0.0, atol=1e-12)

    def test_flipped_active_set_is_rebuilt(self, monkeypatch):
        """Element 1's row turns inactive: its try on the old active set
        fails, the interior point solves it twice, and its next try, on
        the new active set, builds that element's system alone, while
        element 0 keeps its cached one; both certify with 0 iterations."""
        built, _ = self.spy_on_the_cache(monkeypatch)
        batch = QpBatch(projection_forms([(2.0, 0.0), (2.0, 0.0)], [1.0, 1.0]))
        iterations = []
        for rhs in ([1.0, 1.0], [1.0, 1.0], [1.01, 1.01], [1.02, 3.0], [1.03, 3.01],
                    [1.04, 3.02]):
            batch.b_in[:, 0] = rhs
            iterations.append([sol.iterations for sol in batch.solve(tol=1e-9)])
        assert [it[0] for it in iterations[2:]] == [0, 0, 0, 0]
        assert [it[1] > 0 for it in iterations[2:]] == [False, True, True, False]
        assert [act.tolist() for act in built] == [
            [[True, False, False, False, False]] * 2,
            [[False, False, False, False, False]]]

    def test_mixed_warm_hits_and_misses_match_alone(self, monkeypatch):
        """Two shapes, each with an element whose row stays active and one
        whose row turns inactive: in the last solves some elements hit
        their cached systems while others miss, and every element's
        sequence is bit-identical to the same sequence solved alone."""
        built, _ = self.spy_on_the_cache(monkeypatch)
        tried = []
        orig_try = qp_solver._Shape._active_set_try

        def spy_try(sh, k, h, act):
            tried.append(len(k))
            return orig_try(sh, k, h, act)

        monkeypatch.setattr(qp_solver._Shape, "_active_set_try", spy_try)
        flat = [box_form(np.eye(3), [-1.0, -1.0, -1.0], [-3.0] * 3, [3.0] * 3,
                         A_in=[[1.0, 1.0, 1.0]], b_in=[1.0])]
        forms = [projection_forms([(2.0, 0.0)], [1.0])[0], flat[0],
                 projection_forms([(2.0, 0.0)], [1.0])[0], flat[0]]
        steps = [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.01, 1.01, 1.01, 1.01],
                 [1.02, 1.02, 3.0, 5.0], [1.03, 1.03, 3.01, 5.01], [1.04, 1.04, 3.02, 5.02],
                 [1.05, 1.05, 3.03, 5.03]]
        batch = QpBatch(forms)
        alone = [QpBatch([f]) for f in forms]
        for step, rhs in enumerate(steps):
            for k, single in enumerate(alone):
                batch.b_in[batch.row[k], 0] = single.b_in[0, 0] = rhs[k]
            refs = [single.solve(tol=1e-9)[0] for single in alone]
            tried.clear()
            built.clear()
            sols = batch.solve(tol=1e-9)
            for k, (sol, ref) in enumerate(zip(sols, refs)):
                assert_same_solution(sol, ref)
                assert sol.kkt_residual == kkt_residuals(batch._effective_form(k), sol).max
            if step == len(steps) - 2:  # elements 2 and 3 miss, 0 and 1 hit
                assert tried == [2, 2] and [len(act) for act in built] == [1, 1]
                assert [sol.iterations for sol in sols] == [0, 0, 0, 0]

    def test_batch_solution_protocol(self):
        """A warm solve of a mixed batch whose rows are not its input order,
        in which the try certifies element 0 of shape A's elements 0 and 2
        and element 1 of shape B's elements 1 and 3: ``sols[k]`` is form
        k's solution, bit for bit as solved alone, certified as
        ``kkt_residuals`` certifies it, and indexing (negative too),
        iteration, ``len`` and the arrays all agree."""
        flat = box_form(np.eye(3), [-1.0, -1.0, -1.0], [-3.0] * 3, [3.0] * 3,
                        A_in=[[1.0, 1.0, 1.0]], b_in=[1.0])
        forms = [projection_forms([(2.0, 0.0)], [1.0])[0], flat,
                 projection_forms([(2.0, 0.0)], [1.0])[0], flat]
        batch = QpBatch(forms)
        assert batch.row.tolist() == [0, 2, 1, 3]
        alone = [QpBatch([f]) for f in forms]
        for rhs in ([1.0] * 4, [1.0] * 4, [1.01] * 4, [1.02, 1.02, 3.0, 5.0]):
            for k, single in enumerate(alone):
                batch.b_in[batch.row[k], 0] = single.b_in[0, 0] = rhs[k]
            refs = [single.solve(tol=1e-9)[0] for single in alone]
            sols = batch.solve(tol=1e-9)
        assert sols.iterations[[0, 1]].tolist() == [0, 0]
        assert (sols.iterations[[2, 3]] > 0).all()
        assert len(sols) == 4 and len(list(sols)) == 4
        for k, (sol, ref) in enumerate(zip(sols, refs)):
            assert_same_solution(sol, ref)
            assert_same_solution(sols[k], ref)
            assert_same_solution(sols[k - 4], ref)
            assert sol.kkt_residual == kkt_residuals(batch._effective_form(k), sol).max
            assert sol.kkt_residual == sols.kkt_residual[k] <= 1e-9
            for one in (sol, sols[k]):
                assert [type(one.objective), type(one.kkt_residual),
                        type(one.iterations)] == [float, float, int]
            assert sol.iterations == sols.iterations[k]
            n, m_eq, m_in = sols.widths[k]
            assert (n, m_eq, m_in) == (forms[k].dim, 0, 1)
            assert np.array_equal(sols.x[k, :n], sol.x) and not sols.x[k, n:].any()
            assert np.array_equal(sols.ineq_mult[k, :m_in], sol.ineq_mult)
        with pytest.raises(IndexError):
            sols[4]
        with pytest.raises(IndexError):
            sols[-5]
        one = alone[0].solve(tol=1e-9)
        (only,) = one
        assert_same_solution(only, one[-1])

    def test_solution_shares_no_memory_with_the_batch(self):
        """Every array of a solution is its own: none shares memory with
        the warm start the batch keeps (``_warm``, ``_act``) or with another
        solve's solution, and later solves leave it as it was."""
        flat = box_form(np.eye(3), [-1.0, -1.0, -1.0], [-3.0] * 3, [3.0] * 3,
                        A_in=[[1.0, 1.0, 1.0]], b_in=[1.0])
        batch = QpBatch([projection_forms([(2.0, 0.0)], [1.0])[0], flat, flat])
        kept = []
        for rhs in ([1.0] * 3, [1.0] * 3, [1.01] * 3, [1.02] * 3, [3.0, 1.03, 1.03]):
            batch.b_in[:, 0] = rhs
            sols = batch.solve(tol=1e-9)
            arrays = [getattr(sols, name) for name in _SOLUTION_ARRAYS
                      + ("objective", "kkt_residual", "iterations")]
            for a in arrays:
                for other in [*batch._warm, batch._act] + [b for b, _ in kept]:
                    assert not np.shares_memory(a, other)
            kept += [(a, a.copy()) for a in arrays]
        # The last solve wrote both ways: the interior point's element 0,
        # and elements 1 and 2 that the try certified.
        assert sols.iterations[0] > 0 and sols.iterations[1:].tolist() == [0, 0]
        for a, copy in kept:
            assert np.array_equal(a, copy)


class TestRegressions:
    def test_random_3_seed_12_certifies_by_the_try(self, monkeypatch):
        """random 3 x 2 x 2 seed 12 on a path (suggested M, gamma0 = 0.1,
        p = 0.6), run to the stopping rule: almost every local solve is
        certified by the active-set try (0 iterations; 720 of 732), and the
        interior point runs 6 times in all."""
        problem = build_random_instance(3, 2, 2, 12)
        cfg = AlgorithmConfig(M=solve_centralized(problem).suggested_m,
                              schedule=harmonic_schedule(0.1, 0.6), max_iters=20000)
        by_try, ipm_calls = [], []
        orig_solve, orig_ipm = QpBatch.solve, qp_solver._ipm

        def solve(batch, *args, **kwargs):
            sols = orig_solve(batch, *args, **kwargs)
            by_try.append(sum(sol.iterations == 0 for sol in sols))
            return sols

        def ipm(*args, **kwargs):
            ipm_calls.append(1)
            return orig_ipm(*args, **kwargs)

        monkeypatch.setattr(QpBatch, "solve", solve)
        monkeypatch.setattr(qp_solver, "_ipm", ipm)
        trace = run(problem, build_graph("path", 3), cfg)
        assert trace.status == "tolerance-met"
        assert sum(by_try) >= 700
        assert len(ipm_calls) <= 10

    def test_random_200_seed_7_runs_30_updates(self):
        """random 200 x 2 x 2 seed 7 on a cycle (M = 50, gamma0 = 0.1,
        p = 0.6) broke down at round 13, agent 29, while one unconverged
        element sent its whole batch back to a cold start and the stall
        rule was batch-wide."""
        problem = build_random_instance(200, 2, 2, 7)
        cfg = AlgorithmConfig(M=50.0, schedule=harmonic_schedule(0.1, 0.6),
                              max_iters=30, enable_early_stop=False)
        trace = run(problem, build_graph("cycle", 200), cfg)
        assert trace.status == "max-iters" and len(trace.snapshots) == 31

    def test_random_1000_runs_30_updates(self):
        """random 1000 x 2 x 2 seed 1 on a cycle (M = 50, gamma0 = 0.1,
        p = 0.6) runs 30 updates; with cold starts only (no warm interior
        point) it broke down at round 28, agent 358."""
        problem = build_random_instance(1000, 2, 2, 1)
        cfg = AlgorithmConfig(M=50.0, schedule=harmonic_schedule(0.1, 0.6),
                              max_iters=30, enable_early_stop=False)
        trace = run(problem, build_graph("cycle", 1000), cfg)
        assert trace.status == "max-iters" and len(trace.snapshots) == 31


class TestBatchValidation:
    def test_first_bad_form_names_its_fault(self):
        """A batch raises ``validate_form``'s error for its first bad form."""
        good = projection_forms([(1.0, 0.0)], [1.0])[0]
        not_psd = box_form([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], [-1.0, -1.0],
                           [1.0, 1.0], A_in=[[1.0, 1.0]], b_in=[1.0])
        not_finite = box_form(np.eye(2), [np.nan, 0.0], [-1.0, -1.0], [1.0, 1.0],
                              A_in=[[1.0, 1.0]], b_in=[1.0])
        crossed = box_form(np.eye(2), [0.0, 0.0], [1.0, -1.0], [-1.0, 1.0],
                           A_in=[[1.0, 1.0]], b_in=[1.0])
        for bad in (not_psd, not_finite, crossed):
            with pytest.raises(ValueError) as ref:
                validate_form(bad)
            with pytest.raises(ValueError, match=str(ref.value)):
                QpBatch([good, bad, not_psd])
        with pytest.raises(ValueError, match="c has wrong length"):
            QpBatch([good, box_form(np.eye(2), [0.0], [-1.0, -1.0], [1.0, 1.0])])
        with pytest.raises(ValueError, match="empty batch"):
            QpBatch([])
        QpBatch([good, good])
        QpBatch([good, box_form(np.eye(2), [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])])


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
        rounding."""
        tol = 1e-10
        dense = form.dense()
        ref = solve_qp(dense, tol=tol)
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

    def test_malformed_parts_are_rejected(self):
        """``solve_qp`` of a coupled form rejects its first malformed block,
        in block order, with ``validate_form``'s message, ahead of the
        coupling rows; then rows of the wrong shape or not finite, a
        right-hand side not finite and a trailing variable with lb > ub."""
        good = projection_forms([(1.0, 0.0)], [1.0])[0]
        not_psd = box_form([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
        crossed = box_form(np.eye(2), [0.0, 0.0], [1.0, -1.0], [-1.0, 1.0])
        row = np.ones((1, 2))

        def coupled(blocks, coupling=None, rhs=1.0, extra=None):
            return CoupledForm(blocks, [row] * len(blocks) if coupling is None else coupling,
                               np.array([rhs]), extra)

        assert solve_qp(coupled([good, good], extra=(1.0, 0.0, 2.0))).kkt_residual <= 1e-8
        for blocks in ([good, not_psd, crossed], [good, crossed, not_psd]):
            with pytest.raises(ValueError) as ref:
                validate_form(blocks[1])
            with pytest.raises(ValueError, match=str(ref.value)):
                solve_qp(coupled(blocks))
            with pytest.raises(ValueError, match=str(ref.value)):
                solve_qp(coupled(blocks[:2], [np.ones((2, 2)), row]))
        for bad in (np.ones((2, 2)), np.ones((1, 3)), np.array([[1.0, np.inf]]),
                    np.array([[np.nan, 1.0]])):
            with pytest.raises(ValueError, match="coupling rows have wrong shape"):
                solve_qp(coupled([good, good], [row, bad]))
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            solve_qp(coupled([good, good], rhs=np.nan))
        with pytest.raises(ValueError, match="lb <= ub"):
            solve_qp(coupled([good, good], extra=(1.0, 2.0, 0.0)))

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

    @pytest.mark.parametrize("top", ["[1, 2]", "null", '"rsdd-qp"'])
    def test_non_object_document_rejected(self, tmp_path, top):
        path = tmp_path / "list.json"
        path.write_text(top)
        with pytest.raises(ValueError, match="not a QP form document"):
            load_form(path)
