"""Per-agent operations of the relaxation-based dual decomposition method.

Each round, every agent solves its relaxed local problem

    minimize    f_i(x) + M * rho
    subject to  x in X_i,  rho >= 0,
                g_i(x) + sum_j (lambda_ij - lambda_ji) <= rho * 1

and returns the primal pair (x, rho) together with the multiplier mu_i of
the coupling rows.  Edge variables are then nudged by
lambda_ij <- lambda_ij - gamma_t * (mu_i - mu_j) under a diminishing step
size.  The module also evaluates the building blocks of the dual chain:
q_i (ordinary dual term) and eta_i (value of the relaxed local problem).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problem_model import (AgentProblem, ConstraintCoupledProblem,
                            _coupling_box_max)
from .qp_solver import (_FIX_TOL, QpBatch, QpError, QpStandardForm, TAG_COUPLING,
                        lift_hinges, solve_qp)


@dataclass
class StepSizeSchedule:
    """Diminishing step sizes gamma_t.

    ``harmonic`` gives gamma0 / (t+1)**exponent with exponent in (0.5, 1],
    which satisfies the divergent-sum / convergent-square-sum conditions.
    ``explicit`` takes a user sequence and is accepted unchecked (with a
    warning at validation time).
    """

    kind: str = "harmonic"
    gamma0: float = 1.0
    exponent: float = 0.8
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float).ravel()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "gamma0": self.gamma0,
                "exponent": self.exponent,
                "values": None if self.values is None else self.values.tolist()}


def harmonic_schedule(gamma0: float = 1.0, exponent: float = 0.8) -> StepSizeSchedule:
    return StepSizeSchedule(kind="harmonic", gamma0=gamma0, exponent=exponent)


def explicit_schedule(values) -> StepSizeSchedule:
    return StepSizeSchedule(kind="explicit", values=values)


def schedule_from_dict(doc: dict) -> StepSizeSchedule:
    return StepSizeSchedule(kind=doc["kind"],
                            gamma0=float(doc.get("gamma0", 1.0)),
                            exponent=float(doc.get("exponent", 0.8)),
                            values=doc.get("values"))


def validate_schedule(schedule: StepSizeSchedule) -> str | None:
    """Check the diminishing-step conditions; return the rejection reason.

    Returns None for an acceptable schedule.  Harmonic-power schedules need
    gamma0 > 0 and exponent in (0.5, 1]; that guarantees a divergent step
    sum with a convergent sum of squares.  Explicit sequences pass with a
    warning; nothing is proved about them.
    """
    if schedule.kind == "harmonic":
        if schedule.gamma0 <= 0:
            return "gamma0 must be positive"
        if not 0.5 < schedule.exponent <= 1.0:
            return "exponent must lie in (0.5, 1]"
    elif schedule.kind == "explicit":
        if schedule.values is None or schedule.values.size == 0:
            return "explicit schedule needs a nonempty value sequence"
        if np.any(schedule.values < 0) or not np.all(np.isfinite(schedule.values)):
            return "explicit step sizes must be nonnegative and finite"
        warnings.warn("explicit step-size sequence accepted unchecked; the "
                      "divergent-sum conditions are not verified", stacklevel=2)
    else:
        return f"unknown schedule kind '{schedule.kind}'"
    return None


def step_size(schedule: StepSizeSchedule, t: int) -> float:
    """gamma_t for iteration t >= 0."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    if schedule.kind == "harmonic":
        return schedule.gamma0 / (t + 1) ** schedule.exponent
    if schedule.kind == "explicit":
        if t >= schedule.values.size:
            raise ValueError(f"explicit step-size sequence exhausted at t={t}")
        return float(schedule.values[t])
    raise ValueError(f"unknown schedule kind '{schedule.kind}'")


def lambda_update(lam: np.ndarray, gamma: float, mu_own: np.ndarray,
                  mu_neighbor: np.ndarray) -> np.ndarray:
    """One edge-variable step: lambda - gamma * (mu_own - mu_neighbor)."""
    return lam - gamma * (mu_own - mu_neighbor)


@dataclass
class AgentState:
    """State of one agent after a round: local solution, coupling
    multiplier, and the agent's outgoing edge variables."""

    x: np.ndarray
    rho: float
    mu: np.ndarray
    lambda_out: dict[int, np.ndarray]
    iteration: int


@dataclass
class AlgorithmConfig:
    """Run parameters.

    ``max_iters`` counts edge-variable updates; a finished run holds
    max_iters + 1 per-agent snapshots (the initial one plus one per update).
    ``lambda_init`` maps directed edges (i, j) to starting values; omitted
    edges start at zero.  The ``stop_*`` fields implement the early-stop
    rule: feasibility (max of coupling violation and sum of rho) within
    tolerance and relative cost change over ``stop_window`` iterations below
    ``stop_cost_change``.
    """

    M: float
    schedule: StepSizeSchedule = field(default_factory=harmonic_schedule)
    max_iters: int = 1000
    lambda_init: dict[tuple[int, int], np.ndarray] | None = None
    stop_violation: float = 1e-6
    stop_sum_rho: float = 1e-6
    stop_cost_change: float = 1e-8
    stop_window: int = 100
    enable_early_stop: bool = True
    solver_tol: float = 1e-9

    def to_dict(self) -> dict:
        return {"M": self.M, "schedule": self.schedule.to_dict(),
                "max_iters": self.max_iters,
                "stop_violation": self.stop_violation,
                "stop_sum_rho": self.stop_sum_rho,
                "stop_cost_change": self.stop_cost_change,
                "stop_window": self.stop_window,
                "enable_early_stop": self.enable_early_stop,
                "solver_tol": self.solver_tol}


@dataclass
class LocalStepResult:
    x: np.ndarray
    rho: float
    mu: np.ndarray
    objective: float


class _RelaxedLocal:
    """Per-agent template of the relaxed local QP; only the coupling
    right-hand side and the rho headroom change between rounds."""

    def __init__(self, agent: AgentProblem, M: float):
        if M <= 0:
            raise ValueError("M must be positive")
        base = lift_hinges(agent)
        n_l = base.dim
        s_dim = agent.coupling.mat.shape[0]
        Q = np.zeros((n_l + 1, n_l + 1))
        Q[:n_l, :n_l] = base.Q
        c = np.concatenate([base.c, [M]])
        lb = np.concatenate([base.lb, [0.0]])
        ub = np.concatenate([base.ub, [1.0]])  # rho headroom set per round
        a_eq = b_eq = None
        if base.A_eq is not None:
            a_eq = np.concatenate([base.A_eq, np.zeros((base.A_eq.shape[0], 1))], axis=1)
            b_eq = base.b_eq
        coupling_rows = np.zeros((s_dim, n_l + 1))
        coupling_rows[:, :agent.dim] = agent.coupling.mat
        coupling_rows[:, -1] = -1.0
        if base.A_in is not None:
            a_in = np.concatenate(
                [np.concatenate([base.A_in, np.zeros((base.A_in.shape[0], 1))], axis=1),
                 coupling_rows], axis=0)
            b_in = np.concatenate([base.b_in, -agent.coupling.vec])
            tags = list(base.ineq_tags) + [TAG_COUPLING] * s_dim
        else:
            a_in = coupling_rows
            b_in = -agent.coupling.vec
            tags = [TAG_COUPLING] * s_dim
        self.form = QpStandardForm(Q=Q, c=c, lb=lb, ub=ub, A_eq=a_eq, b_eq=b_eq,
                                   A_in=a_in, b_in=b_in, ineq_tags=tags,
                                   offset=base.offset, n_primary=agent.dim)
        self.agent = agent
        self.rho_col = n_l
        self.coupling_idx = self.form.rows_tagged(TAG_COUPLING)
        # Interval bound of g_i over the box, used for safe rho headroom.
        self.row_hi = _coupling_box_max(agent) + agent.coupling.vec

    def shape_key(self) -> tuple:
        f = self.form
        fixed = np.abs(f.ub - f.lb) <= _FIX_TOL
        return (f.dim,
                0 if f.A_eq is None else f.A_eq.shape[0],
                0 if f.A_in is None else f.A_in.shape[0],
                fixed.tobytes())


def _rho_headroom(row_hi: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Upper bound of rho that no optimum reaches, per row of ``shift``."""
    return np.maximum(0.0, (row_hi + shift).max(axis=-1)) + 1.0


class _Group(NamedTuple):
    """Agents whose relaxed local QPs share one dense shape, solved as one
    batch, with their coupling data stacked in batch order."""

    batch: QpBatch
    agents: list[int]
    coupling_vec: np.ndarray  # (k, S)
    row_hi: np.ndarray        # (k, S)
    coupling_rows: np.ndarray  # the same in every element
    rho_col: int


class LocalSolverPool:
    """Solves the relaxed local problems of all agents each round, batching
    agents whose lifted QPs share one dense shape.  Agents of one group
    may differ in their primary dimension."""

    def __init__(self, problem: ConstraintCoupledProblem, M: float,
                 tol: float = 1e-9):
        self.tol = tol
        self.templates = [_RelaxedLocal(a, M) for a in problem.agents]
        groups: dict[tuple, list[int]] = {}
        for i, tpl in enumerate(self.templates):
            groups.setdefault(tpl.shape_key(), []).append(i)
        self.groups = []
        for idx in groups.values():
            tpls = [self.templates[i] for i in idx]
            self.groups.append(_Group(
                QpBatch([t.form for t in tpls]), idx,
                np.stack([t.agent.coupling.vec for t in tpls]),
                np.stack([t.row_hi for t in tpls]),
                tpls[0].coupling_idx, tpls[0].rho_col))

    def solve_all(self, shifts: np.ndarray) -> list[LocalStepResult]:
        """One round's local steps at the (N, S) edge-variable ``shifts``.

        A failed local QP is re-raised with the agent it belongs to.
        """
        out: list[LocalStepResult | None] = [None] * len(self.templates)
        for g in self.groups:
            shift = shifts[g.agents]
            g.batch.b_in[:, g.coupling_rows] = -(g.coupling_vec + shift)
            g.batch.ub[:, g.rho_col] = _rho_headroom(g.row_hi, shift)
            try:
                sols = g.batch.solve(tol=self.tol, warm=True)
            except QpError as exc:
                if exc.element is not None:
                    exc.agent = g.agents[exc.element]
                raise
            for i, sol in zip(g.agents, sols):
                out[i] = LocalStepResult(
                    x=sol.x[:self.templates[i].agent.dim],
                    rho=float(sol.x[g.rho_col]),
                    mu=sol.ineq_mult[g.coupling_rows],
                    objective=sol.objective)
        return out  # type: ignore[return-value]


def _combine_shift(lambda_out: dict[int, np.ndarray],
                   lambda_in: dict[int, np.ndarray], s_dim: int) -> np.ndarray:
    if set(lambda_out) != set(lambda_in):
        raise ValueError("lambda_out and lambda_in must cover the same neighbors")
    shift = np.zeros(s_dim)
    for j in sorted(lambda_out):
        shift += np.asarray(lambda_out[j], dtype=float) - np.asarray(lambda_in[j], dtype=float)
    return shift


def local_step(agent: AgentProblem, lambda_out: dict[int, np.ndarray],
               lambda_in: dict[int, np.ndarray], M: float,
               tol: float = 1e-9) -> tuple[np.ndarray, float, np.ndarray]:
    """Solve one agent's relaxed local problem.

    Parameters
    ----------
    agent : AgentProblem
    lambda_out, lambda_in : dict
        Edge variables lambda_ij owned by the agent and lambda_ji received
        from each neighbor j; the two dicts must cover the same neighbors.
    M : float
        Relaxation price; must exceed the optimal dual's 1-norm for the
        method's guarantees to apply.
    tol : float
        KKT tolerance for the local solve.

    Returns
    -------
    (x, rho, mu)
        Local minimizer, relaxation level, and the coupling-row multiplier.
        rho settles at max(0, max_s (g_i(x) + shift)_s); mu is nonnegative
        with mu.sum() <= M, and mu.sum() == M whenever rho > 0.
    """
    s_dim = agent.coupling.mat.shape[0]
    shift = _combine_shift(lambda_out, lambda_in, s_dim)
    tpl = _RelaxedLocal(agent, M)
    tpl.form.b_in[tpl.coupling_idx] = -(agent.coupling.vec + shift)
    tpl.form.ub[tpl.rho_col] = _rho_headroom(tpl.row_hi, shift)
    sol = solve_qp(tpl.form, tol=tol, validate=False)
    return sol.x[:agent.dim], float(sol.x[tpl.rho_col]), sol.ineq_mult[tpl.coupling_idx]


def q_i_eval(agent: AgentProblem, mu: np.ndarray,
             tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Ordinary dual term q_i(mu) = min over X_i of f_i(x) + mu' g_i(x).

    Returns the value and a minimizer.  Concave in mu; q_i(0) is the
    agent's unconstrained-over-X_i best cost.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    base = lift_hinges(agent)
    c = base.c.copy()
    c[:agent.dim] += agent.coupling.mat.T @ mu
    form = dataclasses.replace(base, c=c,
                               offset=base.offset + float(mu @ agent.coupling.vec))
    sol = solve_qp(form, tol=tol, validate=False)
    return sol.objective, sol.x[:agent.dim].copy()


def eta_i_value(agent: AgentProblem, x: np.ndarray, rho: float, M: float) -> float:
    """Value f_i(x) + M * rho of a local-step result; with the optimal
    (x, rho) this equals the agent's term of the second dual function."""
    return agent.cost(x) + M * float(rho)
