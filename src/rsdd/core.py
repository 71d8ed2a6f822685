"""Per-agent operations of the relaxation-based dual decomposition method.

Each round, every agent solves its relaxed local problem

    minimize    f_i(x) + M * rho
    subject to  x in X_i,  rho >= 0,
                g_i(x) + sum_j (lambda_ij - lambda_ji) <= rho * 1

and returns the primal pair (x, rho) together with the multiplier mu_i of
the coupling rows.  Edge variables are then nudged by
lambda_ij <- lambda_ij - gamma_t * (mu_i - mu_j) under a diminishing step
size; ``Graph.edge_step`` applies that update and ``Graph.shifts`` sums
each agent's shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .problem_model import (AgentProblem, ConstraintCoupledProblem,
                            _coupled_form, _coupling_hi, _rho_headroom, lift_hinges)
from .qp_solver import QpBatch, QpError


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
        if schedule.values is None or t >= schedule.values.size:
            raise ValueError(f"explicit step-size sequence exhausted at t={t}")
        return float(schedule.values[t])
    raise ValueError(f"unknown schedule kind '{schedule.kind}'")


_STOP_VIOLATION = 1e-6
_STOP_SUM_RHO = 1e-6
_STOP_COST_CHANGE = 1e-8
_STOP_WINDOW = 100
_SOLVER_TOL = 1e-9


@dataclass
class AlgorithmConfig:
    """Run parameters.

    ``max_iters`` counts edge-variable updates; a finished run records
    max_iters + 1 rounds (the initial one plus one per update).
    ``lambda_init`` maps directed edges (i, j) to starting values; omitted
    edges start at zero.  ``enable_early_stop`` turns on the early-stop
    rule, whose tolerances are the module's ``_STOP_*`` constants;
    ``to_dict`` records them and ``_SOLVER_TOL`` with the run.
    """

    M: float
    schedule: StepSizeSchedule = field(default_factory=harmonic_schedule)
    max_iters: int = 1000
    lambda_init: dict[tuple[int, int], np.ndarray] | None = None
    enable_early_stop: bool = True

    def to_dict(self) -> dict:
        return {"M": self.M, "schedule": self.schedule.to_dict(),
                "max_iters": self.max_iters,
                "stop_violation": _STOP_VIOLATION,
                "stop_sum_rho": _STOP_SUM_RHO,
                "stop_cost_change": _STOP_COST_CHANGE,
                "stop_window": _STOP_WINDOW,
                "enable_early_stop": self.enable_early_stop,
                "solver_tol": _SOLVER_TOL}


class LocalSolverPool:
    """Solves the relaxed local problems of all agents each round, as one
    ``QpBatch`` whose element k is agent k's QP, whatever its shape.

    Agent i's relaxed local problem is the relaxed problem of agent i
    alone: its hinge-lifted QP, the relaxation variable rho last, and the S
    coupling rows last, their right-hand side moved by the edge shift.
    ``solve_all`` reads each round's x_i, rho_i and mu_i from the arrays
    of the batch's solution, certified at ``_SOLVER_TOL`` (a trace's
    ``solver_tol``): the first round cold, each later one warm.
    ``groups`` holds the one (batch, agents) pair, for callers that map a
    batch element to its agent.
    """

    def __init__(self, problem: ConstraintCoupledProblem, M: float):
        if M <= 0:
            raise ValueError("M must be positive")
        agents = problem.agents
        self.dims = [a.dim for a in agents]
        self._coupling_vec = np.stack([a.coupling.vec for a in agents])
        self._row_hi = np.stack([_coupling_hi([a]) for a in agents])
        forms = [_coupled_form([a], [lift_hinges(a)],
                               extra=(M, 0.0, _rho_headroom(hi, 0.0)))[0].dense()
                 for a, hi in zip(agents, self._row_hi)]
        self.batch = QpBatch(forms)
        self.groups = [(self.batch, list(range(len(agents))))]
        # Each agent's coupling rows are its last S inequality rows and rho
        # is its last variable.  They sit in the batch's rows, where the
        # right-hand sides and rho's upper bound are written, and in the
        # solution's elements, agent by agent, where mu and rho are read.
        s_dim = problem.coupling_dim
        rows, agent = self.batch.row, np.arange(len(agents))
        coupling = np.array([[f.b_in.size - s_dim] for f in forms]) + np.arange(s_dim)
        last = np.array([f.dim - 1 for f in forms])
        self._rhs_at, self._ub_at = (rows[:, None], coupling), (rows, last)
        self._mu_at, self._rho_at = (agent[:, None], coupling), (agent, last)

    def solve_all(self, shifts: np.ndarray
                  ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """One round's local steps at the (N, S) edge-variable ``shifts``:
        (xs, rho, mu), the list of each agent's x_i, the (N,) relaxation
        levels and the (N, S) coupling-row multipliers.

        The x_i are views of the batch solution's x, new on every solve;
        rho and mu are gathered from its arrays by index arrays built once.
        Nothing returned shares memory with the batch or a later round.
        A failed local QP is re-raised with the agent it belongs to.
        """
        self.batch.b_in[self._rhs_at] = -(self._coupling_vec + shifts)
        self.batch.ub[self._ub_at] = _rho_headroom(self._row_hi, shifts)
        try:
            sol = self.batch.solve(tol=_SOLVER_TOL)
        except QpError as exc:
            exc.agent = exc.element
            raise
        return ([sol.x[i, :d] for i, d in enumerate(self.dims)], sol.x[self._rho_at],
                sol.ineq_mult[self._mu_at])


def local_step(agent: AgentProblem, shift: np.ndarray, M: float
               ) -> tuple[np.ndarray, float, np.ndarray]:
    """Solve one agent's relaxed local problem, cold, at ``run``'s local
    step tolerance ``_SOLVER_TOL`` (a trace's ``solver_tol``).

    Parameters
    ----------
    agent : AgentProblem
    shift : array of shape (S,)
        The agent's aggregate edge shift sum_j (lambda_ij - lambda_ji), the
        agent's row of ``Graph.shifts``; it moves the coupling rows'
        right-hand side.
    M : float
        Relaxation price; must exceed the optimal dual's 1-norm for the
        method's guarantees to apply.

    Returns
    -------
    (x, rho, mu)
        Local minimizer, relaxation level, and the coupling-row multiplier.
        rho settles at max(0, max_s (g_i(x) + shift)_s); mu is nonnegative
        with mu.sum() <= M, and mu.sum() == M whenever rho > 0.
    """
    s_dim = agent.coupling.mat.shape[0]
    pool = LocalSolverPool(ConstraintCoupledProblem([agent], s_dim), M)
    xs, rho, mu = pool.solve_all(np.asarray(shift, dtype=float)[None])
    return xs[0], float(rho[0]), mu[0]
