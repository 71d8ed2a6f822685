"""Centralized reference solutions.

Stacks all agents into one coupled QP to get the true optimum f*, the
coupling multipliers mu* (an optimal dual point), and an M suggestion for
the distributed method; solves the relaxed variant with an explicit price
on violation; and evaluates the dual function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .problem_model import (ConstraintCoupledProblem, _coupled_form,
                            _coupling_hi, _rho_headroom, problem_hash)
from .qp_solver import QpBatch, QpError, _opposite_pairs, lift_hinges, solve_qp

@dataclass
class OracleResult:
    """Centralized optimum: per-agent minimizers, optimal cost, coupling
    multipliers, and the derived relaxation-price suggestion."""

    xs: list[np.ndarray]
    f_star: float
    mu_star: np.ndarray
    problem_hash: str
    suggested_m: float

    @property
    def x(self) -> np.ndarray:
        return np.concatenate(self.xs)

    def to_dict(self) -> dict:
        return {"format": "rsdd-oracle", "version": 1,
                "problem_hash": self.problem_hash,
                "x": [x.tolist() for x in self.xs],
                "f_star": self.f_star,
                "mu_star": self.mu_star.tolist(),
                "suggested_m": self.suggested_m}

    @staticmethod
    def from_dict(doc: dict) -> "OracleResult":
        if doc.get("format") != "rsdd-oracle":
            raise ValueError("not an oracle result document")
        return OracleResult(
            xs=[np.asarray(v, dtype=float) for v in doc["x"]],
            f_star=float(doc["f_star"]),
            mu_star=np.asarray(doc["mu_star"], dtype=float),
            problem_hash=doc["problem_hash"],
            suggested_m=float(doc["suggested_m"]))


@dataclass
class RelaxedResult:
    """Optimum of the relaxed problem min sum f_i + M rho subject to
    sum g_i <= rho 1.  A positive rho certifies that M does not exceed
    the 1-norm of any optimal multiplier of the original problem."""

    xs: list[np.ndarray]
    rho: float
    cost: float
    restriction_binding: bool


def suggest_m(mu_star: np.ndarray) -> float:
    """Relaxation price with a 10x margin over the observed dual 1-norm.

    The method's guarantees need M strictly larger than the 1-norm of some
    optimal multiplier; multipliers may be non-unique, and the margin
    absorbs that in practice.
    """
    return 10.0 * (float(np.abs(np.asarray(mu_star)).sum()) + 1.0)


def solve_centralized(problem: ConstraintCoupledProblem,
                      tol: float = 1e-8) -> OracleResult:
    """Solve the full problem as one QP; the coupling-row multipliers are
    an optimal dual point by strong duality.  ``mu_star`` is as solved;
    the M suggestion first takes the smaller multiplier of each pair of
    opposite rows (an equality written as two rows) off both, which leaves
    an optimal dual point."""
    form, x_slices = _coupled_form(problem.agents,
                                   [lift_hinges(a) for a in problem.agents])
    sol = solve_qp(form, tol=tol, validate=False)
    xs = [sol.x[sl].copy() for sl in x_slices]
    mu_star = sol.ineq_mult[-problem.coupling_dim:].copy()
    mu_net = mu_star.copy()
    for j, k in _opposite_pairs([a.coupling.mat[None] for a in problem.agents]):
        mu_net[[j, k]] -= min(mu_net[j], mu_net[k])
    return OracleResult(xs=xs, f_star=problem.total_cost(xs),
                        mu_star=mu_star,
                        problem_hash=problem_hash(problem),
                        suggested_m=suggest_m(mu_net))


def solve_relaxed_centralized(problem: ConstraintCoupledProblem, M: float,
                              tol: float = 1e-8) -> RelaxedResult:
    """Solve the relaxed problem with violation priced at M.

    When M exceeds the 1-norm of an optimal multiplier of the original
    problem, the optimum has rho = 0 and the same cost; a positive rho
    therefore flags that M was chosen too small.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    headroom = _rho_headroom(_coupling_hi(problem.agents), 0.0)
    form, x_slices = _coupled_form(problem.agents,
                                   [lift_hinges(a) for a in problem.agents],
                                   extra=(M, 0.0, headroom))
    sol = solve_qp(form, tol=tol, validate=False)
    xs = [sol.x[sl].copy() for sl in x_slices]
    rho = float(sol.x[-1])
    return RelaxedResult(xs=xs, rho=rho,
                         cost=problem.total_cost(xs) + M * rho,
                         restriction_binding=rho > 1e-6)


def dual_terms(problem: ConstraintCoupledProblem, mus,
               tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's ordinary dual term q_i(mu) = min over X_i of
    f_i + mu'g_i at each row mu >= 0 of the (K, S) array ``mus``.

    Returns q, (K, N) with q[k, i] = q_i(mus[k]), and the minimizers x,
    (K, sum of the agents' dims) in agent order; the dual function is
    q(mu) = sum_i q_i(mu).  All N * K forms are solved as one batch, whose
    solution's objective and x arrays are read as whole arrays, and a
    failed QP is re-raised with the agent it belongs to.
    """
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 2 or mus.shape[1] != problem.coupling_dim:
        raise ValueError(f"each multiplier must have {problem.coupling_dim} entries")
    if np.any(mus < 0):
        raise ValueError("multipliers must be nonnegative")
    agents = problem.agents
    K = mus.shape[0]
    forms = []
    for a in agents:
        base = lift_hinges(a)
        for mu in mus:
            c = base.c.copy()
            c[:a.dim] += a.coupling.mat.T @ mu
            forms.append(replace(base, c=c,
                                 offset=base.offset + float(mu @ a.coupling.vec)))
    dims = [a.dim for a in agents]
    if not forms:
        return np.empty((K, len(agents))), np.empty((K, sum(dims)))
    try:
        sol = QpBatch(forms, validate=False).solve(tol=tol)
    except QpError as exc:
        if exc.element is not None:
            exc.agent = exc.element // K
        raise
    # Element i K + k is agent i at mus[k]; x_i is its first dim_i entries.
    element = np.repeat(np.arange(len(agents)) * K, dims) + np.arange(K)[:, None]
    column = np.concatenate([np.arange(d) for d in dims])
    return sol.objective.reshape(len(agents), K).T.copy(), sol.x[element, column]
