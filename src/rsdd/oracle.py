"""Centralized reference solutions.

Stacks all agents into one coupled QP to get the true optimum f*, the
coupling multipliers mu* (an optimal dual point), and an M suggestion for
the distributed method; solves the relaxed variant with an explicit price
on violation; and evaluates the dual function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import q_i_eval
from .problem_model import (ConstraintCoupledProblem, _coupled_form,
                            _coupling_hi, _rho_headroom, problem_hash)
from .qp_solver import lift_hinges, solve_qp

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
    an optimal dual point by strong duality."""
    form, x_slices = _coupled_form(problem.agents,
                                   [lift_hinges(a) for a in problem.agents])
    sol = solve_qp(form, tol=tol, validate=False)
    xs = [sol.x[sl].copy() for sl in x_slices]
    mu_star = sol.ineq_mult[-problem.coupling_dim:].copy()
    return OracleResult(xs=xs, f_star=problem.total_cost(xs),
                        mu_star=mu_star,
                        problem_hash=problem_hash(problem),
                        suggested_m=suggest_m(mu_star))


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


def dual_value(problem: ConstraintCoupledProblem, mu,
               tol: float = 1e-8) -> float:
    """Dual function q(mu) = sum_i min over X_i of f_i + mu' g_i."""
    mu = np.asarray(mu, dtype=float).ravel()
    if mu.shape != (problem.coupling_dim,):
        raise ValueError(f"mu must have {problem.coupling_dim} entries")
    if np.any(mu < 0):
        raise ValueError("mu must be nonnegative")
    return sum(q_i_eval(a, mu, tol=tol)[0] for a in problem.agents)


def restricted_dual_value(problem: ConstraintCoupledProblem, mu,
                          M: float, tol: float = 1e-8) -> float:
    """q(mu) on the restricted domain mu >= 0, mu.1 <= M; -inf outside."""
    mu = np.asarray(mu, dtype=float).ravel()
    if np.any(mu < 0):
        raise ValueError("mu must be nonnegative")
    if mu.sum() > M:
        return float("-inf")
    return dual_value(problem, mu, tol=tol)
