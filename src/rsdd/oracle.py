"""Centralized reference solutions.

Stacks all agents into one QP to get the true optimum f*, the coupling
multipliers mu* (an optimal dual point), and an M suggestion for the
distributed method; solves the relaxed variant with an explicit price on
violation; evaluates the dual function; and, for tiny instances, verifies
everything against an exhaustive grid search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import q_i_eval
from .problem_model import (ConstraintCoupledProblem, _coupled_form,
                            _coupling_hi, _rho_headroom, problem_hash)
from .qp_solver import lift_hinges, solve_qp

_GRID_CAP = 10_000_000


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


@dataclass
class BruteForceResult:
    x: np.ndarray
    cost: float
    spacing: float
    status: str  # "optimal" | "no feasible grid point"


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
