"""Output checks computed apart from the program.

Nothing here calls rsdd's solvers, metrics, checker or trace reader.  Saved
traces are parsed as plain JSON, costs and coupling terms are evaluated from
the problem data with numpy, and reference optima come from scipy's SLSQP,
with hinge costs lifted to epigraph variables in this file.  Every function
returns a list of findings; an empty list means the check passed.
"""

from __future__ import annotations

import json

import numpy as np

FEAS_SLACK = 1e-6       # sum_i g_i(x_i) <= sum(rho) * 1, the program checker's slack
MU_CAP_SLACK = 1e-8     # mu_i . 1 <= M
MU_NEG_TOL = 1e-9       # mu >= 0
EDGE_TOL = 1e-9         # sum_i sum_j (lambda_ij - lambda_ji) = 0 and the update replay
POINT_TOL = 1e-7        # recorded local point inside its local set
VALUE_RTOL = 1e-6       # f_i(x) + M rho against the scipy optimum
KKT_TOL = 1e-6          # oracle coupling feasibility and complementarity
# The oracle meets tol 1e-8 with complementarity measured as the product
# multiplier * slack, which lets a variable sit up to sqrt(1e-8) from a bound
# it is pressed against; the projection residual is the smaller of the two.
PROJ_TOL = 1e-4


def cost(agent, x: np.ndarray) -> float:
    val = 0.5 * x @ agent.cost_quadratic @ x + agent.cost_linear @ x + agent.cost_constant
    for h in agent.cost_hinges:
        val += h.scale * max(0.0, h.coeffs @ x + h.offset)
    return float(val)


def usage(agent, x: np.ndarray) -> np.ndarray:
    return agent.coupling.mat @ x + agent.coupling.vec


class RawTrace:
    """The arrays of a saved trace file, read with ``json`` alone."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.status = doc["status"]
        self.edges = [tuple(e) for e in doc["graph"]["edges"]]
        snaps = doc["snapshots"]
        self.t = [s["t"] for s in snaps]
        self.x = [[np.asarray(v, dtype=float) for v in s["x"]] for s in snaps]
        self.rho = [np.asarray(s["rho"], dtype=float) for s in snaps]
        self.mu = [np.asarray(s["mu"], dtype=float) for s in snaps]
        self.lam = [{tuple(int(k) for k in key.split(",")): np.asarray(v, dtype=float)
                     for key, v in s["lambda"].items()} for s in snaps]

    def shifts(self, k: int, n_agents: int, s_dim: int) -> np.ndarray:
        """sum_j (lambda_ij - lambda_ji) over agent i's neighbors at snapshot k."""
        out = np.zeros((n_agents, s_dim))
        lam = self.lam[k]
        for i, j in self.edges:
            d = lam[(i, j)] - lam[(j, i)]
            out[i] += d
            out[j] -= d
        return out


def trace_properties(raw: RawTrace, problem, m_price: float, gamma0: float,
                     exponent: float) -> list[str]:
    """Relaxed feasibility, mu >= 0, mu . 1 <= M, edge balance and the edge
    update rule, for every snapshot of the trace."""
    found = []
    s_dim = problem.coupling_dim
    directed = {(i, j) for i, j in raw.edges} | {(j, i) for i, j in raw.edges}
    for k, t in enumerate(raw.t):
        if set(raw.lam[k]) != directed:
            found.append(f"t={t}: edge variables do not cover the graph's directed edges")
            continue
        total = sum(usage(a, x) for a, x in zip(problem.agents, raw.x[k]))
        excess = float((total - raw.rho[k].sum()).max())
        if excess > FEAS_SLACK:
            found.append(f"t={t}: sum g exceeds sum rho by {excess:.3e}")
        if raw.mu[k].min() < -MU_NEG_TOL:
            found.append(f"t={t}: negative multiplier {raw.mu[k].min():.3e}")
        cap = float(raw.mu[k].sum(axis=1).max())
        if cap > m_price + MU_CAP_SLACK:
            found.append(f"t={t}: mu . 1 = {cap:.10g} above M = {m_price:g}")
        net = np.abs(raw.shifts(k, problem.n_agents, s_dim).sum(axis=0)).max()
        if net > EDGE_TOL:
            found.append(f"t={t}: sum of lambda_ij - lambda_ji is {net:.3e}")
        if k:
            gamma = gamma0 / raw.t[k] ** exponent   # step of round t-1
            mu = raw.mu[k - 1]
            worst = max(float(np.abs(v - (raw.lam[k - 1][(i, j)]
                                          - gamma * (mu[i] - mu[j]))).max())
                        for (i, j), v in raw.lam[k].items())
            if worst > EDGE_TOL:
                found.append(f"t={t}: edge update replay differs by {worst:.3e}")
    return found


def _lifted_local(agent, shift: np.ndarray | None, m_price: float):
    """The relaxed local problem over z = (x, e, rho), hinges lifted to e.

    Returns (objective, gradient, linear constraints for SLSQP, bounds,
    start point).  With ``shift`` None there is no relaxation variable and
    no coupling row.
    """
    n = agent.dim
    hinges = agent.cost_hinges
    k = len(hinges)
    relaxed = shift is not None
    size = n + k + (1 if relaxed else 0)
    Q, c, ls = agent.cost_quadratic, agent.cost_linear, agent.local_set
    lin = np.zeros(size)
    lin[n:n + k] = [h.scale for h in hinges]
    if relaxed:
        lin[-1] = m_price

    def fun(z):
        x = z[:n]
        return 0.5 * x @ Q @ x + c @ x + lin[n:] @ z[n:] + agent.cost_constant

    def jac(z):
        g = lin.copy()
        g[:n] += Q @ z[:n] + c
        return g

    rows, rhs = [], []          # rows @ z <= rhs
    if ls.a_in is not None:
        block = np.zeros((ls.a_in.shape[0], size))
        block[:, :n] = ls.a_in
        rows.append(block)
        rhs.append(ls.b_in)
    for j, h in enumerate(hinges):
        row = np.zeros((1, size))
        row[0, :n] = h.coeffs
        row[0, n + j] = -1.0
        rows.append(row)
        rhs.append([-h.offset])
    if relaxed:
        block = np.zeros((agent.coupling.mat.shape[0], size))
        block[:, :n] = agent.coupling.mat
        block[:, -1] = -1.0
        rows.append(block)
        rhs.append(-(agent.coupling.vec + shift))
    cons = []
    if rows:
        G, h = np.concatenate(rows), np.concatenate(rhs)
        cons.append({"type": "ineq", "fun": lambda z: h - G @ z, "jac": lambda z: -G})
    if ls.a_eq is not None:
        A = np.zeros((ls.a_eq.shape[0], size))
        A[:, :n] = ls.a_eq
        cons.append({"type": "eq", "fun": lambda z: A @ z - ls.b_eq, "jac": lambda z: A})
    bounds = list(zip(ls.lb, ls.ub)) + [(0.0, None)] * (size - n)
    x0 = 0.5 * (ls.lb + ls.ub)
    z0 = np.zeros(size)
    z0[:n] = x0
    z0[n:n + k] = [max(0.0, h.coeffs @ x0 + h.offset) for h in hinges]
    if relaxed:
        z0[-1] = max(0.0, float((usage(agent, x0) + shift).max()))
    return fun, jac, cons, bounds, z0


def _slsqp(fun, jac, cons, bounds, z0):
    from scipy.optimize import minimize

    return minimize(fun, z0, jac=jac, method="SLSQP", bounds=bounds,
                    constraints=cons, options={"ftol": 1e-10, "maxiter": 2000})


def _point_in_local_set(agent, x: np.ndarray) -> float:
    ls = agent.local_set
    worst = max(float((ls.lb - x).max()), float((x - ls.ub).max()))
    if ls.a_in is not None:
        worst = max(worst, float((ls.a_in @ x - ls.b_in).max()))
    if ls.a_eq is not None:
        worst = max(worst, float(np.abs(ls.a_eq @ x - ls.b_eq).max()))
    return worst


def local_resolves(raw: RawTrace, problem, m_price: float,
                   pairs: list[tuple[int, int]]) -> list[str]:
    """Re-solve the relaxed local QP of each sampled (snapshot, agent) pair
    at its recorded shift and compare f_i(x) + M rho with the scipy value."""
    found = []
    for k, i in pairs:
        t = raw.t[k]
        agent = problem.agents[i]
        shift = raw.shifts(k, problem.n_agents, problem.coupling_dim)[i]
        x, rho = raw.x[k][i], float(raw.rho[k][i])
        outside = _point_in_local_set(agent, x)
        below = float((usage(agent, x) + shift).max()) - rho
        if outside > POINT_TOL or rho < -POINT_TOL or below > POINT_TOL:
            found.append(f"t={t} agent {i}: recorded point infeasible "
                         f"(local {outside:.2e}, rho {rho:.2e}, coupling {below:.2e})")
            continue
        res = _slsqp(*_lifted_local(agent, shift, m_price))
        # SLSQP's exit flag and lifted variables are not trusted: near the
        # optimum it often stops with "Positive directional derivative for
        # linesearch" and rho a few 1e-6 short of its coupling row.  Its x is
        # kept when it lies in the local set, and the reference value is the
        # exact relaxed objective there, with rho and the hinges at their
        # least feasible values: the value of a feasible point.
        x_ref = res.x[:agent.dim]
        off = _point_in_local_set(agent, x_ref)
        if off > POINT_TOL:
            found.append(f"t={t} agent {i}: scipy reference outside the local set by "
                         f"{off:.2e} ({res.message})")
            continue
        ref = cost(agent, x_ref) + m_price * max(0.0, float((usage(agent, x_ref)
                                                            + shift).max()))
        value = cost(agent, x) + m_price * rho
        gap = abs(value - ref) / max(1.0, abs(ref))
        if gap > VALUE_RTOL:
            found.append(f"t={t} agent {i}: f+M*rho = {value:.12g}, scipy "
                         f"{ref:.12g} (relative gap {gap:.2e}; {res.message})")
    return found


def box_only(problem) -> bool:
    return all(a.local_set.a_in is None and a.local_set.a_eq is None
               and not a.cost_hinges for a in problem.agents)


def oracle_kkt(problem, xs: list[np.ndarray], f_star: float,
               mu_star: np.ndarray) -> list[str]:
    """KKT conditions of the stacked problem at (x*, mu*) for box-only
    agents: x_i = P_box(x_i - grad_i) with grad_i = Q x_i + c + A_i' mu*,
    sum g_i(x_i) <= 0, mu* >= 0, mu*_s (sum g)_s = 0, and f* = sum f_i."""
    found = []
    worst = 0.0
    for a, x in zip(problem.agents, xs):
        grad = a.cost_quadratic @ x + a.cost_linear + a.coupling.mat.T @ mu_star
        proj = np.clip(x - grad, a.local_set.lb, a.local_set.ub)
        worst = max(worst, float(np.abs(x - proj).max()))
    if worst > PROJ_TOL:
        found.append(f"oracle: box-projection residual {worst:.3e}")
    total = sum(usage(a, x) for a, x in zip(problem.agents, xs))
    if total.max() > KKT_TOL:
        found.append(f"oracle: coupling violated by {total.max():.3e}")
    if mu_star.min() < -MU_NEG_TOL:
        found.append(f"oracle: negative multiplier {mu_star.min():.3e}")
    if np.abs(mu_star * total).max() > KKT_TOL:
        found.append(f"oracle: complementarity {np.abs(mu_star * total).max():.3e}")
    recomputed = sum(cost(a, x) for a, x in zip(problem.agents, xs))
    if abs(recomputed - f_star) > 1e-9 * max(1.0, abs(f_star)):
        found.append(f"oracle: f* {f_star:.12g} but sum f_i(x*) = {recomputed:.12g}")
    return found


def scipy_optimum(problem) -> tuple[float, list[str]]:
    """Optimal value of the stacked coupled problem by SLSQP."""
    parts = [_lifted_local(a, None, 0.0) for a in problem.agents]
    sizes = [len(p[4]) for p in parts]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    n_total = int(offs[-1])

    def fun(z):
        return sum(p[0](z[offs[k]:offs[k + 1]]) for k, p in enumerate(parts))

    def jac(z):
        return np.concatenate([p[1](z[offs[k]:offs[k + 1]]) for k, p in enumerate(parts)])

    coupling = np.zeros((problem.coupling_dim, n_total))
    vec = np.zeros(problem.coupling_dim)
    for k, a in enumerate(problem.agents):
        coupling[:, offs[k]:offs[k] + a.dim] = a.coupling.mat
        vec += a.coupling.vec
    cons = [{"type": "ineq", "fun": lambda z: -(coupling @ z + vec),
             "jac": lambda z: -coupling}]
    for k, p in enumerate(parts):
        for con in p[2]:
            sl = slice(offs[k], offs[k + 1])
            block = np.zeros((len(con["fun"](p[4])), n_total))
            block[:, sl] = con["jac"](p[4])
            cons.append({"type": con["type"],
                         "fun": lambda z, f=con["fun"], sl=sl: f(z[sl]),
                         "jac": lambda z, b=block: b})
    bounds = [b for p in parts for b in p[3]]
    res = _slsqp(fun, jac, cons, bounds, np.concatenate([p[4] for p in parts]))
    return float(res.fun), ([] if res.success else [f"scipy optimum failed ({res.message})"])
