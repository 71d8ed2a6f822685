"""Data model for constraint-coupled convex programs.

N agents each own a private decision vector x_i, a quadratic-plus-hinge
convex cost, a compact local set (finite box plus optional linear
equalities and inequalities) and an affine coupling map
g_i(x_i) = A_i x_i + b_i into a shared S-dimensional resource space.
Jointly the agents face

    minimize    sum_i f_i(x_i)
    subject to  x_i in X_i for all i,    sum_i g_i(x_i) <= 0.

Costs and constraints are stored symbolically so f_i and g_i can be
evaluated exactly by metrics and oracles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .qp_solver import (CoupledForm, QpBatch, QpError, QpInfeasibleError,
                        QpStandardForm, solve_qp)

_SLATER_MARGIN = 1e-8
_FEAS_TOL = 1e-6


class ProblemFormatError(ValueError):
    """A problem or config document failed to parse; names the offending field."""


@dataclass
class Hinge:
    """One cost term scale * max(0, coeffs'x + offset), scale >= 0."""

    scale: float
    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        self.scale = float(self.scale)
        self.coeffs = np.asarray(self.coeffs, dtype=float).ravel()
        self.offset = float(self.offset)

    def value(self, x: np.ndarray) -> float:
        return self.scale * max(0.0, float(self.coeffs @ x) + self.offset)


@dataclass
class AffineMap:
    """x -> mat @ x + vec."""

    mat: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        self.mat = np.atleast_2d(np.asarray(self.mat, dtype=float))
        self.vec = np.asarray(self.vec, dtype=float).ravel()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x + self.vec


@dataclass
class LocalSet:
    """Finite box with optional linear equalities and inequalities."""

    lb: np.ndarray
    ub: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_in: np.ndarray | None = None
    b_in: np.ndarray | None = None

    def __post_init__(self):
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        if self.a_in is not None:
            self.a_in = np.atleast_2d(np.asarray(self.a_in, dtype=float))
            self.b_in = np.asarray(self.b_in, dtype=float).ravel()

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        ok = np.all(x >= self.lb - tol) and np.all(x <= self.ub + tol)
        if ok and self.a_eq is not None:
            ok = np.abs(self.a_eq @ x - self.b_eq).max() <= tol
        if ok and self.a_in is not None:
            ok = (self.a_in @ x - self.b_in).max() <= tol
        return bool(ok)


@dataclass
class AgentProblem:
    """One agent: private cost, compact local set, affine coupling map."""

    dim: int
    cost_quadratic: np.ndarray
    cost_linear: np.ndarray
    local_set: LocalSet
    coupling: AffineMap
    cost_hinges: list[Hinge] = field(default_factory=list)
    cost_constant: float = 0.0

    def __post_init__(self):
        self.dim = _integer(self.dim, "dim")
        self.cost_quadratic = np.atleast_2d(np.asarray(self.cost_quadratic, dtype=float))
        self.cost_linear = np.asarray(self.cost_linear, dtype=float).ravel()
        self.cost_constant = float(self.cost_constant)

    def cost(self, x: np.ndarray) -> float:
        """Exact cost f_i(x); hinge terms evaluated symbolically."""
        x = np.asarray(x, dtype=float)
        val = 0.5 * float(x @ self.cost_quadratic @ x) + float(self.cost_linear @ x)
        val += self.cost_constant
        for hinge in self.cost_hinges:
            val += hinge.value(x)
        return val

    def g(self, x: np.ndarray) -> np.ndarray:
        """Coupling contribution g_i(x) = A_i x + b_i."""
        return self.coupling(np.asarray(x, dtype=float))


@dataclass
class ConstraintCoupledProblem:
    """The joint problem; slater_point, when given, certifies strict
    feasibility of the coupling constraint."""

    agents: list[AgentProblem]
    coupling_dim: int
    slater_point: list[np.ndarray] | None = None

    def __post_init__(self):
        self.coupling_dim = _integer(self.coupling_dim, "coupling_dim")
        if self.slater_point is not None:
            self.slater_point = [np.asarray(v, dtype=float).ravel()
                                 for v in self.slater_point]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def total_cost(self, xs: list[np.ndarray]) -> float:
        return sum(a.cost(x) for a, x in zip(self.agents, xs))

    def coupling_total(self, xs: list[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.coupling_dim)
        for a, x in zip(self.agents, xs):
            out += a.g(x)
        return out


def agent_values(problem: ConstraintCoupledProblem,
                 xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g_i(x_i) and f_i(x_i) of every agent at every row of ``xs``.

    Row t of ``xs`` holds x_1, ..., x_N side by side, so ``xs`` has shape
    (T, sum_i dim_i).  Returns g of shape (T, N, S) and f of shape (T, N),
    bit-identical to ``AgentProblem.g`` and ``.cost`` row by row: agents of
    one ``dim`` are stacked, and every product is a batched ``@`` taken in
    the order those methods take it (a reordered sum such as an einsum
    rounds differently).
    """
    agents = problem.agents
    starts = np.cumsum([0] + [a.dim for a in agents])
    g = np.empty((xs.shape[0], len(agents), problem.coupling_dim))
    f = np.empty((xs.shape[0], len(agents)))
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(agents):
        groups.setdefault(a.dim, []).append(i)
    for dim, members in groups.items():
        group = [agents[i] for i in members]
        # (T, n, dim), C-contiguous: BLAS rounds a strided dot differently.
        x = np.ascontiguousarray(xs[:, starts[members][:, None] + np.arange(dim)])
        col = x[..., :, None]
        g[:, members] = (np.stack([a.coupling.mat for a in group]) @ col)[..., 0] \
            + np.stack([a.coupling.vec for a in group])
        quad = (x[..., None, :] @ np.stack([a.cost_quadratic for a in group])) @ col
        lin = np.stack([a.cost_linear for a in group])[:, None, :] @ col
        val = 0.5 * quad[..., 0, 0] + lin[..., 0, 0]
        val += np.array([a.cost_constant for a in group])
        # Hinges slot by slot: slot k holds each agent's k-th hinge.
        for k in range(max(len(a.cost_hinges) for a in group)):
            has = [j for j, a in enumerate(group) if len(a.cost_hinges) > k]
            hinges = [group[j].cost_hinges[k] for j in has]
            coeffs = np.stack([h.coeffs for h in hinges])[:, None, :]
            arg = (coeffs @ col[:, has])[..., 0, 0] + np.array([h.offset for h in hinges])
            scale = np.array([h.scale for h in hinges])
            val[:, has] += scale * np.where(arg > 0.0, arg, 0.0)    # max(0.0, arg)
        f[:, members] = val
    return g, f


def agent_total(values: np.ndarray) -> np.ndarray:
    """Sum over axis 1 (the agents) from zero in agent order, as
    ``total_cost`` and ``coupling_total`` add one row: the running sum's
    last entry, plus 0.0 so an all-zero sum is +0.0 as it is there."""
    return np.add.accumulate(values, axis=1)[:, -1] + 0.0


@dataclass
class ValidationReport:
    """Outcome of validate_problem: empty findings means admissible."""

    findings: list[str] = field(default_factory=list)
    slater: str = "unknown"

    @property
    def ok(self) -> bool:
        return not self.findings


def _box_max(rows: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The largest value of each ``rows @ x`` over the box lb <= x <= ub,
    reached at the vertex that takes ub where a coefficient is positive."""
    return np.maximum(rows * lb, rows * ub).sum(axis=-1)


def _coupling_hi(agents: list[AgentProblem]) -> np.ndarray:
    """Per-row upper bound of sum_i g_i(x_i) over the agents' boxes."""
    hi = np.zeros(agents[0].coupling.vec.shape)
    for a in agents:
        hi += a.coupling.vec
    for a in agents:
        hi += _box_max(a.coupling.mat, a.local_set.lb, a.local_set.ub)
    return hi


def _rho_headroom(coupling_hi: np.ndarray, shift: np.ndarray | float) -> np.ndarray:
    """Upper bound of the relaxation variable that no optimum reaches, per
    row of ``shift``: the largest possible coupling row value, plus one."""
    return np.maximum(0.0, (coupling_hi + shift).max(axis=-1)) + 1.0


def _coupled_form(agents: list[AgentProblem], forms: list[QpStandardForm],
                  extra: tuple[float, float, float] | None = None
                  ) -> tuple[CoupledForm, list[slice]]:
    """Per-agent QPs joined by their coupling rows, as one CoupledForm.

    Agent i's x_i is the leading ``agents[i].dim`` columns of ``forms[i]``,
    and the S rows sum_i A_i x_i <= -sum_i b_i couple the blocks.
    ``extra = (cost, lb, ub)`` appends one variable v with that linear cost
    and box, entering every coupling row as -v.  Returns the form and the
    columns of each x_i in the layout of ``form.dense()``, which is also
    the layout of the solution ``solve_qp`` returns.
    """
    s_dim = agents[0].coupling.mat.shape[0]
    coupling = []
    b_total = np.zeros(s_dim)
    for agent, f in zip(agents, forms):
        mat = np.zeros((s_dim, f.dim))
        mat[:, :agent.dim] = agent.coupling.mat
        coupling.append(mat)
        b_total += agent.coupling.vec
    starts = np.cumsum([0] + [f.dim for f in forms]).tolist()
    return (CoupledForm(forms, coupling, -b_total, extra),
            [slice(s0, s0 + a.dim) for a, s0 in zip(agents, starts)])


def _check_agent(i: int, agent: AgentProblem, s_dim: int, findings: list[str]) -> bool:
    """Append findings for agent i; return True when its shapes and values
    permit solves."""
    ok = True
    n = agent.dim
    ls = agent.local_set
    if agent.cost_quadratic.shape != (n, n):
        findings.append(f"agent {i}: cost_quadratic is not {n}x{n}")
        ok = False
    if agent.cost_linear.shape != (n,):
        findings.append(f"agent {i}: cost_linear has wrong length")
        ok = False
    if ls.lb.shape != (n,) or ls.ub.shape != (n,):
        findings.append(f"agent {i}: box bounds have wrong length")
        return False
    if not (np.all(np.isfinite(ls.lb)) and np.all(np.isfinite(ls.ub))):
        findings.append(f"agent {i}: non-compact local set")
        ok = False
    elif np.any(ls.lb > ls.ub):
        findings.append(f"agent {i}: empty box (lb > ub)")
        ok = False
    # Every numeric field but the box, named as in the problem file.
    fields = [("cost_quadratic", agent.cost_quadratic), ("cost_linear", agent.cost_linear),
              ("cost_constant", agent.cost_constant),
              ("local_set.a_eq", ls.a_eq), ("local_set.b_eq", ls.b_eq),
              ("local_set.a_in", ls.a_in), ("local_set.b_in", ls.b_in),
              ("coupling.mat", agent.coupling.mat), ("coupling.vec", agent.coupling.vec)]
    for k, hinge in enumerate(agent.cost_hinges):
        fields += [(f"cost_hinges[{k}].scale", hinge.scale),
                   (f"cost_hinges[{k}].coeffs", hinge.coeffs),
                   (f"cost_hinges[{k}].offset", hinge.offset)]
    non_finite = [name for name, v in fields if v is not None and not np.isfinite(v).all()]
    if non_finite:
        findings.append(f"agent {i}: non-finite values in {', '.join(non_finite)}")
        ok = False
    if ok and agent.cost_quadratic.shape == (n, n):
        q = agent.cost_quadratic
        if np.abs(q - q.T).max() > 1e-9:
            findings.append(f"agent {i}: cost_quadratic not symmetric")
            ok = False
        elif np.linalg.eigvalsh(0.5 * (q + q.T)).min() < -1e-9 * max(1.0, np.abs(q).max()):
            findings.append(f"agent {i}: cost_quadratic not positive semidefinite")
            ok = False
    for k, hinge in enumerate(agent.cost_hinges):
        if hinge.scale < 0:
            findings.append(f"agent {i}: hinge {k} has negative scale")
            ok = False
        if hinge.coeffs.shape != (n,):
            findings.append(f"agent {i}: hinge {k} row has wrong length")
            ok = False
    if ls.a_eq is not None and (ls.a_eq.shape[1] != n
                                or ls.a_eq.shape[0] != ls.b_eq.shape[0]):
        findings.append(f"agent {i}: local equality system has inconsistent shape")
        ok = False
    if ls.a_in is not None and (ls.a_in.shape[1] != n
                                or ls.a_in.shape[0] != ls.b_in.shape[0]):
        findings.append(f"agent {i}: local inequality system has inconsistent shape")
        ok = False
    if agent.coupling.mat.shape != (s_dim, n):
        findings.append(f"agent {i}: coupling map is {agent.coupling.mat.shape}, "
                        f"expected ({s_dim}, {n})")
        ok = False
    elif agent.coupling.vec.shape != (s_dim,):
        findings.append(f"agent {i}: coupling offset has wrong length")
        ok = False
    return ok


def _local_form(agent: AgentProblem) -> QpStandardForm:
    """The local set X_i as the constraints of a zero-cost QP."""
    ls = agent.local_set
    return QpStandardForm(Q=np.zeros((agent.dim, agent.dim)), c=np.zeros(agent.dim),
                          lb=ls.lb, ub=ls.ub, A_eq=ls.a_eq, b_eq=ls.b_eq,
                          A_in=ls.a_in, b_in=ls.b_in)


def lift_hinges(agent: AgentProblem) -> QpStandardForm:
    """Rewrite an agent's hinge cost terms as epigraph variables.

    Each term ``scale * max(0, a'x + b)`` becomes a new variable e with cost
    ``scale * e``, bounds ``0 <= e <= e_max`` and the row ``a'x - e <= -b``,
    placed after the local inequality rows.  ``e_max`` is the largest value
    of a'x + b over the agent's box (``_box_max``), padded so it is never
    active at an optimum.  The lifted QP minimizes the agent cost over its
    local set; coupling rows are not included.
    """
    n = agent.dim
    hinges = agent.cost_hinges
    k = len(hinges)
    ls = agent.local_set
    coeffs = np.array([hg.coeffs for hg in hinges]).reshape(k, n)
    offsets = np.array([hg.offset for hg in hinges])
    Q = np.zeros((n + k, n + k))
    Q[:n, :n] = agent.cost_quadratic
    c = np.concatenate([agent.cost_linear, [hg.scale for hg in hinges]])
    e_hi = np.maximum(0.0, _box_max(coeffs, ls.lb, ls.ub) + offsets) + 1.0
    lb = np.concatenate([ls.lb, np.zeros(k)])
    ub = np.concatenate([ls.ub, e_hi])
    a_eq = b_eq = None
    if ls.a_eq is not None:
        a_eq = np.concatenate([ls.a_eq, np.zeros((ls.a_eq.shape[0], k))], axis=1)
        b_eq = ls.b_eq.copy()
    rows = []
    rhs = []
    if ls.a_in is not None:
        rows.append(np.concatenate([ls.a_in, np.zeros((ls.a_in.shape[0], k))], axis=1))
        rhs.append(ls.b_in)
    if k:
        hinge_rows = np.zeros((k, n + k))
        hinge_rows[:, :n] = coeffs
        hinge_rows[np.arange(k), n + np.arange(k)] = -1.0
        rows.append(hinge_rows)
        rhs.append(-offsets)
    a_in = np.concatenate(rows, axis=0) if rows else None
    b_in = np.concatenate(rhs) if rows else None
    return QpStandardForm(Q=Q, c=c, lb=lb, ub=ub, A_eq=a_eq, b_eq=b_eq,
                          A_in=a_in, b_in=b_in, offset=agent.cost_constant)


def _local_set_findings(agents: list[AgentProblem]) -> list[str]:
    """Findings for the local sets that are empty or could not be checked.

    All local sets are checked as one ``QpBatch``.  A batch that raises
    names its first failed element, in agent order, and every agent before
    it passed; that agent is re-checked alone for its finding, and the
    agents after it as a batch again, so every failing agent is named, in
    agent order.
    """
    forms = [_local_form(a) for a in agents]
    findings = []
    start = 0
    while start < len(forms):
        try:
            QpBatch(forms[start:], validate=False).solve(tol=1e-8)
            break
        except QpError as exc:
            i = start + exc.element
        try:
            solve_qp(forms[i], tol=1e-8, validate=False)
        except QpInfeasibleError:
            findings.append(f"agent {i}: local set is empty")
        except QpError as exc:
            findings.append(f"agent {i}: local feasibility check failed ({exc})")
        start = i + 1
    return findings


def _slater_search(problem: ConstraintCoupledProblem) -> float:
    """Minimize t subject to x_i in X_i and sum_i g_i(x_i) <= t * 1.

    The optimum is the best achievable worst-row coupling margin: negative
    means a strict interior point exists, zero (up to tolerance) means the
    coupling is feasible but tight somewhere, positive means infeasible.
    """
    agents = problem.agents
    # t's box spans every value the worst coupling row can take.
    b_sum = sum(a.coupling.vec for a in agents)
    boxes = [(a.coupling.mat, a.local_set.lb, a.local_set.ub) for a in agents]
    lo = b_sum.min() + sum(-_box_max(-m, lb, ub) for m, lb, ub in boxes).min() - 1.0
    hi = b_sum.max() + sum(_box_max(m, lb, ub) for m, lb, ub in boxes).max() + 1.0
    form, _ = _coupled_form(agents, [_local_form(a) for a in agents], extra=(1.0, lo, hi))
    sol = solve_qp(form, tol=1e-9, validate=False)
    return float(sol.x[-1])


def validate_problem(problem: ConstraintCoupledProblem) -> ValidationReport:
    """Check every structural invariant of ``problem``.

    Returns a report whose ``findings`` list every violation (empty report
    means the problem is admissible).  When no Slater point is supplied the
    validator searches for one by minimizing the worst coupling margin over
    the joint local sets; because coupling maps are affine, plain
    feasibility already certifies strong duality, so a tight-but-feasible
    coupling (an equality encoded as paired rows, say) passes with
    ``slater == "feasible-affine"``.
    """
    report = ValidationReport()
    findings = report.findings
    if not problem.agents:
        findings.append("problem has no agents")
        return report
    if problem.coupling_dim < 1:
        findings.append("coupling_dim must be at least 1")
        return report
    shapes_ok = True
    for i, agent in enumerate(problem.agents):
        shapes_ok &= _check_agent(i, agent, problem.coupling_dim, findings)
    if not shapes_ok:
        report.slater = "unverified"
        return report
    findings += _local_set_findings(problem.agents)
    if findings:
        report.slater = "unverified"
        return report
    if problem.slater_point is not None:
        report.slater = "provided"
        pt = problem.slater_point
        if len(pt) != problem.n_agents:
            findings.append("slater_point must have one component per agent")
            return report
        for i, (agent, x) in enumerate(zip(problem.agents, pt)):
            ls = agent.local_set
            if x.shape != (agent.dim,):
                findings.append(f"slater_point component {i} has wrong length")
                return report
            if not np.isfinite(x).all():
                findings.append(f"slater_point component {i} is not finite")
                continue
            if np.any(x <= ls.lb) or np.any(x >= ls.ub):
                findings.append(f"slater_point component {i} not strictly inside its box")
            if ls.a_eq is not None and np.abs(ls.a_eq @ x - ls.b_eq).max() > 1e-8:
                findings.append(f"slater_point component {i} violates local equalities")
            if ls.a_in is not None and (ls.a_in @ x - ls.b_in).max() > 1e-9:
                findings.append(f"slater_point component {i} violates local inequalities")
        if not findings:
            margin = problem.coupling_total(problem.slater_point).max()
            if margin > -_SLATER_MARGIN:
                findings.append(
                    f"slater_point coupling margin {margin:.3e} above -{_SLATER_MARGIN}")
        return report
    try:
        t_star = _slater_search(problem)
    except QpError as exc:
        findings.append(f"Slater unverified ({exc})")
        report.slater = "unverified"
        return report
    if t_star <= -_SLATER_MARGIN:
        report.slater = "strict"
    elif t_star <= _FEAS_TOL:
        report.slater = "feasible-affine"
    else:
        findings.append(f"no Slater point (best coupling margin {t_star:.3e})")
        report.slater = "none"
    return report


# ---------------------------------------------------------------------------
# Builders


def two_agent_demo() -> ConstraintCoupledProblem:
    """Bundled two-agent example: x1^2 + (x2-2)^2 with x1 + x2 <= 1.

    The optimum is x = (-0.5, 1.5) with cost 0.5 and a single coupling
    multiplier equal to 1.
    """
    a1 = AgentProblem(dim=1, cost_quadratic=[[2.0]], cost_linear=[0.0],
                      local_set=LocalSet(lb=[-5.0], ub=[5.0]),
                      coupling=AffineMap([[1.0]], [0.0]))
    a2 = AgentProblem(dim=1, cost_quadratic=[[2.0]], cost_linear=[-4.0],
                      cost_constant=4.0,
                      local_set=LocalSet(lb=[-5.0], ub=[5.0]),
                      coupling=AffineMap([[1.0]], [-1.0]))
    return ConstraintCoupledProblem(
        agents=[a1, a2], coupling_dim=1,
        slater_point=[np.array([0.0]), np.array([0.9])])


def build_random_instance(n_agents: int, dim_each: int, coupling_dim: int,
                          seed: int) -> ConstraintCoupledProblem:
    """Random strictly feasible instance with strongly convex quadratic costs.

    Boxes, costs and coupling maps are sampled from a seeded generator; the
    coupling offsets are shifted so that a sampled interior point satisfies
    the coupled constraint with a strictly negative margin, and that point
    ships as the instance's Slater point.  Identical seeds give bit-identical
    instances.
    """
    if n_agents < 1 or dim_each < 1 or coupling_dim < 1:
        raise ValueError("n_agents, dim_each and coupling_dim must be positive")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_agents):
        lb = rng.uniform(-2.0, 0.0, dim_each)
        ub = lb + rng.uniform(0.5, 2.0, dim_each)
        basis = rng.normal(size=(dim_each, dim_each))
        quad = basis.T @ basis / dim_each + np.diag(rng.uniform(0.2, 1.0, dim_each))
        lin = rng.normal(size=dim_each)
        amat = rng.normal(size=(coupling_dim, dim_each))
        point = lb + rng.uniform(0.3, 0.7, dim_each) * (ub - lb)
        draws.append((lb, ub, quad, lin, amat, point))
    margin = rng.uniform(0.1, 0.5)
    reach = sum(amat @ point for *_, amat, point in draws)
    agents = []
    for lb, ub, quad, lin, amat, point in draws:
        bvec = -(reach + margin) / n_agents
        agents.append(AgentProblem(
            dim=dim_each, cost_quadratic=quad, cost_linear=lin,
            local_set=LocalSet(lb=lb, ub=ub),
            coupling=AffineMap(amat, bvec)))
    return ConstraintCoupledProblem(
        agents=agents, coupling_dim=coupling_dim,
        slater_point=[point for *_, point in draws])


@dataclass
class MicrogridConfig:
    """Parameters of the microgrid control instance.

    Power trajectories run over horizon + 1 slots.  The demand-balance
    equality is encoded as paired <=/>= coupling rows, so the coupling
    dimension is 2 * (horizon + 1).  ``demand`` and ``load_desired`` default
    to smooth day-shaped profiles when left unset.
    """

    n_generators: int = 4
    n_storage: int = 3
    n_loads: int = 2
    horizon: int = 12
    gen_power_min: float = 0.1
    gen_power_max: float = 1.2
    gen_ramp_min: float = -0.4
    gen_ramp_max: float = 0.4
    gen_cost_lin: float = 0.5
    gen_cost_quad: float = 1.0
    stor_discharge_max: float = 0.5
    stor_charge_max: float = 0.5
    stor_capacity: float = 2.0
    stor_initial: float = 1.0
    load_penalty: float = 2.0
    load_max: float = 0.8
    load_desired: np.ndarray | None = None
    trade_capacity: float = 1.5
    trade_price: float = 1.0
    trade_fee: float = 0.1
    demand: np.ndarray | None = None

    def __post_init__(self):
        slots = self.horizon + 1
        tau = np.arange(slots)
        if self.demand is None:
            self.demand = 1.0 + 1.5 * np.sin(np.pi * tau / max(1, self.horizon))
        self.demand = np.asarray(self.demand, dtype=float).ravel()
        if self.load_desired is None:
            self.load_desired = 0.25 + 0.1 * np.sin(2.0 * np.pi * tau / max(1, self.horizon))
        self.load_desired = np.asarray(self.load_desired, dtype=float).ravel()


def _check_config(cfg: MicrogridConfig) -> None:
    slots = cfg.horizon + 1
    if cfg.horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if min(cfg.n_generators, cfg.n_storage, cfg.n_loads) < 0:
        raise ValueError("device counts must be nonnegative")
    if not cfg.gen_power_min < cfg.gen_power_max:
        raise ValueError("gen_power_min must be below gen_power_max")
    if not (cfg.gen_ramp_min < 0.0 < cfg.gen_ramp_max):
        raise ValueError("gen_ramp_min must be negative and gen_ramp_max positive")
    for name in ("stor_discharge_max", "stor_charge_max", "stor_capacity",
                 "trade_capacity", "gen_cost_quad", "load_penalty", "trade_fee",
                 "load_max"):
        if getattr(cfg, name) <= 0:
            raise ValueError(f"{name} must be positive")
    if not 0.0 <= cfg.stor_initial <= cfg.stor_capacity:
        raise ValueError("stor_initial must lie within [0, stor_capacity]")
    if cfg.demand.shape != (slots,):
        raise ValueError("demand must have horizon + 1 entries")
    if cfg.load_desired.shape != (slots,):
        raise ValueError("load_desired must have horizon + 1 entries")


def build_microgrid_instance(config: MicrogridConfig | None = None
                             ) -> ConstraintCoupledProblem:
    """Receding-horizon microgrid instance with demand-balance coupling.

    Agents are ordered generators, storage units, controllable loads, then
    the single grid-connection (trade) node.  The per-slot balance is

        sum_gen p + sum_stor p + sum_load p + p_tr = D,

    encoded as paired <= / >= rows (so S = 2(T+1)).  Every device power
    enters the balance additively; storage power p > 0 simultaneously
    charges the battery (q' = q + p), and the load/trade conventions
    follow the same additive form.  The demand profile is known only to
    the trade agent (it rides in that agent's coupling offset).
    """
    cfg = config if config is not None else MicrogridConfig()
    _check_config(cfg)
    slots = cfg.horizon + 1
    s_dim = 2 * slots
    eye = np.eye(slots)
    power_coupling = np.concatenate([eye, -eye], axis=0)
    zero_b = np.zeros(s_dim)
    agents: list[AgentProblem] = []

    ramp = np.zeros((2 * cfg.horizon, slots))
    ramp_rhs = np.zeros(2 * cfg.horizon)
    for t in range(cfg.horizon):
        ramp[t, t + 1], ramp[t, t] = 1.0, -1.0
        ramp_rhs[t] = cfg.gen_ramp_max
        ramp[cfg.horizon + t, t + 1], ramp[cfg.horizon + t, t] = -1.0, 1.0
        ramp_rhs[cfg.horizon + t] = -cfg.gen_ramp_min
    for _ in range(cfg.n_generators):
        agents.append(AgentProblem(
            dim=slots,
            cost_quadratic=2.0 * cfg.gen_cost_quad * eye,
            cost_linear=np.full(slots, cfg.gen_cost_lin),
            local_set=LocalSet(
                lb=np.full(slots, cfg.gen_power_min),
                ub=np.full(slots, cfg.gen_power_max),
                a_in=ramp if cfg.horizon else None,
                b_in=ramp_rhs if cfg.horizon else None),
            coupling=AffineMap(power_coupling, zero_b)))

    # Storage state: variables [p^0..p^T, q^0..q^T], charge dynamics as
    # local equalities, initial charge pinned through the box.
    dyn = np.zeros((cfg.horizon, 2 * slots))
    for t in range(cfg.horizon):
        dyn[t, slots + t + 1] = 1.0
        dyn[t, slots + t] = -1.0
        dyn[t, t] = -1.0
    q_lb = np.zeros(slots)
    q_ub = np.full(slots, cfg.stor_capacity)
    q_lb[0] = q_ub[0] = cfg.stor_initial
    for _ in range(cfg.n_storage):
        agents.append(AgentProblem(
            dim=2 * slots,
            cost_quadratic=np.zeros((2 * slots, 2 * slots)),
            cost_linear=np.zeros(2 * slots),
            local_set=LocalSet(
                lb=np.concatenate([np.full(slots, -cfg.stor_discharge_max), q_lb]),
                ub=np.concatenate([np.full(slots, cfg.stor_charge_max), q_ub]),
                a_eq=dyn if cfg.horizon else None,
                b_eq=np.zeros(cfg.horizon) if cfg.horizon else None),
            coupling=AffineMap(
                np.concatenate([power_coupling, np.zeros((s_dim, slots))], axis=1),
                zero_b)))

    for _ in range(cfg.n_loads):
        hinges = [Hinge(cfg.load_penalty, -eye[t], cfg.load_desired[t])
                  for t in range(slots)]
        agents.append(AgentProblem(
            dim=slots,
            cost_quadratic=np.zeros((slots, slots)),
            cost_linear=np.zeros(slots),
            cost_hinges=hinges,
            local_set=LocalSet(lb=np.zeros(slots), ub=np.full(slots, cfg.load_max)),
            coupling=AffineMap(power_coupling, zero_b)))

    trade_hinges = ([Hinge(cfg.trade_fee, eye[t], 0.0) for t in range(slots)]
                    + [Hinge(cfg.trade_fee, -eye[t], 0.0) for t in range(slots)])
    agents.append(AgentProblem(
        dim=slots,
        cost_quadratic=np.zeros((slots, slots)),
        cost_linear=np.full(slots, -cfg.trade_price),
        cost_hinges=trade_hinges,
        local_set=LocalSet(lb=np.full(slots, -cfg.trade_capacity),
                           ub=np.full(slots, cfg.trade_capacity)),
        coupling=AffineMap(power_coupling,
                           np.concatenate([-cfg.demand, cfg.demand]))))
    return ConstraintCoupledProblem(agents=agents, coupling_dim=s_dim)


# ---------------------------------------------------------------------------
# Serialization


def _arr(a: np.ndarray | None):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def _agent_to_dict(agent: AgentProblem) -> dict:
    ls = agent.local_set
    return {
        "dim": agent.dim,
        "cost_quadratic": _arr(agent.cost_quadratic),
        "cost_linear": _arr(agent.cost_linear),
        "cost_constant": agent.cost_constant,
        "cost_hinges": [{"scale": h.scale, "coeffs": _arr(h.coeffs),
                         "offset": h.offset} for h in agent.cost_hinges],
        "local_set": {"lb": _arr(ls.lb), "ub": _arr(ls.ub),
                      "a_eq": _arr(ls.a_eq), "b_eq": _arr(ls.b_eq),
                      "a_in": _arr(ls.a_in), "b_in": _arr(ls.b_in)},
        "coupling": {"mat": _arr(agent.coupling.mat), "vec": _arr(agent.coupling.vec)},
    }


def problem_to_dict(problem: ConstraintCoupledProblem) -> dict:
    return {
        "format": "rsdd-problem",
        "version": 1,
        "coupling_dim": problem.coupling_dim,
        "agents": [_agent_to_dict(a) for a in problem.agents],
        "slater_point": (None if problem.slater_point is None
                         else [_arr(x) for x in problem.slater_point]),
    }


def _integer(value, what: str) -> int:
    """``value`` as an int; a non-integral one, which int() would
    truncate, raises a ValueError naming ``what``."""
    try:
        out = int(value)
    except (OverflowError, TypeError, ValueError):  # an infinity, a NaN, None
        out = None
    if out is None or out != value:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return out


def _document_integer(value, what: str) -> int:
    """``_integer`` for a problem document: a ProblemFormatError."""
    try:
        return _integer(value, what)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ProblemFormatError(f"missing field '{key}' in {where}")
    return doc[key]


def _agent_from_dict(doc: dict, i: int) -> AgentProblem:
    where = f"agents[{i}]"
    ls_doc = _need(doc, "local_set", where)
    coup = _need(doc, "coupling", where)
    try:
        return AgentProblem(
            dim=_document_integer(_need(doc, "dim", where), f"{where}.dim"),
            cost_quadratic=_need(doc, "cost_quadratic", where),
            cost_linear=_need(doc, "cost_linear", where),
            cost_constant=float(doc.get("cost_constant", 0.0)),
            cost_hinges=[Hinge(_need(h, "scale", f"{where}.cost_hinges[{k}]"),
                               _need(h, "coeffs", f"{where}.cost_hinges[{k}]"),
                               _need(h, "offset", f"{where}.cost_hinges[{k}]"))
                         for k, h in enumerate(doc.get("cost_hinges", []))],
            local_set=LocalSet(
                lb=_need(ls_doc, "lb", f"{where}.local_set"),
                ub=_need(ls_doc, "ub", f"{where}.local_set"),
                a_eq=ls_doc.get("a_eq"), b_eq=ls_doc.get("b_eq"),
                a_in=ls_doc.get("a_in"), b_in=ls_doc.get("b_in")),
            coupling=AffineMap(_need(coup, "mat", f"{where}.coupling"),
                               _need(coup, "vec", f"{where}.coupling")))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ProblemFormatError):
            raise
        raise ProblemFormatError(f"malformed numeric data in {where}: {exc}") from exc


def problem_from_dict(doc: dict) -> ConstraintCoupledProblem:
    agents_doc = _need(doc, "agents", "problem")
    if not isinstance(agents_doc, list):
        raise ProblemFormatError("field 'agents' must be a list")
    coupling_dim = _document_integer(_need(doc, "coupling_dim", "problem"),
                                      "coupling_dim")
    agents = [_agent_from_dict(a, i) for i, a in enumerate(agents_doc)]
    for i, agent in enumerate(agents):
        if agent.coupling.mat.shape[0] != coupling_dim:
            raise ProblemFormatError(
                f"agents[{i}] has {agent.coupling.mat.shape[0]} coupling rows, "
                f"expected coupling_dim = {coupling_dim}")
    slater = doc.get("slater_point")
    return ConstraintCoupledProblem(
        agents=agents, coupling_dim=coupling_dim,
        slater_point=None if slater is None else [np.asarray(x, dtype=float)
                                                  for x in slater])


def save_problem(problem: ConstraintCoupledProblem, path: str) -> None:
    """Write the problem as JSON; floats keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=1)


def load_problem(path: str) -> ConstraintCoupledProblem:
    """Read a problem written by save_problem; load(save(p)) is bit-exact."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return problem_from_dict(doc)


def problem_hash(problem: ConstraintCoupledProblem) -> str:
    """Content hash of the canonical JSON form (used to join runs, oracle
    results and metrics that must refer to the same problem)."""
    return problem_dict_hash(problem_to_dict(problem))


def problem_dict_hash(doc: dict) -> str:
    """``problem_hash`` of the problem whose ``problem_to_dict`` is ``doc``."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def microgrid_config_to_dict(cfg: MicrogridConfig) -> dict:
    doc = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    doc["demand"] = _arr(cfg.demand)
    doc["load_desired"] = _arr(cfg.load_desired)
    return doc


def microgrid_config_from_dict(doc: dict) -> MicrogridConfig:
    fields = set(MicrogridConfig.__dataclass_fields__)
    unknown = set(doc) - fields
    if unknown:
        raise ProblemFormatError(f"unknown microgrid config field '{sorted(unknown)[0]}'")
    try:
        return MicrogridConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed microgrid config: {exc}") from exc
