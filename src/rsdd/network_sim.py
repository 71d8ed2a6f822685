"""Synchronous message-passing simulation over a connected undirected graph.

Each round has four phases with a barrier between them: every agent gathers
the edge variables lambda_ji from its neighbors, solves its relaxed local
problem, gathers the neighbors' fresh coupling multipliers mu_j, and applies
the edge-variable update with the round's step size.  Messages carry only
lambda and mu vectors (never local variables, costs or constraint data), so
the simulation exchanges exactly what a real transport would.

Edge variables form one ``(2E, S)`` array with a row per entry of
``Graph.directed_edges``; only :class:`Graph`'s methods combine its rows.
The run is recorded in a :class:`RunTrace` holding every round, the initial
state included, as one :class:`Snapshots` record of whole-run arrays, plus
any diagnostics; traces serialize to JSON and can be re-checked against the
method's per-iteration invariants long after the run.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import (_STOP_COST_CHANGE, _STOP_SUM_RHO, _STOP_VIOLATION,
                   _STOP_WINDOW, AlgorithmConfig, LocalSolverPool,
                   schedule_from_dict, step_size, validate_schedule)
from .problem_model import (ConstraintCoupledProblem, _integer, agent_total,
                            agent_values, problem_dict_hash,
                            problem_from_dict, problem_to_dict)
from .qp_solver import QpError

_CONSISTENCY_TOL = 1e-9
_FEAS_SLACK = 1e-6
_MU_CAP_SLACK = 1e-8
_M_PIN_TOL = 1e-6
_M_PIN_STREAK = 50


@dataclass
class Graph:
    """Undirected connected communication graph on nodes 0..n_nodes-1."""

    n_nodes: int
    edges: list[tuple[int, int]]

    def __post_init__(self):
        self.n_nodes = _integer(self.n_nodes, "node count")
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        norm = set()
        for i, j in self.edges:
            i, j = _integer(i, "node id"), _integer(j, "node id")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i}, {j}) out of range")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ValueError(f"duplicate edge {key}")
            norm.add(key)
        self.edges = sorted(norm)
        # Edge index arrays, built once per graph: row k of an edge array
        # belongs to directed edge (src[k], dst[k]); its reverse is row
        # rev[k], the rank of (dst[k], src[k]).  Rows leaving a node are
        # contiguous and sorted by destination: slot k is its k-th neighbour.
        self.directed_edges, self._src, self._dst, degree, first = \
            _neighbour_rows(self.n_nodes, self.edges)
        if not _connected(self._dst, degree, first):
            raise ValueError("graph is not connected")
        self._rev = np.argsort(np.lexsort((self._src, self._dst)))
        self._slots = []
        for k in range(int(degree.max(initial=0))):
            nodes = np.flatnonzero(degree > k)
            self._slots.append((nodes, first[nodes] + k))

    @property
    def neighbors(self) -> dict[int, list[int]]:
        return {i: self._dst[self._src == i].tolist()
                for i in range(self.n_nodes)}

    def shifts(self, lam: np.ndarray) -> np.ndarray:
        """Each node's aggregate sum_j (lambda_ij - lambda_ji) as an
        (..., N, S) array, from edge variables ``lam`` of shape (..., 2E, S);
        leading axes, such as a trace's rounds, are carried along.

        Each node sums over its neighbours in ascending order, one
        vectorized step per neighbour slot; a reordered sum (reduceat, a
        matmul) would round differently and change the trace.
        """
        diff = lam - lam[..., self._rev, :]
        out = np.zeros(lam.shape[:-2] + (self.n_nodes, lam.shape[-1]))
        for nodes, rows in self._slots:
            out[..., nodes, :] += diff[..., rows, :]
        return out

    def telescoping_sum(self, lam: np.ndarray) -> np.ndarray:
        """sum over directed edges of (lambda_ij - lambda_ji), accumulated
        in directed-edge order; zero up to rounding for any ``lam``.  An
        (..., 2E, S) input gives an (..., S) result."""
        diff = lam - lam[..., self._rev, :]
        zero = np.zeros(lam.shape[:-2] + (1, lam.shape[-1]))
        return np.add.accumulate(np.concatenate([zero, diff], axis=-2),
                                 axis=-2)[..., -1, :]

    def edge_step(self, lam: np.ndarray, gamma: float | np.ndarray,
                  mu: np.ndarray) -> np.ndarray:
        """The method's edge update lambda_ij - gamma * (mu_i - mu_j) on
        every directed edge (i, j), for edge variables ``lam`` of shape
        (..., 2E, S) and multipliers ``mu`` of shape (..., N, S); ``run``
        and the trace's readers all step the edges here.  With ``lam = 0``
        and ``gamma = 1`` it gives -(mu_i - mu_j).  ``lam``, ``gamma`` and
        ``mu`` broadcast over leading axes, so one call can step every
        round of a trace with that round's gamma_t."""
        return lam - gamma * (mu[..., self._src, :] - mu[..., self._dst, :])

    def to_dict(self) -> dict:
        return {"n_nodes": self.n_nodes, "edges": [list(e) for e in self.edges]}


def _neighbour_rows(n_nodes: int, edges: list[tuple[int, int]]):
    """Both directions of every undirected edge, sorted, with the source
    and destination of each row and each node's degree and first row."""
    directed = sorted(edges + [(j, i) for i, j in edges])
    src, dst = np.array(directed, dtype=int).reshape(-1, 2).T
    degree = np.bincount(src, minlength=n_nodes)
    return directed, src, dst, degree, np.cumsum(degree) - degree


def _connected(dst: np.ndarray, degree: np.ndarray, first: np.ndarray) -> bool:
    """Whether a search from node 0 along the neighbour rows reaches all."""
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        stack += set(dst[first[i]:first[i] + degree[i]].tolist()) - seen
        seen.update(stack)
    return len(seen) == degree.size


def build_graph(topology: str, n_nodes: int, p: float | None = None,
                seed: int | None = None) -> Graph:
    """Construct a named topology: path, cycle, star, complete, or
    erdos_renyi (which resamples until connected, at most 100 draws, as
    networkx's ``gnp_random_graph`` with seeds seed, seed + 1, ...)."""
    if n_nodes < 2:
        raise ValueError("topologies need at least 2 nodes")
    if topology == "path":
        edges = [(i, i + 1) for i in range(n_nodes - 1)]
    elif topology == "cycle":
        edges = [(i, (i + 1) % n_nodes)
                 for i in range(n_nodes if n_nodes > 2 else 1)]
    elif topology == "star":
        edges = [(0, i) for i in range(1, n_nodes)]
    elif topology == "complete":
        edges = list(combinations(range(n_nodes), 2))
    elif topology == "erdos_renyi":
        if p is None:
            raise ValueError("erdos_renyi needs an edge probability p")
        base = 0 if seed is None else int(seed)
        for attempt in range(100):
            rng = random.Random(base + attempt)
            edges = [e for e in combinations(range(n_nodes), 2)
                     if rng.random() < p]
            if _connected(*_neighbour_rows(n_nodes, edges)[2:]):
                break
        else:
            raise RuntimeError(
                f"no connected graph in 100 draws (n={n_nodes}, p={p})")
    else:
        raise ValueError(f"unknown topology '{topology}'")
    return Graph(n_nodes=n_nodes, edges=edges)


@dataclass
class Snapshots:
    """Every round of a run as whole-run arrays; ``len()`` gives the round
    count T.  Row k is round t[k], solved at the edge variables lam[k] then
    in force.  t is (T,); x (T, sum_i dim_i), each row holding x_1, ..., x_N
    side by side as ``agent_values`` takes them; rho (T, N); mu (T, N, S);
    lam (T, 2E, S), one row per entry of the graph's ``directed_edges``."""

    t: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def _stack(rounds: list[tuple], graph: Graph, dims: list[int], s_dim: int) -> Snapshots:
    """Per-round (t, [x_1, ..., x_N], rho, mu, lam) stacked, the x_i side by
    side; the graph and widths shape the arrays of a run without rounds."""
    n, n_nodes = len(rounds), graph.n_nodes
    t, x, rho, mu, lam = zip(*rounds) if rounds else ((),) * 5
    flat = np.concatenate([np.empty(0)] + [v for row in x for v in row])
    return Snapshots(np.array(t, dtype=int), flat.reshape(n, sum(dims)),
                     np.reshape(rho, (n, n_nodes)), np.reshape(mu, (n, n_nodes, s_dim)),
                     np.reshape(lam, (n, len(graph.directed_edges), s_dim)))


@dataclass
class RunTrace:
    problem: dict
    problem_hash: str
    graph: Graph
    config: dict
    snapshots: Snapshots
    status: str  # max-iters | tolerance-met | solver-error
    iterations: int
    warnings: list[str] = field(default_factory=list)


@dataclass
class MessageStats:
    rounds: int
    per_round: int
    total: int
    payload_dim: int
    bytes_total: int


class SimulationError(RuntimeError):
    """Local solver failed mid-run; carries the trace up to the failure."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


def run(problem: ConstraintCoupledProblem, graph: Graph,
        config: AlgorithmConfig) -> RunTrace:
    """Execute the distributed method and record everything.

    Round t solves every agent's relaxed local problem at the current edge
    variables lambda(t), records (x, rho, mu, lambda(t)), then updates each
    directed edge with step size gamma_t.  ``config.max_iters`` counts
    updates, so a completed run records max_iters + 1 rounds; the trace
    stacks them into one :class:`Snapshots`.

    Early stop (when enabled) triggers once max coupling violation and the
    sum of relaxation levels are within tolerance and the cost has been flat
    over the trailing window.

    Raises
    ------
    SimulationError
        A local solve failed; the partial trace (status "solver-error")
        rides on the exception.
    """
    if graph.n_nodes != problem.n_agents:
        raise ValueError("graph node count must equal the number of agents")
    if config.M <= 0:
        raise ValueError("M must be positive")
    if config.max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    sched = config.schedule
    if sched.kind == "explicit" and sched.values is not None \
            and sched.values.size < config.max_iters:
        raise ValueError(f"invalid step-size schedule: {sched.values.size} "
                         f"explicit values for max_iters={config.max_iters} "
                         f"updates")
    rejection = validate_schedule(sched)
    if rejection is not None:
        raise ValueError(f"invalid step-size schedule: {rejection}")

    s_dim = problem.coupling_dim
    lam = np.zeros((len(graph.directed_edges), s_dim))
    if config.lambda_init:
        index = {e: k for k, e in enumerate(graph.directed_edges)}
        for e, v in config.lambda_init.items():
            e = (int(e[0]), int(e[1]))
            if e not in index:
                raise ValueError(f"lambda_init edge {e} is not in the graph")
            v = np.asarray(v, dtype=float).ravel()
            if v.shape != (s_dim,):
                raise ValueError(f"lambda_init[{e}] must have {s_dim} entries")
            lam[index[e]] = v

    pool = LocalSolverPool(problem, config.M)
    recorded: list[tuple] = []
    warnings_log: list[str] = []
    costs: list[float] = []
    pin_streak = 0
    pin_warned = False
    t = 0
    status = "max-iters"

    def make_trace(final_status: str, rounds: int) -> RunTrace:
        doc = problem_to_dict(problem)
        return RunTrace(problem=doc, problem_hash=problem_dict_hash(doc),
                        graph=graph, config=config.to_dict(),
                        snapshots=_stack(recorded, graph, [a.dim for a in problem.agents], s_dim),
                        status=final_status, iterations=rounds, warnings=warnings_log)

    while True:
        try:
            xs, rho, mu = pool.solve_all(graph.shifts(lam))
        except QpError as exc:
            raise SimulationError(
                f"local solver failed at iteration {t}: {exc}",
                make_trace("solver-error", t)) from exc

        recorded.append((t, xs, rho, mu, lam))
        if config.enable_early_stop:
            costs.append(problem.total_cost(xs) + config.M * float(rho.sum()))

        if np.any(mu.sum(axis=1) >= config.M - _M_PIN_TOL):
            pin_streak += 1
            if pin_streak > _M_PIN_STREAK and not pin_warned:
                warnings_log.append(
                    f"M={config.M:g} likely too small: some agent's "
                    f"multiplier sum stayed within {_M_PIN_TOL:g} of M for "
                    f"more than {_M_PIN_STREAK} consecutive iterations")
                pin_warned = True
        else:
            pin_streak = 0

        if t >= config.max_iters:
            status = "max-iters"
            break
        if config.enable_early_stop and t >= _STOP_WINDOW:
            flat = abs(costs[-1] - costs[-1 - _STOP_WINDOW]) \
                <= _STOP_COST_CHANGE * max(1.0, abs(costs[-1]))
            # The violation, the costliest test, only once the others pass.
            if (flat and rho.sum() <= _STOP_SUM_RHO
                    and max(float(problem.coupling_total(xs).max()), 0.0) <= _STOP_VIOLATION):
                status = "tolerance-met"
                break

        lam = graph.edge_step(lam, step_size(config.schedule, t), mu)
        t += 1

    return make_trace(status, t)


def message_stats(trace: RunTrace) -> MessageStats:
    """Message totals: each executed round moves one lambda and one mu
    vector along every directed edge."""
    per_round = 2 * 2 * len(trace.graph.edges)
    s_dim = int(trace.problem["coupling_dim"])
    total = per_round * trace.iterations
    return MessageStats(rounds=trace.iterations, per_round=per_round,
                        total=total, payload_dim=s_dim,
                        bytes_total=total * 8 * s_dim)


def check_trace_invariants(trace: RunTrace) -> list[str]:
    """Re-derive the method's per-iteration guarantees from a recorded trace.

    Checks, for every round: aggregate relaxed feasibility
    sum_i g_i(x_i) <= (sum_i rho_i) * 1 within 1e-6; the telescoping edge
    identity sum_ij (lambda_ij - lambda_ji) = 0 within 1e-9; the multiplier
    cap mu_i . 1 <= M + 1e-8; and the bounded disagreement
    ||mu_i - mu_j||_2 <= 2 M sqrt(S) across edges.  Each recorded edge
    transition is also replayed against the update rule
    lambda - gamma_t * (mu_i - mu_j), which is what catches a tampered or
    corrupted lambda entry (the telescoping sum alone cancels any
    single-edge edit).  Also checks the bookkeeping: the snapshot count,
    that snapshot k records t = k, and that every update has a step size
    in the schedule (an update without one is reported and not replayed).
    A trace holding a non-finite x, rho, mu or lambda entry gets the
    bookkeeping findings and one naming the first such round and its
    fields, and is not evaluated further.

    Every check runs over the whole trace at once.  Findings come in a
    fixed order: the bookkeeping; then per round the feasibility,
    consistency, cap and per-edge spread findings; then the replay.
    Returns human-readable findings; an empty list means the trace is clean.
    """
    findings: list[str] = []
    problem = problem_from_dict(trace.problem)
    graph = trace.graph
    m_price = float(trace.config["M"])
    s_dim = problem.coupling_dim
    snaps = trace.snapshots
    ts, xs, rho, mu, lam = snaps.t, snaps.x, snaps.rho, snaps.mu, snaps.lam
    n_snaps = ts.size
    if n_snaps != trace.iterations + 1 and trace.status != "solver-error":
        findings.append(
            f"snapshot count {n_snaps} does not equal "
            f"iterations+1 = {trace.iterations + 1}")
    for k in np.flatnonzero(ts != np.arange(n_snaps)).tolist():
        findings.append(f"snapshot {k} records t = {ts[k]}")
    # A NaN passes every `value > tol` test below, and an infinity makes
    # the arithmetic warn, so neither is evaluated.
    finite = {name: np.isfinite(v).all(axis=tuple(range(1, v.ndim)))
              for name, v in (("x", xs), ("rho", rho), ("mu", mu), ("lambda", lam))}
    bad = np.flatnonzero(~np.logical_and.reduce(list(finite.values())))
    if bad.size:
        k = bad[0]
        fields = ", ".join(name for name, ok in finite.items() if not ok[k])
        findings.append(f"iteration {ts[k]}: non-finite entries in {fields}")
        return findings

    slack = (agent_total(agent_values(problem, xs)[0])
             - rho.sum(axis=1)[:, None]).max(axis=1)
    net = np.abs(graph.telescoping_sum(lam)).max(axis=1)
    cap = mu.sum(axis=2).max(axis=1)
    # Rows of the directed edges (i, j) with i < j, in graph.edges order.
    forward = [k for k, (i, j) in enumerate(graph.directed_edges) if i < j]
    gaps = np.linalg.norm(graph.edge_step(0.0, 1.0, mu)[:, forward], axis=2)
    spread_cap = 2.0 * m_price * float(np.sqrt(s_dim))
    spread = gaps > spread_cap + _MU_CAP_SLACK
    bad_slack = slack > _FEAS_SLACK
    bad_net = net > _CONSISTENCY_TOL
    bad_cap = cap > m_price + _MU_CAP_SLACK
    for k in np.flatnonzero(bad_slack | bad_net | bad_cap
                            | spread.any(axis=1)).tolist():
        t = ts[k]
        if bad_slack[k]:
            findings.append(
                f"iteration {t}: aggregate feasibility violated, "
                f"max_s(sum g - sum rho) = {slack[k]:.3e}")
        if bad_net[k]:
            findings.append(
                f"iteration {t}: lambda consistency violated, "
                f"|sum (lambda_ij - lambda_ji)| = {net[k]:.3e}")
        if bad_cap[k]:
            findings.append(
                f"iteration {t}: multiplier cap violated, "
                f"max_i mu_i.1 = {cap[k]:.10e} > M = {m_price:g}")
        for e in np.flatnonzero(spread[k]).tolist():
            i, j = graph.edges[e]
            findings.append(
                f"iteration {t}: multiplier spread violated on edge "
                f"({i}, {j}): {gaps[k, e]:.6e} > {spread_cap:.6e}")

    schedule = schedule_from_dict(trace.config["schedule"])
    gammas: list[float] = []
    missing = None
    for k in range(n_snaps - 1):
        try:
            gammas.append(step_size(schedule, k))
        except ValueError as exc:
            missing = (f"update at t = {k}: no recorded step size ({exc}); "
                       f"{n_snaps - 1 - k} updates not replayed")
            break
    n_steps = len(gammas)
    expect = graph.edge_step(lam[:n_steps], np.array(gammas)[:, None, None],
                             mu[:n_steps])
    worst = np.abs(lam[1:n_steps + 1] - expect).max(axis=(1, 2), initial=0.0)
    for k in np.flatnonzero(worst > _CONSISTENCY_TOL).tolist():
        findings.append(
            f"iteration {ts[k + 1]}: lambda consistency violated, edge "
            f"update replay differs by {worst[k]:.3e}")
    if missing is not None:
        findings.append(missing)
    return findings


def _lambda_keys(graph: Graph) -> list[str]:
    return [f"{i},{j}" for i, j in graph.directed_edges]


def _shape(value) -> tuple | str:
    try:
        return np.shape(value)
    except ValueError:      # ragged nesting
        return "(ragged)"


def _shape_fault(doc: dict, keys: list[str], shapes: list[tuple]) -> str | None:
    """The first of a snapshot document's x_i, rho, mu and lambda entries
    whose shape is not the one in ``shapes`` (as _snapshot_from_dict), or
    None when every shape is right."""
    *x_shapes, rho_shape, mu_shape, lam_shape = shapes
    n_agents = len(x_shapes)
    if len(doc["x"]) != n_agents:
        return f"x holds {len(doc['x'])} vectors for {n_agents} agents"
    for i, (v, want) in enumerate(zip(doc["x"], x_shapes)):
        if _shape(v) != want:
            return f"x of agent {i} has shape {_shape(v)}, expected {want}"
    if _shape(doc["rho"]) != rho_shape:
        return (f"rho has shape {_shape(doc['rho'])}, expected {rho_shape}, "
                f"one entry per agent")
    if len(doc["mu"]) != n_agents:
        return f"mu holds {len(doc['mu'])} rows for {n_agents} agents"
    for i, row in enumerate(doc["mu"]):
        if _shape(row) != mu_shape[1:]:
            return f"mu of agent {i} has shape {_shape(row)}, expected {mu_shape[1:]}"
    for k in keys:
        if _shape(doc["lambda"][k]) != lam_shape[1:]:
            return (f"lambda[{k}] has shape {_shape(doc['lambda'][k])}, "
                    f"expected {lam_shape[1:]}")
    return None


def _snapshot_from_dict(doc: dict, keys: list[str],
                        shapes: list[tuple]) -> tuple:
    """One snapshot document as the (t, x, rho, mu, lam) that ``_stack``
    takes.  ``shapes`` holds each agent's x_i shape, then the shapes of rho,
    mu and lambda; a snapshot whose arrays differ raises a ValueError
    naming the field."""
    t = _integer(doc["t"], "snapshot t")
    given = doc["lambda"]
    missing = [k for k in keys if k not in given]
    extra = sorted(set(given) - set(keys))
    if missing or extra:
        raise ValueError(
            f"snapshot {t}: lambda keys do not match the graph's directed "
            f"edges (missing {missing}, extra {extra})")
    error = ""
    try:
        x = [np.asarray(v, dtype=float) for v in doc["x"]]
        rho = np.asarray(doc["rho"], dtype=float)
        mu = np.asarray(doc["mu"], dtype=float)
        lam = (np.array([given[k] for k in keys], dtype=float) if keys
               else np.empty(shapes[-1]))
        fits = [v.shape for v in x] + [rho.shape, mu.shape, lam.shape] == shapes
    except ValueError as exc:       # ragged nesting, or not numbers
        fits, error = False, str(exc)
    if not fits:
        raise ValueError(f"snapshot {t}: {_shape_fault(doc, keys, shapes) or error}")
    return t, x, rho, mu, lam


def trace_to_dict(trace: RunTrace) -> dict:
    """The trace as a JSON document with a copy of its config.  The problem
    dict, by far the largest part, is shared with the trace, not copied."""
    stats = message_stats(trace)
    keys = _lambda_keys(trace.graph)
    snaps = trace.snapshots
    bounds = np.cumsum([0] + [int(a["dim"]) for a in trace.problem["agents"]]).tolist()
    return {"format": "rsdd-trace", "version": 1,
            "problem": trace.problem, "problem_hash": trace.problem_hash,
            "graph": trace.graph.to_dict(), "config": copy.deepcopy(trace.config),
            "status": trace.status, "iterations": trace.iterations,
            "message_count": stats.total,
            "bytes_estimate": stats.bytes_total,
            "warnings": list(trace.warnings),
            "snapshots": [
                {"t": t, "x": [x[a:b] for a, b in zip(bounds, bounds[1:])],
                 "rho": rho, "mu": mu, "lambda": dict(zip(keys, lam))}
                for t, x, rho, mu, lam in zip(
                    snaps.t.tolist(), snaps.x.tolist(), snaps.rho.tolist(),
                    snaps.mu.tolist(), snaps.lam.tolist())]}


def trace_from_dict(doc: dict) -> RunTrace:
    """Rebuild a trace from its JSON document.  The stored message totals
    and an optional ``messages`` block (written by older versions) are
    ignored: both follow from the graph and the round count.

    Each snapshot's arrays must have the shapes the embedded problem and
    graph give (x_i of its agent's ``dim``, rho (N,), mu (N, S), each
    lambda entry (S,)); a ValueError names the snapshot's t, the field and
    the agent or edge otherwise, and so does one for a config without a
    readable ``M`` or ``schedule``, or for a non-integral node id, node
    count, t, ``iterations``, agent ``dim`` or ``coupling_dim``.  The trace
    gets a copy of the config and shares the problem dict, as in
    ``trace_to_dict``.
    """
    if not isinstance(doc, dict) or doc.get("format") != "rsdd-trace":
        raise ValueError("not a trace document")
    config = copy.deepcopy(doc["config"])
    for name, read in (("M", float), ("schedule", schedule_from_dict)):
        try:
            read(config[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"config field '{name}' is missing or malformed: {exc!r}") from exc
    graph = Graph(n_nodes=doc["graph"]["n_nodes"],
                  edges=[tuple(e) for e in doc["graph"]["edges"]])
    keys = _lambda_keys(graph)
    s_dim = _integer(doc["problem"]["coupling_dim"], "coupling_dim")
    dims = [_integer(a["dim"], f"agents[{i}].dim")
            for i, a in enumerate(doc["problem"]["agents"])]
    if len(dims) != graph.n_nodes:
        raise ValueError(f"the graph has {graph.n_nodes} nodes for "
                         f"{len(dims)} agents")
    shapes = [(d,) for d in dims] + [(len(dims),), (len(dims), s_dim),
                                     (len(keys), s_dim)]
    return RunTrace(problem=doc["problem"], problem_hash=doc["problem_hash"],
                    graph=graph, config=config, status=doc["status"],
                    iterations=_integer(doc["iterations"], "iterations"),
                    warnings=list(doc.get("warnings", [])),
                    snapshots=_stack([_snapshot_from_dict(s, keys, shapes)
                                      for s in doc["snapshots"]],
                                     graph, dims, s_dim))


def save_trace(trace: RunTrace, path) -> None:
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one, with the same bytes at about 2-4x the time.
    with open(path, "w") as fh:
        fh.write(json.dumps(trace_to_dict(trace)))


def load_trace(path) -> RunTrace:
    with open(path) as fh:
        return trace_from_dict(json.load(fh))
