"""Per-round metrics of a recorded run and the run-artifact files.

The metric set mirrors what one plots to judge the method: worst coupling
violation, total relaxation, cost against the centralized optimum, each
agent's tracking of the rest of the network's constraint usage, and the
disagreement between neighboring multipliers, as one :class:`RunMetrics`
record of whole-run columns.  Artifacts are flat CSV (12 significant
digits) or JSON (bit-exact round trip).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .network_sim import _CONSISTENCY_TOL, RunTrace, message_stats
from .oracle import OracleResult
from .problem_model import agent_total, agent_values, problem_from_dict


@dataclass
class RunMetrics:
    """Every round's metrics as whole-run columns, row k for round t[k];
    ``len()`` gives T.  The field order is the artifact's column order.  t
    is (T,) int, tracking_error (T, N) and every other field (T,).

    ``max_violation`` is the signed worst component of sum_i g_i(x_i), so a
    strictly feasible iterate shows a negative value.  ``cost`` includes the
    relaxation charge M * sum_i rho_i.  ``tracking_error[:, i]`` is the
    infinity-norm gap between agent i's edge-variable aggregate and the
    constraint usage of everyone else, the quantity the edge variables are
    supposed to track.
    """

    t: np.ndarray
    max_violation: np.ndarray
    sum_rho: np.ndarray
    cost: np.ndarray
    cost_error_norm: np.ndarray
    lambda_consistency: np.ndarray
    mu_spread: np.ndarray
    tracking_error: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def compute_metrics(trace: RunTrace, oracle: OracleResult) -> RunMetrics:
    """The RunMetrics of every snapshot; pure function of its inputs.

    Every column is computed over the whole trace at once, from the arrays
    of ``trace.snapshots`` and ``agent_values``; row k equals, bit for bit,
    what evaluating round k on its own gives.

    Raises ValueError when the oracle and trace hashes disagree, and
    AssertionError, naming the first snapshot at fault, if the telescoping
    edge identity is broken (that cannot happen in a genuine trace and
    indicates corruption).
    """
    if trace.problem_hash != oracle.problem_hash:
        raise ValueError("trace and oracle refer to different problems "
                         f"({trace.problem_hash[:12]} vs "
                         f"{oracle.problem_hash[:12]})")
    problem = problem_from_dict(trace.problem)
    m_price = float(trace.config["M"])
    f_star = oracle.f_star
    normalize = abs(f_star) >= 1e-12
    if not normalize:
        warnings.warn("optimal cost is zero; reporting absolute cost error",
                      stacklevel=2)
    graph = trace.graph
    snaps = trace.snapshots
    ts, xs, rho, mu, lam = snaps.t, snaps.x, snaps.rho, snaps.mu, snaps.lam

    consistency = np.abs(graph.telescoping_sum(lam)).max(axis=1)
    broken = np.flatnonzero(consistency > _CONSISTENCY_TOL)
    if broken.size:
        k = broken[0]
        raise AssertionError(
            f"iteration {ts[k]}: edge-variable consistency "
            f"{consistency[k]:.3e} exceeds {_CONSISTENCY_TOL:g}")

    g, f = agent_values(problem, xs)
    # np.sum over the agents, as a snapshot's own (N, S) sum rounds; the
    # cost adds the agents in order, as total_cost does.
    total_g = g.sum(axis=1)
    sum_rho = rho.sum(axis=1)
    cost = agent_total(f) + m_price * sum_rho
    err = np.abs(cost - f_star) / (abs(f_star) if normalize else 1.0)
    rest = total_g[:, None, :] - g
    tracking = np.abs(graph.shifts(lam) - rest).max(axis=2)
    spread = np.abs(graph.edge_step(0.0, 1.0, mu)).max(axis=(1, 2), initial=0.0)
    return RunMetrics(ts.copy(), total_g.max(axis=1), sum_rho, cost, err,
                      consistency, spread, tracking)


def _header(n_agents: int) -> list[str]:
    """The artifact's columns: RunMetrics' fields in order, the last one
    numbered 1..n_agents, one column per agent."""
    *names, per_agent = (f.name for f in fields(RunMetrics))
    return names + [f"{per_agent}_{i + 1}" for i in range(n_agents)]


def emit_run_artifact(metrics: RunMetrics, trace: RunTrace,
                      path, fmt: str | None = None) -> None:
    """Write the metrics to ``path`` as CSV or JSON, one row per round with
    the columns in RunMetrics' field order.

    ``fmt`` defaults from the file suffix (.json selects JSON).  CSV rows
    carry 12 significant digits; the JSON artifact also embeds run metadata
    and round-trips float values exactly.
    """
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    cols = _header(trace.graph.n_nodes)
    rows = zip(metrics.t.tolist(), np.column_stack(
        [getattr(metrics, f.name) for f in fields(RunMetrics)[1:]]).tolist())
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            writer.writerows([t] + [f"{v:.12g}" for v in row] for t, row in rows)
    elif fmt == "json":
        stats = message_stats(trace)
        doc = {"format": "rsdd-run-artifact", "version": 1,
               "problem_hash": trace.problem_hash, "status": trace.status,
               "iterations": trace.iterations,
               "message_count": stats.total,
               "bytes_estimate": stats.bytes_total,
               "columns": cols,
               "rows": [[t] + row for t, row in rows]}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))  # the C encoder, as in save_trace
    else:
        raise ValueError(f"unknown artifact format '{fmt}'")


def load_run_artifact(path) -> RunMetrics:
    """Read back an artifact written by emit_run_artifact.  N follows from
    the header (CSV) or ``columns`` (JSON), so a file without rows gives a
    (0, N) tracking_error.  A row with more or fewer values than columns,
    or a document without ``columns`` or ``rows``, raises a ValueError
    naming it."""
    path = str(path)
    with open(path) as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            doc = json.load(fh)
            if doc.get("format") != "rsdd-run-artifact":
                raise ValueError("not a run artifact document")
            for key in ("columns", "rows"):
                if key not in doc:
                    raise ValueError(f"run artifact document has no '{key}' field")
            kind, cols, rows = "document", doc["columns"], doc["rows"]
        else:
            reader = csv.reader(fh)
            cols = next(reader, [])  # an empty file has no header
            kind, rows = "CSV", [[float(v) for v in row] for row in reader]
    names = _header(0)
    if cols[:len(names)] != names:
        raise ValueError(f"not a run artifact {kind}")
    for i, row in enumerate(rows):
        if len(row) != len(cols):
            raise ValueError(f"artifact row {i} has {len(row)} values "
                             f"for {len(cols)} columns")
    table = np.array(rows, dtype=float).reshape(len(rows), len(cols))
    k = len(names)
    return RunMetrics(table[:, 0].astype(int), *table[:, 1:k].T, table[:, k:])
