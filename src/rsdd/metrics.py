"""Per-iteration metrics of a recorded run and the run-artifact files.

The metric set mirrors what one plots to judge the method: worst coupling
violation, total relaxation, cost against the centralized optimum, each
agent's tracking of the rest of the network's constraint usage, and the
disagreement between neighboring multipliers.  Artifacts are flat CSV
(12 significant digits) or JSON (bit-exact round trip).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .network_sim import _CONSISTENCY_TOL, RunTrace, message_stats
from .oracle import OracleResult
from .problem_model import agent_total, agent_values, problem_from_dict

_BASE_COLUMNS = ["t", "max_violation", "sum_rho", "cost", "cost_error_norm",
                 "lambda_consistency", "mu_spread"]


@dataclass
class IterationMetrics:
    """One row of the run artifact.

    ``max_violation`` is the signed worst component of sum_i g_i(x_i), so a
    strictly feasible iterate shows a negative value.  ``cost`` includes the
    relaxation charge M * sum_i rho_i.  ``tracking_error[i]`` is the
    infinity-norm gap between agent i's edge-variable aggregate and the
    constraint usage of everyone else, the quantity the edge variables are
    supposed to track.
    """

    t: int
    max_violation: float
    sum_rho: float
    cost: float
    cost_error_norm: float
    lambda_consistency: float
    mu_spread: float
    tracking_error: np.ndarray


def compute_metrics(trace: RunTrace,
                    oracle: OracleResult) -> list[IterationMetrics]:
    """One IterationMetrics per snapshot; pure function of its inputs.

    Every column is computed over the whole trace at once, from the arrays
    of ``trace.snapshots`` and ``agent_values``; the rows equal, bit for
    bit, what evaluating each round on its own gives.

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
    return [IterationMetrics(
        t=t, max_violation=v, sum_rho=r, cost=c, cost_error_norm=e,
        lambda_consistency=lc, mu_spread=sp, tracking_error=tr)
        for t, v, r, c, e, lc, sp, tr in zip(
            ts.tolist(), total_g.max(axis=1).tolist(), sum_rho.tolist(),
            cost.tolist(), err.tolist(), consistency.tolist(),
            spread.tolist(), tracking)]


def _columns(n_agents: int) -> list[str]:
    return _BASE_COLUMNS + [f"tracking_error_{i + 1}" for i in range(n_agents)]


def _row_values(m: IterationMetrics) -> list[float]:
    return [m.max_violation, m.sum_rho, m.cost, m.cost_error_norm,
            m.lambda_consistency, m.mu_spread, *m.tracking_error.tolist()]


def emit_run_artifact(metrics: list[IterationMetrics], trace: RunTrace,
                      path, fmt: str | None = None) -> None:
    """Write the metric rows to ``path`` as CSV or JSON.

    ``fmt`` defaults from the file suffix (.json selects JSON).  CSV rows
    carry 12 significant digits; the JSON artifact also embeds run metadata
    and round-trips float values exactly.
    """
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    cols = _columns(trace.graph.n_nodes)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for m in metrics:
                writer.writerow([m.t] + [f"{v:.12g}" for v in _row_values(m)])
    elif fmt == "json":
        stats = message_stats(trace)
        doc = {"format": "rsdd-run-artifact", "version": 1,
               "problem_hash": trace.problem_hash, "status": trace.status,
               "iterations": trace.iterations,
               "message_count": stats.total,
               "bytes_estimate": stats.bytes_total,
               "columns": cols,
               "rows": [[m.t] + _row_values(m) for m in metrics]}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))  # the C encoder, as in save_trace
    else:
        raise ValueError(f"unknown artifact format '{fmt}'")


def load_run_artifact(path) -> list[IterationMetrics]:
    """Read back an artifact written by emit_run_artifact."""
    path = str(path)
    with open(path) as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            doc = json.load(fh)
            if doc.get("format") != "rsdd-run-artifact":
                raise ValueError("not a run artifact document")
            rows = doc["rows"]
        else:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no header
            if header[:7] != _BASE_COLUMNS:
                raise ValueError("not a run artifact CSV")
            rows = [[float(v) for v in row] for row in reader]
    return [IterationMetrics(
        t=int(r[0]), max_violation=r[1], sum_rho=r[2], cost=r[3],
        cost_error_norm=r[4], lambda_consistency=r[5], mu_spread=r[6],
        tracking_error=np.asarray(r[7:], dtype=float)) for r in rows]
