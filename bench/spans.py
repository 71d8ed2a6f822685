"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``[name, start, end, parent, payload]`` with ``perf_counter``
times and ``parent`` the index of the enclosing span (-1 at the top).  The
benchmark opens spans around its own calls (set-up, ``run``, report, check)
and, for a traced run, swaps the program's public callables for wrappers
that open a span per call.  Nothing under ``src/`` changes; the wrappers
are removed again when the traced section ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.records))
        self.records.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``on_result(result, bound_arguments)`` fills the span's payload
        after the span has closed, so its cost is not charged to the layer.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if on_result is not None else None

        def wrapper(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._end(rec)
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = on_result(result, bound.arguments)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def median(self, name: str) -> float:
        """The median of the recorded spans of one step.

        The host's speed follows its neighbours' load and changes within
        seconds.  Over six processes per workload, the median of a run's
        samples spread by 7-20% (IQR / median) from process to process and
        the fastest sample by 19-55% (bench/README.md), so every time the
        benchmark reports is a median over a run of many short samples.
        """
        return statistics.median(self.durations(name))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.records):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def install_program_wrappers(spans: Spans) -> None:
    """Wrap the program's public callables named in bench/README.md."""
    from rsdd import core, oracle, qp_solver

    def batch_payload(sols, args):
        return ([s.iterations for s in sols],
                max(s.kkt_residual for s in sols), args["max_iter"])

    spans.wrap(core.LocalSolverPool, "__init__", "core.pool_init")
    spans.wrap(core.LocalSolverPool, "solve_all", "core.solve_all")
    spans.wrap(qp_solver.QpBatch, "solve", "qp_solver.batch_solve",
               on_result=batch_payload)
    spans.wrap(qp_solver, "kkt_residuals", "qp_solver.kkt")
    spans.wrap(oracle, "solve_qp", "oracle.solve_qp",
               on_result=lambda sol, _: sol.iterations)


def per_layer(spans: Spans, rounds: int) -> dict[str, float]:
    """Per-layer figures of a traced run; ``rounds`` counts every round
    attempted inside the recorded ``network_sim.run`` spans."""
    recs = spans.records
    in_run = []
    for name, _, _, parent, _ in recs:
        in_run.append(name == "network_sim.run" or (parent >= 0 and in_run[parent]))

    def total(name: str, parent_name: str | None = None) -> float:
        return sum(r[2] - r[1] for k, r in enumerate(recs)
                   if r[0] == name and in_run[k]
                   and (parent_name is None
                        or (r[3] >= 0 and recs[r[3]][0] == parent_name)))

    batches = [r[4] for k, r in enumerate(recs)
               if r[0] == "qp_solver.batch_solve" and in_run[k] and r[4] is not None]
    elem_iters = [it for iters, _, _ in batches for it in iters]
    batch_iters = [max(iters) for iters, _, _ in batches]
    n_runs = len(spans.durations("network_sim.run"))
    kkt = total("qp_solver.kkt", "qp_solver.batch_solve")
    batch = total("qp_solver.batch_solve", "core.solve_all")
    solve_all = total("core.solve_all", "network_sim.run")
    pool_init = total("core.pool_init", "network_sim.run")
    run_total = total("network_sim.run")
    elem_mean = statistics.fmean(elem_iters)
    batch_mean = statistics.fmean(batch_iters)
    ms = 1e3 / rounds
    return {
        "qp_solver.batch_solve_self_ms": (batch - kkt) * ms,
        "qp_solver.kkt_ms": kkt * ms,
        "qp_solver.batch_calls": sum(1 for k, r in enumerate(recs)
                                     if r[0] == "qp_solver.batch_solve"
                                     and in_run[k]) / rounds,
        "qp_solver.elem_iters_mean": elem_mean,
        "qp_solver.batch_iters_mean": batch_mean,
        "qp_solver.iter_useful_ratio": elem_mean / batch_mean,
        "qp_solver.capped_solves": sum(
            sum(1 for it in iters if it == cap) for iters, _, cap in batches) / n_runs,
        "qp_solver.local_kkt_max": max(k for _, k, _ in batches),
        "core.solve_all_self_ms": (solve_all - batch) * ms,
        "core.pool_init_s": spans.median("core.pool_init"),
        "network_sim.round_self_ms": (run_total - solve_all - pool_init) * ms,
        "network_sim.run_s_traced": spans.median("network_sim.run"),
        "network_sim.save_s": spans.median("network_sim.save"),
        "network_sim.load_s": spans.median("network_sim.load"),
        "network_sim.check_s": spans.median("network_sim.check"),
        "metrics.compute_s": spans.median("metrics.compute"),
        "metrics.emit_s": spans.median("metrics.emit"),
        "oracle.solve_s": spans.median("oracle.solve_qp"),
        "oracle.ipm_iters": [r[4] for r in recs if r[0] == "oracle.solve_qp"][-1],
        "problem_model.validate_s": spans.median("problem_model.validate"),
        "problem_model.build_s": spans.median("problem_model.build"),
    }
