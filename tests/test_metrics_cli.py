"""Metric computation, run artifacts, and the command-line surface."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rsdd.cli import main
from rsdd.core import AlgorithmConfig, harmonic_schedule
from rsdd.metrics import (RunMetrics, compute_metrics, emit_run_artifact,
                          load_run_artifact)
from rsdd.network_sim import build_graph, run, save_trace
from rsdd.oracle import solve_centralized
from rsdd.problem_model import (AffineMap, AgentProblem,
                                ConstraintCoupledProblem, LocalSet,
                                problem_from_dict, problem_to_dict,
                                two_agent_demo)


def tiny_pair() -> ConstraintCoupledProblem:
    """Two scalar agents whose first rounds work out by hand.

    f1 = (x+1)^2 with usage x + 0.5, f2 = (x-1)^2 with usage x - 0.2,
    coupled by f1-usage + f2-usage <= 0. Centralized optimum by Lagrange:
    x = (-1.15, 0.85), f* = 0.045, mu* = 0.3.
    """
    a1 = AgentProblem(dim=1, cost_quadratic=np.array([[2.0]]),
                      cost_linear=np.array([2.0]), cost_constant=1.0,
                      local_set=LocalSet(lb=[-3.0], ub=[3.0]),
                      coupling=AffineMap(np.array([[1.0]]), np.array([0.5])))
    a2 = AgentProblem(dim=1, cost_quadratic=np.array([[2.0]]),
                      cost_linear=np.array([-2.0]), cost_constant=1.0,
                      local_set=LocalSet(lb=[-3.0], ub=[3.0]),
                      coupling=AffineMap(np.array([[1.0]]), np.array([-0.2])))
    return ConstraintCoupledProblem(agents=[a1, a2], coupling_dim=1)


def empty_metrics(n_agents: int) -> RunMetrics:
    """The metrics of a run without rounds."""
    return RunMetrics(np.zeros(0, dtype=int), *[np.zeros(0)] * 6,
                      np.zeros((0, n_agents)))


@pytest.fixture(scope="module")
def tiny():
    return tiny_pair()


@pytest.fixture(scope="module")
def tiny_oracle(tiny):
    return solve_centralized(tiny)


@pytest.fixture(scope="module")
def tiny_trace(tiny):
    cfg = AlgorithmConfig(M=5.0, schedule=harmonic_schedule(0.5, 0.8),
                          max_iters=1, enable_early_stop=False)
    return run(tiny, build_graph("path", 2), cfg)


class TestComputeMetrics:
    def test_hand_checked_rows(self, tiny, tiny_oracle, tiny_trace):
        assert tiny_oracle.f_star == pytest.approx(0.045, abs=1e-8)
        assert tiny_oracle.mu_star[0] == pytest.approx(0.3, abs=1e-6)
        m = compute_metrics(tiny_trace, tiny_oracle)
        assert len(m) == 2
        assert m.t.dtype == int and m.tracking_error.shape == (2, 2)

        # Round 0 at lambda = 0: x = (-1, 0.2), mu = (0, 1.6).
        assert m.t[0] == 0
        assert m.max_violation[0] == pytest.approx(-0.5, abs=1e-6)
        assert m.sum_rho[0] == pytest.approx(0.0, abs=1e-7)
        assert m.cost[0] == pytest.approx(0.64, abs=1e-6)
        assert m.cost_error_norm[0] == pytest.approx(0.595 / 0.045, abs=1e-4)
        assert m.lambda_consistency[0] == 0.0
        assert m.mu_spread[0] == pytest.approx(1.6, abs=1e-6)
        # Zero lambda: the tracking gap is the others' usage, exactly.
        assert m.tracking_error[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert m.tracking_error[0, 1] == pytest.approx(0.5, abs=1e-6)

        # gamma_0 = 0.5 moves lambda to (0.8, -0.8): x = (-2.1, 1),
        # mu = (2.2, 0).
        assert m.max_violation[1] == pytest.approx(-0.8, abs=1e-6)
        assert m.cost[1] == pytest.approx(1.21, abs=1e-6)
        assert m.mu_spread[1] == pytest.approx(2.2, abs=1e-6)
        assert m.tracking_error[1, 0] == pytest.approx(0.8, abs=1e-6)
        assert m.tracking_error[1, 1] == pytest.approx(0.0, abs=1e-6)

    def test_converged_demo_metrics(self, demo_trace, demo_converged_trace,
                                    demo_oracle):
        m = compute_metrics(demo_converged_trace, demo_oracle)
        assert m.max_violation[-1] <= 1e-6
        assert m.cost_error_norm[-1] <= 1e-2
        # rho sits on its bound at convergence; allow solver rounding.
        assert np.all(m.sum_rho >= -1e-9)
        assert np.all(m.lambda_consistency == 0.0)

    def test_frozen_run_rows_identical(self, tiny):
        from rsdd.core import explicit_schedule
        cfg = AlgorithmConfig(M=5.0, schedule=explicit_schedule([0.0] * 8),
                              max_iters=4, enable_early_stop=False)
        with pytest.warns(UserWarning, match="unchecked"):
            trace = run(tiny, build_graph("path", 2), cfg)
        m = compute_metrics(trace, solve_centralized(tiny))
        for k in range(1, len(m)):
            assert m.max_violation[k] == pytest.approx(m.max_violation[0],
                                                       abs=1e-5)
            assert m.cost[k] == pytest.approx(m.cost[0], abs=1e-5)
            assert m.mu_spread[k] == pytest.approx(m.mu_spread[0], abs=1e-5)
            assert np.allclose(m.tracking_error[k], m.tracking_error[0],
                               atol=1e-5)

    def test_hash_mismatch_rejected(self, demo_trace, tiny_oracle):
        with pytest.raises(ValueError, match="different problems"):
            compute_metrics(demo_trace, tiny_oracle)

    def test_zero_f_star_absolute_error(self):
        agents = [AgentProblem(dim=1, cost_quadratic=np.zeros((1, 1)),
                               cost_linear=np.zeros(1),
                               local_set=LocalSet(lb=[-1.0], ub=[1.0]),
                               coupling=AffineMap(np.array([[1.0]]),
                                                  np.array([-0.5])))
                  for _ in range(2)]
        problem = ConstraintCoupledProblem(agents=agents, coupling_dim=1)
        oracle = solve_centralized(problem)
        cfg = AlgorithmConfig(M=2.0, max_iters=2, enable_early_stop=False)
        trace = run(problem, build_graph("path", 2), cfg)
        with pytest.warns(UserWarning, match="absolute"):
            m = compute_metrics(trace, oracle)
        for err, cost in zip(m.cost_error_norm, m.cost):
            assert err == pytest.approx(abs(cost), abs=1e-12)

    def test_cost_equals_sum_of_local_objectives(self, demo_trace,
                                                 demo_oracle):
        # The recorded cost is the sum of the agents' relaxed local
        # objectives eta_i at the round's edge variables.
        problem = problem_from_dict(demo_trace.problem)
        m = compute_metrics(demo_trace, demo_oracle)
        snaps = demo_trace.snapshots
        for x, rho, cost in zip(snaps.x, snaps.rho, m.cost):
            # The demo's agents are one-dimensional: x_i is entry i.
            total = sum(a.cost(x[i:i + 1]) + 10.0 * float(r)
                        for i, (a, r) in enumerate(zip(problem.agents, rho)))
            assert total == pytest.approx(cost, abs=1e-9)

    def test_feasible_rows_never_beat_f_star(self, demo_converged_trace,
                                             demo_oracle):
        m = compute_metrics(demo_converged_trace, demo_oracle)
        for viol, sum_rho, cost in zip(m.max_violation, m.sum_rho, m.cost):
            if viol <= 0.0 and sum_rho <= 1e-9:
                assert cost >= demo_oracle.f_star - 1e-6


class TestArtifacts:
    def test_csv_schema(self, tiny, tiny_oracle, tmp_path):
        cfg = AlgorithmConfig(M=5.0, schedule=harmonic_schedule(0.5, 0.8),
                              max_iters=2, enable_early_stop=False)
        trace = run(tiny, build_graph("path", 2), cfg)
        metrics = compute_metrics(trace, tiny_oracle)
        path = tmp_path / "run.csv"
        emit_run_artifact(metrics, trace, path)
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
        assert raw[0] == ["t", "max_violation", "sum_rho", "cost",
                          "cost_error_norm", "lambda_consistency",
                          "mu_spread", "tracking_error_1", "tracking_error_2"]
        assert len(raw) == 4  # header + 3 iterations
        assert all(len(r) == 9 for r in raw)

    def test_empty_metrics_header_only(self, tiny_trace, tmp_path):
        path = tmp_path / "empty.csv"
        emit_run_artifact(empty_metrics(2), tiny_trace, path)
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
        assert len(raw) == 1
        assert raw[0][0] == "t"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_header_only_loads_as_no_rounds(self, tiny_trace, tmp_path, suffix):
        # N comes from the header or `columns`, so no rows still give N
        # tracking columns.
        path = tmp_path / f"empty{suffix}"
        emit_run_artifact(empty_metrics(2), tiny_trace, path)
        loaded = load_run_artifact(path)
        assert len(loaded) == 0
        assert loaded.t.dtype == int
        assert loaded.max_violation.shape == (0,)
        assert loaded.tracking_error.shape == (0, 2)

    def test_json_round_trip_exact(self, tiny_trace, tiny_oracle, tmp_path):
        metrics = compute_metrics(tiny_trace, tiny_oracle)
        path = tmp_path / "run.json"
        emit_run_artifact(metrics, tiny_trace, path)
        loaded = load_run_artifact(path)
        assert len(loaded) == len(metrics)
        for f in fields(RunMetrics):
            a, b = getattr(metrics, f.name), getattr(loaded, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_csv_twelve_digits(self, tiny_trace, tiny_oracle, tmp_path):
        metrics = compute_metrics(tiny_trace, tiny_oracle)
        path = tmp_path / "run.csv"
        emit_run_artifact(metrics, tiny_trace, path)
        loaded = load_run_artifact(path)
        assert np.array_equal(loaded.t, metrics.t)
        for a, b in zip(metrics.cost, loaded.cost):
            assert b == pytest.approx(a, rel=1e-11)
        for a, b in zip(metrics.mu_spread, loaded.mu_spread):
            assert b == pytest.approx(a, rel=1e-11, abs=1e-12)

    def test_format_from_suffix(self, tiny_trace, tiny_oracle, tmp_path):
        metrics = compute_metrics(tiny_trace, tiny_oracle)
        path = tmp_path / "run.json"
        emit_run_artifact(metrics, tiny_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["format"] == "rsdd-run-artifact"
        assert doc["columns"][0] == "t"

    def test_unknown_format(self, tiny_trace, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact format"):
            emit_run_artifact(empty_metrics(2), tiny_trace, tmp_path / "x.dat",
                              fmt="xml")

    def test_load_rejects_foreign_files(self, tmp_path):
        bad_json = tmp_path / "other.json"
        bad_json.write_text('{"format": "something"}')
        with pytest.raises(ValueError, match="not a run artifact"):
            load_run_artifact(bad_json)
        bad_csv = tmp_path / "other.csv"
        bad_csv.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a run artifact"):
            load_run_artifact(bad_csv)

    @pytest.mark.parametrize("key", ["columns", "rows"])
    def test_load_names_a_missing_document_field(self, tiny_trace, tiny_oracle,
                                                 tmp_path, key):
        # A document without the field raised a bare KeyError.
        path = tmp_path / "run.json"
        emit_run_artifact(compute_metrics(tiny_trace, tiny_oracle), tiny_trace, path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_run_artifact(path)
        assert str(info.value) == f"run artifact document has no '{key}' field"
        path.write_text('{"format": "rsdd-run-artifact"}')
        with pytest.raises(ValueError, match="has no 'columns' field"):
            load_run_artifact(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("edit, count", [
        (lambda row: row[:-1], 8), (lambda row: row + [row[-1]], 10),
        (lambda row: row[:4], 4)], ids=["short", "long", "no-tracking"])
    def test_load_rejects_row_of_wrong_length(self, tiny_trace, tiny_oracle,
                                              tmp_path, fmt, edit, count):
        # A row must have a value for every column: with too few the tracking
        # columns came out short, or the read raised a bare IndexError.
        path = tmp_path / f"run.{fmt}"
        emit_run_artifact(compute_metrics(tiny_trace, tiny_oracle), tiny_trace, path)
        if fmt == "json":
            doc = json.loads(path.read_text())
            doc["rows"][1] = edit(doc["rows"][1])
            path.write_text(json.dumps(doc))
        else:
            with open(path, newline="") as fh:
                raw = list(csv.reader(fh))
            raw[2] = edit(raw[2])
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(raw)
        with pytest.raises(ValueError) as info:
            load_run_artifact(path)
        assert str(info.value) == f"artifact row 1 has {count} values for 9 columns"

    def test_load_rejects_empty_file(self, tmp_path):
        # An empty file has no header row: a ValueError, not the reader's
        # StopIteration (a RuntimeError inside a generator).
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="not a run artifact CSV"):
            load_run_artifact(empty)


class TestCli:
    def test_demo_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        trace_path = tmp_path / "demo-trace.json"
        code = main(["demo", "--iters", "300", "--out", str(out),
                     "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "f_star = 0.5" in captured.out
        assert "mu_star = 1" in captured.out
        assert "suggested_M = 20" in captured.out
        assert len(load_run_artifact(out)) == 300
        assert trace_path.exists()

    def test_oracle_subcommand(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main(["oracle", "--demo", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "f_star = 0.5" in captured.out
        assert "suggested_M = 20" in captured.out
        from rsdd.oracle import OracleResult
        with open(out) as fh:
            res = OracleResult.from_dict(json.load(fh))
        assert res.f_star == pytest.approx(0.5, abs=1e-8)

    def test_run_random_and_check(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        trace_path = tmp_path / "trace.json"
        code = main(["run", "--random", "3,2,2", "--topology", "path",
                     "--iters", "200", "--no-early-stop", "--seed", "4",
                     "--out", str(out), "--trace", str(trace_path)])
        assert code == 0
        assert len(load_run_artifact(out)) == 200
        capsys.readouterr()
        assert main(["check", str(trace_path)]) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_run_microgrid_row_count(self, tmp_path):
        out = tmp_path / "mg.csv"
        code = main(["run", "--microgrid", "default", "--topology", "cycle",
                     "--iters", "60", "--no-early-stop", "--M", "15",
                     "--gamma0", "0.02", "--exponent", "0.6",
                     "--out", str(out)])
        assert code == 0
        assert len(load_run_artifact(out)) == 60

    def test_check_corrupted_trace(self, demo_trace, tmp_path, capsys):
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["snapshots"][7]["lambda"]["0,1"][0] += 5.0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "iteration 7" in captured.out
        assert "lambda consistency" in captured.out
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invariant"

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_check_lambda_keys_mismatch(self, demo_trace, tmp_path, capsys,
                                        edit):
        # Snapshot lambda keys must be exactly the graph's directed edges.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        lam = doc["snapshots"][7]["lambda"]
        if edit == "missing":
            del lam["1,0"]
        else:
            lam["0,5"] = [0.0]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"
        assert "snapshot 7" in err["message"]

    @pytest.mark.parametrize("edit, message", [
        (lambda snap: snap["x"][1].extend([0.0, 0.0]),
         "x of agent 1 has shape (3,), expected (1,)"),
        (lambda snap: snap["rho"].append(0.0),
         "rho has shape (3,), expected (2,), one entry per agent"),
        (lambda snap: snap["mu"][0].append(0.0),
         "mu of agent 0 has shape (2,), expected (1,)"),
        (lambda snap: snap["lambda"]["1,0"].append(0.0),
         "lambda[1,0] has shape (2,), expected (1,)"),
        (lambda snap: snap["x"].append([0.0]), "x holds 3 vectors for 2 agents"),
        (lambda snap: snap["mu"].pop(), "mu holds 1 rows for 2 agents"),
        (lambda snap: snap["x"].__setitem__(0, [[0.0], 0.0]),
         "x of agent 0 has shape (ragged), expected (1,)"),
    ], ids=["x", "rho", "mu", "lambda", "x-count", "mu-count", "ragged"])
    def test_check_snapshot_shapes(self, demo_trace, tmp_path, capsys, edit,
                                   message):
        # Snapshot arrays must have the shapes the embedded problem and graph
        # give: a 3-entry x_i of a 1-dimensional agent is rejected on load.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc["snapshots"][7])
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"
        assert err["message"] == f"snapshot 7: {message}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field, edit", [
        ("x", lambda snap, v: snap["x"][1].__setitem__(0, v)),
        ("rho", lambda snap, v: snap["rho"].__setitem__(0, v)),
        ("mu", lambda snap, v: snap["mu"][1].__setitem__(0, v)),
        ("lambda", lambda snap, v: snap["lambda"]["0,1"].__setitem__(0, v)),
    ], ids=["x", "rho", "mu", "lambda"])
    def test_check_non_finite_entry(self, demo_trace, tmp_path, capsys, field,
                                    edit, value):
        # A NaN passes every `value > tol` comparison, so it is reported on
        # its own, before anything is evaluated at it.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc["snapshots"][5], value)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == [
            f"iteration 5: non-finite entries in {field}"]
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invariant"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(graph={"n_nodes": 2.6, "edges": [[0, 1.9]]}),
         "node count must be an integer, not 2.6"),
        (lambda doc: doc["graph"].update(edges=[[0, 1.9]]),
         "node id must be an integer, not 1.9"),
        (lambda doc: doc["snapshots"][3].update(t=3.5),
         "snapshot t must be an integer, not 3.5"),
        (lambda doc: doc.update(iterations=120.5),
         "iterations must be an integer, not 120.5"),
    ], ids=["n_nodes", "edge", "t", "iterations"])
    def test_check_non_integral_counts(self, demo_trace, tmp_path, capsys,
                                       edit, message):
        # int() would truncate these and the trace would pass its checks.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err.strip().splitlines()[-1]) == {
            "error": "invalid-input", "message": message}

    def test_oracle_non_integral_sizes(self, tmp_path, capsys):
        # int() truncated these at load, and the oracle solved the result.
        doc = problem_to_dict(two_agent_demo())
        doc["agents"][0]["dim"] = 1.7
        doc["coupling_dim"] = 1.2
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "problem-format",
             "message": "coupling_dim must be an integer, not 1.2"}]

    def test_check_non_integral_embedded_dim(self, demo_trace, tmp_path, capsys):
        # The trace's shapes come from the embedded problem's dims: a
        # truncated 1.7 read as 1 and the trace checked clean.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        doc = json.loads(path.read_text())
        doc["problem"]["agents"][0]["dim"] = 1.7
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err.strip().splitlines()[-1]) == {
            "error": "invalid-input",
            "message": "agents[0].dim must be an integer, not 1.7"}

    @pytest.mark.parametrize("edit, named", [
        (lambda config: config.pop("M"), "'M'"),
        (lambda config: config.pop("schedule"), "'schedule'"),
        (lambda config: config.update(schedule=None), "'schedule'"),
    ], ids=["no-M", "no-schedule", "null-schedule"])
    def test_check_config_fields(self, demo_trace, tmp_path, capsys, edit, named):
        # The checker needs the config's M and schedule: a trace without
        # them is rejected on load, naming the field, not with a traceback.
        path = tmp_path / "trace.json"
        save_trace(demo_trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc["config"])
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-input"
        assert err["message"].startswith(f"config field {named} is missing or malformed")

    def test_check_unreadable_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"

    @pytest.mark.parametrize("top", ["[1, 2]", "null", '"rsdd-trace"'])
    def test_check_non_object_trace(self, tmp_path, capsys, top):
        # Valid JSON whose top level is not an object is not a trace.
        path = tmp_path / "list.json"
        path.write_text(top)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "invalid-input",
                                        "message": "not a trace document"}

    def test_unknown_flag(self, capsys):
        code = main(["run", "--demo", "--bogus"])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "usage"

    def test_two_problem_sources_rejected(self, capsys):
        code = main(["run", "--demo", "--random", "3,2,2"])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"
        assert "exactly one problem source" in err["message"]

    def test_no_problem_source_rejected(self, capsys):
        code = main(["oracle"])
        capsys.readouterr()
        assert code == 1

    def test_json_artifact_format_flag(self, tmp_path):
        out = tmp_path / "run.out"
        code = main(["run", "--demo", "--topology", "path", "--iters", "50",
                     "--no-early-stop", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["format"] == "rsdd-run-artifact"
        assert len(doc["rows"]) == 50

    def test_seed_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("RSDD_SEED", "9")
        assert main(["oracle", "--random", "2,1,1"]) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("RSDD_SEED")
        assert main(["oracle", "--random", "2,1,1", "--seed", "9"]) == 0
        assert capsys.readouterr().out == env_out
        monkeypatch.setenv("RSDD_SEED", "10")
        assert main(["oracle", "--random", "2,1,1"]) == 0
        assert capsys.readouterr().out != env_out

    def test_m_warning_surfaces(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["run", "--demo", "--topology", "path", "--M", "0.2",
                     "--iters", "150", "--no-early-stop", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "likely too small" in captured.out

    def test_simulation_error_exit_code(self, monkeypatch, tmp_path, capsys,
                                        demo_trace):
        from rsdd import cli as climod
        from rsdd.network_sim import SimulationError

        def boom(problem, graph, config):
            raise SimulationError("local solver failed at iteration 3: test",
                                  demo_trace)

        monkeypatch.setattr(climod, "run", boom)
        code = main(["run", "--demo", "--topology", "path",
                     "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "solver"

    @pytest.mark.parametrize("argv", [
        ["run", "--demo", "--topology", "path", "--iters", "5"],
        ["demo", "--iters", "5"]], ids=["run", "demo"])
    def test_failed_local_qp_saved_next_to_trace(self, argv, monkeypatch,
                                                 tmp_path, capsys):
        # The demo's two agents share one batch of local steps, known by
        # their forms' Q (rho's column included, whatever M); element 1 is
        # diagnosed as failed in round 0, so the run exits 2 and leaves the
        # QP replayable.  The validation's feasibility batch of the same two
        # agents passes through.
        from rsdd.cli import failed_form_path
        from rsdd.core import LocalSolverPool
        from rsdd.qp_solver import QpBatch, QpError, load_form, solve_qp
        orig = QpBatch.solve
        raised = []
        local_steps = LocalSolverPool(two_agent_demo(), M=10.0).batch.forms

        def fail_element_1(self, tol=1e-8, max_iter=200):
            if not (len(self.forms) == len(local_steps) and all(
                    np.array_equal(f.Q, g.Q) for f, g in zip(self.forms, local_steps))):
                return orig(self, tol=tol, max_iter=max_iter)
            x0 = 0.5 * (self.lb[1] + self.ub[1])
            try:
                self._diagnose(1, x0, self._h()[1], max_iter, 1.0)
            except QpError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(QpBatch, "solve", fail_element_1)
        trace_path = tmp_path / "run.trace.json"
        code = main(argv + ["--out", str(tmp_path / "x.csv"),
                            "--trace", str(trace_path)])
        capsys.readouterr()
        assert code == 2
        assert trace_path.exists()
        cause, = raised
        assert cause.agent == 1
        loaded = load_form(failed_form_path(str(trace_path)))
        for name in ("Q", "c", "lb", "ub", "A_in", "b_in"):
            assert np.array_equal(getattr(loaded, name), getattr(cause.form, name))
        assert loaded.A_eq is None and cause.form.A_eq is None
        # One-form batches pass through to the real solver.
        assert solve_qp(loaded).kkt_residual <= 1e-8

    def test_qp_error_exit_code(self, monkeypatch, capsys):
        from rsdd import cli as climod
        from rsdd.qp_solver import QpNumericalError

        def boom(problem, tol=1e-8):
            raise QpNumericalError("interior-point breakdown", iterations=1,
                                   residual=1.0)

        monkeypatch.setattr(climod, "solve_centralized", boom)
        code = main(["oracle", "--demo"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err.strip().splitlines()[-1])["error"] \
            == "solver"

    @pytest.mark.parametrize("argv", [
        ["run", "--demo", "--topology", "path", "--iters", "0"],
        ["demo", "--iters", "0"]], ids=["run", "demo"])
    def test_iters_below_one_rejected_before_any_solve(self, argv, monkeypatch,
                                                       capsys):
        from rsdd import cli as climod

        def never(*args, **kwargs):
            raise AssertionError("solved before --iters was checked")

        for name in ("validate_problem", "solve_centralized", "run"):
            monkeypatch.setattr(climod, name, never)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1]) == {
            "error": "invalid-input", "message": "--iters must be at least 1"}

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        # An instance with an empty local set fails validation up front.
        doc = {"format": "rsdd-problem", "version": 1, "coupling_dim": 1,
               "agents": [{"dim": 1, "cost_quadratic": [[2.0]],
                           "cost_linear": [0.0],
                           "local_set": {"lb": [0.0], "ub": [1.0],
                                         "a_eq": [[1.0]], "b_eq": [5.0]},
                           "coupling": {"mat": [[1.0]], "vec": [0.0]}}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"
        assert "validation failed" in err["message"]

    def test_non_finite_problem_file_is_invalid_input(self, tmp_path, capsys):
        # json.load reads NaN, so a problem file can carry one; validation
        # must reject it before any solve can break down on it.
        doc = problem_to_dict(two_agent_demo())
        doc["agents"][1]["cost_linear"] = [float("nan")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--iters", "5", "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "invalid-input"
        assert "agent 1: non-finite values in cost_linear" in err["message"]


def _env_with_src() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestEntryPoints:
    def test_python_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "rsdd", "oracle",
                               "--demo"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "f_star = 0.5" in proc.stdout
        assert "suggested_M = 20" in proc.stdout

    def test_console_script(self):
        # Run the [project.scripts] entry point the way its installed
        # wrapper would, against this checkout's sources.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["rsdd"]
        module, func = entry.split(":")
        code = (f"import sys; from {module} import {func}; "
                f"sys.argv[0] = 'rsdd'; sys.exit({func}())")
        proc = subprocess.run([sys.executable, "-c", code, "oracle", "--demo"],
                              capture_output=True, text=True,
                              env=_env_with_src())
        assert proc.returncode == 0
        assert "f_star = 0.5" in proc.stdout

    def test_runs_without_networkx(self, tmp_path):
        # networkx is only the tests' reference for the topologies: the
        # package imports and every subcommand runs with it unimportable.
        trace, out = str(tmp_path / "t.json"), str(tmp_path / "x.csv")
        script = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None",
            "import rsdd",
            "from rsdd.cli import main",
            "codes = [main(['demo', '--iters', '5']),",
            f"         main(['demo', '--iters', '5', '--trace', {trace!r}]),",
            f"         main(['check', {trace!r}]),",
            "         main(['oracle', '--demo']),",
            "         main(['run', '--random', '5,2,3', '--topology',",
            f"               'erdos_renyi', '--iters', '5', '--out', {out!r}])]",
            "print('codes', codes)",
            "sys.exit(max(codes))"])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert "codes [0, 0, 0, 0, 0]" in proc.stdout
