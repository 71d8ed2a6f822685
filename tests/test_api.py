"""The package's public surface."""

from __future__ import annotations

import ast
import contextlib
import io
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import rsdd


def test_every_exported_name_resolves():
    missing = [name for name in rsdd.__all__ if not hasattr(rsdd, name)]
    assert missing == []
    assert len(set(rsdd.__all__)) == len(rsdd.__all__)


def test_numpy_is_the_only_runtime_dependency():
    """A short microgrid run, its validation and its oracle import neither
    scipy nor networkx.  The test environment has both (networkx is a test
    extra), so only a fresh interpreter shows a stray import."""
    script = textwrap.dedent("""
        import sys
        from rsdd import (AlgorithmConfig, build_graph, build_microgrid_instance,
                          harmonic_schedule, run, solve_centralized, validate_problem)
        problem = build_microgrid_instance()
        assert validate_problem(problem).ok
        solve_centralized(problem)
        config = AlgorithmConfig(M=15.0, schedule=harmonic_schedule(0.02, 0.6),
                                 max_iters=3, enable_early_stop=False)
        assert len(run(problem, build_graph("cycle", 10), config).snapshots) == 4
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("scipy", "networkx")))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_qp_solver_imports_no_other_rsdd_module():
    """The QP solver is the bottom layer: it sees forms, never agents, so
    ``src/rsdd/qp_solver.py`` imports nothing from the rest of the package,
    not even inside an ``if TYPE_CHECKING:`` block."""
    path = Path(__file__).resolve().parents[1] / "src" / "rsdd" / "qp_solver.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported, "no imports found: is this the solver module?"
    assert [m for m in imported
            if m.startswith(".") or m.split(".")[0] == "rsdd"] == []


def test_readme_quickstart_runs():
    """README.md's "Library quickstart" block runs as printed, and its
    first line of output is the one its comment gives."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    comment = next(line.split("#", 1)[1].strip() for line in block.splitlines()
                   if line.startswith("print(") and "#" in line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == comment == "tolerance-met 113"


def test_readme_command_line_runs(tmp_path):
    """Each command of README.md's first "Command line" block exits 0 when
    run as ``python -m rsdd`` in a fresh directory, and its ``rsdd check``
    passes the trace that its ``rsdd run`` wrote."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(c[0] == "rsdd" for c in commands)
    assert commands[-1][:2] == ["rsdd", "check"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(rsdd.__file__).resolve().parents[1])]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert proc.stdout.startswith("trace ok")
