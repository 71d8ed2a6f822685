"""The package's public surface."""

from __future__ import annotations

import subprocess
import sys
import textwrap

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
