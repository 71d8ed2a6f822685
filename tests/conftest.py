"""Shared fixtures: the bundled two-agent example and recorded runs of it."""

from __future__ import annotations

import pytest
from hypothesis import settings

from rsdd.core import AlgorithmConfig, harmonic_schedule
from rsdd.network_sim import build_graph, run
from rsdd.oracle import solve_centralized
from rsdd.problem_model import build_microgrid_instance, two_agent_demo

# CI runs with --hypothesis-profile=ci: the same draws on every run, so a
# CI failure is never a one-off, and a failing example printed as a blob
# that @reproduce_failure replays.  New draws come from local runs, which
# keep the default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def demo():
    return two_agent_demo()


@pytest.fixture(scope="session")
def demo_oracle(demo):
    return solve_centralized(demo)


@pytest.fixture(scope="session")
def demo_trace(demo):
    """Short fixed-length run of the demo."""
    cfg = AlgorithmConfig(M=10.0, schedule=harmonic_schedule(1.0, 0.8),
                          max_iters=120, enable_early_stop=False)
    return run(demo, build_graph("path", 2), cfg)


@pytest.fixture(scope="session")
def demo_converged_trace(demo):
    """Demo run left to its stopping rule; converges well before the cap."""
    cfg = AlgorithmConfig(M=10.0, schedule=harmonic_schedule(1.0, 0.8),
                          max_iters=5000)
    return run(demo, build_graph("path", 2), cfg)


@pytest.fixture(scope="session")
def microgrid():
    return build_microgrid_instance()
