"""Smoke tests of tools/ab.py: this checkout timed against itself and
against a copy whose trajectories differ."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree_state(root: Path) -> dict:
    """Every file under the checkout's code directories, with its size and
    modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for d in ("src", "bench", "tools", "tests") for p in (root / d).rglob("*")
            if p.is_file()}


def test_ab_times_a_checkout_against_itself():
    """An A/A run: every workload runs its minimum of pairs, both sides
    record the same traces, and nothing is written inside the checkout."""
    before = tree_state(ROOT)
    proc = subprocess.run([sys.executable, "tools/ab.py", ".", ".", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *lines = proc.stdout.strip().splitlines()
    assert header.split()[:2] == ["workload", "pairs"]
    rows = {line.split()[0]: line.split() for line in lines}
    assert set(rows) == {"microgrid", "random-3", "random-200"}
    for fields in rows.values():
        assert int(fields[1]) >= 3
        ratio, won, identical = float(fields[-3]), int(fields[-2]), fields[-1]
        assert ratio > 0 and 0 <= won <= int(fields[1])
        assert identical == "yes"
    assert tree_state(ROOT) == before


def test_ab_says_how_far_differing_traces_end_apart(tmp_path):
    """Against a copy whose local solves stop at a looser tolerance, the
    random-3 traces differ slightly: the row reads NO, and
    the line after it gives each side's round count and the largest |dx|
    and |dmu| between the final rounds."""
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src" / "rsdd", change / "src" / "rsdd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    core = change / "src" / "rsdd" / "core.py"
    text = core.read_text()
    assert text.count("\n_SOLVER_TOL = 1e-9\n") == 1
    core.write_text(text.replace("\n_SOLVER_TOL = 1e-9\n", "\n_SOLVER_TOL = 1e-8\n"))
    proc = subprocess.run([sys.executable, "tools/ab.py", ".", str(change), "--seconds", "0",
                           "--workload", "random-3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _, row, difference = proc.stdout.strip().splitlines()
    assert row.split()[0] == "random-3" and row.split()[-1] == "NO"
    found = re.fullmatch(r"\s*random-3 traces differ: rounds (\d+) / (\d+), "
                         r"final round max \|dx\| (\S+), max \|dmu\| (\S+)", difference)
    assert found, difference
    assert int(found[1]) >= 1 and int(found[2]) >= 1
    dx, dmu = float(found[3]), float(found[4])
    assert 0.0 < max(dx, dmu) < 1e-6
