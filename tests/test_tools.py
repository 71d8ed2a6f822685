"""Smoke test of tools/ab.py: this checkout timed against itself."""

from __future__ import annotations

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
