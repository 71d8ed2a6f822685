"""The package's public surface."""

from __future__ import annotations

import rsdd


def test_every_exported_name_resolves():
    missing = [name for name in rsdd.__all__ if not hasattr(rsdd, name)]
    assert missing == []
    assert len(set(rsdd.__all__)) == len(rsdd.__all__)
