"""Shared fixtures."""

import pytest

from cleanmatrix.rings import TABLE_CAP, LocalRing


@pytest.fixture
def refuse_scans(monkeypatch):
    """Make every enumeration fail, except the one by which a ring of at most
    TABLE_CAP elements builds its index tables: a decider route that still
    scans a ring or a large residue field then fails its test."""
    original = LocalRing.enumerate_elements

    def guarded(self, subset="All"):
        if subset == "All" and self.size() <= TABLE_CAP:
            return original(self, subset)
        raise AssertionError(f"{self.spec_string()} enumerated {subset!r}")

    monkeypatch.setattr(LocalRing, "enumerate_elements", guarded)
