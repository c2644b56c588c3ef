"""Shared fixtures, and the hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects the "ci" profile, which draws ten times the
default number of examples; a local run keeps the default budget.
"""

import os

import pytest
import ring_references
from hypothesis import settings

from cleanmatrix.rings import (
    TABLE_CAP,
    Element,
    FiniteRing,
    GaloisFieldRing,
    LocalRing,
    ModPrimePowerRing,
    TruncatedRing,
)

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


@pytest.fixture
def refuse_element_fills(monkeypatch):
    """Make element-level arithmetic fail where the index route must serve: a
    public element op (add, mul, neg, invert, **, frobenius) entered while an
    index op runs, a polynomial product on a field that has its log tables,
    and the element-level references of ring_references on a ring of at most
    TABLE_CAP elements.  A fill that falls back to any of them fails its test."""
    running = [0]

    def index_op(original):
        def op(self, *args):
            running[0] += 1
            try:
                return original(self, *args)
            finally:
                running[0] -= 1

        return op

    def element_op(name, original):
        def op(self, *args):
            if running[0]:
                raise AssertionError(f"an index op fell back to {name}")
            return original(self, *args)

        return op

    for cls in (ModPrimePowerRing, GaloisFieldRing, TruncatedRing):
        for name in ("_add_ix", "_neg_ix", "_mul_ix", "_inv_ix"):
            monkeypatch.setattr(cls, name, index_op(vars(cls)[name]))
    for owner, name in ((FiniteRing, "add"), (FiniteRing, "mul"), (FiniteRing, "neg"),
                        (FiniteRing, "invert"), (Element, "__pow__"),
                        (GaloisFieldRing, "frobenius")):
        monkeypatch.setattr(owner, name, element_op(name, getattr(owner, name)))

    poly = GaloisFieldRing._poly_mul_ix

    def guarded_poly(self, *args):
        if self.size() <= TABLE_CAP and "_logs" in vars(self):
            raise AssertionError(f"{self.spec_string()} multiplied polynomials")
        return poly(self, *args)

    monkeypatch.setattr(GaloisFieldRing, "_poly_mul_ix", guarded_poly)

    def reference(name, original):
        def op(R, *els):
            if R.size() <= TABLE_CAP:
                raise AssertionError(f"{R.spec_string()} used the reference {name}")
            return original(R, *els)

        return op

    for name in ("add", "neg", "mul", "invert"):
        original = getattr(ring_references, name)
        monkeypatch.setattr(ring_references, name, reference(name, original))
