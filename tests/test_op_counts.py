"""Ring-call budgets of reduced decisions.

The 2x2 layer forms each entry of a product, each coordinate of a vector
action and each residue determinant with one dot call, inverts by the L D U
factorisation and evaluates quadratics in three calls.  These tests count
the public ring ops one decision makes, wrapped on the ring classes as the
benchmark's tracer wraps them (a sub counts its add and neg too), and fail
when a route goes back to per-term calls.
"""

from collections import Counter

import pytest

from cleanmatrix import rings
from cleanmatrix.clean import decide_strongly_clean
from cleanmatrix.literals import parse_matrix, parse_ring
from cleanmatrix.piregular import decide_strongly_pi_regular

OPS = ("add", "mul", "neg", "sub", "invert", "dot")


@pytest.fixture
def ring_calls(monkeypatch):
    counts = Counter()

    def counted(name, original):
        def op(*args):
            counts[name] += 1
            return original(*args)

        return op

    for cls in vars(rings).values():
        if isinstance(cls, type) and issubclass(cls, rings.LocalRing):
            for name in OPS:
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, counted(name, vars(cls)[name]))
    return counts


# (ring, matrix, decider, status, most calls per op); the matrices reduce
# to companion form through a nontrivial basis change in both deciders
BUDGETS = [
    ("GF(2,4)", "[[1+w,w],[1+w,w]]", decide_strongly_clean, "NontrivialClean",
     {"add": 26, "mul": 19, "neg": 25, "sub": 13, "invert": 5, "dot": 45}),
    ("GF(2,4)", "[[1+w,w],[1+w,w]]", decide_strongly_pi_regular, "Nontrivial",
     {"add": 4, "mul": 14, "neg": 9, "sub": 0, "invert": 6, "dot": 29}),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]", decide_strongly_clean,
     "NontrivialClean",
     {"add": 49, "mul": 28, "neg": 39, "sub": 18, "invert": 7, "dot": 45}),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]", decide_strongly_pi_regular,
     "Nontrivial",
     {"add": 19, "mul": 26, "neg": 14, "sub": 5, "invert": 6, "dot": 29}),
]


@pytest.mark.parametrize(
    "spec, matrix, decide, status, budget", BUDGETS,
    ids=[f"{b[0]}-{b[2].__name__}" for b in BUDGETS],
)
def test_reduced_decision_ring_calls(ring_calls, spec, matrix, decide, status, budget):
    A = parse_matrix(parse_ring(spec), matrix)
    ring_calls.clear()
    assert decide(A).status == status
    over = {op: ring_calls[op] for op in OPS if ring_calls[op] > budget[op]}
    assert not over, f"ring calls above budget {budget}: {over}"
