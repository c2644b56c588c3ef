"""Ring-call budgets of reduced decisions.

The 2x2 layer forms each entry of a product, each coordinate of a vector
action and each residue determinant with one dot call, inverts by the L D U
factorisation and evaluates quadratics in three calls.  Over a commutative
ring the deciders read the quadratic off tr A and det A and build a
certificate from A itself, with no companion form, and over a commutative
truncated ring the root search lifts one root of the quadratic and reads the
other off the sum of the roots; on Z/p^k it scans J on payload integers, with
no ring call per candidate.  A skew ring reduces to its companion form and
lifts each root from its residue root; a pi decision on Z/p^k lifts by
Newton's step on payloads.  A TrivialUnit verdict takes the two calls of
the residue determinant, and a TrivialOneMinusUnit verdict two residue adds
more and the three calls of A - I, which changes only the diagonal.  A
second decision on the same residue matrix, on a ring with a residue table,
reads the case and the basis vector from its slot: no residue-field call
for the case, no kernel vector, and no invertibility test in a reduction
(the budgets above are cold upper bounds, which a warm slot only lowers).  These
tests count the public ring ops one decision makes, wrapped on the ring
classes as the benchmark's tracer wraps them (a sub counts its add and neg
too), and fail when a route goes back to per-term calls or to the companion
reduction.  A check of a decider's clean certificate reads its
diagonalization and forms no product of E with U, and a skew pi decision
settles TrivialNilpotent from tr Abar before it reduces.  A parsed matrix
literal evaluates each integer token and each power of a name once.
"""

import sys
from collections import Counter

import pytest

from cleanmatrix import clean, companion, piregular, quadratics, rings
from cleanmatrix.clean import decide_strongly_clean, verify_certificate
from cleanmatrix.literals import parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2
from cleanmatrix.piregular import decide_strongly_pi_regular

OPS = ("add", "mul", "neg", "sub", "invert", "dot")


def count_ring_calls(monkeypatch, key):
    """A Counter of public ring ops by key(ring, op name), from now on."""
    counts = Counter()

    def counted(name, original):
        def op(ring, *args):
            counts[key(ring, name)] += 1
            return original(ring, *args)

        return op

    for cls in vars(rings).values():
        if isinstance(cls, type) and issubclass(cls, rings.LocalRing):
            for name in OPS:
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, counted(name, vars(cls)[name]))
    return counts


@pytest.fixture
def ring_calls(monkeypatch):
    return count_ring_calls(monkeypatch, lambda ring, name: name)


def refuse_reduction(monkeypatch, what):
    def refuse(*args):
        raise AssertionError(f"{what} reached the companion reduction")

    monkeypatch.setattr(clean, "reduce_to_companion", refuse)
    monkeypatch.setattr(piregular, "reduce_to_companion_pi", refuse)


def patch_quadratics(monkeypatch, name, replacement):
    """Replace quadratics.<name> in every cleanmatrix module that holds it."""
    original = getattr(quadratics, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cleanmatrix") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def count_left_evals(monkeypatch):
    """A Counter whose "left_eval" entry counts quadratics.left_eval calls."""
    evals, original = Counter(), quadratics.left_eval

    def counted(*args):
        evals["left_eval"] += 1
        return original(*args)

    patch_quadratics(monkeypatch, "left_eval", counted)
    return evals


# (ring, matrix, decider, status, most calls per op); the matrices are not
# in companion shape, so both deciders change basis by the adjugate of
# [x | Ax] for a lifted x
BUDGETS = [
    ("GF(2,4)", "[[1+w,w],[1+w,w]]", decide_strongly_clean, "NontrivialClean",
     {"add": 24, "mul": 16, "neg": 22, "sub": 11, "invert": 4, "dot": 20}),
    ("GF(2,4)", "[[1+w,w],[1+w,w]]", decide_strongly_pi_regular, "Nontrivial",
     {"add": 4, "mul": 13, "neg": 9, "sub": 0, "invert": 4, "dot": 14}),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]", decide_strongly_clean,
     "NontrivialClean",
     {"add": 27, "mul": 19, "neg": 21, "sub": 9, "invert": 5, "dot": 20}),
    # t^2 - 255 t + 254: its J root 254 is the last of J's 128 elements
    ("Zmod(2,8)", "[[255,2],[1,0]]", decide_strongly_clean, "NontrivialClean",
     {"add": 21, "mul": 12, "neg": 23, "sub": 11, "invert": 3, "dot": 20}),
    ("Zloc(2)", "[[3,2],[-3,-2]]", decide_strongly_clean, "NontrivialClean",
     {"add": 18, "mul": 12, "neg": 18, "sub": 7, "invert": 3, "dot": 20}),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]", decide_strongly_pi_regular,
     "Nontrivial",
     {"add": 10, "mul": 19, "neg": 11, "sub": 2, "invert": 4, "dot": 14}),
    # a skew ring reduces first and lifts both roots of the companion quadratic
    ("SkewTrunc(GF(2,2),1,3)", "[[1+x,w],[w*x,x]]", decide_strongly_clean,
     "NontrivialClean",
     {"add": 28, "mul": 23, "neg": 22, "sub": 9, "invert": 7, "dot": 34}),
    ("SkewTrunc(GF(2,2),1,3)", "[[1+x,w],[w*x,x]]", decide_strongly_pi_regular,
     "Nontrivial",
     {"add": 11, "mul": 20, "neg": 11, "sub": 2, "invert": 6, "dot": 27}),
    # Z/p^k lifts the nilpotent root by Newton's step on payloads, with no
    # ring call, and reads the unit root off the sum of the roots
    ("Zmod(2,8)", "[[3,6],[5,14]]", decide_strongly_pi_regular, "Nontrivial",
     {"add": 2, "mul": 13, "neg": 9, "sub": 0, "invert": 2, "dot": 14}),
]


@pytest.mark.parametrize(
    "spec, matrix, decide, status, budget", BUDGETS,
    ids=[f"{b[0]}-{b[2].__name__}" for b in BUDGETS],
)
def test_reduced_decision_ring_calls(
    ring_calls, monkeypatch, spec, matrix, decide, status, budget
):
    R = parse_ring(spec)
    if R.is_commutative:
        refuse_reduction(monkeypatch, "a commutative certificate")
    A = parse_matrix(R, matrix)
    ring_calls.clear()
    assert decide(A).status == status
    over = {op: ring_calls[op] for op in OPS if ring_calls[op] > budget[op]}
    assert not over, f"ring calls above budget {budget}: {over}"


# the trivial verdicts: the residue determinant and trace settle both tests,
# and U = A - I changes only the diagonal of A
TRIVIAL_BUDGETS = [
    (spec, matrix, status, budget)
    for specs, matrix, status, budget in [
        (("GF(2,4)", "Zloc(2)", "SkewTrunc(GF(2,2),1,3)"), "[[0,0],[1,0]]",
         "TrivialOneMinusUnit", {"add": 4, "neg": 2, "dot": 1}),
        (("Z",), "[[0,0],[1,0]]", "TrivialOneMinusUnit", {"add": 2, "neg": 1}),
        (("GF(2,4)", "Zloc(2)", "SkewTrunc(GF(2,2),1,3)"), "[[0,1],[1,0]]",
         "TrivialUnit", {"neg": 1, "dot": 1}),
    ]
    for spec in specs
]


@pytest.mark.parametrize(
    "spec, matrix, status, budget", TRIVIAL_BUDGETS,
    ids=[f"{b[0]}-{b[2]}" for b in TRIVIAL_BUDGETS],
)
def test_trivial_decision_ring_calls(
    ring_calls, monkeypatch, spec, matrix, status, budget
):
    refuse_reduction(monkeypatch, "a trivial verdict")
    A = parse_matrix(parse_ring(spec), matrix)
    ring_calls.clear()
    assert decide_strongly_clean(A).status == status
    over = {op: n for op, n in ring_calls.items() if n > budget.get(op, 0)}
    assert not over, f"ring calls above budget {budget}: {over}"


# a second decision on the same Abar reads its case and basis vector from
# the warm residue slot: a trivial verdict makes no residue-field call, and a
# reduced one none but the verifier's residue determinant of P on a skew ring
# (counts by op over both rings, then the residue field's alone)
WARM_BUDGETS = [
    ("Zloc(2)", "[[0,1],[1,0]]", decide_strongly_clean, "TrivialUnit", {}, {}),
    ("Zmod(5,2)", "[[0,1],[1,0]]", decide_strongly_pi_regular, "TrivialUnit", {}, {}),
    ("SkewTrunc(GF(2,2),1,3)", "[[0,0],[1,0]]", decide_strongly_clean,
     "TrivialOneMinusUnit", {"add": 2, "neg": 1}, {}),
    ("SkewTrunc(GF(2,2),1,3)", "[[0,0],[1,0]]", decide_strongly_pi_regular,
     "TrivialNilpotent", {"dot": 4}, {}),
    ("Zloc(2)", "[[3,2],[-3,-2]]", decide_strongly_clean, "NontrivialClean",
     {"add": 12, "mul": 10, "neg": 14, "sub": 7, "invert": 2, "dot": 19}, {}),
    ("Zmod(2,8)", "[[3,6],[5,14]]", decide_strongly_pi_regular, "Nontrivial",
     {"add": 2, "mul": 11, "neg": 7, "invert": 1, "dot": 13}, {}),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]", decide_strongly_clean,
     "NontrivialClean",
     {"add": 21, "mul": 15, "neg": 17, "sub": 9, "invert": 3, "dot": 19}, {}),
    ("SkewTrunc(GF(2,2),1,3)", "[[1+x,w],[w*x,x]]", decide_strongly_clean,
     "NontrivialClean",
     {"add": 22, "mul": 19, "neg": 15, "sub": 9, "invert": 5, "dot": 30},
     {"neg": 1, "dot": 1}),
    ("SkewTrunc(GF(2,2),1,3)", "[[1+x,w],[w*x,x]]", decide_strongly_pi_regular,
     "Nontrivial",
     {"add": 10, "mul": 16, "neg": 7, "sub": 2, "invert": 4, "dot": 24},
     {"neg": 1, "dot": 1}),
]


@pytest.mark.parametrize(
    "spec, matrix, decide, status, budget, residue_budget", WARM_BUDGETS,
    ids=[f"{b[0]}-{b[2].__name__}-{b[3]}" for b in WARM_BUDGETS],
)
def test_warm_decision_ring_calls(
    monkeypatch, spec, matrix, decide, status, budget, residue_budget
):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    assert R.residue_table is not None
    decide(A)  # fills the slot of Abar, if an earlier test has not

    def refuse(*args):
        raise AssertionError("a warm decision redid residue work")

    # the basis vectors' residue lines, and the skew reductions' tests
    for name in ("_kernel_vector", "_outside_kernel_and_image", "is_invertible"):
        monkeypatch.setattr(companion, name, refuse)
    F = R.residue_view().field
    calls = count_ring_calls(monkeypatch, lambda ring, name: (ring is F, name))
    assert decide(A).status == status
    for residue_field, allowed in ((False, budget), (True, residue_budget)):
        got = {name: n for (on_f, name), n in calls.items() if on_f is residue_field}
        over = {op: n for op, n in got.items() if n > allowed.get(op, 0)}
        assert not over, f"ring calls above budget {allowed}: {over}"


# the clean check of a decider's certificate: A = E + U, the diagonalization
# and P E = diag(0,1) P, then t0 and t1 - 1 as units (no product of E with
# U); a trivial E = 0 or I leaves only the residue determinant of U
VERIFY_BUDGETS = [
    (spec, matrix, status, budget)
    for specs, matrix, status, budget in [
        (("GF(2,4)",), "[[1+w,w],[1+w,w]]", "NontrivialClean", {"dot": 9, "all": 21}),
        (("Zmod(2,8)",), "[[255,2],[1,0]]", "NontrivialClean", {"dot": 9, "all": 21}),
        (("Trunc(GF(2,2),4)",), "[[1+w+y,w+y^2],[1+w,w+y^3]]", "NontrivialClean",
         {"dot": 9, "all": 21}),
        (("SkewTrunc(GF(2,2),1,3)",), "[[1+x,w],[w*x,x]]", "NontrivialClean",
         {"dot": 9, "all": 21}),
        (("Zloc(2)",), "[[3,2],[-3,-2]]", "NontrivialClean", {"dot": 9, "all": 21}),
        (("GF(2,4)", "Zloc(2)", "SkewTrunc(GF(2,2),1,3)"), "[[0,1],[1,0]]",
         "TrivialUnit", {"dot": 1, "all": 6}),
        (("GF(2,4)", "Zloc(2)", "SkewTrunc(GF(2,2),1,3)"), "[[0,0],[1,0]]",
         "TrivialOneMinusUnit", {"dot": 1, "all": 6}),
    ]
    for spec in specs
]


@pytest.mark.parametrize(
    "spec, matrix, status, budget", VERIFY_BUDGETS,
    ids=[f"{b[0]}-{b[2]}" for b in VERIFY_BUDGETS],
)
def test_verify_certificate_ring_calls(ring_calls, spec, matrix, status, budget):
    A = parse_matrix(parse_ring(spec), matrix)
    dec = decide_strongly_clean(A)
    assert dec.status == status
    ring_calls.clear()
    assert verify_certificate(A, dec.certificate)
    calls = {"dot": ring_calls["dot"], "all": sum(ring_calls.values())}
    assert calls["dot"] <= budget["dot"] and calls["all"] <= budget["all"], calls


def test_skew_pi_nilpotent_reads_residue_trace(monkeypatch):
    # tr Abar = 0 puts the companion corner in J, so a skew ring answers
    # TrivialNilpotent before any reduction
    refuse_reduction(monkeypatch, "a skew TrivialNilpotent verdict")
    R = parse_ring("SkewTrunc(GF(2,2),1,3)")
    dec = decide_strongly_pi_regular(parse_matrix(R, "[[1+x,w],[w^2,1]]"))
    assert dec.status == "TrivialNilpotent" and dec.certificate.index == 6


def test_zmod_clean_scan_runs_on_payloads(monkeypatch):
    # the J root comes last in J, and the scan reaches it with no left_eval
    # call and no complete scan of Elements
    refuse_reduction(monkeypatch, "a commutative certificate")
    evals = count_left_evals(monkeypatch)

    def refuse(*args):
        raise AssertionError("the Z/p^k clean route reached find_roots_enumerate")

    patch_quadratics(monkeypatch, "find_roots_enumerate", refuse)
    R = parse_ring("Zmod(2,8)")
    dec = decide_strongly_clean(parse_matrix(R, "[[255,2],[1,0]]"))
    assert dec.status == "NontrivialClean"
    assert dec.method == "Enumeration"
    assert dec.certificate.diag[:2] == (R.el(1), R.el(254))
    assert evals["left_eval"] == 0


@pytest.mark.parametrize("spec, matrix", [
    ("GF(2,4)", "[[1+w,w],[1+w,w]]"),
    ("Zmod(2,8)", "[[3,6],[5,14]]"),
    ("Trunc(GF(2,2),4)", "[[1+w+y,w+y^2],[1+w,w+y^3]]"),
    ("SkewTrunc(GF(2,2),1,3)", "[[1+x,w],[w*x,x]]"),
])
def test_deciders_hand_their_residues_on(monkeypatch, spec, matrix):
    # each decider reduces A's entries once, for its trivial tests, and
    # passes Abar to the basis vector or the reduction, which rebuild nothing
    def refuse(A):
        raise AssertionError("a decider's residue matrix was rebuilt")

    monkeypatch.setattr(companion, "residue_matrix", refuse)
    A = parse_matrix(parse_ring(spec), matrix)
    assert decide_strongly_clean(A).status == "NontrivialClean"
    assert decide_strongly_pi_regular(A).status == "Nontrivial"


def test_zmod_pi_lifts_on_payloads(monkeypatch):
    # Newton's step finds both roots: no left_eval call and no chord step
    refuse_reduction(monkeypatch, "a commutative certificate")
    evals = count_left_evals(monkeypatch)

    def refuse(*args):
        raise AssertionError("the Z/p^k pi route reached lift_root")

    patch_quadratics(monkeypatch, "lift_root", refuse)
    R = parse_ring("Zmod(2,8)")
    dec = decide_strongly_pi_regular(parse_matrix(R, "[[3,6],[5,14]]"))
    assert dec.status == "Nontrivial"
    assert evals["left_eval"] == 0


# [[0,4],[1,1]] and [[0,2],[1,1]] conjugated by [[1,2],[1,3]]; the residue
# tests count too (their ring is GF(2))
NEGATIVE_BUDGETS = [
    ("[[0,2],[2,1]]", decide_strongly_clean, "NotClean",
     {"add": 4, "mul": 0, "neg": 4, "sub": 1, "invert": 0, "dot": 2}),
    ("[[2,0],[4,-1]]", decide_strongly_pi_regular, "No",
     {"add": 1, "mul": 0, "neg": 3, "sub": 0, "invert": 0, "dot": 2}),
]


@pytest.mark.parametrize(
    "matrix, decide, status, budget", NEGATIVE_BUDGETS, ids=["clean-NotClean", "pi-No"]
)
def test_zloc_negative_decision_reads_trace_and_det(
    ring_calls, monkeypatch, matrix, decide, status, budget
):
    # the verdict comes from t^2 - tr(A) t + det(A) alone: nothing is
    # inverted and no companion form is built
    refuse_reduction(monkeypatch, "a negative verdict")
    A = parse_matrix(parse_ring("Zloc(2)"), matrix)
    ring_calls.clear()
    assert decide(A).status == status
    over = {op: ring_calls[op] for op in OPS if ring_calls[op] > budget[op]}
    assert not over, f"ring calls above budget {budget}: {over}"


def test_matrix_literal_reads_each_atom_once(monkeypatch):
    # 1 + w + w^2 occurs seven times in the four entries
    R = parse_ring("GF(2,4)")
    text = ("[[1+w+w^2,(1+w+w^2)*(-(1+w+w^2))+(1+w+w^2)*(1+w+w^2)],"
            "[1,-(1+w+w^2)+1+w+w^2]]")
    s = R.add(R.add(R.one, R.generator()), R.generator() ** 2)
    calls = Counter()
    power, from_int = rings.Element.__pow__, type(R).from_int

    def counted_power(self, e):
        calls["pow", self.payload, e] += 1
        return power(self, e)

    def counted_from_int(self, v):
        calls["from_int", v] += 1
        return from_int(self, v)

    monkeypatch.setattr(rings.Element, "__pow__", counted_power)
    monkeypatch.setattr(type(R), "from_int", counted_from_int)
    assert parse_matrix(R, text) == Mat2(R, s, R.zero, R.one, R.zero)
    assert calls == {("pow", R.generator().payload, 2): 1, ("from_int", 1): 1}
