"""The residue table: each ring whose residue field has q^4 <= TABLE_CAP
keeps one slot per residue matrix Abar, and both deciders read Abar's case
and basis vector from it.  Every decision must be the one the deciders make
with no table, whether the slot is cold (filled by this decision) or warm
(filled by an earlier matrix with the same Abar)."""

from itertools import product

import pytest

from cleanmatrix.clean import decide_strongly_clean
from cleanmatrix.companion import clean_basis_vector, pi_basis_vector
from cleanmatrix.literals import parse_element, parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2, conjugate, residue_matrix
from cleanmatrix.piregular import decide_strongly_pi_regular
from cleanmatrix.rings import TABLE_CAP

# each ring with an element of J to conjugate by [[1, j], [0, 1]], which
# keeps Abar; a field has J = 0 and is conjugated by [[1, 1], [0, 1]]
TABLE_RINGS = [
    ("Zmod(2,3)", "2"),
    ("Zmod(3,2)", "3"),
    ("Zmod(5,2)", "5"),
    ("GF(2,2)", "1"),
    ("Trunc(GF(2),3)", "y"),
    ("SkewTrunc(GF(2,2),1,2)", "x"),
    ("Zloc(2)", "2"),
    ("Zloc(3)", "3"),
]


def payloads(value):
    """A decision part as nested tuples of payloads, comparable across runs."""
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Mat2):
        return tuple(e.payload for e in value.entries())
    if isinstance(value, tuple):  # a MonicQuadratic or a diag triple
        return tuple(payloads(v) for v in value if not hasattr(v, "spec"))
    return value.payload


def clean_record(A):
    dec = decide_strongly_clean(A)
    cert = dec.certificate
    parts = None if cert is None else (cert.E, cert.U, cert.diag)
    return dec.status, dec.method, payloads(dec.witness), tuple(
        map(payloads, parts or ())
    )


def pi_record(A):
    dec = decide_strongly_pi_regular(A)
    cert = dec.certificate
    parts = () if cert is None else (cert.kind, cert.index, cert.t0, cert.t1, cert.P)
    return dec.status, payloads(dec.witness), tuple(map(payloads, parts))


def lifts_and_conjugates(R, j_text):
    """For every residue matrix Abar, its entrywise lift A and P A P^-1."""
    F, _, lift = R.residue_view()
    j = parse_element(R, j_text)
    P = Mat2(R, R.one, j, R.zero, R.one)
    out = []
    for a, b, c, d in product(F.enumerate_elements("All"), repeat=4):
        A = Mat2(R, lift(a), lift(b), lift(c), lift(d))
        out += [A, conjugate(P, A)]
    return out


def records(matrices):
    return [(clean_record(A), pi_record(A)) for A in matrices]


def clean_shape(A):
    R = A.ring
    return (A.a == R.zero and A.c == R.one and R.in_radical(A.b)
            and R.in_radical(R.sub(A.d, R.one)))


def pi_shape(A):
    R = A.ring
    return A.a == R.zero and A.c == R.one and R.in_radical(A.b)


@pytest.mark.parametrize("spec, j_text", TABLE_RINGS, ids=[r[0] for r in TABLE_RINGS])
def test_table_decisions_match_the_untabled_ones(spec, j_text):
    R = parse_ring(spec)
    matrices = lifts_and_conjugates(R, j_text)
    q = R.residue_view().field.size()
    try:
        R.residue_table = None  # shadows the cached property: no table
        untabled = records(matrices)
        del R.residue_table  # a fresh table, every slot cold
        table = R.residue_table
        assert table is not None and len(table.slots) == q ** 4 <= TABLE_CAP
        assert records(matrices) == untabled  # cold, and warm for conjugates
        assert records(matrices) == untabled  # every slot warm
    finally:
        vars(R).pop("residue_table", None)
    for slot in table.slots:
        assert slot.clean in ("TrivialUnit", "TrivialOneMinusUnit", "Reduced")
        assert slot.pi in ("TrivialUnit", "Nilpotent", "Reduced")


@pytest.mark.parametrize("spec, j_text", TABLE_RINGS, ids=[r[0] for r in TABLE_RINGS])
def test_slot_basis_vectors_are_the_residue_ones(spec, j_text):
    # off companion shape the slot's x is what the helpers compute from
    # Abar alone; a decision that needed x has left it in the slot
    R = parse_ring(spec)
    for A in lifts_and_conjugates(R, j_text):
        clean, pi = decide_strongly_clean(A), decide_strongly_pi_regular(A)
        Ab = residue_matrix(A)
        slot = R.residue_table.slot(Ab.a, Ab.b, Ab.c, Ab.d)
        if clean.status == "NontrivialClean" and not clean_shape(A):
            assert slot.clean_x == clean_basis_vector(A, residue_matrix(A))
        if pi.status == "Nontrivial" and not pi_shape(A):
            assert slot.pi_x == pi_basis_vector(A, residue_matrix(A))


@pytest.mark.parametrize("spec, matrix", [
    ("GF(2,4)", "[[1+w,w],[1+w,w]]"),
    ("GF(2,20)", "[[1+w,w],[1+w,w]]"),
    ("Zmod(7,2)", "[[1,1],[7,0]]"),
    ("Zloc(7)", "[[3,2],[-3,-2]]"),
])
def test_rings_above_the_bound_keep_no_table(spec, matrix):
    # q^4 > TABLE_CAP: the deciders run without slots
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    decide_strongly_clean(A)
    decide_strongly_pi_regular(A)
    assert R.residue_table is None
