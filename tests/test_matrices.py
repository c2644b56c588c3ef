"""Matrix arithmetic, inversion, conjugation, and nilpotency tests."""

import itertools
import random
from fractions import Fraction

import pytest
import ring_references as ref

from cleanmatrix.errors import NotInvertible, OwnerMismatch
from cleanmatrix.literals import parse_ring
from cleanmatrix.matrices import (
    Mat2,
    conjugate,
    invert2,
    is_invertible,
    matpow,
    matvec,
    minus_identity,
    residue_matrix,
    rowvec_mul,
)
from cleanmatrix.rings import (
    galois_field,
    integers,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_skew,
)

Z = make_ring(integers())
Z8 = make_ring(mod_prime_power(2, 3))
GF4 = make_ring(galois_field(2, 2))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))


def m(ring, a, b, c, d):
    return Mat2(ring, ring.from_int(a), ring.from_int(b), ring.from_int(c),
                ring.from_int(d))


def test_constructors_and_accessors():
    A = m(Z8, 1, 2, 3, 4)
    assert A.entries() == (Z8.el(1), Z8.el(2), Z8.el(3), Z8.el(4))
    assert Mat2.identity(Z8) == m(Z8, 1, 0, 0, 1)
    assert Mat2.zero(Z8) == m(Z8, 0, 0, 0, 0)
    assert Mat2.diag(Z8, Z8.el(3), Z8.el(5)) == m(Z8, 3, 0, 0, 5)
    assert repr(m(Z8, 1, 2, 3, 4)) == "[[1,2],[3,4]]"


def test_arithmetic():
    A = m(Z8, 1, 2, 3, 4)
    B = m(Z8, 5, 6, 7, 0)
    assert A + B == m(Z8, 6, 0, 2, 4)
    assert A - B == m(Z8, 4, 4, 4, 4)
    assert -A == m(Z8, 7, 6, 5, 4)
    assert A * B == m(Z8, 3, 6, 3, 2)
    assert matpow(A, 0) == Mat2.identity(Z8)
    assert matpow(A, 3) == A * A * A


@pytest.mark.parametrize("R", [Z, Z8, SK16], ids=lambda R: R.spec_string())
def test_matpow_makes_no_product_by_identity(R, monkeypatch):
    # square and multiply from the lowest set bit's power, with no square
    # after the last bit: floor(log2 e) + popcount(e) - 1 products
    rng = random.Random(11)
    if R.is_finite:
        els = R.enumerate_elements("All")
    else:
        els = [R.el(k) for k in (-2, -1, 0, 1, 2)]
    A = Mat2(R, *(rng.choice(els) for _ in range(4)))
    powers = [Mat2.identity(R)]
    for _ in range(20):
        powers.append(powers[-1] * A)
    products = []
    original = Mat2.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counted)
    for e in range(21):
        products.clear()
        assert matpow(A, e) == powers[e], e
        most = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
        assert len(products) <= most, e


def test_owner_mismatch():
    with pytest.raises(OwnerMismatch):
        m(Z8, 1, 0, 0, 1) * m(GF4, 1, 0, 0, 1)


# the finite rings of test_rings.FINITE_RINGS, one above the table cap, and
# SkewTrunc(GF(2,3),2,2), the opposite of SkewTrunc(GF(2,3),1,2)
OWNER_RINGS = [
    parse_ring(spec)
    for spec in (
        "Zmod(2,2)", "Zmod(2,3)", "Zmod(3,2)", "GF(2,1)", "GF(2,2)", "GF(2,3)",
        "GF(3,2)", "Trunc(GF(2,1),2)", "Trunc(GF(2,1),3)",
        "SkewTrunc(GF(2,2),1,2)", "SkewTrunc(GF(2,2),0,2)", "Zmod(2,20)",
        "SkewTrunc(GF(2,3),2,2)",
    )
]


@pytest.mark.parametrize("R", OWNER_RINGS, ids=lambda R: R.spec_string())
def test_mat2_rejects_one_foreign_entry(R):
    o = R.one
    other = GF4 if R is not GF4 else Z8
    foreign = other.enumerate_elements("All")[1]  # carries an index
    for bad in (foreign, 1, None):
        for pos in range(4):
            entries = [o] * 4
            entries[pos] = bad
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                Mat2(R, *entries)
    assert Mat2(R, o, o, o, o).entries() == (o,) * 4


@pytest.mark.parametrize(
    "R", OWNER_RINGS + [Z, parse_ring("Zloc(2)"), parse_ring("Zloc(3)")],
    ids=lambda R: R.spec_string(),
)
def test_minus_identity_matches_subtracting_identity(R):
    # Mat2 subtraction of the whole identity stays the reference
    rng = random.Random(R.spec_string())
    for _ in range(40):
        if R.is_finite:
            at = R.element_at
            entries = [at(rng.randrange(R.size())) for _ in range(4)]
        elif R.family == "Integers":
            entries = [R.el(rng.randint(-50, 50)) for _ in range(4)]
        else:
            entries = [R.el(Fraction(rng.randint(-40, 40), rng.choice((1, 5, 7))))
                       for _ in range(4)]
        A = Mat2(R, *entries)
        assert minus_identity(A) == A - Mat2.identity(R), repr(A)


def test_noncommutative_product_order():
    x = SK16.variable()
    w = SK16.embed(SK16.base.generator())
    A = Mat2(SK16, x, SK16.zero, SK16.zero, SK16.zero)
    B = Mat2(SK16, w, SK16.zero, SK16.zero, SK16.zero)
    # (AB)_11 = x*w twists the constant; (BA)_11 = w*x does not
    assert (A * B).a == SK16.mul(x, w)
    assert (A * B).a != (B * A).a


def test_vector_actions():
    A = m(Z8, 1, 2, 3, 4)
    v = (Z8.el(1), Z8.el(1))
    assert matvec(A, v) == (Z8.el(3), Z8.el(7))
    assert rowvec_mul(v, A) == (Z8.el(4), Z8.el(6))


def test_residue_matrix():
    A = m(Z8, 1, 2, 3, 4)
    Ab = residue_matrix(A)
    GF2 = Ab.ring
    assert GF2.spec_string() == "GF(2,1)"
    assert Ab == Mat2(GF2, GF2.one, GF2.zero, GF2.one, GF2.zero)


def test_is_invertible_uses_residue_rank():
    assert is_invertible(m(Z8, 3, 2, 4, 1)) is True
    assert is_invertible(m(Z8, 2, 1, 1, 1)) is True  # non-unit corner pivot
    assert is_invertible(m(Z8, 1, 1, 1, 1)) is False
    assert is_invertible(m(Z8, 1, 2, 3, 6)) is False
    # over Z the determinant must be +-1
    assert is_invertible(m(Z, 1, 0, 0, 1)) is True
    assert is_invertible(m(Z, 2, 1, 1, 1)) is True  # det 1, no unit corner
    assert is_invertible(m(Z, 0, 1, 1, 0)) is True  # det -1
    assert is_invertible(m(Z, 2, 0, 0, 1)) is False
    assert is_invertible(m(Z, 1, 2, 3, 6)) is False


def test_invert2_local():
    A = m(Z8, 2, 1, 1, 1)  # pivot search must skip the non-unit corner
    B = invert2(A)
    I = Mat2.identity(Z8)
    assert A * B == I
    assert B * A == I
    with pytest.raises(NotInvertible):
        invert2(m(Z8, 1, 1, 1, 1))


def test_invert2_skew_exhaustive_sample():
    elems = SK16.enumerate_elements("All")
    I = Mat2.identity(SK16)
    checked = 0
    for a in elems:
        for b in elems[:4]:
            for c in elems[:4]:
                A = Mat2(SK16, a, b, c, SK16.one)
                if not is_invertible(A):
                    continue
                B = invert2(A)
                assert A * B == I
                assert B * A == I
                checked += 1
    assert checked > 50


@pytest.mark.parametrize(
    "spec, units",
    # |GL_2(R)| = |J|^4 (q^2 - 1)(q^2 - q) over the residue field F_q; over
    # Z the entries are -1, 0 and 1, and 40 of those 81 matrices have det +-1
    [("Zmod(2,2)", 2**4 * 6), ("Trunc(GF(2),2)", 2**4 * 6),
     ("SkewTrunc(GF(2,2),1,2)", 4**4 * 15 * 12), ("Z", 40)],
)
def test_invert2_matches_row_reduction_exhaustive(spec, units):
    R = parse_ring(spec)
    if R.is_finite:
        box = R.enumerate_elements("All")
    else:
        box = tuple(map(R.from_int, (-1, 0, 1)))
    singular = ("determinant is not a unit" if R.is_commutative
                else "residue matrix is singular")
    found = 0
    for entries in itertools.product(box, repeat=4):
        A = Mat2(R, *entries)
        expected = ref.invert2_rows(A) if R.is_finite else ref.invert2_scan(A, box)
        assert is_invertible(A) == (expected is not None)
        if expected is None:
            with pytest.raises(NotInvertible, match=singular):
                invert2(A)
        else:
            assert invert2(A) == expected
            found += 1
    assert found == units


def test_invert2_matches_row_reduction_sampled():
    rng = random.Random(2)
    ZL2 = make_ring(localized_integers(2))
    found = 0
    for _ in range(400):
        A = Mat2(ZL2, *(ZL2.el(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5))))
                        for _ in range(4)))
        expected = ref.invert2_rows(A)
        if expected is None:
            with pytest.raises(NotInvertible):
                invert2(A)
        else:
            assert invert2(A) == expected
            found += 1
    assert 100 < found < 300
    # over Z: the inverse over Q, where it is integral, else NotInvertible
    found = 0
    for _ in range(400):
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        det = a * d - b * c
        A = m(Z, a, b, c, d)
        if det not in (1, -1):
            with pytest.raises(NotInvertible):
                invert2(A)
            continue
        q = [Fraction(x, det) for x in (d, -b, -c, a)]
        assert invert2(A) == m(Z, *(int(x) for x in q))
        found += 1
    assert found > 20


def test_invert2_integers():
    A = m(Z, 2, 1, 1, 1)
    assert invert2(A) == m(Z, 1, -1, -1, 2)
    assert invert2(m(Z, 0, 1, -1, 0)) == m(Z, 0, -1, 1, 0)
    with pytest.raises(NotInvertible):
        invert2(m(Z, 2, 0, 0, 1))


def test_conjugate():
    P = m(Z8, 1, 1, 0, 1)
    A = m(Z8, 1, 0, 0, 2)
    assert conjugate(P, A) == P * A * invert2(P)
    assert conjugate(Mat2.identity(Z8), A) == A


def test_is_nilpotent():
    assert ref.is_nilpotent(m(Z8, 0, 1, 0, 0))
    assert ref.is_nilpotent(m(Z8, 2, 2, 2, 2))  # fourth power dies in Z/8
    assert not ref.is_nilpotent(m(Z8, 1, 0, 0, 0))
    assert ref.is_nilpotent(m(Z, 2, 4, -1, -2))
    assert not ref.is_nilpotent(m(Z, 2, 4, 1, 2))
    assert ref.is_nilpotent(Mat2.zero(Z))
