"""Companion-form reduction and the companion matrix identity."""

import random
from fractions import Fraction

import pytest
import ring_references as ref

from cleanmatrix.companion import (
    CompanionForm,
    _kernel_vector,
    char_quadratic,
    _outside_kernel_and_image,
    check_companion_identity,
    clean_basis_vector,
    eigenrows,
    pi_basis_vector,
    reduce_to_companion,
    reduce_to_companion_pi,
)
from cleanmatrix.errors import InternalContractViolation, NotApplicable
from cleanmatrix.literals import parse_ring
from cleanmatrix.matrices import (
    Mat2,
    conjugate,
    invert2,
    is_invertible,
    matvec,
    minus_identity,
)
from cleanmatrix.quadratics import MonicQuadratic
from cleanmatrix.rings import (
    galois_field,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)

Z8 = make_ring(mod_prime_power(2, 3))
Z9 = make_ring(mod_prime_power(3, 2))
T2 = make_ring(truncated_poly(galois_field(2, 1), 2))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))

RINGS = [Z8, Z9, T2, SK16]
FIELDS = [make_ring(galois_field(2, 1)), make_ring(galois_field(3, 1)),
          make_ring(galois_field(2, 2)), make_ring(galois_field(5, 1))]


def m(ring, a, b, c, d):
    return Mat2(ring, ring.from_int(a), ring.from_int(b), ring.from_int(c),
                ring.from_int(d))


def test_companion_form_accessors():
    I = Mat2.identity(Z8)
    # t^2 - t corner - top for [[0, 4], [1, 3]] and [[0, 2], [1, 5]]
    cf = CompanionForm(MonicQuadratic(Z8, Z8.el(-3), Z8.el(-4)), I, I)
    assert Z8.neg(cf.f.a0) == Z8.el(4)
    assert Z8.neg(Z8.add(Z8.one, cf.f.a1)) == Z8.el(2)  # corner minus one
    assert ref.companion_matrix(cf) == m(Z8, 0, 4, 1, 3)
    pf = CompanionForm(MonicQuadratic(Z8, Z8.el(-5), Z8.el(-2)), I, I)
    assert (pf.f.a1, pf.f.a0) == (Z8.el(-5), Z8.el(-2))  # t^2 - t r - w
    assert ref.companion_matrix(pf) == m(Z8, 0, 2, 1, 5)


def test_reduce_rejects_trivial_cases():
    with pytest.raises(NotApplicable):
        reduce_to_companion(m(Z8, 1, 0, 0, 1))  # invertible
    with pytest.raises(NotApplicable):
        reduce_to_companion(m(Z8, 0, 0, 0, 0))  # I - A invertible
    with pytest.raises(NotApplicable):
        reduce_to_companion_pi(m(Z8, 1, 0, 0, 1))
    with pytest.raises(NotApplicable):
        reduce_to_companion_pi(m(Z8, 2, 4, 6, 0))  # all entries in J


def test_reduce_shortcircuits_companion_shape():
    A = m(Z8, 0, 4, 1, 3)
    cf = reduce_to_companion(A)
    assert cf.P == Mat2.identity(Z8)
    assert (Z8.neg(cf.f.a0), Z8.neg(Z8.add(Z8.one, cf.f.a1))) == (Z8.el(4), Z8.el(2))
    pf = reduce_to_companion_pi(m(Z8, 0, 2, 1, 5))
    assert pf.P == Mat2.identity(Z8)
    assert (pf.f.a1, pf.f.a0) == (Z8.el(-5), Z8.el(-2))


def test_basis_vectors_and_eigenrows():
    # companion shape keeps x = (1, 0), where the rows are (1, t0), (1, t1)
    A = m(Z8, 0, 4, 1, 3)
    assert clean_basis_vector(A) == pi_basis_vector(A) == (Z8.one, Z8.zero)
    assert eigenrows(A, (Z8.one, Z8.zero), Z8.el(7), Z8.el(4)) == m(Z8, 1, 7, 1, 4)
    # x = (2, 0) spans no basis with Ax = (2, 4): det [x | Ax] = 8 - 0 is
    # not a unit, so no rows are written
    with pytest.raises(InternalContractViolation, match="not a basis"):
        eigenrows(m(Z8, 1, 1, 2, 0), (Z8.el(2), Z8.zero), Z8.el(3), Z8.el(2))


@pytest.mark.parametrize("R", RINGS)
def test_reduce_clean_exhaustive_small(R):
    elems = R.enumerate_elements("All")
    I = Mat2.identity(R)
    hit = 0
    for a in elems:
        for b in elems[:3]:
            for c in elems[:3]:
                for d in elems:
                    A = Mat2(R, a, b, c, d)
                    if is_invertible(A) or is_invertible(I - A):
                        continue
                    cf = reduce_to_companion(A)
                    assert R.in_radical(R.neg(cf.f.a0))
                    assert R.in_radical(R.neg(R.add(R.one, cf.f.a1)))
                    assert conjugate(cf.P, A) == ref.companion_matrix(cf)
                    hit += 1
    assert hit > 0


@pytest.mark.parametrize("R", RINGS)
def test_reduce_pi_exhaustive_small(R):
    elems = R.enumerate_elements("All")
    hit = 0
    for a in elems:
        for b in elems[:3]:
            for c in elems[:3]:
                for d in elems:
                    A = Mat2(R, a, b, c, d)
                    if is_invertible(A):
                        continue
                    if all(R.in_radical(e) for e in A.entries()):
                        continue
                    pf = reduce_to_companion_pi(A)
                    assert R.in_radical(pf.f.a0)  # -w
                    assert conjugate(pf.P, A) == ref.companion_matrix(pf)
                    hit += 1
    assert hit > 0


def _random_matrix(R, rng):
    """A seeded matrix over R; over Z_(p) entries n/d with |n| <= 40 and d
    prime to p."""
    if R.is_finite:
        return Mat2(R, *(R.element_at(rng.randrange(R.size())) for _ in range(4)))
    dens = [d for d in range(1, 12) if d % R.p]
    return Mat2(R, *(R.el(Fraction(rng.randint(-40, 40), rng.choice(dens)))
                     for _ in range(4)))


@pytest.mark.parametrize(
    "spec", ["Zloc(2)", "Zloc(3)", "Zmod(2,8)", "GF(2,4)", "Trunc(GF(2,2),4)"]
)
def test_trace_det_quadratic_is_the_companion_quadratic(spec):
    # P A P^-1 = [[0, top], [1, corner]] formed by products, against the
    # quadratic read off tr A and det A: t^2 - t corner - top
    R = parse_ring(spec)
    rng = random.Random(spec)
    I = Mat2.identity(R)
    clean = pi = 0
    while clean < 60 or pi < 60:
        A = _random_matrix(R, rng)
        if is_invertible(A):
            continue
        f = char_quadratic(A)
        C = Mat2(R, R.zero, R.neg(f.a0), R.one, R.neg(f.a1))
        if not is_invertible(I - A) and clean < 60:
            assert conjugate(reduce_to_companion(A).P, A) == C, repr(A)
            clean += 1
        if not all(R.in_radical(e) for e in A.entries()) and pi < 60:
            assert conjugate(reduce_to_companion_pi(A).P, A) == C, repr(A)
            pi += 1


def _image_set_pick(Ab):
    # the selection by a full image set, kept as the reference
    F = Ab.ring
    elems = F.enumerate_elements("All")
    image = {
        tuple(e.payload for e in matvec(Ab, (v0, v1)))
        for v0 in elems
        for v1 in elems
    }
    for v0 in elems:
        for v1 in elems:
            if matvec(Ab, (v0, v1)) == (F.zero, F.zero):
                continue
            if (v0.payload, v1.payload) in image:
                continue
            return (v0, v1)
    return None


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_pi_pick_matches_image_set_scan(F):
    elems = F.enumerate_elements("All")
    rank_one = 0
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    A = Mat2(F, a, b, c, d)
                    if A == Mat2.zero(F) or is_invertible(A):
                        continue
                    rank_one += 1
                    x = _image_set_pick(A)
                    assert _outside_kernel_and_image(A) == x
                    if a == F.zero and c == F.one:
                        continue  # companion shape: P = I, no pick
                    Ax = matvec(A, x)
                    Q = Mat2(F, x[0], Ax[0], x[1], Ax[1])
                    assert reduce_to_companion_pi(A).P == invert2(Q)
    q = len(elems)
    assert rank_one == (q * q - 1) * (q + 1)  # nonzero (column, row) pairs / units


def _kernel_vector_scan(Ab):
    # the pair scans the closed forms replaced, kept as the reference
    F = Ab.ring
    elems = F.enumerate_elements("All")
    z = F.zero
    for v0 in elems:
        for v1 in elems:
            if (v0 != z or v1 != z) and matvec(Ab, (v0, v1)) == (z, z):
                return (v0, v1)
    return None


def _outside_kernel_and_image_scan(Ab):
    F = Ab.ring
    z = F.zero
    c = (Ab.a, Ab.c) if (Ab.a != z or Ab.c != z) else (Ab.b, Ab.d)
    elems = F.enumerate_elements("All")
    for v0 in elems:
        for v1 in elems:
            if matvec(Ab, (v0, v1)) == (z, z):
                continue
            if F.mul(c[0], v1) == F.mul(c[1], v0):
                continue
            return (v0, v1)
    return None


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_residue_vectors_match_pair_scans(F):
    elems = F.enumerate_elements("All")
    singular = 0
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    A = Mat2(F, a, b, c, d)
                    if is_invertible(A):
                        continue
                    singular += 1
                    assert _kernel_vector(A) == _kernel_vector_scan(A)
                    if A != Mat2.zero(F):  # rank 1
                        assert _outside_kernel_and_image(A) == \
                            _outside_kernel_and_image_scan(A)
    q = len(elems)
    assert singular == q ** 4 - (q * q - 1) * (q * q - q)


@pytest.mark.parametrize("F", FIELDS[:3], ids=lambda F: F.spec_string())
def test_kernel_vector_of_minus_identity_matches_i_minus(F):
    # the clean reductions read ker(I - Abar) off Abar - I; I - M stays the
    # reference
    elems = F.enumerate_elements("All")
    I = Mat2.identity(F)
    both_singular = 0
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    M = Mat2(F, a, b, c, d)
                    if is_invertible(M) or is_invertible(I - M):
                        continue
                    both_singular += 1
                    assert not is_invertible(minus_identity(M))
                    assert _kernel_vector(minus_identity(M)) == _kernel_vector(I - M)
    q = len(elems)
    assert both_singular == q * q + q  # the conjugates of diag(0, 1)


@pytest.mark.parametrize("R", RINGS)
def test_companion_identity_random_degrees(R):
    # quadratics only: every companion matrix the deciders meet is 2x2
    rng = random.Random(7)
    elems = R.enumerate_elements("All")
    for _ in range(40):
        coeffs = [rng.choice(elems), rng.choice(elems), R.one]
        assert check_companion_identity(R, coeffs)


def test_companion_identity_rejects_non_monic():
    with pytest.raises(AssertionError):
        check_companion_identity(Z8, [Z8.el(1), Z8.el(2)])
    with pytest.raises(AssertionError):
        check_companion_identity(Z8, [Z8.el(1), Z8.el(1), Z8.el(2)])


def test_companion_identity_degree_bounds():
    # only monic quadratics: degrees 0, 1, 3 and 5 are refused
    for n in (0, 1, 3, 5):
        with pytest.raises(AssertionError):
            check_companion_identity(Z8, [Z8.el(1)] * n + [Z8.one])
