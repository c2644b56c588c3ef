"""Strongly pi-regular decisions, certificates, and the Fitting splitting power."""

from itertools import product
from math import gcd

import pytest

from cleanmatrix import quadratics
from cleanmatrix.bruteforce import brute_pi
from cleanmatrix.errors import InfiniteRing, TooLarge
from cleanmatrix.literals import parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2, conjugate, invert2
from cleanmatrix.piregular import (
    PiCertificate,
    decide_strongly_pi_regular,
    ring_is_m2_pi_regular,
    verify_pi_certificate,
)
from cleanmatrix.quadratics import MonicQuadratic
from cleanmatrix.rings import (
    galois_field,
    integers,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)

Z = make_ring(integers())
ZL2 = make_ring(localized_integers(2))
Z4 = make_ring(mod_prime_power(2, 2))
Z8 = make_ring(mod_prime_power(2, 3))
GF4 = make_ring(galois_field(2, 2))
T2 = make_ring(truncated_poly(galois_field(2, 1), 2))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))


def m(ring, a, b, c, d):
    return Mat2(ring, ring.from_int(a), ring.from_int(b), ring.from_int(c),
                ring.from_int(d))


def test_trivial_unit():
    A = m(Z8, 1, 0, 0, 3)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "TrivialUnit"
    assert dec.certificate.kind == "unit"
    assert verify_pi_certificate(A, dec.certificate)


def test_trivial_nilpotent():
    A = m(Z8, 0, 1, 0, 0)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "TrivialNilpotent"
    assert dec.certificate.kind == "nilpotent"
    assert dec.certificate.index == 2
    assert verify_pi_certificate(A, dec.certificate)
    assert decide_strongly_pi_regular(Mat2.zero(Z8)).certificate.index == 1
    B = m(Z8, 2, 2, 2, 2)
    dec = decide_strongly_pi_regular(B)
    assert dec.certificate.index == 2  # (2,2;2,2)^2 = 0 mod 8
    assert verify_pi_certificate(B, dec.certificate)


@pytest.mark.parametrize(
    "spec, matrix, index",
    [
        # [[0,s],[1,0]]^2 = s I with s^v = 0 but s^(v-1) != 0, so the index
        # is exactly 2v, the bound of the search
        ("Zmod(2,3)", "[[0,2],[1,0]]", 6),
        ("Zmod(2,64)", "[[0,2],[1,0]]", 128),
        ("Trunc(GF(2),3)", "[[0,y],[1,0]]", 6),
    ],
)
def test_trivial_nilpotent_index_at_the_bound(spec, matrix, index):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "TrivialNilpotent"
    assert dec.certificate.index == index == 2 * R.radical_index()
    assert verify_pi_certificate(A, dec.certificate)
    assert not verify_pi_certificate(A, PiCertificate("nilpotent", index=index - 1))


@pytest.mark.parametrize(
    "spec, matrix, nilpotent",
    [
        # 3 I over Z_(3) has entries in J but no vanishing power, and the
        # entries of (3 I)^n grow with n, so (3 I)^(10^18) is out of reach
        ("Zloc(3)", "[[3,0],[0,3]]", False),
        ("Zloc(3)", "[[3,-9],[1,-3]]", True),
        ("Z", "[[1,0],[0,0]]", False),
        ("Z", "[[2,4],[-1,-2]]", True),
        ("Zmod(2,3)", "[[2,2],[0,2]]", True),
        ("SkewTrunc(GF(2,2),1,2)", "[[x,w],[0,1]]", False),
    ],
)
def test_huge_nilpotent_index_is_checked_at_the_bound(spec, matrix, nilpotent):
    # A^index = 0 exactly when A^min(index, bound) = 0: a 10^18 index is
    # checked by at most the bound's products
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    assert verify_pi_certificate(A, PiCertificate("nilpotent", index=10**18)) is nilpotent


@pytest.mark.parametrize("spec, matrix", [("Zloc(2)", "[[2,0],[0,2]]"),
                                          ("Z", "[[2,4],[1,2]]")])
def test_not_nilpotent_gives_characteristic_witness(spec, matrix):
    # radical entries over Z_(2), and tr 4, det 0 over Z: A^2 != 0, so no
    # power vanishes and the witness is t^2 - tr(A) t + det(A)
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    tr = R.add(A.a, A.d)
    det = R.sub(R.mul(A.a, A.d), R.mul(A.b, A.c))
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "No"
    assert dec.certificate is None
    assert dec.witness.text() == MonicQuadratic(R, R.neg(tr), det).text()


def test_nontrivial_pinned_z8_offdiagonal():
    # t^2 - 3t - 2 over Z/8: unit root 5 and nilpotent root 6 (6^3 = 0)
    A = m(Z8, 0, 2, 1, 3)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "Nontrivial"
    assert dec.certificate.t0 == Z8.el(5)
    assert dec.certificate.t1 == Z8.el(6)
    assert verify_pi_certificate(A, dec.certificate)


def test_no_over_localized_integers():
    # w != 0 in J leaves t^2 - t r - w without a nilpotent root in Z_(2),
    # where 0 is the only nilpotent
    A = m(ZL2, 0, 2, 1, 1)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "No"
    assert dec.witness.text() == "t^2-t-2"
    # w = 0 keeps t(t - r): unit root r, nilpotent root 0
    B = m(ZL2, 0, 0, 1, 3)
    dec = decide_strongly_pi_regular(B)
    assert dec.status == "Nontrivial"
    assert dec.certificate.t0 == ZL2.el(3)
    assert dec.certificate.t1 == ZL2.zero
    assert verify_pi_certificate(B, dec.certificate)


def test_nontrivial_diag_z8():
    # t^2 - t - 2 = (t - 2)(t + 1): unit root 7, nilpotent root 2 over Z/8?
    # 2 is nilpotent (2^3 = 0) and 7 is a unit, so A = [[0,2],[1,1]] splits
    A = m(Z8, 0, 2, 1, 1)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "Nontrivial"
    cert = dec.certificate
    assert cert.kind == "diag"
    assert cert.t0 == Z8.el(7)
    assert cert.t1 == Z8.el(2)
    assert conjugate(cert.P, A) == Mat2.diag(Z8, Z8.el(7), Z8.el(2))
    assert verify_pi_certificate(A, cert)


def test_radical_entries_zloc_never_pi():
    A = m(ZL2, 2, 0, 0, 2)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "No"
    assert dec.witness is not None
    # but the genuinely nilpotent ones still pass
    B = m(ZL2, 2, 4, -1, -2)
    dec = decide_strongly_pi_regular(B)
    assert dec.status == "TrivialNilpotent"
    assert verify_pi_certificate(B, dec.certificate)


def test_integer_decisions():
    assert decide_strongly_pi_regular(m(Z, 2, 1, 1, 1)).status == "TrivialUnit"
    assert decide_strongly_pi_regular(m(Z, 0, 5, 0, 0)).status == "TrivialNilpotent"
    assert decide_strongly_pi_regular(m(Z, 2, 0, 0, 0)).status == "No"
    assert decide_strongly_pi_regular(m(Z, 1, 0, 0, 1)).status == "TrivialUnit"

    # trace 1, det 0: A itself is idempotent
    A = m(Z, 3, 2, -3, -2)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "Nontrivial"
    cert = dec.certificate
    assert cert.t0 == Z.el(1) and cert.t1 == Z.zero
    assert conjugate(cert.P, A) == Mat2.diag(Z, Z.el(1), Z.zero)
    assert verify_pi_certificate(A, cert)

    # trace -1, det 0: -A is idempotent
    B = m(Z, -3, -2, 3, 2)
    dec = decide_strongly_pi_regular(B)
    assert dec.status == "Nontrivial"
    assert dec.certificate.t0 == Z.el(-1)
    assert verify_pi_certificate(B, dec.certificate)


def _primitive_column(B):
    """Sign-normalised primitive first nonzero column of an integer matrix."""
    for col in ((B.a.payload, B.c.payload), (B.b.payload, B.d.payload)):
        if col != (0, 0):
            g = gcd(*col)
            v = (col[0] // g, col[1] // g)
            return (-v[0], -v[1]) if v[0] < 0 or (v[0] == 0 and v[1] < 0) else v
    raise AssertionError("zero idempotent")


def test_integer_certificates_match_idempotent_splitting():
    # reference: B = A or -A is idempotent, Z^2 = im B (+) ker B, and P is the
    # inverse of the matrix with the primitive columns spanning im B and
    # im (I - B) = ker B
    seen = 0
    for a, b, c, d in product(range(-6, 7), repeat=4):
        tr, det = a + d, a * d - b * c
        if det != 0 or tr not in (1, -1):
            continue
        seen += 1
        A = m(Z, a, b, c, d)
        B = A if tr == 1 else -A
        u1, u2 = _primitive_column(B), _primitive_column(Mat2.identity(Z) - B)
        M = m(Z, u1[0], u2[0], u1[1], u2[1])
        dec = decide_strongly_pi_regular(A)
        assert dec.status == "Nontrivial"
        cert = dec.certificate
        assert (cert.t0, cert.t1) == (Z.el(tr), Z.zero)
        assert cert.P == invert2(M)
        assert verify_pi_certificate(A, cert)
    assert seen == 212


def test_integer_no_statuses():
    # trace/det outside the two admissible pairs
    for entries in ((2, 0, 0, 1), (1, 1, 0, 1), (3, 0, 0, 2), (0, 0, 0, 5)):
        dec = decide_strongly_pi_regular(m(Z, *entries))
        if dec.status == "No":
            assert dec.witness is not None
    assert decide_strongly_pi_regular(m(Z, 2, 0, 0, 1)).status == "No"
    # [[1,1],[0,1]] is invertible, so trivially fine
    assert decide_strongly_pi_regular(m(Z, 1, 1, 0, 1)).status == "TrivialUnit"


def test_verify_pi_certificate_rejects_tampering():
    A = m(Z8, 0, 2, 1, 1)
    cert = decide_strongly_pi_regular(A).certificate
    assert verify_pi_certificate(A, cert)
    assert not verify_pi_certificate(m(Z8, 0, 4, 1, 3), cert)
    wrong_kind = PiCertificate("unit")
    assert not verify_pi_certificate(A, wrong_kind)
    swapped = PiCertificate("diag", t0=cert.t1, t1=cert.t0, P=cert.P)
    assert not verify_pi_certificate(A, swapped)
    assert not verify_pi_certificate(A, PiCertificate("bogus"))
    assert not verify_pi_certificate(A, PiCertificate("nilpotent", index=3))


def test_fitting_pinned():
    # brute_pi is the one Fitting oracle: smallest n with
    # R^2 = ker(A^n) (+) im(A^n)
    assert brute_pi(m(Z4, 1, 0, 0, 1)) == 1
    assert brute_pi(m(Z4, 1, 0, 0, 0)) == 1  # already idempotent
    assert brute_pi(m(Z4, 2, 0, 0, 2)) == 2  # nilpotent: splits at 0
    assert brute_pi(m(Z4, 0, 1, 0, 0)) == 2
    with pytest.raises(TooLarge):
        brute_pi(m(ZL2, 1, 0, 0, 1))


def test_fitting_matches_decision_on_z4():
    # finite coefficients force strong pi-regularity of every matrix, so the
    # sweep succeeds everywhere and agrees with the nilpotency index
    elems = Z4.enumerate_elements("All")
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    A = Mat2(Z4, a, b, c, d)
                    dec = decide_strongly_pi_regular(A)
                    assert dec.status != "No"
                    n = brute_pi(A)
                    if dec.status == "TrivialNilpotent":
                        assert n == dec.certificate.index


def test_ring_verdicts():
    assert ring_is_m2_pi_regular(Z4).answer == "Yes"
    assert ring_is_m2_pi_regular(GF4).answer == "Yes"
    assert ring_is_m2_pi_regular(T2).answer == "Yes"
    assert ring_is_m2_pi_regular(SK16).answer == "Yes"
    with pytest.raises(InfiniteRing):
        ring_is_m2_pi_regular(ZL2)


def test_skew_exhaustive_companions():
    units = SK16.enumerate_elements("Units")
    radical = SK16.enumerate_elements("Radical")
    for r in units:
        for w in radical:
            A = Mat2(SK16, SK16.zero, w, SK16.one, r)
            dec = decide_strongly_pi_regular(A)
            assert dec.status == "Nontrivial"
            assert verify_pi_certificate(A, dec.certificate)


@pytest.mark.parametrize(
    "spec,matrix",
    [
        ("Zmod(2,64)", "[[0,2],[1,1]]"),
        ("Zmod(2,64)", "[[3,6],[5,14]]"),
        ("Trunc(GF(2,4),8)", "[[0,y],[1,w]]"),
        ("Trunc(GF(2,4),8)", "[[1+y,w],[w,w^2+y^2]]"),
        ("SkewTrunc(GF(2,4),1,8)", "[[0,x],[1,w]]"),
        ("SkewTrunc(GF(2,4),1,8)", "[[1+x,w],[w,w^2+x^2]]"),
        ("Zmod(2,4096)", "[[3,6],[5,14]]"),
        ("Zmod(65537,2)", "[[3,6],[5,65537+10]]"),
        ("Trunc(GF(2,16),4)", "[[0,y],[1,1]]"),
        ("Trunc(GF(2,16),4)", "[[1+y,w],[w,w^2+y^2]]"),
        ("SkewTrunc(GF(2,24),1,2)", "[[1+x,w],[w,w^2+x]]"),
    ],
)
def test_pi_above_table_cap_lifts_without_enumerating(spec, matrix, refuse_scans):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "Nontrivial"
    assert verify_pi_certificate(A, dec.certificate)
    assert "All" not in R._enum_cache
    assert R._tables is None


def test_pi_zmod_4096_lifts_by_newton_steps(monkeypatch, refuse_scans):
    # Z/p^k takes both roots from Newton's step on payloads: the chord steps
    # and their evaluations are never reached, and the nilpotent root is the
    # unique root in J
    def refuse(*args):
        raise AssertionError("the Z/p^k pi route reached the chord steps")

    monkeypatch.setattr(quadratics, "lift_root", refuse)
    monkeypatch.setattr(quadratics, "left_eval", refuse)
    R = parse_ring("Zmod(2,4096)")
    A = parse_matrix(R, "[[3,6],[5,14]]")
    dec = decide_strongly_pi_regular(A)
    assert dec.status == "Nontrivial"
    assert verify_pi_certificate(A, dec.certificate)
    t0, t1 = dec.certificate.t0, dec.certificate.t1
    assert R.is_unit(t0) and R.in_radical(t1)
    assert R.add(t0, t1) == R.el(17)  # tr A, the sum of the roots
