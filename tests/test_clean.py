"""Strongly clean decisions, certificates, and ring-level verdicts."""

import itertools
import random
from collections import Counter

import pytest
import ring_references as ref

from cleanmatrix.clean import (
    CleanCertificate,
    build_certificate,
    decide_strongly_clean,
    ring_is_strongly_clean,
    verify_certificate,
)
from cleanmatrix.companion import reduce_to_companion
from cleanmatrix.errors import NotLocal
from cleanmatrix.literals import parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2, conjugate, is_invertible, matpow
from cleanmatrix.piregular import decide_strongly_pi_regular
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
T3 = make_ring(truncated_poly(galois_field(2, 1), 3))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))


def m(ring, a, b, c, d):
    return Mat2(ring, ring.from_int(a), ring.from_int(b), ring.from_int(c),
                ring.from_int(d))


def test_trivial_decisions():
    dec = decide_strongly_clean(m(Z8, 1, 0, 0, 1))
    assert dec.status == "TrivialUnit"
    assert dec.method == "Trivial"
    assert dec.certificate.E == Mat2.zero(Z8)
    assert verify_certificate(m(Z8, 1, 0, 0, 1), dec.certificate)

    A = m(Z8, 0, 0, 0, 2)
    dec = decide_strongly_clean(A)
    assert dec.status == "TrivialOneMinusUnit"
    assert dec.certificate.E == Mat2.identity(Z8)
    assert verify_certificate(A, dec.certificate)


def test_nontrivial_pinned_z8():
    # t^2 - t - 2 has roots 2 in J and 7 in 1+J over Z/8
    A = m(Z8, 0, 2, 1, 1)
    dec = decide_strongly_clean(A)
    assert dec.status == "NontrivialClean"
    assert dec.method == "Enumeration"
    cert = dec.certificate
    assert cert.E == m(Z8, 3, 6, 3, 6)
    assert cert.U == m(Z8, 5, 4, 6, 3)
    t0, t1, P = cert.diag
    assert (t0, t1) == (Z8.el(7), Z8.el(2))
    assert P == m(Z8, 1, 7, 1, 2)
    assert conjugate(P, A) == Mat2.diag(Z8, t0, t1)
    assert verify_certificate(A, cert)


def test_z8_root_pair_survives_higher_power():
    # t^2 - t - 4 keeps a root over Z/8 (4^2 - 4 - 4 = 8 = 0), so the same
    # companion that defeats Z_(2) below is still clean modulo 8
    A = m(Z8, 0, 4, 1, 1)
    dec = decide_strongly_clean(A)
    assert dec.status == "NontrivialClean"
    assert verify_certificate(A, dec.certificate)


def test_verify_certificate_rejects_tampering():
    A = m(Z8, 0, 2, 1, 1)
    cert = decide_strongly_clean(A).certificate
    assert verify_certificate(A, cert)
    bad = CleanCertificate(cert.E, cert.U)
    assert verify_certificate(m(Z8, 0, 4, 1, 1), bad) is False
    swapped = CleanCertificate(cert.U, cert.E)
    assert verify_certificate(A, swapped) is False
    other_ring = CleanCertificate(m(Z4, 1, 0, 0, 1), m(Z4, 1, 0, 0, 1))
    assert verify_certificate(A, other_ring) is False
    assert verify_certificate(A, CleanCertificate(None, None)) is False


def test_certificate_idempotent_commutes_everywhere():
    # every Z/4 decision that returns a certificate satisfies the full contract
    elems = Z4.enumerate_elements("All")
    statuses = set()
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    A = Mat2(Z4, a, b, c, d)
                    dec = decide_strongly_clean(A)
                    statuses.add(dec.status)
                    if dec.certificate is not None:
                        assert verify_certificate(A, dec.certificate)
                    else:
                        assert dec.status == "NotClean"
    # finite local coefficients always admit the root pair, so NotClean
    # never appears here; it needs Z or Z_(p)
    assert statuses == {
        "TrivialUnit",
        "TrivialOneMinusUnit",
        "NontrivialClean",
    }


def test_decide_truncated_uses_lifting():
    A = m(T3, 0, 0, 1, 1)
    A = Mat2(T3, T3.zero, T3.mul(T3.variable(), T3.variable()), T3.one,
             T3.add(T3.one, T3.variable()))
    dec = decide_strongly_clean(A)
    assert dec.status == "NontrivialClean"
    assert dec.method == "Lifting"
    assert verify_certificate(A, dec.certificate)


@pytest.mark.parametrize(
    "spec, matrix",
    [
        ("Trunc(GF(2,4),8)", "[[0,y],[1,1+y^3]]"),
        ("Trunc(GF(2,4),8)", "[[1+y,1],[y,y]]"),
        ("SkewTrunc(GF(2,4),1,8)", "[[0,x],[1,1+x^3]]"),
        ("SkewTrunc(GF(2,4),1,8)", "[[1+x,w],[w*x,x]]"),
        ("Trunc(GF(2,16),4)", "[[0,y],[1,1]]"),
        ("Trunc(GF(2,16),4)", "[[1+y,w],[w*y,y]]"),
    ],
)
def test_decide_truncated_above_enum_cap_lifts(spec, matrix, refuse_scans):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    dec = decide_strongly_clean(A)
    assert dec.status == "NontrivialClean"
    assert dec.method == "Lifting"
    assert verify_certificate(A, dec.certificate)
    t0, t1, P = dec.certificate.diag
    assert conjugate(P, A) == Mat2.diag(R, t0, t1)
    assert "All" not in R._enum_cache


@pytest.mark.parametrize(
    "spec, matrix, status, method",
    [
        ("GF(2,20)", "[[1,1],[0,0]]", "NontrivialClean", "Enumeration"),  # of J = {0}
        ("Zloc(65537)", "[[1,1],[0,0]]", "NontrivialClean", "Discriminant"),
        ("Zloc(65537)", "[[1,2],[65537,0]]", "NotClean", "Discriminant"),
    ],
)
def test_decide_scans_no_large_residue_field(spec, matrix, status, method, refuse_scans):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    dec = decide_strongly_clean(A)
    assert (dec.status, dec.method) == (status, method)
    if status == "NontrivialClean":
        assert verify_certificate(A, dec.certificate)


@pytest.mark.parametrize(
    "spec",
    ["Zmod(2,2)", "Zmod(2,3)", "Zmod(3,2)", "GF(2,2)", "Trunc(GF(2),3)",
     "SkewTrunc(GF(2,2),1,2)"],
)
def test_status_census_matches_the_formulas(spec):
    # on a finite local ring with q = |R/J| each status is fixed by the
    # residue matrix: (q^2 - 1)(q^2 - q) of them are invertible, q^2 + q are
    # conjugate to diag(0, 1), q^2 are nilpotent and q (q^2 - 1) have rank 1
    # and a nonzero trace; each lifts to |J|^4 matrices
    R = parse_ring(spec)
    els = R.enumerate_elements("All")
    j, q = len(R.enumerate_elements("Radical")), R.residue_view().field.size()
    clean, pi = Counter(), Counter()
    for a, b, c, d in itertools.product(els, repeat=4):
        A = Mat2(R, a, b, c, d)
        clean[decide_strongly_clean(A).status] += 1
        pi[decide_strongly_pi_regular(A).status] += 1
    units = j**4 * (q * q - 1) * (q * q - q)
    assert clean["TrivialUnit"] == pi["TrivialUnit"] == units
    assert clean["NontrivialClean"] == j**4 * (q * q + q)
    assert pi["TrivialNilpotent"] == j**4 * q * q
    assert pi["Nontrivial"] == j**4 * q * (q * q - 1)
    # every matrix over a finite local ring is strongly clean and strongly
    # pi-regular
    assert set(clean) <= {"TrivialUnit", "TrivialOneMinusUnit", "NontrivialClean"}
    assert set(pi) == {"TrivialUnit", "TrivialNilpotent", "Nontrivial"}


def test_decide_skew_exhaustive_companions():
    for w0 in SK16.enumerate_elements("Radical"):
        for w1 in SK16.enumerate_elements("Radical"):
            A = Mat2(SK16, SK16.zero, w0, SK16.one, SK16.add(SK16.one, w1))
            dec = decide_strongly_clean(A)
            assert dec.status == "NontrivialClean"
            assert verify_certificate(A, dec.certificate)
            t0, t1, P = dec.certificate.diag
            assert conjugate(P, A) == Mat2.diag(SK16, t0, t1)


def test_decide_localized_integers():
    dec = decide_strongly_clean(m(ZL2, 0, 2, 1, 1))
    assert dec.status == "NontrivialClean"
    assert dec.method == "Discriminant"
    assert verify_certificate(m(ZL2, 0, 2, 1, 1), dec.certificate)

    dec = decide_strongly_clean(m(ZL2, 0, 4, 1, 1))
    assert dec.status == "NotClean"
    assert dec.witness.text() == "t^2-t-4"


def test_ring_verdicts():
    assert ring_is_strongly_clean(Z8).answer == "Yes"
    assert ring_is_strongly_clean(GF4).answer == "Yes"
    assert ring_is_strongly_clean(T3).answer == "Yes"
    assert ring_is_strongly_clean(SK16).answer == "Yes"
    verdict = ring_is_strongly_clean(ZL2)
    assert verdict.answer == "No"
    # w0 = 2 gives square discriminant 9; w0 = 4 gives 17, not a square
    assert verdict.witness.text() == "t^2-t-4"
    with pytest.raises(NotLocal):
        ring_is_strongly_clean(Z)


def test_ring_verdict_witness_has_no_root():
    f = ring_is_strongly_clean(ZL2).witness
    from cleanmatrix.quadratics import find_roots_rational

    rep = find_roots_rational(f, ("J", "1+J"))
    assert rep.root_in_j is None


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@pytest.mark.parametrize("p", _primes_below(100) + [65521, 65537])
def test_localized_survey_witness_in_closed_form(p):
    from cleanmatrix.quadratics import find_roots_rational

    R = make_ring(localized_integers(p))
    w0 = 4 if p == 2 else p
    verdict = ring_is_strongly_clean(R)
    assert verdict.answer == "No"
    assert verdict.witness.text() == f"t^2-t-{w0}"
    assert find_roots_rational(verdict.witness, ("J", "1+J")).root_in_j is None
    assert decide_strongly_clean(m(R, 0, w0, 1, 1)).status == "NotClean"


def test_skew_opposite_decides_alike():
    # A -> psi(A)^T is an anti-isomorphism from M_2(R) onto M_2(S), S the
    # opposite of R up to isomorphism, so it keeps both verdicts and carries
    # the clean idempotent; R = SkewTrunc(GF(2,3),1,2) has sigma^-1 != sigma
    R, S = parse_ring("SkewTrunc(GF(2,3),1,2)"), parse_ring("SkewTrunc(GF(2,3),2,2)")
    psi = ref.opposite_map(R, S)

    def flip(A):
        return Mat2(S, psi(A.a), psi(A.c), psi(A.b), psi(A.d))

    els = R.enumerate_elements("All")
    rng = random.Random(20261020)
    seeded = [Mat2(R, *(rng.choice(els) for _ in range(4))) for _ in range(3000)]
    companions = [Mat2(R, R.zero, w0, R.one, R.add(R.one, w1)) for w0 in els for w1 in els]
    statuses = set()
    for A in seeded + companions:
        dec, flipped = decide_strongly_clean(A), decide_strongly_clean(flip(A))
        assert dec.status == flipped.status, repr(A)
        if dec.status == "NontrivialClean":
            assert flip(dec.certificate.E) == flipped.certificate.E, repr(A)
        pi_status = decide_strongly_pi_regular(A).status
        assert pi_status == decide_strongly_pi_regular(flip(A)).status, repr(A)
        statuses.add(dec.status)
    assert {"TrivialUnit", "TrivialOneMinusUnit", "NontrivialClean"} <= statuses
