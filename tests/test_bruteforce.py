"""Table-driven oracle behavior: brute clean against the idempotent list of
the reference, brute pi against set arithmetic and the decider."""

import itertools
import random

import pytest
import ring_references as ref

from cleanmatrix.bruteforce import (
    ORACLE_CAP,
    _kernel_size,
    _tables,
    brute_both,
    brute_clean,
    brute_pi,
)
from cleanmatrix.clean import CleanCertificate, verify_certificate
from cleanmatrix.errors import TooLarge
from cleanmatrix.literals import parse_ring
from cleanmatrix.matrices import Mat2, matpow
from cleanmatrix.piregular import decide_strongly_pi_regular
from cleanmatrix.rings import (
    galois_field,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)

ZL2 = make_ring(localized_integers(2))
Z4 = make_ring(mod_prime_power(2, 2))
GF2 = make_ring(galois_field(2, 1))
GF4 = make_ring(galois_field(2, 2))
T2 = make_ring(truncated_poly(galois_field(2, 1), 2))
Z8 = make_ring(mod_prime_power(2, 3))
Z9 = make_ring(mod_prime_power(3, 2))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))
SK64 = make_ring(truncated_skew(galois_field(2, 3), 2, 2))
Z64 = make_ring(mod_prime_power(2, 6))
Z256 = make_ring(mod_prime_power(2, 8))
T256 = make_ring(truncated_poly(galois_field(2, 2), 4))


def m(ring, a, b, c, d):
    return Mat2(ring, ring.from_int(a), ring.from_int(b), ring.from_int(c),
                ring.from_int(d))


def test_gf2_idempotent_count():
    # over a field: 0, I, and the rank-1 projections; GF(2) has 8 of them
    ids = ref.enumerate_idempotents(GF2)
    assert len(ids) == 8
    for E in ids:
        assert E * E == E
    assert Mat2.zero(GF2) in ids
    assert Mat2.identity(GF2) in ids


def test_idempotent_scan_is_complete():
    # recount by scanning every matrix the slow way, in index order, and
    # compare as lists: the same idempotents in the same order
    for R in (Z4, GF4, T2, Z8, Z9, SK16):
        elems = R.enumerate_elements("All")
        slow = []
        for a, b, c, d in itertools.product(elems, repeat=4):
            A = Mat2(R, a, b, c, d)
            if A * A == A:
                slow.append(A)
        assert ref.enumerate_idempotents(R) == slow, R.spec_string()


@pytest.mark.parametrize("k", [6, 8])
def test_idempotent_count_formula(k):
    # 0, I and one rank-one projection per (1, a) or (b, 1) column and free
    # row entry: 2 + |R|^2 (1 + 1/q) distinct idempotents, here with q = 2
    R = make_ring(mod_prime_power(2, k))
    ids = ref.enumerate_idempotents(R)
    n = R.size()
    assert len(ids) == 2 + n * n + n * n // 2
    assert len(set(ids)) == len(ids)
    for E in ids:
        assert E * E == E


def test_idempotent_counts_pinned():
    # fields carry 2 + q(q+1) idempotents (trivial pair plus rank-1
    # projections); lifts along the nil radical are plentiful but finite
    assert len(ref.enumerate_idempotents(GF2)) == 8
    assert len(ref.enumerate_idempotents(GF4)) == 22
    assert len(ref.enumerate_idempotents(Z4)) == 26
    assert len(ref.enumerate_idempotents(T2)) == 26


def test_too_large_and_infinite():
    with pytest.raises(TooLarge):
        ref.enumerate_idempotents(ZL2)
    with pytest.raises(TooLarge):
        ref.enumerate_idempotents(make_ring(mod_prime_power(2, 9)))  # 512 > ORACLE_CAP


def test_oracle_cap_is_256_elements():
    assert ORACLE_CAP == 256
    assert brute_pi(Mat2.identity(Z256)) == 1


def test_brute_clean_pinned_gf2():
    # [[0,1],[0,0]] is nilpotent, not invertible; E = I works: U = A - I is
    # invertible and commutes (any polynomial in A does)
    A = m(GF2, 0, 1, 0, 0)
    cert = brute_clean(A)
    assert cert is not None
    assert cert.E == Mat2.identity(GF2)
    assert cert.U == A - Mat2.identity(GF2)
    assert verify_certificate(A, cert)


def test_brute_clean_invertible_uses_zero_idempotent():
    A = m(Z4, 1, 1, 0, 1)
    cert = brute_clean(A)
    # A is invertible and A - I is not: only E = 0 is clean
    assert cert.E == Mat2.zero(Z4)
    assert verify_certificate(A, cert)


def test_brute_clean_never_fails_on_finite_test_rings():
    elems = Z4.enumerate_elements("All")
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    A = Mat2(Z4, a, b, c, d)
                    cert = brute_clean(A)
                    assert cert is not None
                    assert verify_certificate(A, cert)


# every ring of at most 64 elements that the tests build, both skew rings over
# GF(8) included: each matrix where |R| <= 9, a sample elsewhere
SMALL_RINGS = [parse_ring(spec) for spec in (
    "GF(2)", "GF(3)", "GF(5)", "GF(2,2)", "Zmod(2,2)", "Trunc(GF(2),2)",
    "Zmod(2,3)", "Trunc(GF(2),3)", "GF(2,3)", "Zmod(3,2)", "GF(3,2)",
    "Trunc(GF(3),2)", "SkewTrunc(GF(2,2),1,2)", "SkewTrunc(GF(2,2),0,2)",
    "Trunc(GF(2,2),2)", "GF(2,4)", "Zmod(2,4)", "Zmod(5,2)", "GF(5,2)",
    "Zmod(3,3)", "Trunc(GF(3),3)", "GF(3,3)", "Zmod(2,5)", "GF(7,2)",
    "Zmod(2,6)", "SkewTrunc(GF(2,2),1,3)", "SkewTrunc(GF(2,3),1,2)",
    "SkewTrunc(GF(2,3),2,2)",
)]


@pytest.mark.parametrize("R", SMALL_RINGS, ids=lambda R: R.spec_string())
def test_brute_clean_is_the_reference_idempotent(R):
    # where neither E = 0 nor E = I is clean, the clean E is unique, so the
    # Fitting projection is the commute scan's only hit; elsewhere the
    # oracle takes 0 when it is clean, else I
    zero, one = Mat2.zero(R), Mat2.identity(R)
    if R.size() ** 4 <= 6561:
        quadruples = itertools.product(R.enumerate_elements("All"), repeat=4)
    else:
        quadruples = _sample(R, 300)
    for entries in quadruples:
        A = Mat2(R, *entries)
        cert = brute_clean(A)
        assert verify_certificate(A, cert), repr(A)
        trivial = [E for E in (zero, one) if verify_certificate(A, CleanCertificate(E, A - E))]
        expected = trivial[0] if trivial else ref.commute_scan_clean(A)
        assert cert.E == expected, repr(A)


def test_brute_pi_pinned():
    assert brute_pi(m(Z4, 1, 0, 0, 1)) == 1
    assert brute_pi(m(Z4, 1, 0, 0, 0)) == 1
    assert brute_pi(m(Z4, 0, 1, 0, 0)) == 2  # nilpotent of index 2
    assert brute_pi(m(Z4, 2, 0, 0, 2)) == 2
    assert brute_pi(m(Z4, 0, 2, 1, 1)) is not None


def test_brute_pi_splitting_power_is_minimal():
    # the returned power really splits, and the previous one does not
    A = m(Z4, 0, 2, 1, 1)
    p = brute_pi(A)
    elems = Z4.enumerate_elements("All")
    vectors = [(x, y) for x in elems for y in elems]

    def splits(M):
        from cleanmatrix.matrices import matvec

        zero_vec = (Z4.zero, Z4.zero)
        ker = {v for v in vectors if matvec(M, v) == zero_vec}
        im = {matvec(M, v) for v in vectors}
        return ker & im == {zero_vec}

    assert splits(matpow(A, p))
    if p > 1:
        assert not splits(matpow(A, p - 1))


def _sample(R, count):
    rng = random.Random(20261019)
    elems = R.enumerate_elements("All")
    return [[rng.choice(elems) for _ in range(4)] for _ in range(count)]


def test_kernel_chain_matches_set_arithmetic():
    # the counted meet and the kernel chain against the |R|^2 scans they
    # replaced: the same invertibility verdict and the same power, on every
    # matrix over four rings and on samples over the skew rings (where a x and
    # x a differ), one of them SkewTrunc(GF(2,3),2,2), and a 64-element ring
    cases = [(R, itertools.product(R.enumerate_elements("All"), repeat=4))
             for R in (Z4, GF4, T2, Z8)]
    cases += [(SK16, _sample(SK16, 300)), (SK64, _sample(SK64, 40)), (Z64, _sample(Z64, 40))]
    for R, quadruples in cases:
        tab = _tables(R)
        for entries in quadruples:
            A = Mat2(R, *entries)
            invertible = _kernel_size(tab, tab.matrix_indices(A)) == 1
            assert invertible == ref.kernel_scan_is_invertible(A), repr(A)
            assert brute_pi(A) == ref.brute_pi_sets(A), repr(A)


def test_brute_both_answers_as_the_two_oracles():
    # one walk of the kernel chain serves both: every matrix over three rings,
    # and samples over the skew ring and a 64-element ring, cover E = 0, E = I
    # and the Fitting projection
    cases = [(R, itertools.product(R.enumerate_elements("All"), repeat=4)) for R in (Z4, GF4, T2)]
    cases += [(SK16, _sample(SK16, 300)), (Z64, _sample(Z64, 300))]
    kinds = set()
    for R, quadruples in cases:
        for entries in quadruples:
            A = Mat2(R, *entries)
            cert, power = brute_both(A)
            assert (cert.E, power) == (brute_clean(A).E, brute_pi(A)), repr(A)
            kinds.add("0" if cert.E == Mat2.zero(R) else "I" if cert.E == Mat2.identity(R) else "E")
    assert kinds == {"0", "I", "E"}


def _decider_power(A):
    """The splitting power read off the pi decider's certificate."""
    cert = decide_strongly_pi_regular(A).certificate
    if cert.kind == "unit":
        return 1
    if cert.kind == "nilpotent":
        return cert.index
    assert cert.kind == "diag"
    power = 1
    while cert.t1 ** power != A.ring.zero:
        power += 1
    return power


def test_brute_pi_power_matches_decider_certificate():
    # on a finite ring both always answer (Fitting's lemma), so compare the
    # power itself: for A similar to diag(t0 unit, t1 nilpotent), A^n splits
    # exactly when t1^n = 0; the 256-element rings reach ORACLE_CAP
    cases = [(R, itertools.product(R.enumerate_elements("All"), repeat=4))
             for R in (Z4, GF4, T2)]
    cases += [(R, _sample(R, 1000)) for R in (Z8, SK16)]
    cases += [(R, _sample(R, 500)) for R in (Z256, T256)]
    for R, quadruples in cases:
        for entries in quadruples:
            A = Mat2(R, *entries)
            assert brute_pi(A) == _decider_power(A), repr(A)
