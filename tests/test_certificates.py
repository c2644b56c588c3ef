"""Certificate assembly and verification.

The deciders build their certificates in closed form (rank-one products of
eigenrows, no inverse; over a commutative ring straight from A, by the
adjugate of the basis change) and check each one once, with the complete
verifier.  These tests keep the inverse-based assembly and, on commutative
rings, the companion route as references, tamper with certificates the
verifiers must reject, feed the deciders wrong roots, and count the
inversions a decision makes.
"""

import itertools
import random
import sys

import pytest

import ring_references as ref
from cleanmatrix import matrices, quadratics
from cleanmatrix.clean import (
    CleanCertificate,
    decide_strongly_clean,
    verify_certificate,
)
from cleanmatrix.companion import reduce_to_companion, reduce_to_companion_pi
from cleanmatrix.errors import InternalContractViolation
from cleanmatrix.literals import parse_element, parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2, diag_mul, invert2, is_invertible
from cleanmatrix.piregular import (
    PiCertificate,
    decide_strongly_pi_regular,
    verify_pi_certificate,
)
from cleanmatrix.quadratics import find_roots_enumerate

SK16 = parse_ring("SkewTrunc(GF(2,2),1,2)")


def _reference_clean(A):
    """(E, U, (t0, t1, P)) by the inverse-based assembly: roots by
    enumeration, Qe with rows (1, lam1J), (1, lamJ), E_C = Qe^-1 diag(0,1) Qe
    through invert2, and E = P^-1 E_C P."""
    R = A.ring
    cf = reduce_to_companion(A)
    rep = find_roots_enumerate(cf.f, ("J", "1+J"))
    lam_j, lam_1j = rep.root_in_j, rep.root_in_1_plus_j
    Qe = Mat2(R, R.one, lam_1j, R.one, lam_j)
    E_C = (invert2(Qe) * Mat2.diag(R, R.zero, R.one)) * Qe
    E = (cf.P_inv * E_C) * cf.P
    return E, A - E, (lam_1j, lam_j, Qe * cf.P)


def _check_against_reference(A):
    """Compare both deciders' certificates for A with the reference; returns
    (clean reduced, pi nontrivial) for the caller's counts."""
    R = A.ring
    I = Mat2.identity(R)
    reduced = not (is_invertible(A) or is_invertible(I - A))
    if reduced:
        cert = decide_strongly_clean(A).certificate
        E, U, diag = _reference_clean(A)
        assert (cert.E, cert.U, cert.diag) == (E, U, diag), A
    pdec = decide_strongly_pi_regular(A)
    nontrivial = pdec.status == "Nontrivial"
    if nontrivial:
        cert = pdec.certificate
        cf = reduce_to_companion_pi(A)
        rep = find_roots_enumerate(cf.f, ("unit", "nilpotent"))
        assert (cert.t0, cert.t1) == (rep.root_unit, rep.root_nilpotent)
        Qe = Mat2(R, R.one, cert.t0, R.one, cert.t1)
        assert cert.P == Qe * cf.P, A
    return reduced, nontrivial


@pytest.mark.parametrize(
    "spec", ["Zmod(2,3)", "Zmod(3,2)", "GF(2,2)", "Trunc(GF(2),3)"]
)
def test_closed_form_matches_inverse_assembly_exhaustive(spec):
    # every ring here is commutative: the companion route is a reference too
    R = parse_ring(spec)
    els = R.enumerate_elements("All")
    counts = [0, 0]
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    A = Mat2(R, a, b, c, d)
                    hits = _check_against_reference(A)
                    assert _check_against_companion_route(A) == hits, A
                    counts = [n + h for n, h in zip(counts, hits)]
    assert all(counts)  # both reduced routes were reached


def test_closed_form_matches_inverse_assembly_skew():
    R = SK16
    radical = R.enumerate_elements("Radical")
    for w0 in radical:  # every companion matrix, where P = I
        for w1 in radical:
            A = Mat2(R, R.zero, w0, R.one, R.add(R.one, w1))
            assert _check_against_reference(A)[0]
    els = R.enumerate_elements("All")
    rng = random.Random(7)
    counts = [0, 0]
    for _ in range(1500):
        A = Mat2(R, *(rng.choice(els) for _ in range(4)))
        hits = _check_against_reference(A)
        counts = [n + h for n, h in zip(counts, hits)]
    assert all(counts)


# ------------------------------------------ the companion route, commutative


def _check_against_companion_route(A):
    """Compare both deciders' certificates for A over a commutative ring with
    the companion route's (E, U, t0, t1, P and the pi t0, t1, P); returns
    (clean reduced, pi nontrivial) for the caller's counts."""
    clean_ref, pi_ref = ref.companion_route_certificates(A)
    dec = decide_strongly_clean(A)
    assert (dec.status == "NontrivialClean") == (clean_ref is not None), A
    if clean_ref is not None:
        cert = dec.certificate
        assert (cert.E, cert.U) == (clean_ref.E, clean_ref.U), A
        assert cert.diag == clean_ref.diag, A
    pdec = decide_strongly_pi_regular(A)
    assert (pdec.status == "Nontrivial") == (pi_ref is not None), A
    if pi_ref is not None:
        cert = pdec.certificate
        assert (cert.t0, cert.t1, cert.P) == pi_ref, A
    return clean_ref is not None, pi_ref is not None


def _zloc_samples(R, rng, count):
    """Matrices over Z_(p): random small entries, which are rarely clean,
    and S diag(t0, t1) S^-1 for t0 in 1 + J, t1 in J (0 a third of the
    time, for a nilpotent pi root) and S = [[1 + s u, s], [u, 1]] of
    determinant 1, which are clean and rarely in companion shape."""
    p = R.p

    def unit_den():
        return rng.choice([d for d in range(1, 12) if d % p])

    def in_radical():
        return R.mul(R.el(p), R.frac(rng.randint(-5, 5), unit_den()))

    out = []
    for i in range(count):
        if i % 3 == 0:
            entries = (R.frac(rng.randint(-9, 9), unit_den()) for _ in range(4))
            out.append(Mat2(R, *entries))
            continue
        t0 = R.add(R.one, in_radical())
        t1 = R.zero if i % 3 == 1 else in_radical()
        s, u = R.el(rng.randint(-4, 4)), R.el(rng.choice([-3, -2, -1, 1, 2, 3]))
        S = Mat2(R, R.add(R.one, R.mul(s, u)), s, u, R.one)
        S_inv = Mat2(R, R.one, R.neg(s), R.neg(u), R.add(R.one, R.mul(s, u)))
        out.append((S * Mat2.diag(R, t0, t1)) * S_inv)
    return out


@pytest.mark.parametrize(
    "spec", ["Zmod(2,8)", "Trunc(GF(2,2),4)", "GF(2,4)", "Zloc(2)", "Zloc(3)"]
)
def test_adjugate_route_matches_companion_route_sampled(spec):
    R = parse_ring(spec)
    rng = random.Random(19)
    if R.is_finite:
        els = R.enumerate_elements("All")
        samples = [Mat2(R, *(rng.choice(els) for _ in range(4))) for _ in range(300)]
    else:
        samples = _zloc_samples(R, rng, 300)
    counts = [0, 0]
    for A in samples:
        hits = _check_against_companion_route(A)
        counts = [n + h for n, h in zip(counts, hits)]
    assert all(counts)


# ------------------------------------------------------------- the verifiers


_CLEAN_CASES = [
    ("Zmod(2,3)", "[[0,2],[1,1]]"),
    ("Zmod(2,3)", "[[1,1],[2,0]]"),
    ("SkewTrunc(GF(2,2),1,2)", "[[1+x,w],[w*x,x]]"),
    ("Zloc(2)", "[[0,2],[1,1]]"),
    ("Z", "[[3,2],[-3,-2]]"),
    ("Z", "[[1,1],[0,2]]"),
]


def _tampered_diags(R, t0, t1, P):
    """Diagonalizations a verifier must reject: a singular P (one with a zero
    row still has P A = D P), t0 and t1 swapped, and P's rows swapped or
    P = I, which fail P A = D P."""
    return [
        (t0, t1, Mat2(R, R.one, R.one, R.one, R.one)),
        (t0, t1, Mat2(R, P.a, P.b, R.zero, R.zero)),
        (t1, t0, P),
        (t0, t1, Mat2(R, P.c, P.d, P.a, P.b)),
        (t0, t1, Mat2.identity(R)),
    ]


@pytest.mark.parametrize("spec,matrix", _CLEAN_CASES)
def test_verify_certificate_rejects_bad_diagonalizations(spec, matrix):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    cert = decide_strongly_clean(A).certificate
    assert cert.diag is not None and verify_certificate(A, cert)
    for diag in _tampered_diags(R, *cert.diag):
        assert verify_certificate(A, CleanCertificate(cert.E, cert.U, diag)) is False
    other = parse_ring("Zmod(2,2)")
    for diag in ((None, None, None), (cert.diag[0], cert.diag[1], Mat2.identity(other)),
                 (cert.diag[0],), "diag"):
        assert verify_certificate(A, CleanCertificate(cert.E, cert.U, diag)) is False


@pytest.mark.parametrize(
    "spec,matrix",
    [("Zmod(2,3)", "[[0,2],[1,3]]"), ("Zmod(2,3)", "[[1,1],[2,0]]"),
     ("SkewTrunc(GF(2,2),1,2)", "[[1+x,w],[w*x,x]]"), ("Zloc(3)", "[[1,1],[1,1]]"),
     ("Z", "[[3,2],[-3,-2]]")],
)
def test_verify_pi_certificate_rejects_bad_diagonalizations(spec, matrix):
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    cert = decide_strongly_pi_regular(A).certificate
    assert cert.kind == "diag" and verify_pi_certificate(A, cert)
    for t0, t1, P in _tampered_diags(R, cert.t0, cert.t1, cert.P):
        bad = PiCertificate("diag", t0=t0, t1=t1, P=P)
        assert verify_pi_certificate(A, bad) is False
    other = parse_ring("Zmod(2,2)")
    for P in (None, Mat2.identity(other)):
        bad = PiCertificate("diag", t0=cert.t0, t1=cert.t1, P=P)
        assert verify_pi_certificate(A, bad) is False
    assert verify_pi_certificate(A, PiCertificate("diag", P=cert.P)) is False


# ------------------------------------ the structural check, against equations


def _unit_other_than_one(R):
    """A unit u != 1 of R, for scaling a row of P."""
    if R.family == "Integers":
        return R.el(-1)
    if R.is_finite:
        return next(u for u in R.enumerate_elements("Units") if u != R.one)
    return R.el(3 if R.p != 3 else 2)


def _variants(A, cert, u):
    """The certificate and copies of it: without its diagonalization, with
    E replaced by I - E and U by A - (I - E), with one entry of U changed,
    with P's rows swapped together with (t0, t1), with t1 + 1, and with a
    row of P scaled on the left by the unit u."""
    R = A.ring
    E, U, diag = cert.E, cert.U, cert.diag
    I_E = Mat2.identity(R) - E
    bad_U = Mat2(R, R.add(U.a, R.one), U.b, U.c, U.d)
    out = [cert, CleanCertificate(E, U), CleanCertificate(I_E, A - I_E),
           CleanCertificate(E, bad_U, diag)]
    if diag is not None:
        t0, t1, P = diag
        swapped = (t1, t0, Mat2(R, P.c, P.d, P.a, P.b))
        out += [
            CleanCertificate(E, U, swapped),
            CleanCertificate(I_E, A - I_E, diag),
            CleanCertificate(I_E, A - I_E, swapped),
            CleanCertificate(E, U, (t0, R.add(t1, R.one), P)),
        ]
        for scaled in (diag_mul(R.one, u, P), diag_mul(u, R.one, P)):
            out.append(CleanCertificate(E, U, (t0, t1, scaled)))
    return out


def _check_against_equations(A, u):
    """verify_certificate against the four-equation reference on A's decider
    certificate and its copies; returns the decision's status."""
    dec = decide_strongly_clean(A)
    if dec.certificate is None:
        return dec.status
    variants = _variants(A, dec.certificate, u)
    answers = [verify_certificate(A, c) for c in variants]
    assert answers == [ref.verify_clean_equations(A, c) for c in variants], A
    assert answers[0] is True, A
    if dec.certificate.diag is not None:
        assert answers[4] is True, A  # swapped rows go through the equations
    return dec.status


def _matrices(R, rng, count):
    """Every matrix over R when there are at most 4,096, else count seeded
    ones; over Z_(p) the clean-biased samples, over Z small entries and
    conjugates of diag(+-1, 0 or 2) by unimodular matrices."""
    if R.is_finite:
        els = R.enumerate_elements("All")
        if len(els) ** 4 <= 4096:
            return [Mat2(R, *e) for e in itertools.product(els, repeat=4)]
        return [Mat2(R, *(rng.choice(els) for _ in range(4))) for _ in range(count)]
    if R.family != "Integers":
        return _zloc_samples(R, rng, count)
    out = []
    for i in range(count):
        if i % 2:
            out.append(Mat2(R, *(R.el(rng.randint(-3, 3)) for _ in range(4))))
            continue
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        S = Mat2(R, R.el(1 + s * t), R.el(s), R.el(t), R.one)
        S_inv = Mat2(R, R.one, R.el(-s), R.el(-t), R.el(1 + s * t))
        D = Mat2.diag(R, R.el(rng.choice((1, -1))), R.el(rng.choice((0, 2))))
        out.append((S * D) * S_inv)
    return out


@pytest.mark.parametrize(
    "spec",
    ["Zmod(2,2)", "Zmod(2,3)", "GF(2,2)", "Zmod(3,2)", "Trunc(GF(2),3)",
     "SkewTrunc(GF(2,2),1,2)", "Zloc(2)", "Z"],
)
def test_structural_check_matches_four_equations(spec):
    R = parse_ring(spec)
    u = _unit_other_than_one(R)
    statuses = {
        _check_against_equations(A, u) for A in _matrices(R, random.Random(23), 1500)
    }
    assert "NontrivialClean" in statuses and "TrivialUnit" in statuses


@pytest.mark.parametrize(
    "spec",
    ["Zmod(2,2)", "Zmod(2,3)", "GF(2,2)", "Zmod(3,2)", "Trunc(GF(2),3)",
     "SkewTrunc(GF(2,2),1,2)", "Zloc(2)", "Zloc(3)", "Z"],
)
def test_structural_check_needs_both_diagonal_units(spec):
    # P E = diag(0,1) P holds in both, with P = I; U = diag(t0, t1 - 1) is
    # singular through t1 - 1 = 0 in the first and t0 = 0 in the second
    R = parse_ring(spec)
    z, o = R.zero, R.one
    E = Mat2.diag(R, z, o)
    for A, U, t in (
        (Mat2.identity(R), Mat2.diag(R, o, z), o),
        (Mat2.zero(R), Mat2.diag(R, z, R.neg(o)), z),
    ):
        cert = CleanCertificate(E, U, (t, t, Mat2.identity(R)))
        assert verify_certificate(A, cert) is False
        assert ref.verify_clean_equations(A, cert) is False


# ------------------------------------------------------------- wrong roots


def test_wrong_enumerated_root_raises(monkeypatch):
    # the Z/p^k clean route scans J by ModPrimePowerRing.radical_root
    R = parse_ring("Zmod(2,3)")
    original = type(R).radical_root
    monkeypatch.setattr(
        type(R), "radical_root",
        lambda self, a1, a0: R.add(original(self, a1, a0), R.el(2)),
    )
    for matrix in ("[[0,2],[1,1]]", "[[1,1],[2,0]]"):
        with pytest.raises(InternalContractViolation, match="fails verification"):
            decide_strongly_clean(parse_matrix(R, matrix))


def test_wrong_lifted_root_raises(monkeypatch):
    # a wrong root from either lifting route fails the deciders' one check:
    # Newton's step on Z/p^k (pi), the chord steps on a truncation (both)
    R = parse_ring("Zmod(2,3)")
    newton = type(R).newton_root
    monkeypatch.setattr(
        type(R), "newton_root",
        lambda self, a1, a0, s: R.add(newton(self, a1, a0, s), R.el(2)),
    )
    for matrix in ("[[0,2],[1,3]]", "[[1,1],[2,0]]"):
        with pytest.raises(InternalContractViolation, match="fails verification"):
            decide_strongly_pi_regular(parse_matrix(R, matrix))

    T = parse_ring("Trunc(GF(2),3)")
    y2 = parse_element(T, "y^2")
    original = quadratics.lift_root
    monkeypatch.setattr(quadratics, "lift_root", lambda f, s: T.add(original(f, s), y2))
    with pytest.raises(InternalContractViolation):
        decide_strongly_clean(parse_matrix(T, "[[0,y],[1,1]]"))
    with pytest.raises(InternalContractViolation, match="fails verification"):
        decide_strongly_pi_regular(parse_matrix(T, "[[0,y],[1,1]]"))


# -------------------------------------------------------- inversion count


@pytest.fixture
def invert2_calls(monkeypatch):
    """Count matrices.invert2 calls, wherever a cleanmatrix module holds it."""
    calls = []
    original = matrices.invert2

    def counted(A):
        calls.append(A)
        return original(A)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cleanmatrix") and getattr(mod, "invert2", None) is original:
            monkeypatch.setattr(mod, "invert2", counted)
    return calls


@pytest.mark.parametrize(
    "spec,matrix",
    [("Zmod(2,3)", "[[1,1],[2,0]]"), ("SkewTrunc(GF(2,2),1,2)", "[[1+x,w],[w*x,x]]")],
)
def test_reduced_decisions_invert_once(spec, matrix, invert2_calls):
    # the skew ring's reduction inverts its basis change once per decision;
    # a commutative owner builds its certificates from A and inverts none
    R = parse_ring(spec)
    A = parse_matrix(R, matrix)
    assert not (A.a == R.zero and A.c == R.one)  # not in companion shape
    per_decision = 0 if R.is_commutative else 1
    assert decide_strongly_clean(A).status == "NontrivialClean"
    assert len(invert2_calls) == per_decision
    assert decide_strongly_pi_regular(A).status == "Nontrivial"
    assert len(invert2_calls) == 2 * per_decision


def test_integer_decision_inverts_once(invert2_calls):
    R = parse_ring("Z")
    A = parse_matrix(R, "[[3,2],[-3,-2]]")
    assert decide_strongly_clean(A).status == "NontrivialClean"
    assert len(invert2_calls) == 1  # the classifier's eigenvector transform
