"""Strongly clean decisions for 2x2 matrices: A = E + U with E idempotent,
U invertible, and EU = UE.

Trivial cases: A invertible (E = 0) and I - A invertible (E = I).  Every other
candidate reduces to a companion matrix C = [[0, w0], [1, 1+w1]] and is strongly
clean exactly when t^2 - t(1+w1) - w0 has a left root in J; the certificate is
assembled from a pair of row eigenvectors of C,

    v1 = (1, lamJ),  v2 = (1, lam1J),  vi C = lami vi,

with Q the matrix with rows (v2, v1).  Its inverse has second column
u = (-lam1J d^-1, d^-1) for the unit d = lamJ - lam1J, so the projection onto
the lamJ eigenrow, Q^-1 diag(0,1) Q, is the rank-one u v1, and pulled back
through the companion transform P it is E = (P^-1 u)(v1 P), with U = A - E.
The rows v2 P and v1 P diagonalize: (Q P) A = diag(lam1J, lamJ) (Q P), the
unit eigenvalue first.  Nothing is inverted on the way; verify_certificate,
the one complete check, runs once on the result.

Root search is enumeration on finite rings, the discriminant over Z_(p), and
J-adic lifting from the residue roots 0 and 1 on truncated rings, which
enumerates neither the ring nor its residue field, so it also serves
truncations above ENUM_CAP.
Integer matrices are dispatched to the integer classifier, which builds the
same shape of certificate from a unimodular eigenvector transform.
"""

from .companion import CompanionForm, reduce_to_companion
from .errors import InternalContractViolation, NotLocal, TrivialCertificate
from .matrices import (
    Mat2,
    diagonalizes,
    has_inverse,
    invert2,
    is_invertible,
    matvec,
    outer,
)
from .quadratics import (
    MonicQuadratic,
    find_roots_enumerate,
    find_roots_rational,
    left_eval,
    lift_root_truncated,
)

_TRUNCATED = ("TruncatedPoly", "TruncatedSkew")


class CleanCertificate:
    __slots__ = ("E", "U", "diag")

    def __init__(self, E, U, diag=None):
        self.E, self.U = E, U
        self.diag = diag  # (t0, t1, P), P invertible, P A = diag(t0, t1) P


class CleanDecision:
    __slots__ = ("status", "certificate", "witness", "method")

    def __init__(self, status, certificate=None, witness=None, method=None):
        # TrivialUnit | TrivialOneMinusUnit | NontrivialClean | NotClean
        self.status = status
        self.certificate, self.witness, self.method = certificate, witness, method


class RingCleanVerdict:
    __slots__ = ("answer", "witness")

    def __init__(self, answer, witness=None):
        self.answer, self.witness = answer, witness  # Yes | No | Unknown


def verify_certificate(A: Mat2, cert: CleanCertificate) -> bool:
    """E^2 = E, A = E + U, EU = UE, U invertible, and for a certificate with a
    diagonalization (t0, t1, P) also P invertible and P A = diag(t0, t1) P.
    Never raises on bad data."""
    try:
        E, U = cert.E, cert.U
        if E.ring is not A.ring or U.ring is not A.ring:
            return False
        if not (
            E * E == E and E + U == A and E * U == U * E and has_inverse(U)
        ):
            return False
        if cert.diag is None:
            return True
        t0, t1, P = cert.diag
        return diagonalizes(P, A, t0, t1)
    except Exception:
        return False


def build_certificate(
    companion: CompanionForm, lam_j, lam_1j, A: Mat2
) -> CleanCertificate:
    """Assemble the eigenrow certificate in closed form and verify it once."""
    R = A.ring
    t0, t1 = lam_1j, lam_j
    if not (R.in_radical(R.sub(R.one, t0)) and R.in_radical(t1)):
        raise InternalContractViolation("diagonal entries on the wrong side of J")
    d_inv = R.invert(R.sub(t1, t0))  # a unit: t1 in J, t0 in 1 + J
    u = matvec(companion.P_inv, (R.neg(R.mul(t0, d_inv)), d_inv))
    diag_P = companion.eigenrow_transform(t0, t1)
    E = outer(R, u, (diag_P.c, diag_P.d))
    cert = CleanCertificate(E, A - E, diag=(t0, t1, diag_P))
    if not verify_certificate(A, cert):
        raise InternalContractViolation("built certificate fails verification")
    return cert


def _find_w_roots(R, f: MonicQuadratic):
    """(lamJ, lam1J, method) for f in W, by the family's route."""
    if R.family in _TRUNCATED and R.element_ring is R:
        lam_j = lift_root_truncated(R, f.w0, f.w1)
        g = f.one_minus_t_transform()
        mu = lift_root_truncated(R, g.w0, g.w1)
        lam_1j = R.sub(R.one, mu)
        if not (R.in_radical(lam_j) and R.in_radical(mu)):
            raise InternalContractViolation("a lifted root is not in J")
        if left_eval(f, lam_1j) != R.zero:
            raise InternalContractViolation("1 - (root of f(1-t)) is not a root")
        return lam_j, lam_1j, "Lifting"
    if R.is_finite:
        rep = find_roots_enumerate(f, ("J", "1+J"))
        return rep.root_in_j, rep.root_in_1_plus_j, "Enumeration"
    rep = find_roots_rational(f, ("J", "1+J"))
    return rep.root_in_j, rep.root_in_1_plus_j, "Discriminant"


def decide_strongly_clean(A: Mat2) -> CleanDecision:
    R = A.ring
    if R.family == "Integers":
        from .integer_matrices import integer_clean_decision

        return integer_clean_decision(A)
    I = Mat2.identity(R)
    if is_invertible(A):
        cert = CleanCertificate(Mat2.zero(R), A)
        return CleanDecision("TrivialUnit", certificate=cert, method="Trivial")
    if is_invertible(I - A):
        cert = CleanCertificate(I, A - I)
        return CleanDecision(
            "TrivialOneMinusUnit", certificate=cert, method="Trivial"
        )
    cf = reduce_to_companion(A)
    f = MonicQuadratic.from_radical_params(R, cf.w0, cf.w1)
    lam_j, lam_1j, method = _find_w_roots(R, f)
    if (lam_j is None) != (lam_1j is None):
        # roots in J and in 1+J exist together or not at all
        raise InternalContractViolation("one-sided root presence is asymmetric")
    if lam_j is None or lam_1j is None:
        return CleanDecision("NotClean", witness=f, method=method)
    cert = build_certificate(cf, lam_j, lam_1j, A)
    return CleanDecision("NontrivialClean", certificate=cert, method=method)


def ring_is_strongly_clean(R, search_bound: int = 10000) -> RingCleanVerdict:
    """Is every 2x2 matrix over R strongly clean?

    Finite rings: sweep all (w0, w1) in J x J and demand a root in J (truncated
    families run the lifting construction instead, same sweep).  Z_(p): scan
    w0 = p, 2p, ... with w1 = 0 for a non-square discriminant; the first hit is
    a witness quadratic with no root at all in Z_(p).  Unknown only when the
    scan exhausts search_bound multiples without a witness."""
    if R.family == "Integers":
        raise NotLocal("ring-level strong cleanness sweep needs a local ring")
    if R.family == "LocalizedIntegers":
        p = R.p
        for mult in range(1, search_bound + 1):
            w0 = R.el(p * mult)
            f = MonicQuadratic.from_radical_params(R, w0, R.zero)
            rep = find_roots_rational(f, ("J", "1+J"))
            if rep.root_in_j is None:
                return RingCleanVerdict("No", witness=f)
        return RingCleanVerdict("Unknown")
    if R.family in _TRUNCATED and R.element_ring is R:
        for w0 in R.enumerate_elements("Radical"):
            for w1 in R.enumerate_elements("Radical"):
                lift_root_truncated(R, w0, w1)  # raises if the theory is wrong
        return RingCleanVerdict("Yes")
    for w0 in R.enumerate_elements("Radical"):
        for w1 in R.enumerate_elements("Radical"):
            f = MonicQuadratic.from_radical_params(R, w0, w1)
            rep = find_roots_enumerate(f, ("J",))
            if rep.root_in_j is None:
                return RingCleanVerdict("No", witness=f)
    return RingCleanVerdict("Yes")


def _unit_residue_column(R, M):
    """A column of M generating its image: one with a unit entry."""
    for col in ((M.a, M.c), (M.b, M.d)):
        if R.is_unit(col[0]) or R.is_unit(col[1]):
            return col
    return None


def diagonalize_clean(A: Mat2, cert: CleanCertificate):
    """(t0, t1, P) with P A P^-1 = diag(t0, t1), 1 - t0 and t1 in J.

    Certificates built here carry the eigenrow diagonalization already; for an
    external certificate the basis is rebuilt from the idempotent's image and
    kernel lines (columns of E and I - E with a unit entry)."""
    R = A.ring
    if cert.diag is not None:
        return cert.diag
    E = cert.E
    I = Mat2.identity(R)
    if E == Mat2.zero(R) or E == I:
        raise TrivialCertificate("diagonalization needs a nontrivial idempotent")
    if R.family == "Integers":
        raise NotLocal("rebuilding a diagonalization needs a local ring")
    if is_invertible(A) or is_invertible(I - A):
        # only a genuinely nontrivial matrix has the 1+J / J eigenvalue split
        raise TrivialCertificate("matrix is trivially clean; no J-side split")
    u1 = _unit_residue_column(R, I - E)  # the t0 line: E vanishes on it
    u2 = _unit_residue_column(R, E)  # the t1 line: E is the identity on it
    if u1 is None or u2 is None:
        raise TrivialCertificate("idempotent has no unit column on one side")
    M = Mat2(R, u1[0], u2[0], u1[1], u2[1])  # columns u1, u2
    P = invert2(M)
    D = (P * A) * M  # M = P^-1, checked by invert2
    if not (
        D.b == R.zero
        and D.c == R.zero
        and R.in_radical(R.sub(R.one, D.a))
        and R.in_radical(D.d)
    ):
        raise InternalContractViolation("certificate basis fails to diagonalize")
    return (D.a, D.d, P)
