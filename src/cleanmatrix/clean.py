"""Strongly clean decisions for 2x2 matrices: A = E + U with E idempotent,
U invertible, and EU = UE.

Trivial cases: A invertible (E = 0) and I - A invertible (E = I).  Every other
candidate reduces to a companion matrix C = [[0, w0], [1, 1+w1]] and is strongly
clean exactly when t^2 - t(1+w1) - w0 has a left root in J; the certificate is
assembled from a pair of row eigenvectors of C,

    v1 = (1, lamJ),  v2 = (1, lam1J),  vi C = lami vi,

with Q the matrix with rows (v2, v1): E_C = Q^-1 diag(0,1) Q projects onto the
lamJ eigenrow, U_C = C - E_C, and both pull back through the companion transform.
The same rows diagonalize: (Q P) A (Q P)^-1 = diag(lam1J, lamJ), the unit
eigenvalue first.

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
    conjugate,
    invert2,
    is_invertible,
    residue_matrix,
    rowvec_mul,
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
        self.diag = diag  # (t0, t1, P) with conjugate(P, A) = diag(t0, t1)


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


def _matrix_is_invertible(A) -> bool:
    if A.ring.family == "Integers":
        det = A.a.payload * A.d.payload - A.b.payload * A.c.payload
        return det in (1, -1)
    return is_invertible(A)


def verify_certificate(A: Mat2, cert: CleanCertificate) -> bool:
    """E^2 = E, A = E + U, EU = UE, U invertible.  Never raises on bad data."""
    try:
        E, U = cert.E, cert.U
        if E.ring is not A.ring or U.ring is not A.ring:
            return False
        return (
            E * E == E
            and E + U == A
            and E * U == U * E
            and _matrix_is_invertible(U)
        )
    except Exception:
        return False


def build_certificate(
    companion: CompanionForm, lam_j, lam_1j, A: Mat2
) -> CleanCertificate:
    """Assemble and fully re-verify the eigenrow certificate."""
    R = A.ring
    C = companion.companion_matrix()
    for lam, v in ((lam_j, (R.one, lam_j)), (lam_1j, (R.one, lam_1j))):
        img = rowvec_mul(v, C)
        if img != (R.mul(lam, v[0]), R.mul(lam, v[1])):
            raise InternalContractViolation("eigenrow equation v C = lam v fails")
    Q = Mat2(R, R.one, lam_1j, R.one, lam_j)  # rows (v2, v1)
    Qi = invert2(Q)
    E_C = (Qi * Mat2.diag(R, R.zero, R.one)) * Q
    P, Pi = companion.P, companion.P_inv
    E = (Pi * E_C) * P
    U = A - E
    diag_P = Q * P
    t0, t1 = lam_1j, lam_j
    # (Q P)^-1 = P^-1 Q^-1, both already checked by invert2
    D = (diag_P * A) * (Pi * Qi)
    if D != Mat2.diag(R, t0, t1):
        raise InternalContractViolation("eigenrow basis fails to diagonalize")
    if not (R.in_radical(R.sub(R.one, t0)) and R.in_radical(t1)):
        raise InternalContractViolation("diagonal entries on the wrong side of J")
    cert = CleanCertificate(E, U, diag=(t0, t1, diag_P))
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
    """(t0, t1, P) with conjugate(P, A) = diag(t0, t1), 1 - t0 and t1 in J.

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
    D = conjugate(P, A)
    if not (
        D.b == R.zero
        and D.c == R.zero
        and R.in_radical(R.sub(R.one, D.a))
        and R.in_radical(D.d)
    ):
        raise InternalContractViolation("certificate basis fails to diagonalize")
    return (D.a, D.d, P)
