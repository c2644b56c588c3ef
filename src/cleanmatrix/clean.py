"""Strongly clean decisions for 2x2 matrices: A = E + U with E idempotent,
U invertible, and EU = UE.

Trivial cases: A invertible (E = 0) and I - A invertible (E = I).  Every other
candidate reduces to a companion matrix C = [[0, w0], [1, 1+w1]] and is strongly
clean exactly when t^2 - t(1+w1) - w0 has a left root in J.  Over a
commutative ring that quadratic is t^2 - tr(A) t + det(A), read off A with
one add and one dot, so the roots are settled first: a NotClean verdict forms
no companion form, and only a NontrivialClean one reduces, for its P.  Over
the skew rings the reduction comes first and the quadratic is read off C.
The certificate is assembled from a pair of row eigenvectors of C,

    v1 = (1, lamJ),  v2 = (1, lam1J),  vi C = lami vi,

with Q the matrix with rows (v2, v1).  Its inverse has second column
u = (-lam1J d^-1, d^-1) for the unit d = lamJ - lam1J, so the projection onto
the lamJ eigenrow, Q^-1 diag(0,1) Q, is the rank-one u v1, and pulled back
through the companion transform P it is E = (P^-1 u)(v1 P), with U = A - E.
The rows v2 P and v1 P diagonalize: (Q P) A = diag(lam1J, lamJ) (Q P), the
unit eigenvalue first.  Nothing is inverted on the way; verify_certificate,
the one complete check, runs once on the result.

The roots come from quadratics.w_roots, which picks the route for the ring.
Integer matrices are dispatched to the integer classifier, which builds the
same shape of certificate from a unimodular eigenvector transform.
"""

from .certificates import CleanCertificate, verify_certificate
from .companion import CompanionForm, char_quadratic, reduce_to_companion
from .errors import InternalContractViolation, NotLocal
from .matrices import Mat2, matvec, outer
from .quadratics import MonicQuadratic, w_roots


class CleanDecision:
    __slots__ = ("status", "certificate", "witness", "method")

    def __init__(self, status, certificate=None, witness=None, method=None):
        # TrivialUnit | TrivialOneMinusUnit | NontrivialClean | NotClean
        self.status = status
        self.certificate, self.witness, self.method = certificate, witness, method


class RingCleanVerdict:
    __slots__ = ("answer", "witness")

    def __init__(self, answer, witness=None):
        self.answer, self.witness = answer, witness  # Yes | No


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


def decide_strongly_clean(A: Mat2) -> CleanDecision:
    R = A.ring
    if R.family == "Integers":
        from .integer_matrices import integer_clean_decision

        return integer_clean_decision(A)
    # both trivial tests from one residue read: A is invertible iff det Abar
    # is not 0, and I - A iff det(I - Abar) = 1 - tr Abar + det Abar is not,
    # the residue field being commutative
    F, r, _ = R.residue_view()
    a, b, c, d = r(A.a), r(A.b), r(A.c), r(A.d)
    det = F.dot(a, d, F.neg(b), c)
    if F.is_unit(det):
        cert = CleanCertificate(Mat2.zero(R), A)
        return CleanDecision("TrivialUnit", certificate=cert, method="Trivial")
    if F.is_unit(F.sub(F.add(F.one, det), F.add(a, d))):
        I = Mat2.identity(R)
        cert = CleanCertificate(I, A - I)
        return CleanDecision(
            "TrivialOneMinusUnit", certificate=cert, method="Trivial"
        )
    if R.is_commutative:
        # the companion quadratic is A's own t^2 - tr(A) t + det(A): settle
        # the roots first and reduce only for a certificate
        cf, f = None, char_quadratic(A)
    else:
        cf = reduce_to_companion(A)
        f = cf.f
    lam_j, lam_1j, method = w_roots(f)
    if (lam_j is None) != (lam_1j is None):
        # roots in J and in 1+J exist together or not at all
        raise InternalContractViolation("one-sided root presence is asymmetric")
    if lam_j is None or lam_1j is None:
        return CleanDecision("NotClean", witness=f, method=method)
    if cf is None:
        cf = reduce_to_companion(A, f)
    cert = build_certificate(cf, lam_j, lam_1j, A)
    return CleanDecision("NontrivialClean", certificate=cert, method=method)


def ring_is_strongly_clean(R) -> RingCleanVerdict:
    """Is every 2x2 matrix over R strongly clean?

    Finite rings: Yes, with nothing enumerated and no root computed.  A matrix
    that neither A nor I - A makes trivial is strongly clean exactly when its
    companion quadratic f in W has a left root in J and one in 1 + J.  f has
    a0 = -w0 in J and a1 = -(1 + w1) a unit, so its residue t (t - 1) has the
    simple roots 0 and 1, and the lifting lemma of the quadratics module
    (J^v = 0 on every finite ring here) lifts 0 to a root in J; applied to
    f(1 - t), again in W, it gives the root in 1 + J.  (Independently, a
    finite ring is strongly pi-regular, hence strongly clean: Nicholson 1999.)

    Z_(p): No, with the witness f = t^2 - t - w0, w0 = p for odd p and w0 = 4
    for p = 2.  A root of f lies in Z_(p), a subring of Q, only if the
    discriminant 1 + 4 w0 is a square of Q, hence of Z, say (2r + 1)^2; that
    gives w0 = r (r + 1), which is even, so no odd p, and 17 is no square.
    Without a root in J, [[0, w0], [1, 1]] is not strongly clean; the witness
    is still checked by the decider's own root route."""
    if R.family == "Integers":
        raise NotLocal("ring-level strong cleanness sweep needs a local ring")
    if R.is_finite:
        return RingCleanVerdict("Yes")
    w0 = 4 if R.p == 2 else R.p
    f = MonicQuadratic.from_radical_params(R, R.el(w0), R.zero)
    if w_roots(f)[0] is not None:
        raise InternalContractViolation("survey witness has a root in J")
    return RingCleanVerdict("No", witness=f)
