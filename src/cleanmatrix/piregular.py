"""Strongly pi-regular decisions: does some power of A split the module into
ker(A^n) (+) im(A^n)?

Over a local ring the trichotomy is: A invertible (n = 1), A with all entries
in the radical (nilpotent when the radical is nil, otherwise pi-regular only if
A^2 = 0), and the rest, which reduce to a pi companion form [[0, w], [1, r]]
with w in J.  There A is strongly pi-regular exactly when t^2 - t r - w has a
unit left root and a nilpotent left root; the eigenrow pair, pulled back
through the companion transform, gives a P with P A = D P for
D = diag(t0 unit, t1 nilpotent).  verify_pi_certificate checks P invertible
and P A = D P, never forming P^-1, and the decider runs it once on the
certificate it builds.  The decider reduces A's four entries once: A is
invertible iff det Abar is not 0 and over J iff Abar = 0, and Abar goes on
to pi_basis_vector or reduce_to_companion_pi, which build no residue matrix
of their own.  Over a commutative ring r = tr A and w = -det A, so the
decider reads the quadratic off A and settles the case and the roots first,
and nothing reduces: a Nontrivial P is companion.eigenrows of A, the rows
(1, ti) Q^-1 by the adjugate of Q = [x | Ax], x = pi_basis_vector(A, Abar).
Only the skew rings reduce, and read r and w off the companion form, but
first they read rbar = tr Abar off the same residues, the residue field
being commutative.  When r itself falls in J, A^2 has all entries in J and A
is nilpotent over the finite families; the nilpotent certificate needs only
the index.  Otherwise the roots come from
quadratics.pi_roots: on the finite rings the residue t (t - rbar) has the
simple roots rbar and 0, so both roots exist and are lifted, scanning
neither the ring nor its residue field: on Z/p^k by Newton's step on payload
integers, in at most ceil(log2 k) + 1 steps, with the unit root -a1 minus
the nilpotent one, elsewhere by chord steps; Z_(p) finds them, or not, by
the discriminant.

Integer matrices: nontrivial strong pi-regularity forces characteristic
polynomial t(t - 1) or t(t + 1), so A or -A is idempotent and Z^2 always splits
as im (+) ker; hence the exact test is (tr, det) in {(1, 0), (-1, 0)}.  These
are classify_integer's classes diag(1, 0) and diag(-1, 0), and its eigenvector
transform is the certificate's P.  Every other singular integer matrix is
TrivialNilpotent or No.
"""

from .certificates import PiCertificate, nilpotency_bound, verify_pi_certificate
from .companion import (
    char_quadratic,
    eigenrows,
    pi_basis_vector,
    reduce_to_companion_pi,
)
from .errors import InfiniteRing, InternalContractViolation
from .matrices import Mat2
from .quadratics import pi_roots


class PiDecision:
    __slots__ = ("status", "certificate", "witness")

    def __init__(self, status, certificate=None, witness=None):
        self.status = status  # TrivialUnit | TrivialNilpotent | Nontrivial | No
        self.certificate, self.witness = certificate, witness


class RingPiVerdict:
    __slots__ = ("answer", "witness")

    def __init__(self, answer, witness=None):
        self.answer, self.witness = answer, witness  # Yes | No


def _nilpotency_index(A):
    """Smallest n with A^n = 0, or None when none is at most
    certificates.nilpotency_bound.  A^(bound+1) is never formed."""
    R = A.ring
    bound = nilpotency_bound(R)
    Z = Mat2.zero(R)
    M, n = A, 1
    while M != Z:
        if n == bound:
            return None
        M = M * A
        n += 1
    return n


def _nilpotent_or_no(A, f=None):
    """TrivialNilpotent with the index, or No with the witness f, by default
    the characteristic quadratic of A, built only then (only Z and Z_(p),
    both commutative, answer No)."""
    idx = _nilpotency_index(A)
    if idx is None:
        return PiDecision("No", witness=char_quadratic(A) if f is None else f)
    return PiDecision(
        "TrivialNilpotent", certificate=PiCertificate("nilpotent", index=idx)
    )


def decide_strongly_pi_regular(A: Mat2) -> PiDecision:
    R = A.ring
    if R.family == "Integers":
        return _decide_integer(A)
    # one residue read: A is invertible iff det Abar is not 0, and over J
    # iff Abar = 0; Abar goes on to the basis vector or the reduction
    F, r, _ = R.residue_view()
    a, b, c, d = r(A.a), r(A.b), r(A.c), r(A.d)
    if F.is_unit(F.dot(a, d, F.neg(b), c)):
        return PiDecision("TrivialUnit", certificate=PiCertificate("unit"))
    z = F.zero
    if a == z and b == z and c == z and d == z:
        # nilpotent, unless (Z_(p) only) no power vanishes: never pi-regular
        return _nilpotent_or_no(A)
    Ab = Mat2(F, a, b, c, d)
    if R.is_commutative:
        # t^2 - t r - w is A's own t^2 - tr(A) t + det(A): decide from it,
        # and build a Nontrivial certificate from A itself
        cf, f = None, char_quadratic(A)
        if R.in_radical(f.a1):
            # r in J: A^2 lands in M_2(J); nilpotent iff some power dies
            return _nilpotent_or_no(A, f)
    else:
        # the residue field is commutative, so rbar = tr Abar: settle r in J
        # before reducing (a finite ring answers TrivialNilpotent there)
        if F.add(a, d) == z:
            return _nilpotent_or_no(A)
        cf = reduce_to_companion_pi(A, Ab)
        f = cf.f  # t^2 - t r - w
    lam_u, lam_n = pi_roots(f)
    if lam_u is None or lam_n is None:
        return PiDecision("No", witness=f)
    if cf is None:
        P = eigenrows(A, pi_basis_vector(A, Ab), lam_u, lam_n)
    else:
        P = cf.eigenrow_transform(lam_u, lam_n)
    return _checked_diag(A, lam_u, lam_n, P)


def _checked_diag(A, t0, t1, P) -> PiDecision:
    cert = PiCertificate("diag", t0=t0, t1=t1, P=P)
    if not verify_pi_certificate(A, cert):
        raise InternalContractViolation("pi certificate fails verification")
    return PiDecision("Nontrivial", certificate=cert)


def _decide_integer(A: Mat2) -> PiDecision:
    R = A.ring
    a, b, c, d = (e.payload for e in A.entries())
    det = a * d - b * c
    if det in (1, -1):
        return PiDecision("TrivialUnit", certificate=PiCertificate("unit"))
    if (a + d, det) not in ((1, 0), (-1, 0)):
        return _nilpotent_or_no(A)
    from .integer_matrices import classify_integer

    cls = classify_integer(A)  # diag(+-1, 0): A or -A is idempotent
    return _checked_diag(A, R.el(cls.d1), R.el(cls.d2), cls.transform)


def ring_is_m2_pi_regular(R) -> RingPiVerdict:
    """Is every 2x2 matrix over R strongly pi-regular?

    Finite rings: Yes, with nothing enumerated and no root computed.  M_2(R)
    is finite, so the powers of any A repeat: A^n = A^(n+m) for some n, m >= 1,
    and then A^n = A^(n+1) A^(m-1) = A^(m-1) A^(n+1) lies in
    A^(n+1) M_2(R) and in M_2(R) A^(n+1).  The decider's trichotomy says the
    same: a matrix over J is nilpotent since J^v = 0, and every t^2 - t u - w
    with u a unit and w in J has the simple residue roots ubar and 0, which
    the lifting lemma of the quadratics module lifts to a unit and a
    nilpotent left root."""
    if not R.is_finite:
        raise InfiniteRing("ring-level pi-regularity sweep needs a finite ring")
    return RingPiVerdict("Yes")
