"""2x2 integer matrices: strong cleanness over Z.

Z is projective-free but not local, so the decision runs on similarity
classes instead of companion reduction.  A nontrivial strongly clean integer
matrix is similar over Z to exactly one of diag(1,0), diag(-1,0), diag(1,2),
diag(-1,2); the (trace, det) pair picks the candidate class and a primitive
eigenvector pair either supplies a unimodular transform or proves the
eigenlattice is a proper sublattice, which kills the decomposition.

integer_oracle is the independent check: for non-scalar A any commuting
rational idempotent is alpha*I + beta*A; idempotency forces
beta^2 * (tr^2 - 4 det) = 1 and alpha = (1 - beta*tr)/2, so it tries both
beta signs, tests entry integrality in integer arithmetic plus
unimodularity of A - E directly, never touching the classifier's tables.
"""

from math import gcd, isqrt

from .errors import InternalContractViolation, NotApplicable
from .matrices import Mat2, invert2, minus_identity, outer
from .quadratics import MonicQuadratic

# (trace, det) -> the diagonal (unit eigenvalue, non-unit eigenvalue)
_DIAG_CLASSES = {
    (1, 0): (1, 0),
    (-1, 0): (-1, 0),
    (3, 2): (1, 2),
    (1, -2): (-1, 2),
}


class IntCleanClass:
    __slots__ = ("tag", "d1", "d2", "transform")

    def __init__(self, tag, d1=None, d2=None, transform=None):
        self.tag = tag  # TrivialUnit | TrivialOneMinusUnit | Diag | NotClean
        self.d1, self.d2, self.transform = d1, d2, transform


def _require_integers(A: Mat2):
    if A.ring.family != "Integers":
        raise NotApplicable("integer classification needs matrices over Z")


def _ints(A: Mat2):
    return tuple(e.payload for e in A.entries())


def _primitive_eigenvector(a, b, c, d, lam):
    """Primitive integer kernel vector of A - lam*I, sign-normalized."""
    for v in ((b, lam - a), (lam - d, c)):
        if v != (0, 0):
            g = gcd(v[0], v[1])
            v = (v[0] // g, v[1] // g)
            if v[0] < 0 or (v[0] == 0 and v[1] < 0):
                v = (-v[0], -v[1])
            return v
    raise InternalContractViolation("scalar matrix reached the eigenvector step")


def classify_integer(A: Mat2) -> IntCleanClass:
    _require_integers(A)
    R = A.ring
    a, b, c, d = _ints(A)
    det = a * d - b * c
    if det in (1, -1):
        return IntCleanClass("TrivialUnit")
    if (1 - a) * (1 - d) - b * c in (1, -1):
        return IntCleanClass("TrivialOneMinusUnit")
    key = (a + d, det)
    if key not in _DIAG_CLASSES:
        return IntCleanClass("NotClean")
    d1, d2 = _DIAG_CLASSES[key]
    v1 = _primitive_eigenvector(a, b, c, d, d1)
    v2 = _primitive_eigenvector(a, b, c, d, d2)
    m_det = v1[0] * v2[1] - v1[1] * v2[0]
    if m_det not in (1, -1):
        # the eigenvectors span an index-|m_det| sublattice: no basis of
        # eigenvectors exists, so no diagonal similarity and no splitting
        return IntCleanClass("NotClean")
    M = Mat2(R, R.el(v1[0]), R.el(v2[0]), R.el(v1[1]), R.el(v2[1]))
    # P A = diag(d1, d2) P: each caller verifies its certificate once
    return IntCleanClass("Diag", d1=d1, d2=d2, transform=invert2(M))


def integer_oracle(A: Mat2) -> bool:
    """Ground-truth strong cleanness over Z, straight from the definition."""
    _require_integers(A)
    a, b, c, d = _ints(A)
    if a * d - b * c in (1, -1):
        return True
    if (1 - a) * (1 - d) - b * c in (1, -1):
        return True
    if b == 0 and c == 0 and a == d:
        return False  # nontrivial scalar: diag(t0,t1) would force t0 = t1
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc <= 0:
        return False
    s = isqrt(disc)
    if s * s != disc:
        return False
    for sign in (1, -1):
        # beta = sign/s and alpha = (1 - beta tr)/2, so 2 s E has the integer
        # entries below; E is integral iff 2 s divides each of them
        diag = s - sign * tr
        e = (diag + 2 * sign * a, 2 * sign * b, 2 * sign * c, diag + 2 * sign * d)
        if any(x % (2 * s) for x in e):
            continue
        ea, eb, ec, ed = (x // (2 * s) for x in e)
        # re-check idempotency and commutation instead of trusting algebra
        if (
            ea * ea + eb * ec != ea
            or eb * (ea + ed) != eb
            or ec * (ea + ed) != ec
            or ed * ed + eb * ec != ed
        ):
            continue
        if (
            ea * a + eb * c != a * ea + b * ec
            or ea * b + eb * d != a * eb + b * ed
            or ec * a + ed * c != c * ea + d * ec
            or ec * b + ed * d != c * eb + d * ed
        ):
            continue
        ua, ub, uc, ud = a - ea, b - eb, c - ec, d - ed
        if ua * ud - ub * uc in (1, -1):
            return True
    return False


def integer_clean_decision(A: Mat2):
    from .clean import CleanCertificate, CleanDecision, verify_certificate

    _require_integers(A)
    R = A.ring
    cls = classify_integer(A)
    if cls.tag == "TrivialUnit":
        cert = CleanCertificate(E=Mat2.zero(R), U=A)
        return CleanDecision("TrivialUnit", certificate=cert, method="IntegerClass")
    if cls.tag == "TrivialOneMinusUnit":
        cert = CleanCertificate(E=Mat2.identity(R), U=minus_identity(A))
        return CleanDecision(
            "TrivialOneMinusUnit", certificate=cert, method="IntegerClass"
        )
    if cls.tag == "NotClean":
        a, b, c, d = _ints(A)
        witness = MonicQuadratic(R, R.el(-(a + d)), R.el(a * d - b * c))
        return CleanDecision("NotClean", witness=witness, method="IntegerClass")
    P = cls.transform
    # E = P^-1 diag(0, 1) P, the spectral projection onto the non-unit
    # eigenvalue line: P^-1's second column, det(P) (-b, a), times P's second row
    pa, pb, pc, pd = _ints(P)
    s = pa * pd - pb * pc  # det P = +-1 = 1 / det P
    E = outer(R, (R.el(-s * pb), R.el(s * pa)), (P.c, P.d))
    U = A - E
    cert = CleanCertificate(E=E, U=U, diag=(R.el(cls.d1), R.el(cls.d2), P))
    if not verify_certificate(A, cert):
        raise InternalContractViolation("integer certificate fails verification")
    return CleanDecision("NontrivialClean", certificate=cert, method="IntegerClass")
