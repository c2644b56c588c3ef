"""Clean and pi certificates and their checks, one place for the deciders,
the brute-force oracle and `verify`.  Only matrices and rings are needed, so
re-checking a document loads neither a decider nor the root search."""

from .matrices import Mat2, diagonalizes, has_inverse, matpow


class CleanCertificate:
    __slots__ = ("E", "U", "diag")

    def __init__(self, E, U, diag=None):
        self.E, self.U = E, U
        self.diag = diag  # (t0, t1, P), P invertible, P A = diag(t0, t1) P


class PiCertificate:
    __slots__ = ("kind", "t0", "t1", "P", "index")

    def __init__(self, kind, t0=None, t1=None, P=None, index=None):
        self.kind = kind  # "diag" | "unit" | "nilpotent"
        self.t0, self.t1, self.P = t0, t1, P
        self.index = index  # nilpotency index for kind="nilpotent"


def element_is_nilpotent(ring, a) -> bool:
    if not ring.in_radical(a):
        return False
    v = ring.radical_index()
    if v is None:
        return a == ring.zero  # Z_(p): the radical has no nonzero nilpotents
    return a ** v == ring.zero


def nilpotency_bound(R):
    """An index at which every nilpotent 2x2 over R vanishes: 2v on a finite
    ring with J^v = 0 (A nilpotent has A^2 over J), else 2, since a nilpotent
    2x2 over Z or Z_(p) has characteristic polynomial t^2."""
    return 2 * R.radical_index() if R.is_finite else 2


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


def verify_pi_certificate(A: Mat2, cert: PiCertificate) -> bool:
    """Re-verify a pi certificate against A.  Never raises on bad data."""
    try:
        R = A.ring
        if cert.kind == "unit":
            return has_inverse(A)
        if cert.kind == "nilpotent":
            # A^index = 0 exactly when A^min(index, bound) = 0
            return (
                cert.index is not None
                and cert.index >= 1
                and matpow(A, min(cert.index, nilpotency_bound(R))) == Mat2.zero(R)
            )
        if cert.kind == "diag":
            if not diagonalizes(cert.P, A, cert.t0, cert.t1):
                return False
            if R.family == "Integers":
                return cert.t0.payload in (1, -1) and cert.t1.payload == 0
            return R.is_unit(cert.t0) and element_is_nilpotent(R, cert.t1)
        return False
    except Exception:
        return False
