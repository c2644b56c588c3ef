"""Clean and pi certificates and their checks, one place for the deciders,
the brute-force oracle and `verify`.  Only matrices and rings are needed, so
re-checking a document loads neither a decider nor the root search.

A clean certificate A = E + U is checked through its structure before the
four equations E^2 = E, EU = UE, U invertible (A = E + U is always checked).
Two conditions are sufficient, and each is exact given what it assumes:

- E = 0 or E = I.  Both are idempotent and central, so only U is left to
  test for invertibility.
- A diagonalization (t0, t1, P) that names E: P A = D P for D = diag(t0, t1)
  with P invertible (checked first, as for every diagonalization), and
  P E = Delta P for Delta = diag(0, 1).  P is then two-sided invertible, so
  E = P^-1 Delta P is idempotent.  Delta commutes with D, its entries being
  0 and 1, so E commutes with A = P^-1 D P and with U = A - E.  And
  P U P^-1 = D - Delta = diag(t0, t1 - 1), so U is invertible exactly when
  t0 and t1 - 1 are units.  Nothing here uses commutativity or locality.

Every certificate the deciders build passes the second test (t0 in 1 + J
first, E the projection onto the t1 eigenrow, as Borooah, Diesl and Dorsey
diagonalise a strongly clean 2x2 over a commutative local ring), and every
trivial one the first.  The four equations remain for what neither names,
such as the oracle's Fitting projections or a document whose rows of P were
swapped together with (t0, t1).
"""

from .matrices import Mat2, diagonalizes, is_invertible, matpow


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
    v = ring.radical_index()
    if v is None:
        return a == ring.zero  # Z and Z_(p) are domains: only 0 is nilpotent
    return ring.in_radical(a) and a ** v == ring.zero


def nilpotency_bound(R):
    """An index at which every nilpotent 2x2 over R vanishes: 2v on a finite
    ring with J^v = 0 (A nilpotent has A^2 over J), else 2, since a nilpotent
    2x2 over Z or Z_(p) has characteristic polynomial t^2."""
    return 2 * R.radical_index() if R.is_finite else 2


def verify_certificate(A: Mat2, cert: CleanCertificate) -> bool:
    """E^2 = E, A = E + U, EU = UE, U invertible, and for a certificate with a
    diagonalization (t0, t1, P) also P invertible and P A = diag(t0, t1) P.
    Once A = E + U and the diagonalization hold, E = 0 or I needs only U
    invertible, and P E = diag(0, 1) P only t0 and t1 - 1 units (see the
    module docstring); any other E goes through the four equations.
    Never raises on bad data."""
    try:
        E, U, diag = cert.E, cert.U, cert.diag
        R = A.ring
        if E.ring is not R or U.ring is not R or E + U != A:
            return False
        if diag is not None:
            t0, t1, P = diag
            if not diagonalizes(P, A, t0, t1):
                return False
        z = R.zero
        if E.b == z and E.c == z and E.a == E.d and (E.a == z or E.a == R.one):
            return is_invertible(U)
        if diag is not None and P * E == Mat2(R, z, z, P.c, P.d):
            return R.is_unit(t0) and R.is_unit(R.sub(t1, R.one))
        return E * E == E and E * U == U * E and is_invertible(U)
    except Exception:
        return False


def verify_pi_certificate(A: Mat2, cert: PiCertificate) -> bool:
    """Re-verify a pi certificate against A.  Never raises on bad data."""
    try:
        R = A.ring
        if cert.kind == "unit":
            return is_invertible(A)
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
            return R.is_unit(cert.t0) and element_is_nilpotent(R, cert.t1)
        return False
    except Exception:
        return False
