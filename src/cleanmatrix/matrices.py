"""Exact 2x2 matrices over the concrete rings.

Entries live row-major: [[a, b], [c, d]].  Products keep noncommutative entry
order, with the row entry on the left: (AB)_11 = a*e + b*g.  Column vectors are
plain (v0, v1) tuples and A acts on the left of them, matrix entry times
coordinate: (Av)_i = A_i1 v_1 + A_i2 v_2.

Every entry of a product is one ring call, R.dot(x, y, z, w) = x y + z w.

Invertibility is one test, is_invertible, on every ring.  Over a commutative
ring A is invertible iff det A = ad - bc is a unit, which each ring answers
with is_unit: on Z that is det = +-1, and on a local ring it says det Abar is
not 0.  Over a skew ring, where no determinant is multiplicative, A is
invertible iff det Abar is not 0, Abar = A mod J over the commutative residue
field.

invert2 over a commutative ring is the adjugate times det^-1.  Over a skew
ring (every one here is local) it factors A = [[a, b], [c, d]] with a a unit
as L D U:

    A = [[1, 0], [c a^-1, 1]] [[a, 0], [0, s]] [[1, a^-1 b], [0, 1]],
    s = d - c a^-1 b,

which multiplies out entry by entry in any ring.  L and U are invertible, so A
is invertible iff s is a unit, and then

    A^-1 = U^-1 D^-1 L^-1
         = [[a^-1 + a^-1 b s^-1 c a^-1, -a^-1 b s^-1], [-s^-1 c a^-1, s^-1]]:

two inversions and six products.  When a is not a unit but c is, the same
formula inverts SA = [[c, d], [a, b]] for the row swap S, and
A^-1 = (SA)^-1 S since S^-1 = S: right multiplication by S swaps the columns
of (SA)^-1 back.  When neither is a unit, the first column of Abar is 0 and A
is not invertible.
"""

from .errors import InternalContractViolation, NotInvertible, OwnerMismatch
from .rings import Element


class Mat2:
    __slots__ = ("ring", "a", "b", "c", "d")

    def __init__(self, ring, a, b, c, d):
        if not (type(a) is Element and a.ring is ring and type(b) is Element
                and b.ring is ring and type(c) is Element and c.ring is ring
                and type(d) is Element and d.ring is ring):
            ring._guard(a, b, c, d)
        self.ring = ring
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def zero(ring):
        z = ring.zero
        return Mat2(ring, z, z, z, z)

    @staticmethod
    def identity(ring):
        z, o = ring.zero, ring.one
        return Mat2(ring, o, z, z, o)

    @staticmethod
    def diag(ring, x, y):
        z = ring.zero
        return Mat2(ring, x, z, z, y)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def _same_owner(self, other):
        if not isinstance(other, Mat2):
            raise TypeError("expected a 2x2 matrix")
        if other.ring is not self.ring:
            raise OwnerMismatch(
                f"matrices over {self.ring.spec_string()} and "
                f"{other.ring.spec_string()} cannot be combined"
            )

    def __add__(self, other):
        self._same_owner(other)
        R = self.ring
        return Mat2(
            R,
            R.add(self.a, other.a),
            R.add(self.b, other.b),
            R.add(self.c, other.c),
            R.add(self.d, other.d),
        )

    def __sub__(self, other):
        self._same_owner(other)
        R = self.ring
        return Mat2(
            R,
            R.sub(self.a, other.a),
            R.sub(self.b, other.b),
            R.sub(self.c, other.c),
            R.sub(self.d, other.d),
        )

    def __neg__(self):
        R = self.ring
        return Mat2(R, R.neg(self.a), R.neg(self.b), R.neg(self.c), R.neg(self.d))

    def __mul__(self, other):
        self._same_owner(other)
        R = self.ring
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        dot = R.dot
        return Mat2(R, dot(a, e, b, g), dot(a, f, b, h),
                    dot(c, e, d, g), dot(c, f, d, h))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.ring is other.ring and self.entries() == other.entries()

    def __hash__(self):
        return hash((id(self.ring),) + tuple(e.payload for e in self.entries()))

    def __repr__(self):
        R = self.ring
        f = R.format_element
        return f"[[{f(self.a)},{f(self.b)}],[{f(self.c)},{f(self.d)}]]"


def minus_identity(A) -> Mat2:
    """A - I in three ring calls: only the diagonal changes, each entry plus
    -1, and the off-diagonal entries are A's own."""
    R = A.ring
    m = R.neg(R.one)
    return Mat2(R, R.add(A.a, m), A.b, A.c, R.add(A.d, m))


def matvec(A, v):
    R = A.ring
    return R.dot(A.a, v[0], A.b, v[1]), R.dot(A.c, v[0], A.d, v[1])


def rowvec_mul(v, A):
    """Row vector times matrix, row coordinates kept on the left."""
    R = A.ring
    return R.dot(v[0], A.a, v[1], A.c), R.dot(v[0], A.b, v[1], A.d)


def outer(R, u, v) -> Mat2:
    """Column u times row v: the rank-one matrix with entries u_i v_j."""
    return Mat2(R, R.mul(u[0], v[0]), R.mul(u[0], v[1]),
                R.mul(u[1], v[0]), R.mul(u[1], v[1]))


def diag_mul(t0, t1, P) -> Mat2:
    """diag(t0, t1) P: row i of P scaled by t_i on the left."""
    R = P.ring
    return Mat2(R, R.mul(t0, P.a), R.mul(t0, P.b), R.mul(t1, P.c), R.mul(t1, P.d))


def matpow(A, e):
    """A^e by square and multiply, with no product by I and no square unused:
    floor(log2 e) + popcount(e) - 1 products for e >= 1."""
    assert e >= 0
    out, base = None, A
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return Mat2.identity(A.ring) if out is None else out


def residue_matrix(A):
    rv = A.ring.residue_view()
    r = rv.reduce
    return Mat2(rv.field, r(A.a), r(A.b), r(A.c), r(A.d))


def is_invertible(A) -> bool:
    """Whether A is invertible over its ring: det A a unit over a commutative
    ring, and over a skew one det Abar not 0, read from the residue view
    without building Abar (see the module docstring)."""
    R = A.ring
    if R.is_commutative:
        return R.is_unit(R.dot(A.a, A.d, R.neg(A.b), A.c))
    F, r, _ = R.residue_view()
    return F.is_unit(F.dot(r(A.a), r(A.d), F.neg(r(A.b)), r(A.c)))


def diagonalizes(P, A, t0, t1) -> bool:
    """P A P^-1 = diag(t0, t1), checked as P invertible and P A = diag(t0, t1) P,
    which needs no inverse."""
    return is_invertible(P) and P * A == diag_mul(t0, t1, P)


def invert2(A) -> Mat2:
    """Two-sided inverse: the adjugate times det^-1 over a commutative ring,
    else the L D U factorisation pivoted on a, or on c after a row swap that
    a column swap of the result undoes (see the module docstring).
    NotInvertible when det A is not a unit, or over a skew ring when neither
    a nor c is a unit or the Schur complement s is not.  The result is
    checked as A B = B A = I."""
    R = A.ring
    a, b, c, d = A.a, A.b, A.c, A.d
    if R.is_commutative:
        det = R.dot(a, d, R.neg(b), c)
        if not R.is_unit(det):
            raise NotInvertible("determinant is not a unit")
        k = R.invert(det)
        nk = R.neg(k)
        B = Mat2(R, R.mul(k, d), R.mul(nk, b), R.mul(nk, c), R.mul(k, a))
    else:
        swap = not R.is_unit(a)
        if swap:
            a, b, c, d = c, d, a, b
            if not R.is_unit(a):
                raise NotInvertible("residue matrix is singular")
        ai, one = R.invert(a), R.one
        x = R.neg(R.mul(ai, b))  # -a^-1 b
        y = R.neg(R.mul(c, ai))  # -c a^-1
        s = R.dot(y, b, d, one)  # d - c a^-1 b
        if not R.is_unit(s):
            raise NotInvertible("residue matrix is singular")
        si = R.invert(s)
        b12 = R.mul(x, si)
        b11, b21 = R.dot(b12, y, ai, one), R.mul(si, y)
        B = Mat2(R, b12, b11, si, b21) if swap else Mat2(R, b11, b12, b21, si)
    I = Mat2.identity(R)
    if A * B != I or B * A != I:
        raise InternalContractViolation("computed inverse fails A B = B A = I")
    return B


def conjugate(P, A) -> Mat2:
    """P A P^-1.  The deciders and verifiers use diagonalizes instead."""
    return (P * A) * invert2(P)
