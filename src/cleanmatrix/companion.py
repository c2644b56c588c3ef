"""Similarity reduction to 2x2 companion form.

For A with neither A nor I - A invertible over a local ring, the residue matrix
kills some nonzero column vector v and I - Abar kills some nonzero w; lifting
and setting x = v + w makes {x, Ax} a basis, and in that basis A becomes

    [[0, w0], [1, 1 + w1]]      with w0, w1 in the radical.

The pi-regular variant starts from A neither invertible nor with all entries in
the radical, picks the first residue vector x outside ker(Abar) and outside
im(Abar), and lands on [[0, w], [1, r]] with w in the radical and r
unconstrained.  Abar has rank 1 there, so both are lines, and each residue
vector is found in closed form from those lines, not by a scan of the field.
Both reductions form the residue matrix once and test their preconditions on
it, over the residue field.

Both record P = Q^-1 for Q = [x | Ax], so P A P^-1 is the companion matrix
exactly, and keep Q as P_inv.  invert2's check that P Q = Q P = I is the one
proof of that inverse, and it also gives the companion matrix's first column:
P (Ax) is the second column of P Q, e2.  Over a commutative ring the second
column is read off the similarity invariants, top = -det A and corner = tr A,
which char_quadratic reads too; the deciders there settle the roots of
t^2 - tr(A) t + det(A) first and reduce only to build a certificate.  Over
the skew rings the second column is P A (Ax), and a NotClean or No witness,
which has no certificate to re-verify later, rests on invert2's check.
Inputs already in companion shape short-circuit to P = I.
"""

from .errors import InternalContractViolation, NotApplicable, NotInvertible
from .matrices import Mat2, invert2, is_invertible, matvec, residue_matrix, rowvec_mul
from .quadratics import MonicQuadratic


class CompanionForm:
    """P A P^-1 = [[0, top], [1, corner]], kept as its quadratic
    f = t^2 - t corner - top: t^2 - t (1 + w1) - w0 for kind "clean",
    t^2 - t r - w for kind "pi"."""

    __slots__ = ("kind", "f", "P", "P_inv")

    def __init__(self, kind, f, P, P_inv):
        self.kind = kind  # "clean" or "pi"
        self.f = f
        self.P = P
        self.P_inv = P_inv  # P^-1, checked by invert2 when it built P

    @property
    def w0(self):
        assert self.kind == "clean"
        return self.f.w0

    @property
    def w1(self):
        assert self.kind == "clean"
        return self.f.w1

    @property
    def w(self):
        assert self.kind == "pi"
        return self.f.w0

    @property
    def r(self):
        assert self.kind == "pi"
        return self.P.ring.neg(self.f.a1)

    def eigenrow_transform(self, lam0, lam1) -> Mat2:
        """Q P for the Q with rows (1, lam0) and (1, lam1), row by row.  When
        each lam is a left root of the companion quadratic, (1, lam) is a row
        eigenvector of the companion matrix, so Q P A = diag(lam0, lam1) Q P."""
        ring = self.P.ring
        r0 = rowvec_mul((ring.one, lam0), self.P)
        r1 = rowvec_mul((ring.one, lam1), self.P)
        return Mat2(ring, r0[0], r0[1], r1[0], r1[1])


def _height(F, d, e1):
    """t with (e1, t) on the line spanned by d, or None when that line is
    vertical, {(0, t)}.  e1 is the first nonzero element of the field's "All"
    order, so a line that is not vertical has (e1, t) as its first nonzero
    vector in the lexicographic order of coordinate pairs."""
    if d[0] == F.zero:
        return None
    return F.mul(e1, F.mul(F.invert(d[0]), d[1]))


def _kernel_vector(Ab):
    """First nonzero kernel vector of a singular residue matrix.  For a
    nonzero row (r0, r1) the kernel is the line of (r1, -r0); for Ab = 0,
    whose rows give (0, 0), it is all of F^2, led by (0, e1) all the same."""
    F, z = Ab.ring, Ab.ring.zero
    e1 = F.element_at(1)
    r0, r1 = (Ab.a, Ab.b) if (Ab.a != z or Ab.b != z) else (Ab.c, Ab.d)
    t = _height(F, (r1, F.neg(r0)), e1)
    return (z, e1) if t is None else (e1, t)


def _outside_kernel_and_image(Ab):
    """First residue vector outside both ker(Ab) and im(Ab), for a residue
    matrix of rank exactly 1; its image is the line of a nonzero column.
    (0, e1) avoids both lines unless one is vertical; then the other forbids
    at most one t for (e1, t)."""
    F, z = Ab.ring, Ab.ring.zero
    (k0, k1), e1 = _kernel_vector(Ab), F.element_at(1)
    col = (Ab.a, Ab.c) if (Ab.a != z or Ab.c != z) else (Ab.b, Ab.d)
    tc = _height(F, col, e1)
    if k0 != z and tc is not None:
        return (z, e1)
    bad = tc if k0 == z else k1  # t on the other line; None if vertical too
    return (e1, e1 if bad == z else z)


def char_quadratic(A) -> MonicQuadratic:
    """t^2 - tr(A) t + det(A) for A over a commutative ring, with one add for
    the trace and one dot for the determinant: the quadratic of either
    companion form, since both coefficients are similarity invariants."""
    R = A.ring
    tr = R.add(A.a, A.d)
    return MonicQuadratic(R, R.neg(tr), R.dot(A.a, A.d, R.neg(A.b), A.c))


def _basis_change(A, x):
    """(P, Q) for Q = [x | Ax] and P = Q^-1."""
    R = A.ring
    Ax = matvec(A, x)
    Q = Mat2(R, x[0], Ax[0], x[1], Ax[1])
    try:
        return invert2(Q), Q
    except NotInvertible:
        raise InternalContractViolation("lifted basis {x, Ax} is not a basis")


def _form(kind, A, P, Q, f) -> CompanionForm:
    """The companion form of A for P = Q^-1, Q = [x | Ax]; f is
    char_quadratic(A) or None.  P A Q has first column P (Ax) = e2, Ax being
    Q's second column; over a skew ring its second column, P A (Ax), gives
    the quadratic, over a commutative ring A's own quadratic is it."""
    R = A.ring
    if R.is_commutative:
        return CompanionForm(kind, char_quadratic(A) if f is None else f, P, Q)
    top, corner = matvec(P, matvec(A, (Q.b, Q.d)))
    return CompanionForm(kind, MonicQuadratic(R, R.neg(corner), R.neg(top)), P, Q)


def reduce_to_companion(A: Mat2, f=None) -> CompanionForm:
    """Clean-case reduction; NotApplicable when A or I - A is invertible.  A
    caller over a commutative ring that has read f = char_quadratic(A)
    passes it, so that it is not read twice."""
    R = A.ring
    Ab = residue_matrix(A)
    I_Ab = Mat2.identity(Ab.ring) - Ab
    if is_invertible(Ab) or is_invertible(I_Ab):
        raise NotApplicable("A or I - A is invertible; no companion reduction")
    if (
        A.a == R.zero
        and A.c == R.one
        and R.in_radical(A.b)
        and R.in_radical(R.sub(A.d, R.one))
    ):
        I = Mat2.identity(R)
        return _form("clean", A, I, I, f)
    rv = R.residue_view()
    v = _kernel_vector(Ab)
    wv = _kernel_vector(I_Ab)
    x = (
        R.add(rv.lift(v[0]), rv.lift(wv[0])),
        R.add(rv.lift(v[1]), rv.lift(wv[1])),
    )
    cf = _form("clean", A, *_basis_change(A, x), f)
    if not (R.in_radical(cf.f.a0) and R.in_radical(R.add(R.one, cf.f.a1))):
        raise InternalContractViolation("companion shape violated after reduction")
    return cf


def reduce_to_companion_pi(A: Mat2, f=None) -> CompanionForm:
    """Pi-case reduction; NotApplicable when A is invertible or A is over J.
    f as for reduce_to_companion."""
    R = A.ring
    Ab = residue_matrix(A)
    if Ab == Mat2.zero(Ab.ring):
        raise NotApplicable("all entries in the radical; no pi companion form")
    if is_invertible(Ab):
        raise NotApplicable("A is invertible; no pi companion form")
    if A.a == R.zero and A.c == R.one and R.in_radical(A.b):
        I = Mat2.identity(R)
        return _form("pi", A, I, I, f)
    rv = R.residue_view()
    # A is singular and not over J, so its residue matrix has rank exactly 1
    pick = _outside_kernel_and_image(Ab)
    x = (rv.lift(pick[0]), rv.lift(pick[1]))
    cf = _form("pi", A, *_basis_change(A, x), f)
    if not R.in_radical(cf.f.a0):
        raise InternalContractViolation("pi companion shape violated")
    return cf


def check_companion_identity(ring, coeffs) -> bool:
    """For monic h = a0 + a1 t + ... + t^n (n <= 4), the n x n companion matrix
    C_h with subdiagonal 1s and last column -a0..-a_(n-1) satisfies

        C^n + C^(n-1) (a_(n-1) I) + ... + C (a_1 I) + (a_0 I) = 0,

    with each coefficient applied as a scalar matrix on the right."""
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    assert 1 <= n <= 4, "degree must be between 1 and 4"
    assert coeffs[-1] == ring.one, "polynomial must be monic"
    z, o = ring.zero, ring.one
    C = [[z] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = o
    for i in range(n):
        C[i][n - 1] = ring.neg(coeffs[i])

    def nmul(X, Y):
        return [
            [
                _sum(ring, [ring.mul(X[i][t], Y[t][j]) for t in range(n)])
                for j in range(n)
            ]
            for i in range(n)
        ]

    def scale_right(X, s):
        return [[ring.mul(X[i][j], s) for j in range(n)] for i in range(n)]

    ident = [[o if i == j else z for j in range(n)] for i in range(n)]
    total = [[z] * n for _ in range(n)]
    power = ident
    for j in range(n + 1):
        term = power if j == n else scale_right(power, coeffs[j])
        total = [
            [ring.add(total[i][t], term[i][t]) for t in range(n)] for i in range(n)
        ]
        power = nmul(power, C)
    return all(total[i][j] == z for i in range(n) for j in range(n))


def _sum(ring, items):
    out = ring.zero
    for it in items:
        out = ring.add(out, it)
    return out
