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
clean_basis_vector and pi_basis_vector write x down; a matrix already in
companion shape keeps x = (1, 0), so that Q = [x | Ax] = I.

On a ring with a residue table (rings.ResidueTable) the deciders pass
Abar's slot as well: the basis-vector helpers read x from it, or compute x
once and keep it there, and a reduction whose slot already names Abar's
case "Reduced" skips its precondition tests, which the decider has made.

The deciders reduce over the skew rings only.  The reductions take the
residue matrix from the decider, which has read A's residues for its own
trivial tests (or form it once), test their preconditions on it, and
record P = Q^-1 for Q = [x | Ax], so P A P^-1 is the companion matrix
exactly, keeping Q as P_inv.  The clean reduction reads the second
kernel off Abar - I, not I - Abar: a negated matrix has the same kernel,
the same first kernel vector and the same invertibility, and Abar - I
changes only Abar's diagonal.
invert2's check that P Q = Q P = I is the one proof of that inverse, and it
also gives the companion matrix's first column: P (Ax) is the second column
of P Q, e2.  The second column is P A (Ax), and a NotClean or No witness,
which has no certificate to re-verify later, rests on invert2's check.

Over a commutative ring the companion quadratic is t^2 - tr(A) t + det(A),
which char_quadratic reads off A, and the deciders build their certificates
from A and x without a companion form: eigenrows gives the rows (1, t) Q^-1
by the adjugate of Q, one inversion of the unit det Q, so invert2's check is
part of no certificate path there.  The reductions still accept commutative
rings, whose companion quadratic is then char_quadratic(A) entry for entry.
"""

from .errors import InternalContractViolation, NotApplicable, NotInvertible
from .matrices import (
    Mat2,
    invert2,
    is_invertible,
    matvec,
    minus_identity,
    residue_matrix,
    rowvec_mul,
)
from .quadratics import MonicQuadratic


class CompanionForm:
    """P A P^-1 = [[0, top], [1, corner]], kept as its quadratic
    f = t^2 - t corner - top: t^2 - t (1 + w1) - w0 from the clean
    reduction, t^2 - t r - w from the pi one."""

    __slots__ = ("f", "P", "P_inv")

    def __init__(self, f, P, P_inv):
        self.f = f
        self.P = P
        self.P_inv = P_inv  # P^-1, checked by invert2 when it built P

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
    whose rows give (0, 0), it is all of F^2, led by (0, e1) all the same.
    -Ab gives the same vector: its rows are negated, so the same row is
    picked, and (-r1)^-1 r0 = r1^-1 (-r0) is the same height t."""
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


def clean_basis_vector(A, Ab=None, Ab_I=None, slot=None):
    """x with {x, Ax} a basis in which A is [[0, w0], [1, 1 + w1]], for A
    with neither A nor I - A invertible: (1, 0) when A has that shape
    already, else the lift of v + w for the first residue vectors v in
    ker(Abar) and w in ker(I - Abar).  w is read off Abar - I, which has the
    same kernel and the same first kernel vector (see _kernel_vector) and
    changes only the diagonal.  Ab and Ab_I are Abar and Abar - I when the
    caller has them; Ab_I is formed from Ab when it is not given.  slot is
    Abar's ResidueSlot, when the ring has a residue table: the lift is read
    from its clean_x, or computed once and kept there."""
    R = A.ring
    if (
        A.a == R.zero
        and A.c == R.one
        and R.in_radical(A.b)
        and R.in_radical(R.sub(A.d, R.one))
    ):
        return R.one, R.zero
    if slot is not None and slot.clean_x is not None:
        return slot.clean_x
    if Ab is None:
        Ab = residue_matrix(A)
    if Ab_I is None:
        Ab_I = minus_identity(Ab)
    lift = R.residue_view().lift
    v = _kernel_vector(Ab)
    w = _kernel_vector(Ab_I)
    x = R.add(lift(v[0]), lift(w[0])), R.add(lift(v[1]), lift(w[1]))
    if slot is not None:
        slot.clean_x = x
    return x


def pi_basis_vector(A, Ab=None, slot=None):
    """x with {x, Ax} a basis in which A is [[0, w], [1, r]], for A neither
    invertible nor over J: (1, 0) when A has that shape already, else the
    lift of the first residue vector outside ker(Abar) and im(Abar).  Ab is
    Abar when the caller has it; slot, Abar's ResidueSlot, keeps the lift
    as pi_x."""
    R = A.ring
    if A.a == R.zero and A.c == R.one and R.in_radical(A.b):
        return R.one, R.zero
    if slot is not None and slot.pi_x is not None:
        return slot.pi_x
    if Ab is None:
        Ab = residue_matrix(A)
    lift = R.residue_view().lift
    # A is singular and not over J, so its residue matrix has rank exactly 1
    pick = _outside_kernel_and_image(Ab)
    x = lift(pick[0]), lift(pick[1])
    if slot is not None:
        slot.pi_x = x
    return x


def eigenrows(A, x, t0, t1) -> Mat2:
    """The matrix with rows (1, t0) Q^-1 and (1, t1) Q^-1 for Q = [x | Ax],
    over a commutative ring.  By the adjugate, Q^-1 = k [[y1, -y0], [-x1, x0]]
    for y = Ax and k the inverse of delta = x0 y1 - y0 x1, so row i is
    (y1 - ti x1, ti x0 - y0) k.  When t0 and t1 are roots of A's
    characteristic quadratic, (1, ti) is a row eigenvector of the companion
    matrix Q^-1 A Q, and these rows diagonalize A: they are the rows of
    CompanionForm.eigenrow_transform, with Q^-1 = P."""
    R = A.ring
    x0, x1 = x
    y0, y1 = matvec(A, x)
    ny0 = R.neg(y0)
    delta = R.dot(x0, y1, ny0, x1)
    if not R.is_unit(delta):
        raise InternalContractViolation("lifted basis {x, Ax} is not a basis")
    k = R.invert(delta)
    p, q, r, s = R.mul(y1, k), R.mul(x1, k), R.mul(x0, k), R.mul(ny0, k)
    one, n0, n1 = R.one, R.neg(t0), R.neg(t1)
    dot = R.dot
    return Mat2(R, dot(n0, q, p, one), dot(t0, r, s, one),
                dot(n1, q, p, one), dot(t1, r, s, one))


def _basis_change(A, x):
    """(P, Q) for Q = [x | Ax] and P = Q^-1; P = I for Q = I, the x = (1, 0)
    of a matrix already in companion shape."""
    R = A.ring
    Ax = matvec(A, x)
    Q = Mat2(R, x[0], Ax[0], x[1], Ax[1])
    if Q.b == R.zero and Q.c == R.zero and Q.a == R.one and Q.d == R.one:
        return Q, Q
    try:
        return invert2(Q), Q
    except NotInvertible:
        raise InternalContractViolation("lifted basis {x, Ax} is not a basis")


def _form(A, P, Q) -> CompanionForm:
    """The companion form of A for P = Q^-1, Q = [x | Ax].  P A Q has first
    column P (Ax) = e2, Ax being Q's second column; its second column,
    P A (Ax), gives the quadratic."""
    R = A.ring
    top, corner = matvec(P, matvec(A, (Q.b, Q.d)))
    return CompanionForm(MonicQuadratic(R, R.neg(corner), R.neg(top)), P, Q)


def reduce_to_companion(A: Mat2, Ab=None, slot=None) -> CompanionForm:
    """Clean-case reduction; NotApplicable when A or I - A is invertible.  Ab
    is Abar when the caller has it.  A slot whose clean case is "Reduced"
    stands for both invertibility tests, and gives x when it holds one."""
    R = A.ring
    if Ab is None:
        Ab = residue_matrix(A)
    Ab_I = None
    if slot is None or slot.clean != "Reduced":
        Ab_I = minus_identity(Ab)  # det(Abar - I) = det(I - Abar)
        if is_invertible(Ab) or is_invertible(Ab_I):
            raise NotApplicable("A or I - A is invertible; no companion reduction")
    cf = _form(A, *_basis_change(A, clean_basis_vector(A, Ab, Ab_I, slot)))
    if not (R.in_radical(cf.f.a0) and R.in_radical(R.add(R.one, cf.f.a1))):
        raise InternalContractViolation("companion shape violated after reduction")
    return cf


def reduce_to_companion_pi(A: Mat2, Ab=None, slot=None) -> CompanionForm:
    """Pi-case reduction; NotApplicable when A is invertible or A is over J.
    Ab is Abar when the caller has it.  A slot whose pi case is "Reduced"
    stands for both tests, and gives x when it holds one."""
    R = A.ring
    if Ab is None:
        Ab = residue_matrix(A)
    if slot is None or slot.pi != "Reduced":
        if Ab == Mat2.zero(Ab.ring):
            raise NotApplicable("all entries in the radical; no pi companion form")
        if is_invertible(Ab):
            raise NotApplicable("A is invertible; no pi companion form")
    cf = _form(A, *_basis_change(A, pi_basis_vector(A, Ab, slot)))
    if not R.in_radical(cf.f.a0):
        raise InternalContractViolation("pi companion shape violated")
    return cf


def check_companion_identity(ring, coeffs) -> bool:
    """For monic h = a0 + a1 t + t^2, given as (a0, a1, 1), the companion
    matrix C = [[0, -a0], [1, -a1]] satisfies

        C^2 + C diag(a1, a1) + diag(a0, a0) = 0,

    with each coefficient applied as a scalar matrix on the right.  Entry by
    entry C^2 = [[-a0, a0 a1], [-a1, a1^2 - a0]] and C diag(a1, a1) =
    [[0, -a0 a1], [a1, -a1^2]], so the sum vanishes in any ring; diag(a1, a1) C
    would put a1 a0 in place of a0 a1, which differs over a skew ring when a0
    and a1 do not commute.  Every quadratic the deciders meet has degree 2, so
    no other degree is accepted."""
    coeffs = list(coeffs)
    assert len(coeffs) == 3, "degree must be 2"
    a0, a1, lead = coeffs
    assert lead == ring.one, "polynomial must be monic"
    C = Mat2(ring, ring.zero, ring.neg(a0), ring.one, ring.neg(a1))
    total = C * C + C * Mat2.diag(ring, a1, a1) + Mat2.diag(ring, a0, a0)
    return total == Mat2.zero(ring)
