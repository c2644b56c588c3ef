"""Unit-split factorizations of monic quadratics.

A witness factors f two ways, f = g0*g1 = h1*h0, with g0(0), g1(1), h0(0),
h1(1) all units.  The starred flag additionally certifies that the residue
images of each pair generate the unit ideal of the residue polynomial ring
(Bezout identity found by the Euclidean algorithm; the residue field is
commutative for every supported family, so left and right coprimality agree).

Polynomials live in R[t] with t central: coefficients keep their ring order
and never move past each other, only past t.  When f(0) or f(1) is a unit the
witness is the trivial split 1*f = f*1 arranged so the unit lands where the
definition wants it.  Otherwise both evaluations are non-units, which over a
local ring forces a0 in J and 1 + a1 in J, and the witness comes from a pair
of left roots t0 in J, t1 in 1+J (quadratics.w_roots) via
f = (t - lam)(t + a1 + lam).
"""

from .errors import (
    InternalContractViolation,
    NoFactorization,
    NotApplicable,
    OwnerMismatch,
)
from .quadratics import MonicQuadratic, left_eval, w_roots


class Poly:
    """Polynomial over a ring, coefficients low to high, t central."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == ring.zero:
            trimmed.pop()
        self.ring = ring
        self.coeffs = tuple(trimmed)

    @staticmethod
    def one(ring):
        return Poly(ring, [ring.one])

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def add(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.ring,
            [self.ring.add(self.coeff(i), other.coeff(i)) for i in range(n)],
        )

    def sub(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.ring,
            [self.ring.sub(self.coeff(i), other.coeff(i)) for i in range(n)],
        )

    def mul(self, other):
        R = self.ring
        if self.is_zero() or other.is_zero():
            return Poly(R, [])
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Poly(R, out)

    def scale_left(self, c):
        return Poly(self.ring, [self.ring.mul(c, a) for a in self.coeffs])

    def eval_left(self, x):
        """Sum of x^i * a_i.  At central points (0, 1) this is the plain value."""
        R = self.ring
        total = R.zero
        power = R.one
        for a in self.coeffs:
            total = R.add(total, R.mul(power, a))
            power = R.mul(power, x)
        return total

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def text(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.ring.zero:
                continue
            cs = self.ring.format_element(c)
            if i == 0:
                term = cs
            elif i == 1:
                term = var if cs == "1" else f"{cs}*{var}"
            else:
                term = f"{var}^{i}" if cs == "1" else f"{cs}*{var}^{i}"
            parts.append(term)
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return f"Poly({self.text()})"


class FactorizationWitness:
    __slots__ = ("g0", "g1", "h0", "h1", "starred")

    def __init__(self, g0, g1, h0, h1, starred):
        self.g0, self.g1, self.h0, self.h1 = g0, g1, h0, h1
        self.starred = starred


def _quadratic_poly(f: MonicQuadratic) -> Poly:
    R = f.ring
    return Poly(R, [f.a0, f.a1, R.one])


def _linear(R, const) -> Poly:
    return Poly(R, [const, R.one])  # t + const


def _root_factor_pair(f: MonicQuadratic, lam):
    # f = (t - lam)(t + a1 + lam) for any left root lam
    R = f.ring
    left = _linear(R, R.neg(lam))
    right = _linear(R, R.add(f.a1, lam))
    return left, right


def star_factorize(f: MonicQuadratic) -> FactorizationWitness:
    R = f.ring
    if R.family == "Integers":
        raise NotApplicable("factorization needs a local coefficient ring")
    fp = _quadratic_poly(f)
    one = Poly.one(R)
    f0 = left_eval(f, R.zero)
    f1 = left_eval(f, R.one)
    if R.is_unit(f0):
        witness = FactorizationWitness(g0=fp, g1=one, h0=fp, h1=one, starred=True)
    elif R.is_unit(f1):
        witness = FactorizationWitness(g0=one, g1=fp, h0=one, h1=fp, starred=True)
    else:
        # both evaluations in J, so a0 in J and 1 + a1 in J: f is in W, and
        # its J / 1+J root pair comes by the clean decider's route
        t0, t1, _ = w_roots(f)  # both or neither
        if t0 is None:
            raise NoFactorization(
                f"no unit-split factorization of {f.text()}", witness=f
            )
        g0, g1 = _root_factor_pair(f, t1)
        h1, h0 = _root_factor_pair(f, t0)
        witness = FactorizationWitness(g0=g0, g1=g1, h0=h0, h1=h1, starred=True)
    if not verify_factorization(f, witness):
        raise InternalContractViolation("constructed factorization fails its check")
    return witness


def verify_factorization(f: MonicQuadratic, witness: FactorizationWitness) -> bool:
    R = f.ring
    for poly in (witness.g0, witness.g1, witness.h0, witness.h1):
        if poly.ring is not R:
            raise OwnerMismatch("witness polynomial from a different ring")
    fp = _quadratic_poly(f)
    if witness.g0.mul(witness.g1) != fp:
        return False
    if witness.h1.mul(witness.h0) != fp:
        return False
    for poly, point in (
        (witness.g0, R.zero),
        (witness.g1, R.one),
        (witness.h0, R.zero),
        (witness.h1, R.one),
    ):
        if not R.is_unit(poly.eval_left(point)):
            return False
    if witness.starred:
        view = R.residue_view()
        if not _residue_coprime(view, witness.g0, witness.g1):
            return False
        if not _residue_coprime(view, witness.h0, witness.h1):
            return False
    return True


def _residue_coprime(view, p0: Poly, p1: Poly) -> bool:
    field = view.field
    a = Poly(field, [view.reduce(c) for c in p0.coeffs])
    b = Poly(field, [view.reduce(c) for c in p1.coeffs])
    u, v, d = _field_bezout(field, a, b)
    if d.degree() != 0:
        return False
    # re-multiply the identity instead of trusting the algorithm
    return u.mul(a).add(v.mul(b)) == Poly.one(field)


def _field_bezout(field, a: Poly, b: Poly):
    """Extended Euclid in field[t]: returns (u, v, d), u*a + v*b = d monic."""
    zero = Poly(field, [])
    one = Poly.one(field)
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero():
        q, rem = _field_divmod(field, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0.sub(q.mul(u1))
        v0, v1 = v1, v0.sub(q.mul(v1))
    if r0.is_zero():
        return u0, v0, r0
    lead_inv = field.invert(r0.coeffs[-1])
    return (
        u0.scale_left(lead_inv),
        v0.scale_left(lead_inv),
        r0.scale_left(lead_inv),
    )


def _field_divmod(field, num: Poly, den: Poly):
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.invert(den.coeffs[-1])
    dd = den.degree()
    rem = list(num.coeffs)
    quo = [field.zero] * max(len(rem) - dd, 1)
    for i in range(len(rem) - 1 - dd, -1, -1):
        c = field.mul(rem[i + dd], lead_inv)
        if c == field.zero:
            continue
        quo[i] = c
        for j, dc in enumerate(den.coeffs):
            rem[i + j] = field.sub(rem[i + j], field.mul(c, dc))
    return Poly(field, quo), Poly(field, rem)
