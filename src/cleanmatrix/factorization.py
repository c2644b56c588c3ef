"""Unit-split factorizations of monic quadratics.

A witness factors f two ways, f = g0*g1 = h1*h0, with g0(0), g1(1), h0(0),
h1(1) all units.  The starred flag additionally certifies that the residue
images of each pair generate the unit ideal of the residue polynomial ring.
Reducing coefficients is a ring map R[t] -> F[t], t being central, so a pair
that multiplies back to f has residue images of degrees {0, 2} or {1, 1}
whose product is f mod J: a nonzero constant is a unit, and two linear
polynomials are coprime exactly when they are not proportional, a 2x2
determinant (the residue field is commutative for every supported family, so
left and right coprimality agree).

Polynomials live in R[t] with t central: coefficients keep their ring order
and never move past each other, only past t.  When f(0) or f(1) is a unit the
witness is the trivial split 1*f = f*1 arranged so the unit lands where the
definition wants it.  Otherwise both evaluations are non-units, which over a
local ring forces a0 in J and 1 + a1 in J, and the witness comes from a pair
of left roots t0 in J, t1 in 1+J (quadratics.w_roots) via
f = (t - lam)(t + a1 + lam).
"""

from functools import reduce

from .errors import (
    InternalContractViolation,
    NoFactorization,
    NotApplicable,
    OwnerMismatch,
)
from .quadratics import MonicQuadratic, _compound, _shorter_signed, left_eval, w_roots


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

    def mul(self, other):
        R = self.ring
        if self.is_zero() or other.is_zero():
            return Poly(R, [])
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Poly(R, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def text(self, var="t"):
        """Highest power first, each term in the shorter signed form, as
        format_quadratic writes f: Z/8's 7 t is -t."""
        if self.is_zero():
            return "0"
        R, out = self.ring, ""
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == R.zero:
                continue
            power = "" if i == 0 else var if i == 1 else f"{var}^{i}"

            def term(sign, body):
                if power:
                    if _compound(body):
                        body = f"({body})"
                    body = power if body == "1" else f"{body}*{power}"
                return sign + body

            out += _shorter_signed(R, c, term)
        return out[1:] if out[0] == "+" else out

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
    g0, g1, h0, h1 = witness.g0, witness.g1, witness.h0, witness.h1
    for poly in (g0, g1, h0, h1):
        if poly.ring is not R:
            raise OwnerMismatch("witness polynomial from a different ring")
    fp = _quadratic_poly(f)
    if g0.mul(g1) != fp or h1.mul(h0) != fp:
        return False
    # t is central: a witness's value at 0 is its constant coefficient, at 1
    # the sum of its coefficients
    for value in (g0.coeff(0), reduce(R.add, g1.coeffs, R.zero),
                  h0.coeff(0), reduce(R.add, h1.coeffs, R.zero)):
        if not R.is_unit(value):
            return False
    if witness.starred:
        view = R.residue_view()
        return _residue_coprime(view, g0, g1) and _residue_coprime(view, h0, h1)
    return True


def _residue_coprime(view, p0: Poly, p1: Poly) -> bool:
    """Whether the residue images of p0 and p1 are coprime, for p0 p1 a monic
    quadratic: the images multiply to a monic quadratic over the residue
    field, so their degrees are {0, 2}, where the constant is a nonzero unit,
    or {1, 1}, where a0 + a1 t and b0 + b1 t are coprime exactly when
    a0 b1 - a1 b0 is nonzero."""
    F = view.field
    a = Poly(F, [view.reduce(c) for c in p0.coeffs])
    if a.degree() != 1:
        return True
    b = Poly(F, [view.reduce(c) for c in p1.coeffs])
    (a0, a1), (b0, b1) = a.coeffs, b.coeffs
    return F.dot(a0, b1, F.neg(a1), b0) != F.zero
