"""Monic quadratics t^2 + t a1 + a0 and their one-sided roots.

Coefficients sit to the RIGHT of the powers, so the left evaluation at lambda is
lambda^2 + lambda a1 + a0 and lambda is a left root when that vanishes.  Right
roots put the coefficients on the left and are searched by delegating to the
left search over the opposite ring (same coefficient elements, multiplication
reversed).

The distinguished family

    W = { t^2 - t (1 + w1) - w0 : w0, w1 in J }

collects the quadratics whose residue has both 0 and 1 as roots.  For such f the
substitution g(t) = f(1 - t), expanded with only central scalars moved past t,

    g(t) = t^2 - t (1 - w1) - (w0 + w1),

is again in W and swaps roots in J with roots in 1 + J via lambda <-> 1 - lambda.

Root search routes.  Each question the package asks has one function that
picks its route, and every caller goes through it:
  * w_roots, the roots in J and 1 + J of f in W (the clean decider and
    factor, and the witness check of the Z_(p) survey): J-adic lifting from 0
    on the truncated rings, a complete scan of J on Z/p^k (k > 1) with the
    1 + J root read off the sum of the roots, a scan of J = {0} and of
    1 + J = {1} on the fields, the discriminant over Z_(p);
  * pi_roots, a unit and a nilpotent root of t^2 - t r - w with r a unit (the
    pi decider): lifting on every finite ring, the discriminant over Z_(p);
    over a commutative ring only the nilpotent root is lifted, the unit one
    being -a1 minus it;
  * find_roots_auto, any requested subsets (right_roots): a complete scan on
    finite rings, the discriminant over Z and Z_(p).

Lifting.  On every finite ring here J is nilpotent: J^v = 0.  Take f with a0
in J and a1 a unit, as in W and in the pi decider's t^2 - t r - w.  Its
residue is t (t + a1bar), with the simple roots 0 and -a1bar.  For any lam
and x,

    f(lam + x) = f(lam) + lam x + x (lam + a1) + x^2.

Let f(lam) lie in J^i (i >= 1) and x in J^i, so that x^2 lies in J^(i+1).
If lam lies in J, then lam x is in J^(i+1) and x (lam + a1) = x a1 modulo
J^(i+1); the chord step x = -f(lam) a1^-1 puts f(lam + x) in J^(i+1).  If
lam reduces to -a1bar, then x (lam + a1) is in J^(i+1), and lam s^-1 = 1
modulo J for any fixed s with the same residue; the step x = -s^-1 f(lam)
puts f(lam + x) in J^(i+1).  Both formulas hold in the skew rings as written,
and each step stays in the residue class of the start.  So from a start that
reduces to a simple root, at most v - 1 steps reach a root (lift_root).

The root above a simple residue root is unique: if lam and lam + x are roots
with x in J^i but not in J^(i+1), the expansion gives
lam x + x (lam + a1) + x^2 = 0, whose left side is x a1 or lam x modulo
J^(i+1) by the same case split: a unit times x, so not in J^(i+1).  So
lifting returns the same element as a complete scan of its residue class.
pi_roots lifts the nilpotent root lam from 0.  Over a commutative ring
f(t) = (t - lam)(t - mu) with mu = -a1 - lam, which reduces to rbar, so mu
is the unit root, the one lifting from lift(rbar) returns; the skew rings
lift it.  w_roots on the truncated rings lifts the J root of f from 0; its
1 + J root is -a1 minus it over a commutative ring, and 1 minus the J root of
f(1 - t), lifted from 0, over a skew one.  On Z/p^k the J root comes from a
scan, the first hit being the unique root, and the 1 + J root is again -a1
minus it.

Over Z and Z_(p) every element is a ratio of integers (ring.ratio), and
find_roots_rational tests the discriminant and forms the roots in integer
arithmetic.
"""

from collections import namedtuple
from math import gcd, isqrt

from .certificates import element_is_nilpotent
from .errors import InfiniteRing, InternalContractViolation, NotApplicable
from .rings import Element

_SUBSETS = ("J", "1+J", "unit", "nilpotent")
_TRUNCATED = ("TruncatedPoly", "TruncatedSkew")


class MonicQuadratic(namedtuple("MonicQuadratic", "ring a1 a0")):
    """t^2 + t*a1 + a0 over `ring`, coefficients kept on the right."""

    __slots__ = ()

    def __new__(cls, ring, a1, a0):
        ring._guard(a1, a0)
        return super().__new__(cls, ring, a1, a0)

    @staticmethod
    def from_radical_params(ring, w0, w1):
        """t^2 - t(1 + w1) - w0 for w0, w1 in J."""
        ring._guard(w0, w1)
        return MonicQuadratic(ring, ring.neg(ring.add(ring.one, w1)), ring.neg(w0))

    @property
    def w0(self):
        return self.ring.neg(self.a0)

    @property
    def w1(self):
        R = self.ring
        return R.neg(R.add(R.one, self.a1))

    def one_minus_t_transform(self) -> "MonicQuadratic":
        """g(t) = f(1 - t); left roots of g in J are 1 - (left roots of f in 1+J)."""
        R = self.ring
        two = R.add(R.one, R.one)
        g1 = R.neg(R.add(two, self.a1))
        g0 = R.add(R.add(R.one, self.a1), self.a0)
        return MonicQuadratic(R, g1, g0)

    def text(self) -> str:
        return format_quadratic(self)

    def __repr__(self):
        return f"<{self.ring.spec_string()}: {self.text()}>"


def format_quadratic(f: MonicQuadratic) -> str:
    def term(sign, body, power):
        if power and body == "1":
            return f"{sign}{power}"
        if power:
            if "+" in body or "-" in body[1:] or "*" in body:
                body = f"({body})"
            return f"{sign}{body}*{power}"
        if "+" in body or "-" in body[1:]:
            body = f"({body})"
        return f"{sign}{body}"

    R = f.ring
    out = "t^2"
    for coeff, power in ((f.a1, "t"), (f.a0, "")):
        if coeff == R.zero:
            continue
        plus = term("+", R.format_element(coeff), power)
        minus = term("-", R.format_element(R.neg(coeff)), power)
        # prefer the shorter rendering, so Z/8 and Z_(p) witnesses read t^2-t-2
        out += minus if len(minus) < len(plus) else plus
    return out


class RootReport:
    """Found roots per requested subset; a None in a requested subset means the
    search proved no such root exists (searches here are complete)."""

    __slots__ = ("root_in_j", "root_in_1_plus_j", "root_unit", "root_nilpotent",
                 "method", "targets")

    def __init__(self, root_in_j=None, root_in_1_plus_j=None, root_unit=None,
                 root_nilpotent=None, method="", targets=()):
        self.root_in_j, self.root_in_1_plus_j = root_in_j, root_in_1_plus_j
        self.root_unit, self.root_nilpotent = root_unit, root_nilpotent
        self.method, self.targets = method, targets


def left_eval(f: MonicQuadratic, lam: Element) -> Element:
    """lam^2 + lam a1 + a0, as lam (lam + a1) + a0."""
    R = f.ring
    if not (type(lam) is Element and lam.ring is R.element_ring):
        R._guard(lam)
    return R.add(R.mul(lam, R.add(lam, f.a1)), f.a0)


def find_roots_enumerate(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Complete scan of each requested subset, first hit in enumeration order."""
    R = f.ring
    if not R.is_finite:
        raise InfiniteRing("enumeration root search needs a finite ring")
    for t in targets:
        if t not in _SUBSETS:
            raise ValueError(f"unknown root subset {t!r}")
    report = RootReport(method="Enumeration", targets=tuple(targets))
    zero = R.zero
    if "J" in targets:
        for lam in R.enumerate_elements("Radical"):
            if left_eval(f, lam) == zero:
                report.root_in_j = lam
                break
    if "1+J" in targets:
        for lam in R.enumerate_elements("OnePlusRadical"):
            if left_eval(f, lam) == zero:
                report.root_in_1_plus_j = lam
                break
    if "unit" in targets:
        for lam in R.enumerate_elements("Units"):
            if left_eval(f, lam) == zero:
                report.root_unit = lam
                break
    if "nilpotent" in targets:
        for lam in R.enumerate_elements("Radical"):
            if left_eval(f, lam) == zero and element_is_nilpotent(R, lam):
                report.root_nilpotent = lam
                break
    return report


def _rational_sqrt(n, d):
    """(rn, rd) with (rn/rd)^2 = n/d for a reduced n/d with d > 0, or None
    when n/d is not the square of a rational."""
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return rn, rd


def find_roots_rational(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Discriminant route over Z and Z_(p); commutative, so sides agree.

    With a1 = n1/d1 and a0 = n0/d0, the discriminant a1^2 - 4 a0 is
    (n1^2 d0 - 4 n0 d1^2) / (d1^2 d0), a square of Q exactly when its reduced
    numerator and denominator are squares of Z; the roots (-a1 +- s)/2 are
    then formed over one denominator and reduced.  Over Z only the unit and
    nilpotent subsets are meaningful (no radical); J / 1+J stay None there by
    definition."""
    R = f.ring
    if R.family not in ("Integers", "LocalizedIntegers"):
        raise NotApplicable("rational root search needs Z or Z_(p)")
    report = RootReport(method="Discriminant", targets=tuple(targets))
    (n1, d1), (n0, d0) = R.ratio(f.a1), R.ratio(f.a0)
    num, den = n1 * n1 * d0 - 4 * n0 * d1 * d1, d1 * d1 * d0
    g = gcd(num, den)
    s = _rational_sqrt(num // g, den // g)
    if s is None:
        return report
    sn, sd = s
    den = 2 * d1 * sd
    for num in (sn * d1 - n1 * sd, -sn * d1 - n1 * sd):  # -a1 + s, then -a1 - s
        g = gcd(num, den)
        n, d = num // g, den // g
        if R.family == "Integers":
            if d != 1:
                continue
            el = R.el(n)
            if "nilpotent" in targets and n == 0 and report.root_nilpotent is None:
                report.root_nilpotent = el
            if "unit" in targets and n in (1, -1) and report.root_unit is None:
                report.root_unit = el
            continue
        p = R.p
        if d % p == 0:
            continue  # not an element of Z_(p)
        el = R.frac(n, d)
        in_j = n % p == 0
        if "J" in targets and in_j and report.root_in_j is None:
            report.root_in_j = el
        # n/d - 1 = (n - d)/d, d a unit: in J iff p divides n - d
        if "1+J" in targets and (n - d) % p == 0 and report.root_in_1_plus_j is None:
            report.root_in_1_plus_j = el
        if "unit" in targets and not in_j and report.root_unit is None:
            report.root_unit = el
        if "nilpotent" in targets and n == 0 and report.root_nilpotent is None:
            report.root_nilpotent = el
    return report


# ------------------------------------------------------- J-adic lifting


def lift_root(f: MonicQuadratic, start: Element) -> Element:
    """The left root of f congruent to `start` modulo J, on a finite ring.

    f must have a0 in J and a1 a unit, and `start` must reduce to 0 or to
    -a1bar, the simple roots of its residue; see the module docstring.  Each
    chord step moves f(lam) one J-adic level deeper, so at most v - 1 steps fix
    the root (J^v = 0), and neither the ring nor its residue field is
    enumerated.  Raises InternalContractViolation when `start` is not a root
    modulo J or v steps leave f(lam) nonzero."""
    R = f.ring
    R._guard(start)
    v = R.radical_index()
    if v is None:
        raise NotApplicable("J-adic lifting needs a finite chain ring")
    zero = R.zero
    lam, val = start, left_eval(f, start)
    if not R.in_radical(val):
        raise InternalContractViolation("start is not a root modulo J")
    if R.in_radical(start):
        unit, left = R.invert(f.a1), False  # f(lam + x) = f(lam) + x a1 mod J^(i+1)
    else:
        unit, left = R.invert(start), True  # f(lam + x) = f(lam) + s x mod J^(i+1)
    for _ in range(v):
        if val == zero:
            return lam
        lam = R.sub(lam, R.mul(unit, val) if left else R.mul(val, unit))
        val = left_eval(f, lam)
    raise InternalContractViolation(f"f(lam) is still nonzero after {v} chord steps")


def lift_root_truncated(ring, w0, w1) -> Element:
    """Left root in J of t^2 - t(1+w1) - w0 over F[x; sigma]/(x^n), lifted
    from the residue root 0 by lift_root."""
    if ring.family not in _TRUNCATED:
        raise NotApplicable("lifting needs a truncated polynomial ring")
    ring._guard(w0, w1)
    if not (ring.in_radical(w0) and ring.in_radical(w1)):
        raise NotApplicable("lifting needs w0, w1 in the radical")
    return lift_root(MonicQuadratic.from_radical_params(ring, w0, w1), ring.zero)


def w_roots(f: MonicQuadratic):
    """(lamJ, lam1J, method): the left roots of f in W in J and in 1 + J, or
    None where the ring has none, by the route of f's ring."""
    R = f.ring
    if R.family in _TRUNCATED and R.element_ring is R:
        lam_j = lift_root_truncated(R, f.w0, f.w1)
        if R.is_commutative:
            # f = (t - lamJ)(t - lam1J), so lam1J = -a1 - lamJ as in
            # pi_roots; the root above residue 1 is unique
            lam_1j = R.neg(R.add(f.a1, lam_j))
            mu = R.sub(R.one, lam_1j)
        else:
            g = f.one_minus_t_transform()
            mu = lift_root_truncated(R, g.w0, g.w1)
            lam_1j = R.sub(R.one, mu)
        if not (R.in_radical(lam_j) and R.in_radical(mu)):
            raise InternalContractViolation("a lifted root is not in J")
        if left_eval(f, lam_1j) != R.zero:
            raise InternalContractViolation("1 - (root of f(1-t)) is not a root")
        return lam_j, lam_1j, "Lifting"
    if R.is_finite:
        if R.is_commutative and R.radical_index() > 1:
            # J != 0: scan J alone and read the 1 + J root off the sum of
            # the roots, as above; fields keep their two one-element scans
            lam_j = find_roots_enumerate(f, ("J",)).root_in_j
            lam_1j = None if lam_j is None else R.neg(R.add(f.a1, lam_j))
            return lam_j, lam_1j, "Enumeration"
        rep = find_roots_enumerate(f, ("J", "1+J"))
        return rep.root_in_j, rep.root_in_1_plus_j, "Enumeration"
    rep = find_roots_rational(f, ("J", "1+J"))
    return rep.root_in_j, rep.root_in_1_plus_j, "Discriminant"


def pi_roots(f: MonicQuadratic):
    """(unit root, nilpotent root) of f = t^2 - t r - w with r a unit and w in
    J, or None where Z_(p) has no such root; lifted on finite rings."""
    R = f.ring
    if R.is_finite:
        # t(t - rbar) has the simple residue roots rbar and 0: lift 0, and
        # over a commutative ring read the other root off the sum of the
        # roots, -a1 (see the module docstring); else lift it from rbar
        lam_n = lift_root(f, R.zero)
        if R.is_commutative:
            return R.neg(R.add(f.a1, lam_n)), lam_n
        rv = R.residue_view()
        return lift_root(f, rv.lift(rv.reduce(R.neg(f.a1)))), lam_n
    rep = find_roots_rational(f, ("unit", "nilpotent"))
    return rep.root_unit, rep.root_nilpotent


def right_roots(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Right-root search: identical to the left search over commutative owners,
    otherwise delegated to the left search over the opposite ring (elements are
    shared, so the reported roots live in the original ring)."""
    R = f.ring
    if R.is_commutative:
        return find_roots_auto(f, targets)
    fop = MonicQuadratic(R.opposite(), f.a1, f.a0)
    return find_roots_auto(fop, targets)


def find_roots_auto(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Family dispatch: enumeration when finite, discriminant over Z/Z_(p)."""
    R = f.ring
    if R.is_finite:
        return find_roots_enumerate(f, targets)
    return find_roots_rational(f, targets)
