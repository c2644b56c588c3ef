"""Monic quadratics t^2 + t a1 + a0 and their one-sided roots.

Coefficients sit to the RIGHT of the powers, so the left evaluation at lambda is
lambda^2 + lambda a1 + a0 and lambda is a left root when that vanishes.  Right
roots put the coefficients on the left, lambda^2 + a1 lambda + a0; on a skew
ring right_roots finds them by the same complete scan as the left search,
evaluating (lambda + a1) lambda + a0.

The distinguished family

    W = { t^2 - t (1 + w1) - w0 : w0, w1 in J }

collects the quadratics whose residue has both 0 and 1 as roots.

Root search routes.  Each question the package asks has one function that
picks its route, and every caller goes through it:
  * w_roots, the roots in J and 1 + J of f in W (the clean decider and
    factor, and the witness check of the Z_(p) survey): _lift_pair on the
    truncated rings, a complete scan of J on Z/p^k (k > 1) with the 1 + J
    root read off the sum of the roots, a scan of J = {0} and of
    1 + J = {1} on the fields and Z/p, the discriminant over Z_(p).  The
    Z/p^k scan (ModPrimePowerRing.radical_root) runs on payload integers,
    in the "Radical" enumeration order and under the same ENUM_CAP as
    find_roots_enumerate, so it returns the same root.  Whatever the route,
    w_roots checks once that the two roots exist together or not at all;
  * pi_roots, a unit and a nilpotent root of t^2 - t r - w with r a unit (the
    pi decider): on Z/p^k the nilpotent root by Newton's step on payload
    integers (ModPrimePowerRing.newton_root) and the unit root read off the
    sum of the roots, _lift_pair on the other finite rings, the
    discriminant over Z_(p);
  * right_roots, the right roots in any requested subsets: find_roots_auto
    on a commutative ring (a complete scan on finite rings, the discriminant
    over Z_(p)); on a skew ring, every one of which is finite,
    find_roots_enumerate's scan with the right evaluation.

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
_lift_pair, the chord-step route of w_roots and pi_roots, lifts the root
lam above 0 from 0.  Over a commutative ring f(t) = (t - lam)(t - mu) with
mu = -a1 - lam, which reduces to -a1bar, so mu is the other root, the one
lifting from lift(-a1bar) returns; a skew ring lifts it from there.  For f
in W that start is 1 and mu is the root in 1 + J; for the pi quadratic it
is lift(rbar) and mu is the unit root.  On Z/p^k the clean J root comes
from a scan of the multiples of p, the first hit being the unique root, and
the 1 + J root is again -a1 minus it.  The pi nilpotent root on Z/p^k comes
from Newton's step lam <- lam - f(lam) f'(lam)^-1 from 0, which doubles the
p-adic precision each step (ModPrimePowerRing.newton_root); f'(lam) =
2 lam + a1 is a unit at both simple residue roots, so the uniqueness
argument above carries over and Newton's root is the element the chord
steps reach, in ceil(log2 k) steps instead of up to k - 1.

Over Z_(p) every element is a ratio of integers (ring.ratio), and
find_roots_rational tests the discriminant and forms the roots in integer
arithmetic.  No decider asks for roots over Z, and the discriminant route
serves Z_(p) only.
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

    def text(self) -> str:
        return format_quadratic(self)

    def __repr__(self):
        return f"<{self.ring.spec_string()}: {self.text()}>"


def _compound(text) -> bool:
    """Whether an element's text is a sum or difference, which needs
    parentheses as a factor or after a sign."""
    return "+" in text or "-" in text[1:]


def format_quadratic(f: MonicQuadratic) -> str:
    def term(sign, body, power):
        if power and body == "1":
            return f"{sign}{power}"
        if _compound(body) or (power and "*" in body):
            body = f"({body})"
        return f"{sign}{body}*{power}" if power else f"{sign}{body}"

    R = f.ring
    out = "t^2"
    for coeff, power in ((f.a1, "t"), (f.a0, "")):
        if coeff != R.zero:
            out += _shorter_signed(R, coeff, lambda sign, body: term(sign, body, power))
    return out


def _shorter_signed(R, coeff, term) -> str:
    """The shorter of term("+", coeff's text) and term("-", -coeff's text),
    the first on a tie, so Z/8 and Z_(p) witnesses read t^2-t-2."""
    plus = term("+", R.format_element(coeff))
    minus = term("-", R.format_element(R.neg(coeff)))
    return minus if len(minus) < len(plus) else plus


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
    if not (type(lam) is Element and lam.ring is R):
        R._guard(lam)
    return R.add(R.mul(lam, R.add(lam, f.a1)), f.a0)


def _right_eval(f: MonicQuadratic, lam: Element) -> Element:
    """lam^2 + a1 lam + a0, as (lam + a1) lam + a0."""
    R = f.ring
    return R.add(R.mul(R.add(lam, f.a1), lam), f.a0)


def find_roots_enumerate(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Complete scan of each requested subset, first hit in enumeration order."""
    return _scan(f, targets, left_eval)


def _scan(f: MonicQuadratic, targets, evaluate) -> RootReport:
    """The roots of evaluate(f, lam) = 0 by a complete scan of each requested
    subset, first hit in enumeration order."""
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
            if evaluate(f, lam) == zero:
                report.root_in_j = lam
                break
    if "1+J" in targets:
        for lam in R.enumerate_elements("OnePlusRadical"):
            if evaluate(f, lam) == zero:
                report.root_in_1_plus_j = lam
                break
    if "unit" in targets:
        for lam in R.enumerate_elements("Units"):
            if evaluate(f, lam) == zero:
                report.root_unit = lam
                break
    if "nilpotent" in targets:
        for lam in R.enumerate_elements("Radical"):
            if evaluate(f, lam) == zero and element_is_nilpotent(R, lam):
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
    """Discriminant route over Z_(p); commutative, so sides agree.

    With a1 = n1/d1 and a0 = n0/d0, the discriminant a1^2 - 4 a0 is
    (n1^2 d0 - 4 n0 d1^2) / (d1^2 d0), a square of Q exactly when its reduced
    numerator and denominator are squares of Z; the roots (-a1 +- s)/2 are
    then formed over one denominator and reduced."""
    R = f.ring
    if R.family != "LocalizedIntegers":
        raise NotApplicable("rational root search needs Z_(p)")
    report = RootReport(method="Discriminant", targets=tuple(targets))
    (n1, d1), (n0, d0) = R.ratio(f.a1), R.ratio(f.a0)
    num, den = n1 * n1 * d0 - 4 * n0 * d1 * d1, d1 * d1 * d0
    g = gcd(num, den)
    s = _rational_sqrt(num // g, den // g)
    if s is None:
        return report
    sn, sd = s
    den, p = 2 * d1 * sd, R.p
    for num in (sn * d1 - n1 * sd, -sn * d1 - n1 * sd):  # -a1 + s, then -a1 - s
        g = gcd(num, den)
        n, d = num // g, den // g
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


def _lift_pair(f: MonicQuadratic):
    """(lam, mu): the left roots of f above the residue roots 0 and -a1bar,
    for f with a0 in J and a1 a unit, on a finite ring.  lam is lifted from
    0; mu is -a1 - lam over a commutative ring and lifted from
    lift(-a1bar) over a skew one (see the module docstring)."""
    R = f.ring
    lam = lift_root(f, R.zero)
    if R.is_commutative:
        return lam, R.neg(R.add(f.a1, lam))
    rv = R.residue_view()
    return lam, lift_root(f, rv.lift(rv.reduce(R.neg(f.a1))))


def lift_root_truncated(ring, w0, w1) -> Element:
    """Left root in J of t^2 - t(1+w1) - w0 over F[x; sigma]/(x^n), lifted
    from the residue root 0 by lift_root; NotApplicable unless w0, w1 lie
    in J."""
    if ring.family not in _TRUNCATED:
        raise NotApplicable("lifting needs a truncated polynomial ring")
    ring._guard(w0, w1)
    if not (ring.in_radical(w0) and ring.in_radical(w1)):
        raise NotApplicable("lifting needs w0, w1 in the radical")
    return lift_root(MonicQuadratic.from_radical_params(ring, w0, w1), ring.zero)


def w_roots(f: MonicQuadratic):
    """(lamJ, lam1J, method): the left roots of f in W in J and in 1 + J, or
    None where the ring has none, by the route of f's ring.  Raises
    InternalContractViolation when exactly one of them exists.

    On Z/p^k (k > 1) the J root comes from ModPrimePowerRing.radical_root, a
    complete scan of J in the "Radical" enumeration order on payload integers
    under the same ENUM_CAP, so its first hit and its method, Enumeration,
    are find_roots_enumerate's."""
    R = f.ring
    if R.family in _TRUNCATED:
        (lam_j, lam_1j), method = _lift_pair(f), "Lifting"
    elif R.family == "ModPrimePower" and R.k > 1:
        # J != 0: scan J alone and read the 1 + J root off the sum of the
        # roots; Z/p and the fields keep their two one-element scans
        lam_j, method = R.radical_root(f.a1, f.a0), "Enumeration"
        lam_1j = None if lam_j is None else R.neg(R.add(f.a1, lam_j))
    else:
        if R.is_finite:
            rep, method = find_roots_enumerate(f, ("J", "1+J")), "Enumeration"
        else:
            rep, method = find_roots_rational(f, ("J", "1+J")), "Discriminant"
        lam_j, lam_1j = rep.root_in_j, rep.root_in_1_plus_j
    if (lam_j is None) != (lam_1j is None):
        raise InternalContractViolation("one-sided root presence is asymmetric")
    return lam_j, lam_1j, method


def pi_roots(f: MonicQuadratic):
    """(unit root, nilpotent root) of f = t^2 - t r - w with r a unit and w in
    J, or None where Z_(p) has no such root; lifted on finite rings, where
    t(t - rbar) has the simple residue roots rbar and 0: by Newton's step on
    Z/p^k, with the unit root -a1 minus the nilpotent one, and by
    _lift_pair elsewhere."""
    R = f.ring
    if R.family == "ModPrimePower":
        lam_n = R.newton_root(f.a1, f.a0, R.zero)
        return R.neg(R.add(f.a1, lam_n)), lam_n
    if R.is_finite:
        lam_n, lam_u = _lift_pair(f)
        return lam_u, lam_n
    rep = find_roots_rational(f, ("unit", "nilpotent"))
    return rep.root_unit, rep.root_nilpotent


def right_roots(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Right-root search: the left search over a commutative ring, otherwise
    (every skew ring is finite) find_roots_enumerate's scan with the right
    evaluation."""
    if f.ring.is_commutative:
        return find_roots_auto(f, targets)
    return _scan(f, targets, _right_eval)


def find_roots_auto(f: MonicQuadratic, targets=("J", "1+J")) -> RootReport:
    """Family dispatch: enumeration when finite, discriminant over Z_(p)."""
    R = f.ring
    if R.is_finite:
        return find_roots_enumerate(f, targets)
    return find_roots_rational(f, targets)
