"""Element-level arithmetic of the finite rings, the reference for the index route.

These are the products and residue maps the rings computed before they worked
on element indices: each builds a fresh Element from payloads, coefficient by
coefficient, and touches no index table, no log table and no public ring op.
The tests compare the index tables, the direct products above TABLE_CAP and
the residue views with them.  invert2_rows, the 2x2 inverse by row reduction
that the matrices module used before its L D U form, is the one reference
here built on public ring ops; it works over any local ring.
kernel_scan_is_invertible and brute_pi_sets are the oracle's invertibility
and pi checks before it counted kernels: scans of all of R^2 on the ring's
filled index tables.

from_rows, is_nilpotent, right_eval, in_w, companion_matrix and
is_unimodular are helpers that only the tests call.  fraction and
FRACTION_OPS are the Z_(p) arithmetic on fractions.Fraction, the reference
for the reduced-pair payload.
"""

import operator
from fractions import Fraction
from math import isqrt

from cleanmatrix.errors import NotApplicable, NotAUnit
from cleanmatrix.matrices import Mat2, matpow
from cleanmatrix.galois import _fp_mul, _fp_rem
from cleanmatrix.rings import Element, galois_field, make_ring


def _add(R, x, y):
    if R.family == "ModPrimePower":
        return (x + y) % R.modulus
    if R.family == "GaloisField":
        return tuple((u + v) % R.p for u, v in zip(x, y))
    return tuple(_add(R.base, u, v) for u, v in zip(x, y))


def _neg(R, x):
    if R.family == "ModPrimePower":
        return -x % R.modulus
    if R.family == "GaloisField":
        return tuple(-u % R.p for u in x)
    return tuple(_neg(R.base, u) for u in x)


def _mul(R, x, y):
    if R.family == "ModPrimePower":
        return x * y % R.modulus
    if R.family == "GaloisField":
        if R.m == 1:
            return (x[0] * y[0] % R.p,)
        red = _fp_rem(_fp_mul(x, y, R.p), R.modulus, R.p)
        return red + (0,) * (R.m - len(red))
    # (a_i x^i)(b_j x^j) = a_i sigma^i(b_j) x^(i+j), sigma = Frobenius^s
    F = R.base
    zero = F.zero.payload
    out = [zero] * R.n
    for i, ai in enumerate(x):
        twist = F.p ** (R.s * i % F.m)
        for j in range(R.n - i):
            if ai != zero and y[j] != zero:
                bj = y[j] if twist == 1 else _pow(F, y[j], twist)
                out[i + j] = _add(F, out[i + j], _mul(F, ai, bj))
    return tuple(out)


def _pow(R, x, e):
    out = R.one.payload
    while e:
        if e & 1:
            out = _mul(R, out, x)
        e >>= 1
        if e:
            x = _mul(R, x, x)
    return out


def add(R, a, b):
    return Element(R, _add(R, a.payload, b.payload))


def neg(R, a):
    return Element(R, _neg(R, a.payload))


def mul(R, a, b):
    return Element(R, _mul(R, a.payload, b.payload))


def invert(R, a):
    """a^(u - 1), u the number of units; NotAUnit on the radical."""
    if not is_unit(R, a):
        raise NotAUnit(f"{a} is not a unit")
    if R.family == "ModPrimePower":
        return Element(R, pow(a.payload, -1, R.modulus))
    units = R.size() - R.size() // residue_field(R).size()
    return Element(R, _pow(R, a.payload, units - 1))


def residue_field(R):
    if R.family == "ModPrimePower":
        return make_ring(galois_field(R.p, 1))
    return R if R.family == "GaloisField" else R.base


def reduce(R, a):
    """The residue: payload mod p on Z/p^k, the constant coefficient on a
    truncation, a itself on GF(p^m)."""
    F = residue_field(R)
    if R.family == "ModPrimePower":
        return Element(F, (a.payload % R.p,))
    return Element(F, a.payload if F is R else a.payload[0])


def lift(R, c):
    """The constant of R whose residue is c."""
    if R.family == "ModPrimePower":
        return Element(R, c.payload[0])
    if R.family == "GaloisField":
        return Element(R, c.payload)
    return Element(R, (c.payload,) + (R.base.zero.payload,) * (R.n - 1))


def is_unit(R, a):
    """a is a unit iff its residue is not zero."""
    return any(reduce(R, a).payload)


def first_irreducible(p, m):
    """The first monic of degree m, counting its lower coefficients in base p
    (constant digit least significant), that no monic of degree 1 to m/2
    divides: the modulus rule of the rings module, by trial division."""

    def monics(d):
        for k in range(p**d):
            yield tuple(k // p**i % p for i in range(d)) + (1,)

    divisors = [g for d in range(1, m // 2 + 1) for g in monics(d)]
    return next(f for f in monics(m) if all(_fp_rem(f, g, p) for g in divisors))


def invert2_rows(A):
    """The two-sided inverse of a 2x2 matrix over a local ring by
    noncommutative row reduction of [A | I] with unit pivots, or None when a
    column has no unit pivot, so that A is not invertible."""
    R = A.ring
    r1 = [A.a, A.b, R.one, R.zero]
    r2 = [A.c, A.d, R.zero, R.one]
    if not R.is_unit(r1[0]):
        r1, r2 = r2, r1
    if not R.is_unit(r1[0]):
        return None
    piv = R.invert(r1[0])
    r1 = [R.mul(piv, x) for x in r1]
    factor = r2[0]
    r2 = [R.sub(y, R.mul(factor, x)) for x, y in zip(r1, r2)]
    if not R.is_unit(r2[1]):
        return None
    piv = R.invert(r2[1])
    r2 = [R.mul(piv, x) for x in r2]
    factor = r1[1]
    r1 = [R.sub(y, R.mul(factor, x)) for x, y in zip(r2, r1)]
    return Mat2(R, r1[2], r1[3], r2[2], r2[3])


def _oracle_view(A):
    """A's entries and the ring's filled tables, by index, with every vector
    of R^2."""
    tab = A.ring.filled_tables()
    n = tab.size
    vectors = [(x, y) for x in range(n) for y in range(n)]
    return tuple(tab.index_of(e) for e in A.entries()), tab, vectors


def kernel_scan_is_invertible(A):
    """No nonzero kernel vector over the whole finite module R^2."""
    (a, b, c, d), tab, vectors = _oracle_view(A)
    n, mul, add = tab.size, tab.mul, tab.add
    zero = tab.index_of(A.ring.zero)
    for x, y in vectors:
        if x == zero and y == zero:
            continue
        if (
            add[mul[a * n + x] * n + mul[b * n + y]] == zero
            and add[mul[c * n + x] * n + mul[d * n + y]] == zero
        ):
            return False
    return True


def brute_pi_sets(A):
    """Smallest n with R^2 = ker(A^n) (+) im(A^n), or None; set arithmetic
    over int-indexed vectors, power by power."""
    m, tab, vectors = _oracle_view(A)
    a, b, c, d = m
    n, mul, add = tab.size, tab.mul, tab.add
    zero = tab.index_of(A.ring.zero)
    prev = None
    for power in range(1, n * n + 1):
        ma, mb, mc, md = m
        ker = set()
        im = set()
        for x, y in vectors:
            fx = add[mul[ma * n + x] * n + mul[mb * n + y]]
            fy = add[mul[mc * n + x] * n + mul[md * n + y]]
            if fx == zero and fy == zero:
                ker.add((x, y))
            im.add((fx, fy))
        if ker & im == {(zero, zero)}:
            return power
        if prev == (ker, im):
            return None
        prev = (ker, im)
        m = (
            add[mul[ma * n + a] * n + mul[mb * n + c]],
            add[mul[ma * n + b] * n + mul[mb * n + d]],
            add[mul[mc * n + a] * n + mul[md * n + c]],
            add[mul[mc * n + b] * n + mul[md * n + d]],
        )
    return None


def from_rows(ring, rows):
    (a, b), (c, d) = rows
    return Mat2(ring, a, b, c, d)


def is_nilpotent(A) -> bool:
    R = A.ring
    if R.is_finite:
        # J^v = 0 makes every nilpotent matrix vanish by the 2v-th power
        return matpow(A, 2 * R.radical_index()) == Mat2.zero(R)
    # over Z and Z_(p) the characteristic polynomial of a nilpotent 2x2 is t^2
    return A == Mat2.zero(R) or A * A == Mat2.zero(R)


def right_eval(f, lam):
    """lam^2 + a1 lam + a0, as (lam + a1) lam + a0."""
    R = f.ring
    R._guard(lam)
    return R.add(R.mul(R.add(lam, f.a1), lam), f.a0)


def in_w(f) -> bool:
    """Whether f = t^2 + t a1 + a0 lies in W: a0 and 1 + a1 in J."""
    R = f.ring
    return R.in_radical(f.a0) and R.in_radical(R.add(R.one, f.a1))


def companion_matrix(cf) -> Mat2:
    """[[0, top], [1, corner]] of a CompanionForm, whose quadratic is
    t^2 - t corner - top."""
    ring = cf.P.ring
    return Mat2(ring, ring.zero, ring.neg(cf.f.a0), ring.one, ring.neg(cf.f.a1))


def is_unimodular(A) -> bool:
    if A.ring.family != "Integers":
        raise NotApplicable("integer classification needs matrices over Z")
    a, b, c, d = (e.payload for e in A.entries())
    return a * d - b * c in (1, -1)


def fraction(a):
    """The Fraction equal to an element of Z_(p), read off its payload."""
    n, d = a.payload
    return Fraction(n, d)


FRACTION_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "neg": operator.neg,
    "invert": lambda x: 1 / x,
    "dot": lambda a, b, c, d: a * b + c * d,
}


def rational_roots(f):
    """The roots (-a1 + s)/2 and (-a1 - s)/2 of f = t^2 + a1 t + a0 over Z or
    Z_(p) as Fractions, s the rational square root of the discriminant, or
    () when it has none: the root route before payloads became pairs."""
    a1, a0 = (Fraction(*f.ring.ratio(c)) for c in (f.a1, f.a0))
    disc = a1 * a1 - 4 * a0
    if disc < 0:
        return ()
    rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        return ()
    s = Fraction(rn, rd)
    return ((-a1 + s) / 2, (-a1 - s) / 2)
