"""Element-level arithmetic of the finite rings, the reference for the index route.

These are the products and residue maps the rings computed before they worked
on element indices: each builds a fresh Element from payloads, coefficient by
coefficient, and touches no index table, no log table and no public ring op.
The tests compare the index tables, the direct products above TABLE_CAP and
the residue views with them.  invert2_rows, the 2x2 inverse by row reduction
that the matrices module used before its L D U form, is the one reference
here built on public ring ops; it works over any local ring.  Over Z,
which is not local, invert2_scan searches a box of candidate inverses.
kernel_scan_is_invertible and brute_pi_sets are the oracle's invertibility
and pi checks before it counted kernels: scans of all of R^2 on the ring's
filled index tables.  enumerate_idempotents lists every idempotent of M_2(R)
and commute_scan_clean tries them in turn: the clean oracle before it built
the Fitting projection.

fp_mul and fp_rem are the F_p[t] product and remainder as plain loops over
every coefficient; the package's helpers skip zero terms.

companion_route_certificates is how the deciders assembled certificates
over a commutative ring before they built them from A: through the
companion form, whose basis change invert2 inverts.

verify_clean_equations is the clean check before it read the certificate's
structure: the four equations E^2 = E, A = E + U, EU = UE and U invertible
on every certificate, then the diagonalization.

one_minus_t_transform is the substitution t -> 1 - t by which the clean
route once reached the root in 1 + J on the skew rings, by lifting a root in
J of f(1 - t); the tests check it and the root pairs with it.

residue_coprime_euclid and verify_factorization_euclid are the starred
factorization check before it read coprimality off degrees and a 2x2
determinant: an extended Euclid over the residue field on polynomials of any
degree, with the witness values at 0 and 1 taken by left evaluation.

is_nilpotent, right_eval, in_w, companion_matrix and is_unimodular are
helpers that only the tests call.  opposite_map is the anti-isomorphism from
SkewTrunc(F,s,n) onto SkewTrunc(F,m-s,n), the ring's opposite up to
isomorphism, by which the tests compare a skew ring's right-hand questions
with the left-hand ones of the other.  fraction and
FRACTION_OPS are the Z_(p) arithmetic on fractions.Fraction, the reference
for the reduced-pair payload.
"""

import itertools
import operator
from fractions import Fraction
from math import isqrt

from cleanmatrix.bruteforce import _kernel_size, _tables
from cleanmatrix.clean import build_certificate
from cleanmatrix.companion import reduce_to_companion, reduce_to_companion_pi
from cleanmatrix.errors import NotApplicable, NotAUnit
from cleanmatrix.factorization import Poly
from cleanmatrix.matrices import Mat2, diagonalizes, is_invertible, matpow
from cleanmatrix.quadratics import MonicQuadratic, pi_roots, w_roots
from cleanmatrix.rings import Element, galois_field, make_ring


def fp_mul(a, b, p):
    """The F_p[t] product of coefficient tuples, low degree first, by the
    schoolbook loop over every coefficient pair."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def fp_rem(a, f, p):
    """The remainder of a by a monic f, one subtraction of a multiple of f
    per degree above f's."""
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1] % p
        shift = len(a) - 1 - df
        for i in range(df + 1):
            a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _trim([x % p for x in a])


def _trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return tuple(c)


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
        red = fp_rem(fp_mul(x, y, R.p), R.modulus, R.p)
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
    return next(f for f in monics(m) if all(fp_rem(f, g, p) for g in divisors))


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


def invert2_scan(A, entries):
    """The B with entries from `entries` and A B = B A = I, or None.  The
    search is complete when `entries` holds every entry an inverse of A can
    have: over Z, where an inverse is +-adj A, a box symmetric about 0 that
    holds A's entries."""
    I = Mat2.identity(A.ring)
    for b in itertools.product(entries, repeat=4):
        B = Mat2(A.ring, *b)
        if A * B == I and B * A == I:
            return B
    return None


def _oracle_view(A):
    """A's entries and the ring's filled tables, by index, with every vector
    of R^2."""
    tab = A.ring.filled_tables()
    n = tab.size
    vectors = [(x, y) for x in range(n) for y in range(n)]
    return tuple(map(A.ring._index, A.entries())), tab, vectors


def kernel_scan_is_invertible(A):
    """No nonzero kernel vector over the whole finite module R^2."""
    (a, b, c, d), tab, vectors = _oracle_view(A)
    n, mul, add = tab.size, tab.mul, tab.add
    zero = A.ring._index(A.ring.zero)
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
    zero = A.ring._index(A.ring.zero)
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


_IDEMPOTENTS = {}


def idempotent_indices(R):
    """Every idempotent of M_2(R) as an index quadruple on the oracle's
    tables, in sorted order, each checked by E E = E; TooLarge where the
    oracle refuses R.

    Over a local ring each idempotent other than 0 and I is a column u times a
    row phi with phi u = 1: its image is a free direct summand of rank one
    (an idempotent with entries in J is 0), with a generator u unique up to a
    unit on the right.  So exactly one u is (1, a), a in R, or (b, 1), b in J,
    and then phi = (1 - f a, f) or (f, 1 - f b), f in R: every idempotent
    once, 2 + |R|^2 (1 + 1/q) in all (q = |R/J|)."""
    tab = _tables(R)
    key = R.spec_string()
    if key in _IDEMPOTENTS:
        return _IDEMPOTENTS[key]
    n, mul, add, neg = tab.size, tab.mul, tab.add, tab.neg
    zero, one = tab.zero, tab.one
    candidates = [(zero, zero, zero, zero), (one, zero, zero, one)]
    for f in range(n):
        for a in range(n):  # u = (1, a), phi = (1 - f a, f)
            p = add[one * n + neg[mul[f * n + a]]]
            candidates.append((p, f, mul[a * n + p], mul[a * n + f]))
        for b in tab.radical:  # u = (b, 1), phi = (f, 1 - f b)
            p = add[one * n + neg[mul[f * n + b]]]
            candidates.append((mul[b * n + f], mul[b * n + p], f, p))
    found = sorted(set(candidates))
    assert len(found) == len(candidates), "rank-one idempotents repeat"
    for a, b, c, d in found:
        assert (
            add[mul[a * n + a] * n + mul[b * n + c]] == a
            and add[mul[a * n + b] * n + mul[b * n + d]] == b
            and add[mul[c * n + a] * n + mul[d * n + c]] == c
            and add[mul[c * n + b] * n + mul[d * n + d]] == d
        ), "rank-one candidate is not idempotent"
    _IDEMPOTENTS[key] = found
    return found


def enumerate_idempotents(R):
    els = _tables(R).elements
    return [Mat2(R, els[a], els[b], els[c], els[d]) for a, b, c, d in idempotent_indices(R)]


def commute_scan_clean(A):
    """The first idempotent E of enumerate_idempotents that commutes with A
    and leaves A - E invertible, or None."""
    R = A.ring
    tab = _tables(R)
    n, mul, add, neg = tab.size, tab.mul, tab.add, tab.neg
    a, b, c, d = tab.matrix_indices(A)
    for ea, eb, ec, ed in idempotent_indices(R):
        if (
            add[mul[ea * n + a] * n + mul[eb * n + c]]
            != add[mul[a * n + ea] * n + mul[b * n + ec]]
            or add[mul[ea * n + b] * n + mul[eb * n + d]]
            != add[mul[a * n + eb] * n + mul[b * n + ed]]
            or add[mul[ec * n + a] * n + mul[ed * n + c]]
            != add[mul[c * n + ea] * n + mul[d * n + ec]]
            or add[mul[ec * n + b] * n + mul[ed * n + d]]
            != add[mul[c * n + eb] * n + mul[d * n + ed]]
        ):
            continue
        u = (add[a * n + neg[ea]], add[b * n + neg[eb]],
             add[c * n + neg[ec]], add[d * n + neg[ed]])
        if _kernel_size(tab, u) == 1:
            els = tab.elements
            return Mat2(R, els[ea], els[eb], els[ec], els[ed])
    return None


def companion_route_certificates(A):
    """(clean, pi) for A over a commutative local ring, by the companion
    route: reduce_to_companion and w_roots, then build_certificate, for the
    clean certificate; reduce_to_companion_pi and pi_roots, then the
    eigenrow transform (1, ti) P, for the pi one as (t0, t1, P).  Each is
    None where the decider answers otherwise: a trivial or negative clean
    case; an invertible A, an A over J, tr A in J or no root pair for pi."""
    try:
        cf = reduce_to_companion(A)
    except NotApplicable:
        clean = None
    else:
        lam_j, lam_1j, _ = w_roots(cf.f)
        clean = None if lam_j is None else build_certificate(cf, lam_j, lam_1j, A)
    try:
        cf = reduce_to_companion_pi(A)
    except NotApplicable:
        return clean, None
    if A.ring.in_radical(cf.f.a1):
        return clean, None
    t0, t1 = pi_roots(cf.f)
    if t0 is None or t1 is None:
        return clean, None
    return clean, (t0, t1, cf.eigenrow_transform(t0, t1))


def verify_clean_equations(A, cert) -> bool:
    """E^2 = E, A = E + U, EU = UE, U invertible, and for a certificate with a
    diagonalization (t0, t1, P) also P invertible and P A = diag(t0, t1) P.
    Never raises on bad data."""
    try:
        E, U = cert.E, cert.U
        if E.ring is not A.ring or U.ring is not A.ring:
            return False
        if not (
            E * E == E and E + U == A and E * U == U * E and is_invertible(U)
        ):
            return False
        if cert.diag is None:
            return True
        t0, t1, P = cert.diag
        return diagonalizes(P, A, t0, t1)
    except Exception:
        return False


def _poly_zip(F, p, q, op):
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly(F, [op(p.coeff(i), q.coeff(i)) for i in range(n)])


def _scale_left(F, c, p):
    return Poly(F, [F.mul(c, a) for a in p.coeffs])


def _field_divmod(F, num, den):
    lead_inv = F.invert(den.coeffs[-1])
    dd = den.degree()
    rem = list(num.coeffs)
    quo = [F.zero] * max(len(rem) - dd, 1)
    for i in range(len(rem) - 1 - dd, -1, -1):
        c = F.mul(rem[i + dd], lead_inv)
        if c == F.zero:
            continue
        quo[i] = c
        for j, dc in enumerate(den.coeffs):
            rem[i + j] = F.sub(rem[i + j], F.mul(c, dc))
    return Poly(F, quo), Poly(F, rem)


def field_bezout(F, a, b):
    """Extended Euclid in F[t]: (u, v, d) with u a + v b = d, d monic or 0."""
    r0, r1 = a, b
    u0, u1 = Poly.one(F), Poly(F, [])
    v0, v1 = Poly(F, []), Poly.one(F)
    while not r1.is_zero():
        q, rem = _field_divmod(F, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _poly_zip(F, u0, q.mul(u1), F.sub)
        v0, v1 = v1, _poly_zip(F, v0, q.mul(v1), F.sub)
    if r0.is_zero():
        return u0, v0, r0
    lead_inv = F.invert(r0.coeffs[-1])
    return (_scale_left(F, lead_inv, u0), _scale_left(F, lead_inv, v0),
            _scale_left(F, lead_inv, r0))


def residue_coprime_euclid(view, p0, p1) -> bool:
    F = view.field
    a = Poly(F, [view.reduce(c) for c in p0.coeffs])
    b = Poly(F, [view.reduce(c) for c in p1.coeffs])
    u, v, d = field_bezout(F, a, b)
    if d.degree() != 0:
        return False
    return _poly_zip(F, u.mul(a), v.mul(b), F.add) == Poly.one(F)


def _eval_left(p, x):
    R = p.ring
    total, power = R.zero, R.one
    for a in p.coeffs:
        total = R.add(total, R.mul(power, a))
        power = R.mul(power, x)
    return total


def verify_factorization_euclid(f, witness) -> bool:
    R = f.ring
    fp = Poly(R, [f.a0, f.a1, R.one])
    if witness.g0.mul(witness.g1) != fp or witness.h1.mul(witness.h0) != fp:
        return False
    for poly, point in ((witness.g0, R.zero), (witness.g1, R.one),
                        (witness.h0, R.zero), (witness.h1, R.one)):
        if not R.is_unit(_eval_left(poly, point)):
            return False
    if witness.starred:
        view = R.residue_view()
        return (residue_coprime_euclid(view, witness.g0, witness.g1)
                and residue_coprime_euclid(view, witness.h0, witness.h1))
    return True


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


def opposite_map(R, S):
    """psi(sum a_i x^i) = sum sigma^-i(a_i) x^i, from R = SkewTrunc(F,s,n)
    onto S = SkewTrunc(F,m-s,n): S twists by sigma^-1, so psi(a b) =
    psi(b) psi(a), and psi is additive, bijective and keeps 1."""
    F = R.base
    assert S.base is F and S.n == R.n and (R.s + S.s) % F.m == 0

    def psi(a):
        R._guard(a)
        return S.el(tuple(S.sigma(F.el(c), i).payload for i, c in enumerate(a.payload)))

    return psi


def in_w(f) -> bool:
    """Whether f = t^2 + t a1 + a0 lies in W: a0 and 1 + a1 in J."""
    R = f.ring
    return R.in_radical(f.a0) and R.in_radical(R.add(R.one, f.a1))


def one_minus_t_transform(f):
    """g(t) = f(1 - t), expanded with only central scalars moved past t:
    g(t) = t^2 - t (2 + a1) + (1 + a1 + a0).  For f in W, g is again in W,
    and its left roots in J are 1 - (the left roots of f in 1 + J)."""
    R = f.ring
    two = R.add(R.one, R.one)
    g1 = R.neg(R.add(two, f.a1))
    g0 = R.add(R.add(R.one, f.a1), f.a0)
    return MonicQuadratic(R, g1, g0)


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
