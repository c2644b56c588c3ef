"""Element-level arithmetic of the finite rings, the reference for the index route.

These are the products the rings computed before they worked on element
indices: each builds a fresh Element from payloads, coefficient by
coefficient, and touches no index table, no log table and no public ring op.
The tests compare the index tables and the direct products above TABLE_CAP
with them.
"""

from cleanmatrix.errors import NotAUnit
from cleanmatrix.rings import Element, _fp_mul, _fp_rem


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
    if R.in_radical(a):
        raise NotAUnit(f"{a} is not a unit")
    if R.family == "ModPrimePower":
        return Element(R, pow(a.payload, -1, R.modulus))
    units = R.size() - R.size() // R.residue_view().field.size()
    return Element(R, _pow(R, a.payload, units - 1))


def first_irreducible(p, m):
    """The first monic of degree m, counting its lower coefficients in base p
    (constant digit least significant), that no monic of degree 1 to m/2
    divides: the modulus rule of the rings module, by trial division."""

    def monics(d):
        for k in range(p**d):
            yield tuple(k // p**i % p for i in range(d)) + (1,)

    divisors = [g for d in range(1, m // 2 + 1) for g in monics(d)]
    return next(f for f in monics(m) if all(_fp_rem(f, g, p) for g in divisors))
