"""GF(p^m), with the F_p[t] helpers and the index digit helpers that the
truncations share.

The modulus is the library's fixed choice: the first irreducible monic of
degree m found in base-p counting order of the coefficient vector (constant
digit least significant).  GF(4): t^2+t+1; GF(8): t^3+t+1; GF(9): t^2+1.
Products go through exp and log tables of a primitive element up to
TABLE_CAP elements (Lidl and Niederreiter, Finite Fields, ch. 9), and
through polynomials above.
"""

from functools import cached_property

from .errors import InternalContractViolation, InvalidSpec, NotAUnit
from .rings import TABLE_CAP, Element, FiniteRing


def _digits(k, radix, places):
    """The base-radix digits of k at these place values, most significant first."""
    return [k // w % radix for w in places]


def _fold(digits, radix):
    """The number with these base-radix digits, most significant first."""
    k = 0
    for d in digits:
        k = k * radix + d
    return k


def _digit_sum(i, j, p, c=1):
    """e_i + c e_j where indices list base-p coefficients: digit by digit
    (x + c y) mod p, with no carry; an exclusive or in characteristic 2."""
    if p == 2:
        return i ^ j
    k, w = 0, 1
    while i or j:
        i, x = divmod(i, p)
        j, y = divmod(j, p)
        k += (x + c * y) % p * w
        w *= p
    return k


# F_p[t] helpers on coefficient tuples, low degree first, no trailing zeros.


def _fp_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(tuple(out))


def _fp_rem(a, f, p):
    # remainder of a by monic f
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _fp_trim(tuple(x % p for x in a))


def _fp_gcd(a, b, p):
    a, b = _fp_trim(tuple(a)), _fp_trim(tuple(b))
    while b:
        inv = pow(b[-1], -1, p)
        bm = tuple((x * inv) % p for x in b)
        a, b = b, _fp_rem(a, bm, p)
    return a


def _fp_powmod(a, e, f, p, out=(1,)):
    # out a^e mod f, by square and multiply
    while e:
        if e & 1:
            out = _fp_rem(_fp_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _fp_rem(_fp_mul(a, a, p), f, p)
    return out


def _fp_is_irreducible(f, p):
    # Ben-Or: f of degree m has no factor of degree i <= m/2 iff
    # gcd(t^(p^i) - t, f) = 1 for each such i
    x = (0, 1)
    for _ in range((len(f) - 1) // 2):
        x = _fp_powmod(x, p, f, p)
        d = list(x) + [0] * (2 - len(x))
        d[1] = (d[1] - 1) % p
        if len(_fp_gcd(d, f, p)) > 1:
            return False
    return True


def _find_modulus(p, m):
    """First irreducible monic of degree m, counting coefficient vectors base p.

    The first p candidates are the binomials t^m + c.  For m >= 2, t^m - a
    with a != 0 is irreducible iff every prime r dividing m divides p - 1 and
    a is no r-th power, and p = 1 mod 4 when 4 divides m (Lidl and
    Niederreiter, Finite Fields, Theorem 3.75).  That test settles them, so a
    large p whose binomials are all reducible is not scanned through."""
    start = 0
    if m > 1:
        rs = [r for r in range(2, m + 1)
              if m % r == 0 and all(r % d for d in range(2, r))]  # primes r | m
        if all((p - 1) % r == 0 for r in rs) and (m % 4 or p % 4 == 1):
            for c in range(1, p):
                if all(pow(-c % p, (p - 1) // r, p) != 1 for r in rs):
                    return (c,) + (0,) * (m - 1) + (1,)
        start = p
    for idx in range(start, p**m):
        coeffs = tuple((idx // p**i) % p for i in range(m)) + (1,)
        if _fp_is_irreducible(coeffs, p):
            return coeffs
    raise InvalidSpec(f"no irreducible of degree {m} over F_{p}")  # unreachable


class GaloisFieldRing(FiniteRing):
    family = "GaloisField"

    def __init__(self, spec):
        super().__init__(spec)
        self.p, self.m = spec.p, spec.m
        # for m = 1 the modulus is t, and reducing a product by it keeps its constant
        self.modulus = _find_modulus(spec.p, spec.m)
        self._places = [spec.p**e for e in range(spec.m - 1, -1, -1)]
        self._one_ix = self._places[0]
        self._powers = {}
        # its own residue field: the whole index is the digit
        self._field, self._res_place, self._res_radix = self, 1, spec.p**spec.m
        self.zero = Element(self, (0,) * self.m)
        self.one = Element(self, (1 % self.p,) + (0,) * (self.m - 1))

    def el(self, payload):
        payload = tuple(int(c) % self.p for c in payload)
        if len(payload) != self.m:
            raise ValueError(f"coefficient vector of length {self.m} expected")
        return Element(self, payload)

    def from_int(self, v):
        """The constant v: the enumerated element where there are tables."""
        t = self._tables
        if t is None:
            return Element(self, (v % self.p,) + (0,) * (self.m - 1))
        return t.elements[v % self.p * self._one_ix]

    def enumerate_elements(self, subset="All"):
        # J = {0}: the radical and 1 + J need no "All" tuple
        if subset == "Radical":
            return (self.zero,)
        if subset == "OnePlusRadical":
            return (self.one,)
        return super().enumerate_elements(subset)

    def generator(self):
        if self.m < 2:
            raise ValueError(f"{self.spec_string()} has no generator w")
        return Element(self, (0, 1) + (0,) * (self.m - 2))

    def _ix(self, payload):
        return _fold(payload, self.p)

    def _pl(self, k):
        return tuple(_digits(k, self.p, self._places))

    def _add_ix(self, i, j):
        return _digit_sum(i, j, self.p)

    def _neg_ix(self, i):
        return _digit_sum(0, i, self.p, -1)

    def _mul_ix(self, i, j, e=1):
        """Index of e_i e_j^e, e >= 1: one lookup in the log tables.  Above
        TABLE_CAP, polynomial products, with e_j^e memoised for e > 1: those
        are Frobenius powers, which a skew truncation's twists repeat."""
        logs = self._logs
        if logs is None:
            if e > 1:
                key = (j, e)
                if key not in self._powers:
                    self._powers[key] = self._poly_mul_ix(self._one_ix, j, e)
                j = self._powers[key]
            return self._poly_mul_ix(i, j)
        if not (i and j):
            return 0
        exp, log = logs
        return exp[(log[i] + log[j] * e) % len(exp)]

    def _inv_ix(self, i):
        if not i:
            raise NotAUnit(f"0 is not a unit in {self.spec_string()}")
        logs = self._logs
        if logs is None:  # a^(q-2) = a^-1
            return self._poly_mul_ix(self._one_ix, i, self.size() - 2)
        exp, log = logs
        return exp[-log[i] % len(exp)]

    def _poly_mul_ix(self, i, j, e=1):
        p = self.p
        red = _fp_powmod(self._pl(j), e, self.modulus, p, self._pl(i))
        return _fold(red + (0,) * (self.m - len(red)), p)

    @cached_property
    def _logs(self):
        """(exp, log), None above TABLE_CAP: exp[k] indexes g^k for the first
        primitive g in index order, and log inverts exp on the units.  Each
        candidate g costs at most q - 1 polynomial products."""
        q = self.size()
        if q > TABLE_CAP:
            return None
        one = self._one_ix
        for g in range(1, q):
            exp, x = [one], self._poly_mul_ix(one, g)
            while x != one and len(exp) < q:  # the bound stops a zero divisor
                exp.append(x)
                x = self._poly_mul_ix(x, g)
            if len(exp) == q - 1 and x == one:
                log = [0] * q
                for k, x in enumerate(exp):
                    log[x] = k
                return exp, log
        raise InternalContractViolation(f"{self.modulus} is reducible over F_{self.p}")

    def frobenius(self, a, power=1):
        """a -> a^(p^power), the field automorphism fixing F_p."""
        self._guard(a)
        e = self.p ** (power % self.m)
        return self.element_at(self._mul_ix(self._one_ix, self._ix(a.payload), e))

    def radical_index(self):
        return 1

    def size(self):
        return self.p**self.m

    def spec_string(self):
        return f"GF({self.p},{self.m})"

    def format_element(self, a):
        return _format_poly(a.payload, "w", lambda c: str(c), lambda c: c == 0,
                            lambda c: c == 1)


def _format_poly(coeffs, var, fmt, is_zero, is_one):
    terms = []
    for i, c in enumerate(coeffs):
        if is_zero(c):
            continue
        if i == 0:
            terms.append(fmt(c))
            continue
        power = var if i == 1 else f"{var}^{i}"
        if is_one(c):
            terms.append(power)
        else:
            body = fmt(c)
            if "+" in body or "-" in body[1:]:
                body = f"({body})"
            terms.append(f"{body}*{power}")
    return "+".join(terms) if terms else "0"
