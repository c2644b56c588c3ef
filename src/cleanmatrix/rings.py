"""Concrete local rings with exact arithmetic.

Six families, all sharing one element interface:

  Integers              Z              units +-1, no radical (not local; kept for
                                       the integer classifier)
  LocalizedIntegers(p)  Z_(p)          reduced pairs (n, d) for n/d, d prime to p
  ModPrimePower(p, k)   Z/p^k
  GaloisField(p, m)     GF(p^m)        coefficient vectors over F_p
  TruncatedPoly(F, n)   F[y]/(y^n)     F a Galois field
  TruncatedSkew(F,s,n)  F[x; sigma]/(x^n)  with x*a = sigma(a)*x, sigma = Frobenius^s

Z/p^k lives in `modular`, GF(p^m) in `galois` and the truncations in
`truncated`, each imported when make_ring first builds one and importable
from here (PEP 562).
Z and Z_(p) stay here: they define their own add, mul, neg and invert, and
bench/spans.py and tests/test_op_counts.py count those calls on the classes
in this module's namespace.

Every element is an `Element` owning a canonical payload, combined only by its
ring's methods; owners are compared by identity (make_ring caches one ring
object per spec).  Units and the Jacobson radical partition each local ring:
is_unit(a) xor in_radical(a).

Enumeration order is lexicographic on canonical payloads; OnePlusRadical is the
image of Radical's order under j -> 1 + j.  On a finite ring an element's
`idx` is its position in the "All" order: the enumerated elements and every
result above TABLE_CAP carry it, and any other element gets it from its
payload the first time an op reads it (FiniteRing._index), and keeps it.
Rings of more than ENUM_CAP elements refuse enumeration with TooLarge before
building anything: at the cap the "All" tuple already takes about 2 s and
90 MB (Trunc(GF(2),16)), each doubling of the ring doubles both, and every
sweep over it costs at least as much again.
make_ring refuses, with TooLarge, a truncation whose index has more than
TRUNC_BITS_CAP = 4096 bits: n digits of (q - 1).bit_length() bits each over
GF(q), so a length of at most 4096 over GF(2) and 170 over GF(2^24).  Every
op reads an index's n digits, each a division of the whole index, so the
cost grows with n times the index's bits: a decide on [[0,1],[1,1]] in a
fresh interpreter takes 0.4 s on Trunc(GF(2),4096) and 0.15 s on
Trunc(GF(2,24),170), and took 37 s on Trunc(GF(2,24),4096) before the cap.
Routes that must work on larger rings (the pi decider's root lifting and the
companion reduction) enumerate neither the ring nor its residue field.

On the finite families the radical is nilpotent: J^v = 0 for
v = radical_index().

Every ring also has dot(a, b, c, d) = a b + c d, one call for an inner
product: the 2x2 layer forms its products, vector actions and residue
determinants with it.  By default it is add(mul(a, b), mul(c, d)); Z and
Z_(p) compute on payloads and build one Element.

Z/p^k, GF(p^m) and the truncations share FiniteRing's add, neg, mul, dot,
invert, is_unit, in_radical and residue view.  Each first tests inline that
its operands are Elements of the ring and calls _guard, which raises
OwnerMismatch, only when that test fails; is_unit and in_radical of every
local family do the same.  They compute on element indices, which read a
payload as digits, constant term most significant: the residue on Z/p^k,
base-p coefficients on GF(p^m), base-field indices on a truncation.  An
element's residue is one digit of its index, which is also the residue's
index in the residue field: i mod p on Z/p^k, the leading base-q digit
i // q^(n-1) on a truncation over GF(q), i itself on GF(p^m).  reduce, the
constant lift back, is_unit and in_radical all read that digit.  GF(p^m)
multiplies through exp and log tables (see galois), and a truncation
convolves digits by its base field's index ops.  Up to TABLE_CAP elements
the ops answer from flat index tables (IndexTables), one array('H') entry
per operand pair, computed when an op first needs it (filled_tables()
computes all), and they, reduce, lift and the constants of from_int return
the enumerated elements.  A missing mul entry goes through _fill_mul, which
fills that one entry, except on a truncation of characteristic 2, which
fills its whole row at once (see truncated).  A ring above the cap
allocates no index table.
"""

from array import array
from collections import namedtuple
from functools import cached_property
from importlib import import_module
from math import gcd

from .errors import (
    InfiniteRing,
    InvalidSpec,
    NotAUnit,
    NotLocal,
    OwnerMismatch,
    TooLarge,
)

# Largest ring with index tables: two n^2 tables of 2-byte entries, 4 MB at the cap.
TABLE_CAP = 1024
_EMPTY = 0xFFFF  # an entry not computed yet; indices stay below TABLE_CAP
# Largest ring enumerate_elements builds; see the module docstring.
ENUM_CAP = 1 << 16
# Largest Galois field degree make_ring builds.  Finding the modulus of the
# largest admitted fields takes 5 ms for GF(2,24) and about 0.3 s for
# GF(65537,24) and GF(2^31-1,24); the search grows like m^3 log p per
# candidate, so GF(2,256) took 6.7 s.
GF_DEGREE_CAP = 24
# Most bits of a truncation's element index; see the module docstring.
TRUNC_BITS_CAP = 4096

# ---------------------------------------------------------------- ring specs


# Family tag plus parameters; `base` nests the coefficient field spec.  A
# tuple, so equal specs are equal and hash alike: make_ring caches by spec.
RingSpec = namedtuple("RingSpec", "family p k m n s base", defaults=(None,) * 6)


def integers() -> RingSpec:
    return RingSpec("Integers")


def localized_integers(p: int) -> RingSpec:
    return RingSpec("LocalizedIntegers", p=p)


def mod_prime_power(p: int, k: int) -> RingSpec:
    return RingSpec("ModPrimePower", p=p, k=k)


def galois_field(p: int, m: int) -> RingSpec:
    return RingSpec("GaloisField", p=p, m=m)


def truncated_poly(base: RingSpec, n: int) -> RingSpec:
    return RingSpec("TruncatedPoly", n=n, base=base)


def truncated_skew(base: RingSpec, s: int, n: int) -> RingSpec:
    return RingSpec("TruncatedSkew", n=n, s=s, base=base)


# Miller-Rabin to the prime bases 2-41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; InvalidSpec at or above _PRIME_BOUND."""
    if n >= _PRIME_BOUND:
        raise InvalidSpec(f"primes are recognised only below {_PRIME_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n <= bases[-1]:
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RING_CACHE = {}
# the family classes defined outside this module, by defining module
_FAMILY_MODULES = {
    "ModPrimePowerRing": "modular",
    "GaloisFieldRing": "galois",
    "TruncatedRing": "truncated",
}


def __getattr__(name):
    mod = _FAMILY_MODULES.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __package__), name)


def make_ring(spec: RingSpec):
    """Build (or fetch the cached) ring for a spec; raises InvalidSpec."""
    cached = _RING_CACHE.get(spec)
    if cached is not None:
        return cached
    fam = spec.family
    if fam == "Integers":
        ring = IntegerRing(spec)
    elif fam == "LocalizedIntegers":
        if not _is_prime(spec.p or 0):
            raise InvalidSpec(f"Zloc needs a prime, got {spec.p}")
        ring = LocalizedIntegersRing(spec)
    elif fam == "ModPrimePower":
        if not _is_prime(spec.p or 0):
            raise InvalidSpec(f"Zmod needs a prime, got {spec.p}")
        if not spec.k or spec.k < 1:
            raise InvalidSpec(f"Zmod exponent must be >= 1, got {spec.k}")
        from .modular import ModPrimePowerRing

        ring = ModPrimePowerRing(spec)
    elif fam == "GaloisField":
        if not _is_prime(spec.p or 0):
            raise InvalidSpec(f"GF needs a prime, got {spec.p}")
        if not spec.m or spec.m < 1:
            raise InvalidSpec(f"GF degree must be >= 1, got {spec.m}")
        if spec.m > GF_DEGREE_CAP:
            raise TooLarge(f"GF degree {spec.m} is above the cap {GF_DEGREE_CAP}")
        from .galois import GaloisFieldRing

        ring = GaloisFieldRing(spec)
    elif fam in ("TruncatedPoly", "TruncatedSkew"):
        if spec.base is None or spec.base.family != "GaloisField":
            raise InvalidSpec("truncation base must be a Galois field")
        if not spec.n or spec.n < 1:
            raise InvalidSpec(f"truncation length must be >= 1, got {spec.n}")
        base = make_ring(spec.base)
        cap = TRUNC_BITS_CAP // (base.size() - 1).bit_length()
        if spec.n > cap:
            raise TooLarge(
                f"truncation length {spec.n} is above the cap {cap} "
                f"over {base.spec_string()}"
            )
        s = spec.s or 0
        if fam == "TruncatedSkew":
            if spec.s is None or spec.s < 0 or spec.s >= base.m:
                raise InvalidSpec(f"twist power must satisfy 0 <= s < {base.m}")
        from .truncated import TruncatedRing

        ring = TruncatedRing(spec, base, s)
    else:
        raise InvalidSpec(f"unknown ring family {fam!r}")
    _RING_CACHE[spec] = ring
    return ring


# ---------------------------------------------------------------- elements


class Element:
    """One ring element: an owner plus a canonical payload.

    On the finite families `idx` is the element's position in the owner's
    "All" enumeration, or None until FiniteRing._index first computes it from
    the payload; it is then kept.  It stays None on Z and Z_(p).  Arithmetic
    goes through the owner's methods (R.add(a, b)); the one operator is
    a ** e, by the owner's mul."""

    __slots__ = ("ring", "payload", "idx")

    def __init__(self, ring, payload, idx=None):
        self.ring = ring
        self.payload = payload
        self.idx = idx

    def __pow__(self, e):
        """Square and multiply, with no product by one and no square unused."""
        assert isinstance(e, int) and e >= 0
        mul = self.ring.mul
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else mul(out, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return self.ring.one if out is None else out

    def __eq__(self, other):
        if type(other) is not Element:
            return NotImplemented
        return other.ring is self.ring and other.payload == self.payload

    def __hash__(self):
        return hash((id(self.ring), self.payload))

    def __repr__(self):
        return f"<{self.ring.spec_string()}: {self.ring.format_element(self)}>"

    def __str__(self):
        return self.ring.format_element(self)


# Reduction onto the residue field and a fixed set-theoretic lift back.
ResidueView = namedtuple("ResidueView", "field reduce lift")


class IndexTables:
    """Operation tables of one finite ring, by "All" enumeration index.

    With n elements, add[i*n + j] and mul[i*n + j] index e_i + e_j and e_i e_j,
    neg[i] and inv[i] index -e_i and e_i^-1, and _EMPTY marks an entry not yet
    computed (inv keeps it for non-units).  The owning ring numbers operands
    (FiniteRing._index) and fills a missing entry with its index op.
    """

    __slots__ = ("elements", "size", "add", "mul", "neg", "inv")

    def __init__(self, elements):
        n = len(elements)
        self.elements = elements
        self.size = n
        self.add = array("H", [_EMPTY]) * (n * n)
        self.mul = array("H", [_EMPTY]) * (n * n)
        self.neg = array("H", [_EMPTY]) * n
        self.inv = array("H", [_EMPTY]) * n


# ---------------------------------------------------------------- base class


class LocalRing:
    """Common element interface; generic algorithms only call its methods.
    Each family adds el, from_int, add, neg, mul, invert, is_unit, in_radical,
    spec_string, format_element and _make_residue_view (or residue_view)."""

    family = None
    is_finite = False
    is_commutative = True

    def __init__(self, spec):
        self.spec = spec
        self._enum_cache = {}
        self._residue = None

    def _guard(self, *els):
        for a in els:
            if not isinstance(a, Element) or a.ring is not self:
                raise OwnerMismatch(
                    f"operand does not belong to {self.spec_string()}"
                )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def dot(self, a, b, c, d):
        """a b + c d."""
        return self.add(self.mul(a, b), self.mul(c, d))

    def residue_view(self) -> ResidueView:
        """Reduction onto the residue field and back, built once per ring."""
        if self._residue is None:
            self._residue = self._make_residue_view()
        return self._residue

    def radical_index(self):
        """Smallest v with J^v = 0, or None when J is not nilpotent."""
        return None

    def size(self):
        return None

    def size_text(self) -> str:
        """A finite ring's element count as p^e (each is a power of its
        residue characteristic), short where the decimal count is not."""
        p, n, e = self.residue_view().field.p, self.size(), 0
        while n > 1:
            n //= p
            e += 1
        return f"{p}^{e}"

    def enumerable_size(self):
        """The element count, or TooLarge above ENUM_CAP: the one test of the
        cap, made by every complete scan before it builds anything."""
        n = self.size()
        if n > ENUM_CAP:
            raise TooLarge(
                f"{self.spec_string()} has {self.size_text()} elements; "
                f"enumeration stops at {ENUM_CAP}"
            )
        return n

    def enumerate_elements(self, subset="All"):
        """Deterministic tuple of elements: All, Units, Radical, OnePlusRadical."""
        if not self.is_finite:
            raise InfiniteRing(f"{self.spec_string()} is infinite")
        got = self._enum_cache.get(subset)
        if got is not None:
            return got
        if subset == "All":
            n = self.enumerable_size()
            out = tuple(Element(self, self._pl(k), k) for k in range(n))
        elif subset == "Units":
            out = tuple(a for a in self.enumerate_elements("All") if self.is_unit(a))
        elif subset == "Radical":
            out = tuple(
                a for a in self.enumerate_elements("All") if self.in_radical(a)
            )
        elif subset == "OnePlusRadical":
            one = self.one
            out = tuple(self.add(one, j) for j in self.enumerate_elements("Radical"))
        else:
            raise ValueError(f"unknown subset {subset!r}")
        self._enum_cache[subset] = out
        return out

    def __repr__(self):
        return f"<ring {self.spec_string()}>"


# ---------------------------------------------------------------- Z and Z_(p)


class IntegerRing(LocalRing):
    family = "Integers"

    def __init__(self, spec):
        super().__init__(spec)
        self.zero = Element(self, 0)
        self.one = Element(self, 1)

    def el(self, payload):
        if not isinstance(payload, int):
            raise ValueError(f"integer payload expected, got {payload!r}")
        return Element(self, payload)

    def from_int(self, v):
        return Element(self, v)

    def add(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        return Element(self, a.payload + b.payload)

    def neg(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return Element(self, -a.payload)

    def mul(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        return Element(self, a.payload * b.payload)

    def dot(self, a, b, c, d):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self
                and type(c) is Element and c.ring is self
                and type(d) is Element and d.ring is self):
            self._guard(a, b, c, d)
        return Element(self, a.payload * b.payload + c.payload * d.payload)

    def is_unit(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload in (1, -1)

    def in_radical(self, a):
        raise NotLocal("Z is not local; it has no radical")

    def invert(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        if a.payload in (1, -1):
            return a
        raise NotAUnit(f"{a.payload} is not invertible in Z")

    def residue_view(self):
        raise NotLocal("Z has no residue field; it is not local")

    def ratio(self, a):
        """(n, d) in lowest terms with a = n/d and d > 0; here (a, 1)."""
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload, 1

    def spec_string(self):
        return "Z"

    def format_element(self, a):
        try:
            return str(a.payload)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise TooLarge(
                f"an element of {self.spec_string()} has too many digits to print"
            ) from None


class LocalizedIntegersRing(LocalRing):
    """Z_(p).  The payload is a reduced pair (n, d) for n/d: d > 0, gcd(n, d)
    = 1 and d prime to p.  frac (and el through it) reduces its input; the
    ops compute on pairs and reduce with one gcd."""

    family = "LocalizedIntegers"

    def __init__(self, spec):
        super().__init__(spec)
        self.p = spec.p
        self.zero = Element(self, (0, 1))
        self.one = Element(self, (1, 1))

    def el(self, payload):
        """The element of an int or a Fraction (any rational with numerator
        and denominator)."""
        try:
            n, d = payload.numerator, payload.denominator
        except AttributeError:
            raise ValueError(f"rational payload expected, got {payload!r}") from None
        return self.frac(n, d)

    def frac(self, n, d):
        """n/d for integers n and d != 0; ValueError when p divides the
        reduced denominator."""
        g = gcd(n, d)
        if d < 0:
            g = -g
        n, d = n // g, d // g
        if d % self.p == 0:
            raise ValueError(
                f"{n}/{d} has denominator divisible by {self.p}; "
                f"not an element of {self.spec_string()}"
            )
        return Element(self, (n, d))

    def from_int(self, v):
        return Element(self, (v, 1))

    def ratio(self, a):
        """(n, d) in lowest terms with a = n/d and d > 0: the payload."""
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload

    def add(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        (n, d), (m, e) = a.payload, b.payload
        if d == e:
            n += m
        else:
            n, d = n * e + m * d, d * e
        g = gcd(n, d)
        return Element(self, (n // g, d // g))

    def neg(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        n, d = a.payload
        return Element(self, (-n, d))

    def mul(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        (n, d), (m, e) = a.payload, b.payload
        n, d = n * m, d * e
        g = gcd(n, d)
        return Element(self, (n // g, d // g))

    def dot(self, a, b, c, d):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self
                and type(c) is Element and c.ring is self
                and type(d) is Element and d.ring is self):
            self._guard(a, b, c, d)
        (an, ad), (bn, bd) = a.payload, b.payload
        (cn, cd), (dn, dd) = c.payload, d.payload
        x, y = ad * bd, cd * dd
        n, d = an * bn * y + cn * dn * x, x * y
        g = gcd(n, d)
        return Element(self, (n // g, d // g))

    def is_unit(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload[0] % self.p != 0

    def in_radical(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload[0] % self.p == 0

    def invert(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        n, d = a.payload
        if n % self.p == 0:
            raise NotAUnit(
                f"{self.format_element(a)} is not a unit in {self.spec_string()}"
            )
        return Element(self, (-d, -n) if n < 0 else (d, n))

    def _make_residue_view(self):
        field = make_ring(galois_field(self.p, 1))
        p = self.p

        def reduce_fn(a):
            if not (type(a) is Element and a.ring is self):
                self._guard(a)
            n, d = a.payload
            return field.element_at(n * pow(d, -1, p) % p)

        def lift_fn(c):
            field._guard(c)
            return Element(self, (c.payload[0], 1))

        return ResidueView(field, reduce_fn, lift_fn)

    def spec_string(self):
        return f"Zloc({self.p})"

    def format_element(self, a):
        """n, or n/d when d > 1: the text of the equal Fraction."""
        n, d = a.payload
        try:
            return str(n) if d == 1 else f"{n}/{d}"
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise TooLarge(
                f"an element of {self.spec_string()} has too many digits to print"
            ) from None


# ---------------------------------------------------------------- finite rings


class FiniteRing(LocalRing):
    """Z/p^k, GF(p^m) and the truncations: one set of public ops over each
    subclass's index arithmetic _add_ix, _neg_ix, _mul_ix and _inv_ix, its
    numbering _ix (payload to index) and _pl (index to payload), and its
    residue rule: an element's residue is the digit of its index at place
    value _res_place in radix _res_radix, and that digit is the residue's
    index in _field, the residue field.  See the module docstring.  The
    default numbering is Z/p^k's, the residue itself.  mul and dot send each
    missing mul entry through _fill_mul, which a subclass may override to
    fill more of the table at once."""

    is_finite = True

    def _ix(self, payload):
        return payload

    def _pl(self, k):
        return k

    @cached_property
    def _tables(self):
        """IndexTables when the ring has at most TABLE_CAP elements, else None."""
        if self.size() > TABLE_CAP:
            return None
        return IndexTables(self.enumerate_elements("All"))

    def enumerate_elements(self, subset="All"):
        # a field (Z/p, GF) has J = {0}: its radical and 1 + J need no "All"
        # tuple, so no cap
        if self.radical_index() == 1:
            if subset == "Radical":
                return (self.zero,)
            if subset == "OnePlusRadical":
                return (self.one,)
        return super().enumerate_elements(subset)

    def element_at(self, k):
        """The k-th element of the "All" order: the enumerated one when the
        ring has index tables, else built from k alone."""
        if not 0 <= k < self.size():
            raise IndexError(f"{self.spec_string()} has no element number {k}")
        t = self._tables
        return Element(self, self._pl(k), k) if t is None else t.elements[k]

    def _index(self, a):
        """a's index in the "All" order, the one numbering rule: a.idx, else
        _ix of its payload, kept in a.idx.  The ops read a.idx inline first."""
        i = a.idx
        if i is None:
            i = a.idx = self._ix(a.payload)
        return i

    def _direct(self, op, *els):
        """op on the operands' indices, above TABLE_CAP; the result keeps the
        index op returned."""
        k = op(*map(self._index, els))
        return Element(self, self._pl(k), k)

    def filled_tables(self) -> IndexTables:
        """The index tables with every entry computed; TooLarge above TABLE_CAP."""
        t = self._tables
        if t is None:
            raise TooLarge(
                f"{self.spec_string()} has no index tables (cap {TABLE_CAP} elements)"
            )
        for a in t.elements:
            self.neg(a)
            if self.is_unit(a):
                self.invert(a)
            for b in t.elements:
                self.add(a, b)
                self.mul(a, b)
        return t

    def add(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        t = self._tables
        if t is None:
            return self._direct(self._add_ix, a, b)
        i, j = a.idx, b.idx
        if i is None or j is None:
            i, j = self._index(a), self._index(b)
        at = i * t.size + j
        k = t.add[at]
        if k == _EMPTY:
            k = t.add[at] = self._add_ix(i, j)
        return t.elements[k]

    def mul(self, a, b):
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self):
            self._guard(a, b)
        t = self._tables
        if t is None:
            return self._direct(self._mul_ix, a, b)
        i, j = a.idx, b.idx
        if i is None or j is None:
            i, j = self._index(a), self._index(b)
        k = t.mul[i * t.size + j]
        if k == _EMPTY:
            k = self._fill_mul(t, i, j)
        return t.elements[k]

    def _fill_mul(self, t, i, j):
        """Fill the missing mul entry of e_i e_j in the tables t and return it:
        this entry alone, by _mul_ix."""
        k = t.mul[i * t.size + j] = self._mul_ix(i, j)
        return k

    def dot(self, a, b, c, d):
        """a b + c d: two mul entries and one add entry, filled as mul and
        add fill them."""
        if not (type(a) is Element and a.ring is self
                and type(b) is Element and b.ring is self
                and type(c) is Element and c.ring is self
                and type(d) is Element and d.ring is self):
            self._guard(a, b, c, d)
        t = self._tables
        if t is None:
            return super().dot(a, b, c, d)
        i, j, u, v = a.idx, b.idx, c.idx, d.idx
        if i is None or j is None or u is None or v is None:
            i, j, u, v = map(self._index, (a, b, c, d))
        n, mul = t.size, t.mul
        x = mul[i * n + j]
        if x == _EMPTY:
            x = self._fill_mul(t, i, j)
        y = mul[u * n + v]
        if y == _EMPTY:
            y = self._fill_mul(t, u, v)
        at = x * n + y
        z = t.add[at]
        if z == _EMPTY:
            z = t.add[at] = self._add_ix(x, y)
        return t.elements[z]

    def neg(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        t = self._tables
        if t is None:
            return self._direct(self._neg_ix, a)
        i = a.idx
        if i is None:
            i = self._index(a)
        k = t.neg[i]
        if k == _EMPTY:
            k = t.neg[i] = self._neg_ix(i)
        return t.elements[k]

    def invert(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        t = self._tables
        if t is None:
            return self._direct(self._inv_ix, a)
        i = a.idx
        if i is None:
            i = self._index(a)
        k = t.inv[i]
        if k == _EMPTY:  # _inv_ix raises NotAUnit for a non-unit
            k = t.inv[i] = self._inv_ix(i)
        return t.elements[k]

    def is_unit(self, a):
        """Whether a's residue digit (see _make_residue_view) is not 0."""
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        i = a.idx
        if i is None:
            i = self._index(a)
        return i // self._res_place % self._res_radix != 0

    def in_radical(self, a):
        return not self.is_unit(a)

    def _make_residue_view(self):
        """reduce reads the residue digit of an element's index, the residue's
        index in _field; lift makes the constant with a given digit.  Both
        answer with element_at, the enumerated elements where there are tables.
        reduce inlines the digit like is_unit: it is the hottest call here."""
        F, place, radix = self._field, self._res_place, self._res_radix
        els = None if F._tables is None else F._tables.elements

        def reduce(a):
            if not (type(a) is Element and a.ring is self):
                self._guard(a)
            i = a.idx
            if i is None:
                i = self._index(a)
            k = i // place % radix
            return F.element_at(k) if els is None else els[k]

        def lift(c):
            if not (type(c) is Element and c.ring is F):
                F._guard(c)
            return self.element_at(F._index(c) * place)

        return ResidueView(F, reduce, lift)
