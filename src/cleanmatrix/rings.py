"""Concrete local rings with exact arithmetic.

Six families, all sharing one element interface:

  Integers              Z              (not local; kept for the integer classifier)
  LocalizedIntegers(p)  Z_(p)          fractions with denominator coprime to p
  ModPrimePower(p, k)   Z/p^k
  GaloisField(p, m)     GF(p^m)        coefficient vectors over F_p
  TruncatedPoly(F, n)   F[y]/(y^n)     F a Galois field
  TruncatedSkew(F,s,n)  F[x; sigma]/(x^n)  with x*a = sigma(a)*x, sigma = Frobenius^s

Every element is an `Element` owning a canonical payload; owners are compared by
identity (make_ring caches one ring object per spec).  Units and the Jacobson
radical partition each local ring: is_unit(a) xor in_radical(a).

The Galois field modulus is the library's fixed choice: the first irreducible
monic of degree m found in base-p counting order of the coefficient vector
(constant digit least significant).  GF(4): t^2+t+1; GF(8): t^3+t+1; GF(9): t^2+1.

Enumeration order is lexicographic on canonical payloads; OnePlusRadical is the
image of Radical's order under j -> 1 + j.  An element of the "All" enumeration
carries its position there as `idx`.  Rings of more than ENUM_CAP elements
refuse enumeration with TooLarge before building anything: at the cap the
"All" tuple already takes about 2 s and 90 MB (Trunc(GF(2),16)), each doubling
of the ring doubles both, and every sweep over it costs at least as much again.
Routes that must work on larger rings (the pi decider's root lifting and the
companion reduction) enumerate neither the ring nor its residue field.

On the finite families the radical is nilpotent: J^v = 0 for
v = radical_index().

Z/p^k, GF(p^m) and the truncations share FiniteRing's add, neg, mul, invert,
is_unit, in_radical and residue view.  Each first tests inline that its
operands are Elements of the ring and calls _guard, which raises
OwnerMismatch, only when that test fails; is_unit and in_radical of every
local family do the same.  They compute on element indices, which read a
payload as digits, constant term most significant: the residue on Z/p^k,
base-p coefficients on GF(p^m), base-field indices on a truncation.  An
element's residue is one digit of its index, which is also the residue's
index in the residue field: i mod p on Z/p^k, the leading base-q digit
i // q^(n-1) on a truncation over GF(q), i itself on GF(p^m).  reduce, the
constant lift back, is_unit and in_radical all read that digit.  GF(p^m)
multiplies through exp and log tables of a primitive element up to TABLE_CAP
elements (Lidl and Niederreiter, Finite Fields, ch. 9) and by polynomials
above; a truncation convolves digits by its base field's index ops.  Up to
TABLE_CAP elements the ops answer from flat index tables (IndexTables), one
array('H') entry per operand pair, filled on first lookup (filled_tables()
fills all), and they, reduce and lift return the enumerated elements.  A ring
above the cap allocates no index table.
"""

from array import array
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import (
    InfiniteRing,
    InternalContractViolation,
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
        ring = ModPrimePowerRing(spec)
    elif fam == "GaloisField":
        if not _is_prime(spec.p or 0):
            raise InvalidSpec(f"GF needs a prime, got {spec.p}")
        if not spec.m or spec.m < 1:
            raise InvalidSpec(f"GF degree must be >= 1, got {spec.m}")
        ring = GaloisFieldRing(spec)
    elif fam in ("TruncatedPoly", "TruncatedSkew"):
        if spec.base is None or spec.base.family != "GaloisField":
            raise InvalidSpec("truncation base must be a Galois field")
        if not spec.n or spec.n < 1:
            raise InvalidSpec(f"truncation length must be >= 1, got {spec.n}")
        base = make_ring(spec.base)
        s = spec.s or 0
        if fam == "TruncatedSkew":
            if spec.s is None or spec.s < 0 or spec.s >= base.m:
                raise InvalidSpec(f"twist power must satisfy 0 <= s < {base.m}")
        ring = TruncatedRing(spec, base, s)
    else:
        raise InvalidSpec(f"unknown ring family {fam!r}")
    _RING_CACHE[spec] = ring
    return ring


# ---------------------------------------------------------------- elements


class Element:
    """One ring element: an owner plus a canonical payload.

    `idx` is the element's position in the owner's "All" enumeration, or None
    until an index table has looked it up."""

    __slots__ = ("ring", "payload", "idx")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload
        self.idx = None

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.ring is not self.ring:
                raise OwnerMismatch(
                    f"elements of {self.ring.spec_string()} and "
                    f"{other.ring.spec_string()} cannot be combined"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.sub(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.sub(other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.mul(self, other)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.mul(other, self)

    def __neg__(self):
        return self.ring.neg(self)

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
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Element):
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
    computed (inv keeps it for non-units).  The owning ring fills a missing
    entry with its index op.
    """

    __slots__ = ("elements", "size", "index", "add", "mul", "neg", "inv")

    def __init__(self, elements):
        n = len(elements)
        self.elements = elements
        self.size = n
        self.index = {a.payload: i for i, a in enumerate(elements)}
        self.add = array("H", [_EMPTY]) * (n * n)
        self.mul = array("H", [_EMPTY]) * (n * n)
        self.neg = array("H", [_EMPTY]) * n
        self.inv = array("H", [_EMPTY]) * n

    def index_of(self, a):
        i = a.idx
        if i is None:
            i = a.idx = self.index[a.payload]
        return i

    def transposed(self):
        """The opposite ring's tables: these, with mul transposed."""
        n = self.size
        out = IndexTables.__new__(IndexTables)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.mul = array("H", (self.mul[j * n + i] for i in range(n) for j in range(n)))
        return out


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
        self._opposite = None
        self._residue = None
        # the owner of this ring's elements; an opposite ring names its base
        self.element_ring = self

    def _guard(self, *els):
        owner = self.element_ring
        for a in els:
            if not isinstance(a, Element) or a.ring is not owner:
                raise OwnerMismatch(
                    f"operand does not belong to {self.spec_string()}"
                )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

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

    def enumerate_elements(self, subset="All"):
        """Deterministic tuple of elements: All, Units, Radical, OnePlusRadical."""
        if not self.is_finite:
            raise InfiniteRing(f"{self.spec_string()} is infinite")
        got = self._enum_cache.get(subset)
        if got is not None:
            return got
        if subset == "All":
            n = self.size()
            if n > ENUM_CAP:
                raise TooLarge(
                    f"{self.spec_string()} has {self.size_text()} elements; "
                    f"enumeration stops at {ENUM_CAP}"
                )
            out = tuple(Element(self, self._pl(k)) for k in range(n))
            for i, a in enumerate(out):
                a.idx = i
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

    def opposite(self):
        """The opposite ring: same elements, multiplication reversed."""
        if self._opposite is None:
            self._opposite = OppositeRing(self)
        return self._opposite

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
        self._guard(a, b)
        return Element(self, a.payload + b.payload)

    def neg(self, a):
        self._guard(a)
        return Element(self, -a.payload)

    def mul(self, a, b):
        self._guard(a, b)
        return Element(self, a.payload * b.payload)

    def is_unit(self, a):
        raise NotLocal("Z is not local; unit/radical tests need a local ring")

    def in_radical(self, a):
        raise NotLocal("Z is not local; unit/radical tests need a local ring")

    def invert(self, a):
        self._guard(a)
        if a.payload in (1, -1):
            return a
        raise NotAUnit(f"{a.payload} is not invertible in Z")

    def residue_view(self):
        raise NotLocal("Z has no residue field; it is not local")

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
    family = "LocalizedIntegers"

    def __init__(self, spec):
        super().__init__(spec)
        self.p = spec.p
        self.zero = Element(self, Fraction(0))
        self.one = Element(self, Fraction(1))

    def el(self, payload):
        payload = Fraction(payload)
        if payload.denominator % self.p == 0:
            raise ValueError(
                f"{payload} has denominator divisible by {self.p}; "
                f"not an element of {self.spec_string()}"
            )
        return Element(self, payload)

    def from_int(self, v):
        return Element(self, Fraction(v))

    def add(self, a, b):
        self._guard(a, b)
        return Element(self, a.payload + b.payload)

    def neg(self, a):
        self._guard(a)
        return Element(self, -a.payload)

    def mul(self, a, b):
        self._guard(a, b)
        return Element(self, a.payload * b.payload)

    def is_unit(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload.numerator % self.p != 0

    def in_radical(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        return a.payload.numerator % self.p == 0

    def invert(self, a):
        self._guard(a)
        if not self.is_unit(a):
            raise NotAUnit(f"{a.payload} is not a unit in {self.spec_string()}")
        return Element(self, 1 / a.payload)

    def _make_residue_view(self):
        field = make_ring(galois_field(self.p, 1))
        p = self.p

        def reduce_fn(a):
            self._guard(a)
            num = a.payload.numerator % p
            den = a.payload.denominator % p
            return field.el((num * pow(den, -1, p) % p,))

        def lift_fn(c):
            field._guard(c)
            return Element(self, Fraction(c.payload[0]))

        return ResidueView(field, reduce_fn, lift_fn)

    def spec_string(self):
        return f"Zloc({self.p})"

    format_element = IntegerRing.format_element


# ---------------------------------------------------------------- finite rings


class FiniteRing(LocalRing):
    """Z/p^k, GF(p^m) and the truncations: one set of public ops over each
    subclass's index arithmetic _add_ix, _neg_ix, _mul_ix and _inv_ix, its
    numbering _ix (payload to index) and _pl (index to payload), and its
    residue rule: an element's residue is the digit of its index at place
    value _res_place in radix _res_radix, and that digit is the residue's
    index in _field, the residue field.  See the module docstring.  The
    default numbering is Z/p^k's, the residue itself."""

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

    def element_at(self, k):
        """The k-th element of the "All" order: the enumerated one when the
        ring has index tables, else built from k alone."""
        if not 0 <= k < self.size():
            raise IndexError(f"{self.spec_string()} has no element number {k}")
        t = self._tables
        return Element(self, self._pl(k)) if t is None else t.elements[k]

    def _direct(self, op, *els):
        """op on the operands' indices, above TABLE_CAP."""
        return Element(self, self._pl(op(*(self._ix(a.payload) for a in els))))

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
            i, j = t.index_of(a), t.index_of(b)
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
            i, j = t.index_of(a), t.index_of(b)
        at = i * t.size + j
        k = t.mul[at]
        if k == _EMPTY:
            k = t.mul[at] = self._mul_ix(i, j)
        return t.elements[k]

    def neg(self, a):
        if not (type(a) is Element and a.ring is self):
            self._guard(a)
        t = self._tables
        if t is None:
            return self._direct(self._neg_ix, a)
        i = a.idx
        if i is None:
            i = t.index_of(a)
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
            i = t.index_of(a)
        k = t.inv[i]
        if k == _EMPTY:  # _inv_ix raises NotAUnit for a non-unit
            k = t.inv[i] = self._inv_ix(i)
        return t.elements[k]

    def _index(self, a):
        """The index of an element with no idx: from the tables, which record
        it, or read off the payload."""
        t = self._tables
        return self._ix(a.payload) if t is None else t.index_of(a)

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
            k = c.idx
            return self.element_at((F._index(c) if k is None else k) * place)

        return ResidueView(F, reduce, lift)


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


# ---------------------------------------------------------------- Z/p^k


class ModPrimePowerRing(FiniteRing):
    family = "ModPrimePower"

    def __init__(self, spec):
        super().__init__(spec)
        self.p, self.k = spec.p, spec.k
        self.modulus = spec.p**spec.k
        # the residue is the last base-p digit
        self._field = make_ring(galois_field(spec.p, 1))
        self._res_place, self._res_radix = 1, spec.p
        self.zero = Element(self, 0)
        self.one = Element(self, 1 % self.modulus)

    def el(self, payload):
        if not isinstance(payload, int):
            raise ValueError(f"integer payload expected, got {payload!r}")
        return Element(self, payload % self.modulus)

    def from_int(self, v):
        return Element(self, v % self.modulus)

    def _add_ix(self, i, j):
        return (i + j) % self.modulus

    def _neg_ix(self, i):
        return -i % self.modulus

    def _mul_ix(self, i, j):
        return i * j % self.modulus

    def _inv_ix(self, i):
        if i % self.p == 0:
            raise NotAUnit(f"{i} is not a unit mod {self.modulus}")
        return pow(i, -1, self.modulus)

    def radical_index(self):
        return self.k

    def size(self):
        return self.modulus

    def spec_string(self):
        return f"Zmod({self.p},{self.k})"

    format_element = IntegerRing.format_element


# ---------------------------------------------------------------- GF(p^m)

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
    """First irreducible monic of degree m, counting coefficient vectors base p."""
    for idx in range(p**m):
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
        return Element(self, (v % self.p,) + (0,) * (self.m - 1))

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


# ---------------------------------------------------------------- truncations


class TruncatedRing(FiniteRing):
    """F[y]/(y^n) or F[x; sigma]/(x^n) with x*a = sigma(a)*x, sigma = Frobenius^s.

    Payload: tuple of n base-field payloads, constant coefficient first.
    Multiplication twists the right factor: (a_i x^i)(b_j x^j) = a_i sigma^i(b_j) x^(i+j),
    with powers at or beyond n discarded.  s = 0 gives the plain truncated
    polynomial ring (the two families then agree element-wise and operation-wise).
    """

    def __init__(self, spec, base, s):
        super().__init__(spec)
        self.family = spec.family
        self.base = base
        self.n = spec.n
        self.s = s
        self.var = "y" if spec.family == "TruncatedPoly" else "x"
        self.is_commutative = s % base.m == 0
        bz = base.zero.payload
        self.zero = Element(self, (bz,) * self.n)
        self.one = Element(self, (base.one.payload,) + (bz,) * (self.n - 1))
        # digits are base-field indices; sigma^i raises one to the power _pw[i]
        self._q = base.size()
        self._places = [self._q**e for e in range(self.n - 1, -1, -1)]
        self._pw = [base.p ** (s * i % base.m) for i in range(self.n)]
        # the residue is the constant coefficient, the leading digit
        self._field, self._res_place, self._res_radix = base, self._places[0], self._q

    def el(self, payload):
        payload = tuple(tuple(c) for c in payload)
        if len(payload) != self.n:
            raise ValueError(f"coefficient vector of length {self.n} expected")
        return Element(self, tuple(self.base.el(c).payload for c in payload))

    def from_int(self, v):
        return self.embed(self.base.from_int(v))

    def variable(self):
        if self.n < 2:
            raise ValueError(f"{self.spec_string()} truncates the variable to 0")
        bz = self.base.zero.payload
        return Element(self, (bz, self.base.one.payload) + (bz,) * (self.n - 2))

    def embed(self, c):
        """Constant embedding of a base-field element."""
        self.base._guard(c)
        bz = self.base.zero.payload
        return Element(self, (c.payload,) + (bz,) * (self.n - 1))

    def _ix(self, payload):
        return _fold(map(self.base._ix, payload), self._q)

    def _pl(self, k):
        return tuple(map(self.base._pl, _digits(k, self._q, self._places)))

    # an index's base-q digits list base-p coefficients too, so sums are digit-wise

    def _add_ix(self, i, j):
        return _digit_sum(i, j, self.base.p)

    def _neg_ix(self, i):
        return _digit_sum(0, i, self.base.p, -1)

    def _mul_ix(self, i, j):
        """The sum of a_u sigma^u(b_v) x^(u+v) over u + v < n, where sigma^u
        raises b_v to the power _pw[u], over the base field's index ops."""
        F, q, n, p = self.base, self._q, self.n, self.base.p
        a, b = _digits(i, q, self._places), _digits(j, q, self._places)
        out = [0] * n
        for u in range(n):
            x, e = a[u], self._pw[u]
            for v in range(n - u if x else 0):
                if b[v]:
                    out[u + v] = _digit_sum(out[u + v], F._mul_ix(x, b[v], e), p)
        return _fold(out, q)

    def _inv_ix(self, i):
        F, top = self.base, self._places[0]
        c = i // top  # the constant coefficient's index
        if not c:
            raise NotAUnit(f"constant term 0: not a unit in {self.spec_string()}")
        # i = c (1 + z) with z in the radical, so i^-1 = (1 - z + z^2 - ...) c^-1
        ci = F._inv_ix(c) * top
        z = self._mul_ix(ci, _digit_sum(i, c * top, F.p, -1))
        acc = term = F._one_ix * top
        for _ in range(1, self.n):
            term = self._neg_ix(self._mul_ix(term, z))
            acc = self._add_ix(acc, term)
        return self._mul_ix(acc, ci)

    def sigma(self, c, power=1):
        """The twist automorphism on base-field elements."""
        self.base._guard(c)
        return self.base.frobenius(c, (self.s * power) % self.base.m)

    def radical_index(self):
        return self.n

    def size(self):
        return self.base.size() ** self.n

    def spec_string(self):
        b = self.base.spec_string()
        if self.family == "TruncatedPoly":
            return f"Trunc({b},{self.n})"
        return f"SkewTrunc({b},{self.s},{self.n})"

    def format_element(self, a):
        base = self.base
        return _format_poly(
            a.payload,
            self.var,
            lambda c: base.format_element(base.el(c)),
            lambda c: not any(c),
            lambda c: base.el(c) == base.one,
        )


# ---------------------------------------------------------------- opposite


class OppositeRing(LocalRing):
    """Same element set as the wrapped ring, multiplication reversed."""

    def __init__(self, base):
        super().__init__(base.spec)
        self.base_ring = base
        self.element_ring = base
        self.family = base.family
        self.is_finite = base.is_finite
        self.is_commutative = base.is_commutative
        self.zero = base.zero
        self.one = base.one
        self._op_tables = None

    def el(self, payload):
        return self.base_ring.el(payload)

    def from_int(self, v):
        return self.base_ring.from_int(v)

    def add(self, a, b):
        return self.base_ring.add(a, b)

    def neg(self, a):
        return self.base_ring.neg(a)

    def mul(self, a, b):
        return self.base_ring.mul(b, a)

    def is_unit(self, a):
        return self.base_ring.is_unit(a)

    def in_radical(self, a):
        return self.base_ring.in_radical(a)

    def invert(self, a):
        # two-sided inverses agree with the base ring's
        return self.base_ring.invert(a)

    def residue_view(self):
        return self.base_ring.residue_view()

    def filled_tables(self):
        if self._op_tables is None:
            self._op_tables = self.base_ring.filled_tables().transposed()
        return self._op_tables

    def radical_index(self):
        return self.base_ring.radical_index()

    def size(self):
        return self.base_ring.size()

    def enumerate_elements(self, subset="All"):
        return self.base_ring.enumerate_elements(subset)

    def opposite(self):
        return self.base_ring

    def spec_string(self):
        return f"op({self.base_ring.spec_string()})"

    def format_element(self, a):
        return self.base_ring.format_element(a)
