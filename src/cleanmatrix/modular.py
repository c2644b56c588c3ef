"""Z/p^k: the payload is the residue in [0, p^k), which is also its index.

So the radical J = pZ/p^kZ is the multiples of p, in index order the ring's
"Radical" enumeration, and radical_root scans it for a root of a quadratic
in integer arithmetic on the coefficients' payloads, building no Element per
candidate and no enumeration tuple.

newton_root lifts a simple residue root in the same integer arithmetic, by
Newton's step lam <- lam - f(lam) f'(lam)^-1 with f'(t) = 2 t + a1.  If
f(lam) = 0 mod p^e and f'(lam) is a unit, then f(lam - f(lam) y) =
f(lam) (1 - f'(lam) y) mod p^2e, so y need only invert f'(lam) mod p^e and
the step doubles the precision; f'(lam) keeps its residue, so it stays a
unit.  From a root mod p, ceil(log2 k) steps reach a root mod p^k.
"""

from .errors import InternalContractViolation, NotAUnit
from .rings import Element, FiniteRing, IntegerRing, galois_field, make_ring


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
        """The constant v: the enumerated element where there are tables."""
        t = self._tables
        v %= self.modulus
        return Element(self, v) if t is None else t.elements[v]

    def _add_ix(self, i, j):
        return (i + j) % self.modulus

    def _neg_ix(self, i):
        return -i % self.modulus

    def _mul_ix(self, i, j):
        return i * j % self.modulus

    def _inv_ix(self, i):
        if i % self.p == 0:
            raise NotAUnit(f"a multiple of {self.p} is not a unit in {self.spec_string()}")
        return pow(i, -1, self.modulus)

    def radical_root(self, a1, a0):
        """The first lam in J, in the "Radical" order 0, p, 2p, ..., with
        lam (lam + a1) + a0 = 0, or None: the J root find_roots_enumerate
        returns, computed on payloads.  TooLarge above ENUM_CAP, as that scan."""
        m = self.enumerable_size()
        self._guard(a1, a0)
        b1, b0 = a1.payload, a0.payload
        for lam in range(0, m, self.p):
            if (lam * (lam + b1) + b0) % m == 0:
                return self.element_at(lam)
        return None

    def newton_root(self, a1, a0, start):
        """The root of t^2 + a1 t + a0 congruent to `start` mod p, by Newton's
        step on payloads (see the module docstring), for a start that is a
        simple root mod p.  InternalContractViolation when it is not, or when
        ceil(log2 k) + 1 steps leave f(lam) nonzero."""
        self._guard(a1, a0, start)
        p, m = self.p, self.modulus
        b1, b0, lam = a1.payload, a0.payload, start.payload
        val = (lam * (lam + b1) + b0) % m
        if val % p or (2 * lam + b1) % p == 0:
            raise InternalContractViolation("start is not a simple root mod p")
        bound = (self.k - 1).bit_length() + 1
        q, steps = p, 0  # f(lam) = 0 mod q
        while val:
            if steps == bound:
                raise InternalContractViolation(
                    f"f(lam) is still nonzero after {bound} Newton steps"
                )
            lam = (lam - val * pow(2 * lam + b1, -1, q)) % m
            q, steps = min(q * q, m), steps + 1
            val = (lam * (lam + b1) + b0) % m
        return self.element_at(lam)

    def radical_index(self):
        return self.k

    def size(self):
        return self.modulus

    def spec_string(self):
        return f"Zmod({self.p},{self.k})"

    format_element = IntegerRing.format_element
