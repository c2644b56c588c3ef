"""Z/p^k: the payload is the residue in [0, p^k), which is also its index."""

from .errors import NotAUnit
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
            raise NotAUnit(f"{i} is not a unit mod {self.modulus}")
        return pow(i, -1, self.modulus)

    def radical_index(self):
        return self.k

    def size(self):
        return self.modulus

    def spec_string(self):
        return f"Zmod({self.p},{self.k})"

    format_element = IntegerRing.format_element
