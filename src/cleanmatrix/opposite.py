"""The opposite of a ring: the same elements, multiplication reversed."""

from .rings import LocalRing


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

    def dot(self, a, b, c, d):
        return self.base_ring.dot(b, a, d, c)

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
