"""The truncations F[y]/(y^n) and F[x; sigma]/(x^n) over a Galois field F."""

from .errors import NotAUnit
from .galois import _digit_sum, _digits, _fold, _format_poly
from .rings import Element, FiniteRing


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
        """Constant embedding of a base-field element: the enumerated element
        where there are tables."""
        F = self.base
        if not (type(c) is Element and c.ring is F):
            F._guard(c)
        t = self._tables
        if t is None:
            return Element(self, (c.payload,) + (F.zero.payload,) * (self.n - 1))
        k = c.idx
        return t.elements[(F._index(c) if k is None else k) * self._places[0]]

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
