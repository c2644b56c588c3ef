"""Brute-force ground truth on small finite rings.

Everything here runs on int-indexed operation tables, the ring's own fully
filled IndexTables, and shares no logic with the decision modules:
invertibility is a kernel scan over all of R^2, idempotents are listed in
rank-one form and each checked by E E = E, and the pi-regular check
recomputes kernel and image sets power by power.  The only decision-module
code the oracle touches is verify_certificate, applied to its own output as
a final cross-check.

Over a local ring R each idempotent E of M_2(R) other than 0 and I is a
column u times a row phi with phi u = 1: its image is a free direct summand
of rank one (an idempotent with entries in J is 0), with a generator u unique
up to a unit on the right.  So exactly one u is (1, a), a in R, or (b, 1),
b in J, and then phi = (1 - f a, f) or (f, 1 - f b), f in R: every idempotent
once, 2 + |R|^2 (1 + 1/q) in all (q = |R/J|), and u (phi u) phi = u phi
needs no commutativity.
"""

from .clean import CleanCertificate, verify_certificate
from .errors import InternalContractViolation, TooLarge
from .matrices import Mat2

ORACLE_CAP = 256  # largest ring the oracles take
_TABLE_CACHE = {}


class _Tables:
    def __init__(self, R):
        tables = R.filled_tables()
        size = tables.size
        self.ring = R
        self.tables = tables
        self.elements = tables.elements
        self.size = size
        self.add = tables.add
        self.mul = tables.mul
        self.neg = tables.neg
        self.zero = tables.index_of(R.zero)
        self.one = tables.index_of(R.one)
        self.radical = [i for i, x in enumerate(self.elements) if R.in_radical(x)]
        self.vectors = [(x, y) for x in range(size) for y in range(size)]
        self.idempotents = None  # filled lazily

    def matrix_indices(self, A):
        return tuple(self.tables.index_of(e) for e in A.entries())


def _tables(R):
    if not R.is_finite:
        raise TooLarge("brute-force oracle needs a finite ring")
    if R.size() > ORACLE_CAP:
        raise TooLarge(f"ring has {R.size_text()} elements, oracle cap is {ORACLE_CAP}")
    key = R.spec_string()
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    tab = _Tables(R)
    _TABLE_CACHE[key] = tab
    return tab


def _idempotent_indices(tab):
    """Every idempotent as an index quadruple, in sorted order: 0, I and each
    u phi of the module docstring, each checked by E E = E."""
    if tab.idempotents is not None:
        return tab.idempotents
    n = tab.size
    mul = tab.mul
    add = tab.add
    neg = tab.neg
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
    if len(found) != len(candidates):
        raise InternalContractViolation("rank-one idempotents repeat")
    for a, b, c, d in found:
        if not (
            add[mul[a * n + a] * n + mul[b * n + c]] == a
            and add[mul[a * n + b] * n + mul[b * n + d]] == b
            and add[mul[c * n + a] * n + mul[d * n + c]] == c
            and add[mul[c * n + b] * n + mul[d * n + d]] == d
        ):
            raise InternalContractViolation("rank-one candidate is not idempotent")
    tab.idempotents = found
    return found


def enumerate_idempotents(R):
    tab = _tables(R)
    els = tab.elements
    return [
        Mat2(R, els[a], els[b], els[c], els[d])
        for a, b, c, d in _idempotent_indices(tab)
    ]


def _is_invertible_kernel_scan(tab, m):
    """No nonzero kernel vector over the whole finite module R^2."""
    n = tab.size
    mul = tab.mul
    add = tab.add
    zero = tab.zero
    a, b, c, d = m
    for x, y in tab.vectors:
        if x == zero and y == zero:
            continue
        if (
            add[mul[a * n + x] * n + mul[b * n + y]] == zero
            and add[mul[c * n + x] * n + mul[d * n + y]] == zero
        ):
            return False
    return True


def brute_clean(A: Mat2):
    """First idempotent (scan order) giving a verified clean decomposition."""
    R = A.ring
    tab = _tables(R)
    n = tab.size
    mul = tab.mul
    add = tab.add
    neg = tab.neg
    a, b, c, d = tab.matrix_indices(A)
    for ea, eb, ec, ed in _idempotent_indices(tab):
        # commute check: E*A == A*E entrywise
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
        u = (
            add[a * n + neg[ea]],
            add[b * n + neg[eb]],
            add[c * n + neg[ec]],
            add[d * n + neg[ed]],
        )
        if not _is_invertible_kernel_scan(tab, u):
            continue
        els = tab.elements
        E = Mat2(R, els[ea], els[eb], els[ec], els[ed])
        U = Mat2(R, els[u[0]], els[u[1]], els[u[2]], els[u[3]])
        cert = CleanCertificate(E=E, U=U)
        if not verify_certificate(A, cert):
            raise InternalContractViolation("oracle certificate fails verification")
        return cert
    return None


def brute_pi(A: Mat2):
    """Smallest n with R^2 = ker(A^n) (+) im(A^n), or None; set arithmetic
    over int-indexed vectors, sharing nothing with the pi decider."""
    R = A.ring
    tab = _tables(R)
    n = tab.size
    mul = tab.mul
    add = tab.add
    zero = tab.zero
    a, b, c, d = tab.matrix_indices(A)
    m = (a, b, c, d)
    prev = None
    for power in range(1, n * n + 1):
        ma, mb, mc, md = m
        ker = set()
        im = set()
        for x, y in tab.vectors:
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
