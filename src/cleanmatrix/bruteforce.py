"""Brute-force ground truth on small finite rings.

Everything here runs on int-indexed operation tables, the ring's own fully
filled IndexTables, and shares no logic with the decision modules: kernels
are counted by meeting the two columns, idempotents are listed in rank-one
form and each checked by E E = E, and the pi-regular check walks the kernel
chain of the powers.  The only decision-module code the oracle touches is
verify_certificate, applied to its own output as a final cross-check.

(x, y) lies in the kernel of [[a, b], [c, d]] exactly when
(a x, c x) = (-(b y), -(d y)), so one pass over x counts the left sides and
one pass over y adds up the counts of the right sides: |ker| in 2|R| steps,
and the matrix is invertible exactly when |ker| = 1.

Over a local ring R each idempotent E of M_2(R) other than 0 and I is a
column u times a row phi with phi u = 1: its image is a free direct summand
of rank one (an idempotent with entries in J is 0), with a generator u unique
up to a unit on the right.  So exactly one u is (1, a), a in R, or (b, 1),
b in J, and then phi = (1 - f a, f) or (f, 1 - f b), f in R: every idempotent
once, 2 + |R|^2 (1 + 1/q) in all (q = |R/J|), and u (phi u) phi = u phi
needs no commutativity.

R^2 = ker(A^n) (+) im(A^n) for the least n >= 1 with |ker A^n| = |ker A^(n+1)|:
- the kernels are nested, and constant from the first n with
  ker A^n = ker A^(n+1); so the sizes agree at n exactly when
  ker A^n = ker A^(2n);
- that holds exactly when ker A^n meets im A^n in 0, since A^n v lies in
  ker A^n exactly when v lies in ker A^(2n);
- |ker A^n| |im A^n| = |R|^2 for a map of additive groups, so a zero meet
  makes ker A^n + im A^n all of R^2.
Each strict step of the chain at least doubles the kernel, so it stops
within log2 |R|^2 steps.
"""

from .clean import CleanCertificate, verify_certificate
from .errors import InternalContractViolation, TooLarge
from .matrices import Mat2

ORACLE_CAP = 256  # largest ring the oracles take
_TABLE_CACHE = {}


class _Tables:
    def __init__(self, R):
        tables = R.filled_tables()
        self.ring = R
        self.tables = tables
        self.elements = tables.elements
        self.size = tables.size
        self.add = tables.add
        self.mul = tables.mul
        self.neg = tables.neg
        self.zero = tables.index_of(R.zero)
        self.one = tables.index_of(R.one)
        self.radical = [i for i, x in enumerate(self.elements) if R.in_radical(x)]
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


def _kernel_size(tab, m):
    """|ker m| on R^2, by the counted meet of the module docstring."""
    n = tab.size
    mul = tab.mul
    neg = tab.neg
    a, b, c, d = m
    an, bn, cn, dn = a * n, b * n, c * n, d * n
    counts = {}
    for x in range(n):
        key = mul[an + x] * n + mul[cn + x]
        counts[key] = counts.get(key, 0) + 1
    size = 0
    for y in range(n):
        size += counts.get(neg[mul[bn + y]] * n + neg[mul[dn + y]], 0)
    return size


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
        if _kernel_size(tab, u) != 1:
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
    """Smallest n with R^2 = ker(A^n) (+) im(A^n): the first n at which the
    kernel chain of the module docstring stops growing."""
    tab = _tables(A.ring)
    n = tab.size
    mul = tab.mul
    add = tab.add
    a, b, c, d = m = tab.matrix_indices(A)
    kernel = _kernel_size(tab, m)
    for power in range(1, (n * n).bit_length() + 1):
        ma, mb, mc, md = m
        m = (
            add[mul[ma * n + a] * n + mul[mb * n + c]],
            add[mul[ma * n + b] * n + mul[mb * n + d]],
            add[mul[mc * n + a] * n + mul[md * n + c]],
            add[mul[mc * n + b] * n + mul[md * n + d]],
        )
        previous, kernel = kernel, _kernel_size(tab, m)
        if kernel == previous:
            return power
    raise InternalContractViolation("kernel chain grew past log2 |R|^2 steps")
